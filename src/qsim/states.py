"""State containers and in-place gate-application kernels.

Bit ordering convention, used everywhere in the package: qubit 0 is the
most significant bit of a basis index, matching top-to-bottom wire order
in a circuit file. Basis state |q0 q1 ... q(n-1)> therefore lives at
amplitude index q0*2^(n-1) + q1*2^(n-2) + ... + q(n-1), and output
bitstrings read left to right as q0, q1, ...

Gates are applied by strided pair updates over the amplitude (or density
matrix) buffer, never by building the dense 2^n x 2^n operator; the
dense construction exists only as a test oracle.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

MAX_PURE_QUBITS = 16
MAX_DENSITY_QUBITS = 10


@dataclass
class PureState:
    """Statevector over 2^num_qubits basis states (complex128)."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.ascontiguousarray(self.amps, dtype=complex)
        if self.amps.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"amplitude vector must have length 2^{self.num_qubits}"
            )

    @classmethod
    def from_amplitudes(cls, amps, *, normalize: bool = False) -> "PureState":
        """Build a state from a raw amplitude vector.

        Args:
            amps: sequence of 2^n complex amplitudes.
            normalize: rescale to unit norm instead of requiring it.
        """
        vec = np.ascontiguousarray(amps, dtype=complex)
        n = max(int(vec.size).bit_length() - 1, 0)
        if vec.size != 1 << n or not 1 <= n <= MAX_PURE_QUBITS:
            raise CapacityError(
                f"amplitude vector length must be 2^n with 1 <= n <= {MAX_PURE_QUBITS}"
            )
        norm = float(np.linalg.norm(vec))
        if normalize:
            if norm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            vec = vec / norm
        elif abs(norm - 1.0) > 1e-8:
            raise ValueError(f"amplitudes are not normalized (norm {norm})")
        return cls(n, vec)

    def copy(self) -> "PureState":
        return PureState(self.num_qubits, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def to_density(self) -> "DensityMatrix":
        if self.num_qubits > MAX_DENSITY_QUBITS:
            raise CapacityError(
                f"density matrices support at most {MAX_DENSITY_QUBITS} qubits"
            )
        return DensityMatrix(self.num_qubits, np.outer(self.amps, self.amps.conj()))


@dataclass
class DensityMatrix:
    """2^n x 2^n density operator (complex128)."""

    num_qubits: int
    mat: np.ndarray

    def __post_init__(self):
        self.mat = np.ascontiguousarray(self.mat, dtype=complex)
        dim = 1 << self.num_qubits
        if self.mat.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim}x{dim}")

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.num_qubits, self.mat.copy())

    def trace(self) -> float:
        return float(np.trace(self.mat).real)


def zero_state(num_qubits: int) -> PureState:
    """|0...0> on the given number of qubits."""
    if not 1 <= num_qubits <= MAX_PURE_QUBITS:
        raise CapacityError(
            f"statevector engine supports 1..{MAX_PURE_QUBITS} qubits, got {num_qubits}"
        )
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = 1.0
    return PureState(num_qubits, amps)


def zero_density(num_qubits: int) -> DensityMatrix:
    """|0...0><0...0| on the given number of qubits."""
    if not 1 <= num_qubits <= MAX_DENSITY_QUBITS:
        raise CapacityError(
            f"density engine supports 1..{MAX_DENSITY_QUBITS} qubits, got {num_qubits}"
        )
    dim = 1 << num_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    mat[0, 0] = 1.0
    return DensityMatrix(num_qubits, mat)


def _pair_update(flat: np.ndarray, m: np.ndarray, pre: int, post: int) -> None:
    """In-place 2x2 update over the (pre, 2, post) striding of `flat`."""
    view = flat.reshape(pre, 2, post)
    top = view[:, 0, :].copy()
    view[:, 0, :] = m[0, 0] * top + m[0, 1] * view[:, 1, :]
    view[:, 1, :] = m[1, 0] * top + m[1, 1] * view[:, 1, :]


def _apply_mat_pure(amps: np.ndarray, m: np.ndarray, n: int, q: int) -> None:
    _pair_update(amps, m, 1 << q, 1 << (n - 1 - q))


def _apply_mat_density(mat: np.ndarray, m: np.ndarray, n: int, q: int) -> None:
    """rho <- m rho m† on wire q (m need not be unitary)."""
    dim = 1 << n
    flat = mat.reshape(-1)
    _pair_update(flat, m, 1 << q, (1 << (n - 1 - q)) * dim)
    _pair_update(flat, m.conj(), dim * (1 << q), 1 << (n - 1 - q))


def _check_qubit(n: int, q: int) -> None:
    # runs per gate and per noise wire: plain ints skip the ~0.7 us ABC lookup
    if type(q) is not int and not isinstance(q, numbers.Integral):
        raise ValueError(f"qubit indices must be integers, got {q!r}")
    if not 0 <= q < n:
        raise ValueError(f"qubit index {q} out of range for {n} qubits")


def apply_1q(state, u: np.ndarray, q: int):
    """Apply a single-qubit unitary to wire q, in place.

    For a :class:`PureState` this computes (I ⊗ ... ⊗ U ⊗ ... ⊗ I)|psi>;
    for a :class:`DensityMatrix` it computes U rho U†. The update walks
    amplitude pairs with stride 2^(n-1-q) and never materializes the
    full operator.

    Args:
        state: PureState or DensityMatrix, modified in place.
        u: 2x2 matrix; expected unitary for physical evolution.
        q: target wire.

    Returns:
        The same state object, for chaining.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("single-qubit gate matrix must be 2x2")
    n = state.num_qubits
    _check_qubit(n, q)
    if isinstance(state, PureState):
        _apply_mat_pure(state.amps, u, n, q)
    elif isinstance(state, DensityMatrix):
        _apply_mat_density(state.mat, u, n, q)
    else:
        raise TypeError(f"cannot apply gates to {type(state).__name__}")
    return state


def _cnot_swap(tensor: np.ndarray, control_axis: int, target_axis: int) -> None:
    idx = [slice(None)] * tensor.ndim
    idx[control_axis] = 1
    idx[target_axis] = 0
    lo = tuple(idx)
    idx[target_axis] = 1
    hi = tuple(idx)
    tmp = tensor[lo].copy()
    tensor[lo] = tensor[hi]
    tensor[hi] = tmp


def apply_cnot(state, control: int, target: int):
    """Apply CNOT (|c,t> -> |c, t XOR c>) to the designated wires, in place.

    Realized as a permutation of the control=1 slice, i.e. a swap of the
    target-bit halves, on both sides of a density matrix.
    """
    n = state.num_qubits
    _check_qubit(n, control)
    _check_qubit(n, target)
    if control == target:
        raise ValueError("cnot control and target must differ")
    if isinstance(state, PureState):
        _cnot_swap(state.amps.reshape((2,) * n), control, target)
    elif isinstance(state, DensityMatrix):
        tensor = state.mat.reshape((2,) * (2 * n))
        _cnot_swap(tensor, control, target)
        _cnot_swap(tensor, n + control, n + target)
    else:
        raise TypeError(f"cannot apply gates to {type(state).__name__}")
    return state


def reduced_density_1q(state, q: int) -> np.ndarray:
    """2x2 reduced density matrix of wire q, for either state kind."""
    if isinstance(state, PureState):
        _check_qubit(state.num_qubits, q)
        v = np.moveaxis(state.amps.reshape((2,) * state.num_qubits), q, 0)
        v = v.reshape(2, -1)
        return v @ v.conj().T
    if isinstance(state, DensityMatrix):
        n = state.num_qubits
        _check_qubit(n, q)
        tensor = state.mat.reshape((2,) * (2 * n))
        row = list(range(n))
        col = [n + k if k == q else k for k in range(n)]
        # copy: einsum may hand back a view when nothing gets traced (n == 1)
        return np.einsum(tensor, row + col).copy()
    raise TypeError(f"cannot reduce {type(state).__name__}")


def is_separable(state: PureState, tol: float = 1e-9) -> bool:
    """Whether a two-qubit pure state factors into a product of one-qubit states.

    A normalized state a|00> + b|01> + c|10> + d|11> admits a product
    factorization exactly when the determinant ad - bc of its coefficient
    matrix vanishes; `tol` absorbs floating-point noise.
    """
    if not isinstance(state, PureState):
        raise ValueError(f"separability needs a PureState, got {type(state).__name__}")
    if state.num_qubits != 2:
        raise ValueError(f"separability needs a two-qubit state, got {state.num_qubits}")
    a, b, c, d = state.amps
    return bool(abs(a * d - b * c) <= tol)
