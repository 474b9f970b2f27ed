"""State containers and in-place gate-application kernels.

Bit ordering convention, used everywhere in the package: qubit 0 is the
most significant bit of a basis index, matching top-to-bottom wire order
in a circuit file. Basis state |q0 q1 ... q(n-1)> therefore lives at
amplitude index q0*2^(n-1) + q1*2^(n-2) + ... + q(n-1), and output
bitstrings read left to right as q0, q1, ...

Gates are applied by strided pair updates over a state's flat buffer,
never by building the dense 2^n x 2^n operator (a test-oracle-only
construction). Every single-qubit gate of the set is diagonal,
anti-diagonal or the Hadamard, and engine.run keeps each gate's leading
entry and each h's 1/√2 in one register-wide scalar, so the update has
a kernel for each of the four shapes run passes: diag(1, d) scales one
half, [[0, 1], [c, 0]] swaps the halves, and the unscaled Hadamard
[[1, 1], [1, -1]] and [[1, x], [1, -x]] (H·diag(1, x) times √2) are
butterflies of three ops, none of them a multiply when x == 1. Any other
matrix, which only the public apply_1q passes, takes the dense formula.
On the lowest wires the halves are walked transposed, so the inner loops
stay long. Most of the rest of a middle wire's extra cost is numpy's
ufunc buffer: a strided half is copied through it, and with the default
8192 elements a gate on wires 4-8 of a 16-wire register costs 2-3x as
much as on wire 0. engine.run runs its gate loop under a 256-element
buffer, which removes that step. cx swaps two quarters over the
(pre, 2, mid, 2, post) view of its wires; when post is 2, 4 or 8, each
run of post amplitudes is copied as one void item, so the copy's inner
loop runs along mid. A state is a plain class that reads its size from
its buffer, (2^n,) or (2^n, 2^n), and compares by identity. `_register`,
the kind check of a function that takes either kind, refuses a non-state
and reads a density matrix as the 2n-wire register of its buffer, so both
processors run the same gate kernels; `circuit._expect` is the kind and
size check of a function that takes one kind. engine.run defers
diagonal and anti-diagonal gates and the real processor's noise slots,
and applies them lazily. The public apply_1q and apply_cnot check their
matrix and wires, then call the unchecked `_apply_1q` (2x2 entries as
Python numbers) and `_apply_cnot`, which engine.run, having validated
the circuit and computed buffer positions itself, calls directly.

engine.run also keeps only the wires that have left |0> in its buffer.
`embed(state, wires, new_wires)` widens a state held on the ascending
wire labels `wires` to the superset `new_wires`, with |0> on each added
wire: it allocates zeros and assigns the old buffer to one strided
slice, so the bit order above holds within the buffer, among its wires.

One rule bounds a register, `check_capacity`: an integer count of
`circuit.MAX_QUBITS` wires (16, the most `parse` accepts) or fewer on the
statevector engine, 10 on the density one. A fresh register,
`from_amplitudes`, `to_density` and engine.run's `initial` are refused
through it.
"""

from __future__ import annotations

import numpy as np

from .circuit import MAX_QUBITS, _expect, _is_int
from .errors import CapacityError

MAX_DENSITY_QUBITS = 10


def _wires(buf: np.ndarray, axes: int) -> int:
    """n of a buffer of shape (2^n,) * axes, any n >= 0; another shape is refused."""
    n = max(buf.size.bit_length() - 1, 0) // axes
    if buf.shape != (1 << n,) * axes:
        raise ValueError(f"buffer of shape {buf.shape} is not (2^n,) * {axes}")
    return n


class PureState:
    """Statevector over 2^n basis states (complex128), n = num_qubits read from its length."""

    def __init__(self, amps):
        self.amps = np.ascontiguousarray(amps, dtype=complex)
        self.num_qubits = _wires(self.amps, 1)

    @classmethod
    def from_amplitudes(cls, amps) -> "PureState":
        """Build a state from a raw vector of 2^n complex amplitudes, which
        must fit the statevector engine and already have unit norm."""
        state = cls(amps)
        check_capacity(cls, state.num_qubits)
        norm = state.norm()
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"amplitudes are not normalized (norm {norm})")
        return state

    def copy(self) -> "PureState":
        return PureState(self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def to_density(self) -> "DensityMatrix":
        check_capacity(DensityMatrix, self.num_qubits)
        return DensityMatrix(np.outer(self.amps, self.amps.conj()))


class DensityMatrix:
    """2^n x 2^n density operator (complex128), n = num_qubits read from its shape."""

    def __init__(self, mat):
        self.mat = np.ascontiguousarray(mat, dtype=complex)
        self.num_qubits = _wires(self.mat, 2)

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.mat.copy())

    def trace(self) -> float:
        return float(np.trace(self.mat).real)


def check_capacity(kind: type, num_qubits: int) -> None:
    """Refuse a register of `num_qubits` wires that the engine holding
    `kind` (PureState or DensityMatrix) cannot run."""
    limit, engine = ((MAX_QUBITS, "statevector") if kind is PureState
                     else (MAX_DENSITY_QUBITS, "density"))
    if not (_is_int(num_qubits) and 1 <= num_qubits <= limit):
        raise CapacityError(
            f"{engine} engine supports 1..{limit} qubits, got {num_qubits}"
        )


def zero_state(num_qubits: int) -> PureState:
    """|0...0> on the given number of qubits."""
    check_capacity(PureState, num_qubits)
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = 1.0
    return PureState(amps)


def zero_density(num_qubits: int) -> DensityMatrix:
    """|0...0><0...0| on the given number of qubits."""
    check_capacity(DensityMatrix, num_qubits)
    dim = 1 << num_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    mat[0, 0] = 1.0
    return DensityMatrix(mat)


def _pair_update(flat: np.ndarray, m, pre: int, post: int) -> None:
    """In-place 2x2 update over the (pre, 2, post) striding of `flat`.

    m is given as its rows of Python numbers, ((a, b), (c, d)). There is
    one kernel for each shape engine.run passes:

    - diag(1, d): bot times d in place, and nothing for d == 1;
    - [[0, 1], [c, 0]]: the halves swap, top times c on the way, and a
      c of 1 is a plain copy;
    - [[1, 1], [1, -1]]: top - bot into scratch, top + bot in place, and
      the scratch copied back;
    - [[1, x], [1, -x]]: bot·x into scratch, top - scratch into bot, and
      top + scratch into top.

    Any other matrix takes the dense formula: one copy of the top half
    plus one scratch buffer. The four kernels differ from it in signed
    zeros alone.

    On a low wire (post < 16) the halves are walked as their transposed
    (post, pre) views in C order, so every ufunc's inner loop runs over
    the long pre axis instead of a run of 2 to 8 elements.
    """
    view = flat.reshape(pre, 2, post)
    top, bot = view[:, 0, :], view[:, 1, :]
    if post < 16 and pre > post:
        top, bot = top.T, bot.T
    (a, b), (c, d) = m
    if a == 1 and b == c == 0:
        if d != 1:
            np.multiply(bot, d, out=bot, order="C")
        return
    if a == d == 0 and b == 1:
        saved = top.copy() if c == 1 else np.multiply(top, c, order="C")
        top[...] = bot
        bot[...] = saved
        return
    if a == b == c == -d == 1:
        diff = np.subtract(top, bot, order="C")
        np.add(top, bot, out=top, order="C")
        bot[...] = diff
        return
    if a == c == 1 and b == -d:
        scratch = np.multiply(bot, b, order="C")
        np.subtract(top, scratch, out=bot, order="C")
        np.add(top, scratch, out=top, order="C")
        return
    saved = top.copy()
    scratch = np.multiply(bot, b, order="C")
    np.multiply(saved, a, out=top, order="C")
    np.add(top, scratch, out=top, order="C")
    np.multiply(bot, d, out=bot, order="C")
    np.multiply(saved, c, out=scratch, order="C")
    np.add(bot, scratch, out=bot, order="C")


def _check_qubit(state, q: int) -> None:
    _register(state)
    if not _is_int(q):
        raise ValueError(f"qubit indices must be integers, got {q!r}")
    if not 0 <= q < state.num_qubits:
        raise ValueError(f"qubit index {q} out of range for {state.num_qubits} qubits")


def _register(state) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """(flat buffer, wire count, wire offset of each gate copy); the kind check for either kind.
    rho is a 2n-wire register: U rho U† is U on wire q, then conj(U) on column wire n + q."""
    if isinstance(state, PureState):
        return state.amps, state.num_qubits, (0,)
    if isinstance(state, DensityMatrix):
        n = state.num_qubits
        return state.mat.reshape(-1), 2 * n, (0, n)
    raise TypeError(f"expected a PureState or DensityMatrix, got {type(state).__name__}")


def embed(state, wires, new_wires):
    """`state`, whose buffer holds `wires`, placed on `new_wires` with |0>
    on every wire of `new_wires` that `wires` lacks; a new state of the
    same kind. Both lists are ascending circuit wire labels, `wires` a
    subset of `new_wires`; a buffer position is an index into its list.

    It allocates zeros and assigns the old buffer to the one strided
    slice where every added wire is 0, on rows and columns of a density
    matrix alike, so the (2,) * wires view stays within numpy's 32 axes
    at both capacity caps.
    """
    flat, k, copies = _register(state)
    new_wires = list(new_wires)
    if list(wires) != [w for w in new_wires if w in wires] or len(wires) != k // len(copies):
        raise ValueError(f"cannot place the wires {list(wires)} of a "
                         f"{k // len(copies)}-wire buffer on {new_wires}")
    index = tuple(slice(None) if w in wires else 0 for w in new_wires) * len(copies)
    out = np.zeros((2,) * len(index), dtype=complex)
    out[index] = flat.reshape((2,) * k)
    dim = 1 << len(new_wires)
    return type(state)(out.reshape((dim,) * len(copies)))


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
    _check_qubit(state, q)
    return _apply_1q(state, u.tolist(), q)


def _apply_1q(state, m, q: int):
    """apply_1q without the checks or the array, as engine.run calls it:
    m is ((a, b), (c, d)) in Python numbers and q a buffer position, both
    already valid. On rho the column copy takes conj(m), each entry made
    a complex number and conjugated in Python."""
    flat, wires, copies = _register(state)
    for off in copies:
        if off:
            m = tuple(tuple(complex(e).conjugate() for e in row) for row in m)
        w = off + q
        _pair_update(flat, m, 1 << w, 1 << (wires - 1 - w))
    return state


def _cnot_swap(flat: np.ndarray, wires: int, control: int, target: int) -> None:
    """Swap the target-bit halves of the control = 1 slice, in place, over
    the (pre, 2, mid, 2, post) view of the register's two wires. A run of
    post = 2, 4 or 8 amplitudes is copied as one V{16*post} item, so the
    copy's inner loop runs along mid instead of along the short run; the
    bytes moved are the same."""
    lo, hi = sorted((control, target))
    post = 1 << (wires - 1 - hi)
    if 1 < post < 16:
        flat, post = flat.view(f"V{flat.itemsize * post}"), 1
    view = flat.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, post)
    one = view[:, 1, :, 1]
    zero = view[:, 1, :, 0] if control < target else view[:, 0, :, 1]
    saved = zero.copy()
    zero[...] = one
    one[...] = saved


def apply_cnot(state, control: int, target: int):
    """Apply CNOT (|c,t> -> |c, t XOR c>) to the designated wires, in place.

    Realized as a permutation of the control=1 slice, i.e. a swap of the
    target-bit halves, on both sides of a density matrix.
    """
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ValueError("cnot control and target must differ")
    return _apply_cnot(state, control, target)


def _apply_cnot(state, control: int, target: int):
    """apply_cnot without its checks: two distinct, valid buffer positions."""
    flat, wires, copies = _register(state)
    for off in copies:
        _cnot_swap(flat, wires, off + control, off + target)
    return state


def reduced_density_1q(state, q: int) -> np.ndarray:
    """2x2 reduced density matrix of wire q, for either state kind."""
    _check_qubit(state, q)
    flat, wires, copies = _register(state)
    tensor = flat.reshape((2,) * wires)
    if len(copies) == 1:  # psi: one gate copy
        v = np.moveaxis(tensor, q, 0).reshape(2, -1)
        return v @ v.conj().T
    n = state.num_qubits
    row = list(range(n))
    col = [n + k if k == q else k for k in range(n)]
    # copy: einsum may hand back a view when nothing gets traced (n == 1)
    return np.einsum(tensor, row + col).copy()


def is_separable(state: PureState, tol: float = 1e-9) -> bool:
    """Whether a two-qubit pure state factors into a product of one-qubit states.

    A normalized state a|00> + b|01> + c|10> + d|11> admits a product
    factorization exactly when the determinant ad - bc of its coefficient
    matrix vanishes; `tol` absorbs floating-point noise.
    """
    _expect(state, PureState, 2)
    a, b, c, d = state.amps
    return bool(abs(a * d - b * c) <= tol)
