"""Independent reference constructions used to cross-check the kernels.

Everything here deliberately takes the slow road: dense Kronecker-product
operators, per-basis-index loops, explicit product-state searches. None
of it shares code with the strided kernels it checks.
"""

from __future__ import annotations

import numpy as np

from qsim.circuit import Circuit, Cnot, Gate1, MeasureZ
from qsim.gates import GateKind, matrix_of
from qsim.measure import Histogram, probabilities

SINGLE_KINDS = tuple(g for g in GateKind if not g.is_two_qubit)


def lift_1q(u: np.ndarray, n: int, q: int) -> np.ndarray:
    """Dense I x ... x U x ... x I with U on wire q (qubit 0 = leftmost)."""
    op = np.eye(1, dtype=complex)
    for wire in range(n):
        op = np.kron(op, u if wire == q else np.eye(2, dtype=complex))
    return op


def lift_cnot(n: int, control: int, target: int) -> np.ndarray:
    """Dense CNOT as an explicit 2^n x 2^n permutation matrix."""
    dim = 1 << n
    op = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        c_bit = (i >> (n - 1 - control)) & 1
        j = i ^ (c_bit << (n - 1 - target))
        op[j, i] = 1.0
    return op


def apply_channel_dense(rho: np.ndarray, kraus_ops, n: int, q: int) -> np.ndarray:
    """Lift each Kraus operator to the full register and sum K rho K†."""
    out = np.zeros_like(rho)
    for k in kraus_ops:
        big = lift_1q(k, n, q)
        out += big @ rho @ big.conj().T
    return out


def evolve_dense(circuit: Circuit, start: np.ndarray, slot=()) -> np.ndarray:
    """Run a circuit by dense operators: a statevector `start` evolves as
    U psi, a density matrix as U rho U† followed, after every gate, by
    each (wire, Kraus operators) pair of `slot`. Markers are skipped."""
    n = circuit.num_qubits
    state = start
    for instr in circuit.instrs:
        if isinstance(instr, Gate1):
            big = lift_1q(matrix_of(instr.kind), n, instr.qubit)
        elif isinstance(instr, Cnot):
            big = lift_cnot(n, instr.control, instr.target)
        else:
            continue
        if state.ndim == 1:
            state = big @ state
            continue
        state = big @ state @ big.conj().T
        for q, ops in slot:
            state = apply_channel_dense(state, ops, n, q)
    return state


def marginal_brute_force(weights: np.ndarray, n: int, measured: list[int]) -> dict[str, float]:
    """Accumulate basis-index weights key by key, one index at a time."""
    qs = sorted(measured)
    out: dict[str, float] = {}
    for i, w in enumerate(weights):
        key = "".join(str((i >> (n - 1 - q)) & 1) for q in qs)
        out[key] = out.get(key, 0.0) + float(w)
    return out


def sample_by_keys(state, measured, shots: int, seed: int) -> Histogram:
    """Shot sampling through the probability map: sort its keys, rebuild
    the weight vector from the dict, renormalize, draw once."""
    probs = probabilities(state, measured)
    keys = sorted(probs)
    pvec = np.array([probs[k] for k in keys])
    pvec /= pvec.sum()
    drawn = np.random.default_rng(seed).multinomial(shots, pvec)
    counts = {k: int(c) for k, c in zip(keys, drawn) if c > 0}
    return Histogram(shots=shots, counts=counts, seed=seed)


def reduced_1q_brute_force(rho: np.ndarray, n: int, keep: int) -> np.ndarray:
    """Elementwise sum over the traced indices."""
    out = np.zeros((2, 2), dtype=complex)
    rest = n - 1
    others = [q for q in range(n) if q != keep]
    for a in (0, 1):
        for b in (0, 1):
            for env in range(1 << rest):
                i = a << (n - 1 - keep)
                j = b << (n - 1 - keep)
                for pos, q in enumerate(others):
                    bit = (env >> (rest - 1 - pos)) & 1
                    i |= bit << (n - 1 - q)
                    j |= bit << (n - 1 - q)
                out[a, b] += rho[i, j]
    return out


def product_fit_distance(vec: np.ndarray, samples: int, rng) -> float:
    """Distance from a two-qubit state to the closest of `samples` random
    product states: a brute-force check that entangled states sit at a
    positive distance from every product."""
    best = np.inf
    for _ in range(samples):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        prod = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        # optimize the free global phase before taking the distance
        phase = np.vdot(prod, vec)
        if abs(phase) > 0:
            prod = prod * (phase / abs(phase))
        best = min(best, float(np.linalg.norm(vec - prod)))
    return best


def separable_by_svd(vec: np.ndarray, tol: float = 1e-9) -> bool:
    """Product-state-fitting oracle: a two-qubit state is a product iff
    its 2x2 coefficient matrix has a vanishing second singular value."""
    sigma = np.linalg.svd(vec.reshape(2, 2), compute_uv=False)
    return float(sigma[1]) <= tol


def random_pure_vec(rng, n: int) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def random_density_mat(rng, n: int) -> np.ndarray:
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_circuit(rng, num_qubits: int, depth: int, cnot_weight: float = 0.25,
                   measure: bool = True) -> Circuit:
    instrs = []
    for _ in range(depth):
        if num_qubits >= 2 and rng.random() < cnot_weight:
            c, t = rng.choice(num_qubits, size=2, replace=False)
            instrs.append(Cnot(int(c), int(t)))
        else:
            kind = SINGLE_KINDS[int(rng.integers(len(SINGLE_KINDS)))]
            instrs.append(Gate1(kind, int(rng.integers(num_qubits))))
    if measure:
        instrs.extend(MeasureZ(q) for q in range(num_qubits))
    return Circuit(num_qubits, instrs)


def phase_insensitive_overlap(u: np.ndarray, v: np.ndarray) -> float:
    """|<u|v>| for unit vectors; 1 means equal up to a global phase."""
    return float(abs(np.vdot(u, v)))
