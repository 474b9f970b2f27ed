"""Independent reference constructions used to cross-check the kernels.

Everything here deliberately takes the slow road: dense Kronecker-product
operators, per-basis-index loops, explicit product-state searches. None
of it shares code with the strided kernels it checks.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np

from qsim import engine
from qsim.circuit import (Circuit, Cnot, DeviceModel, Gate1, MeasureZ, Violation,
                          ViolationCode, _is_int)
from qsim.gates import GateKind, matrix_of
from qsim.measure import _PROB_FLOOR, Histogram, marginal, probabilities

SINGLE_KINDS = tuple(GateKind)


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


def cnot_swap_by_axes(tensor: np.ndarray, control_axis: int, target_axis: int) -> None:
    """The swap cx makes, indexed on the (2,) * wires tensor of a register:
    the target-bit halves of the control = 1 slice trade places, in place."""
    idx = [slice(None)] * tensor.ndim
    idx[control_axis] = 1
    idx[target_axis] = 0
    lo = tuple(idx)
    idx[target_axis] = 1
    hi = tuple(idx)
    tmp = tensor[lo].copy()
    tensor[lo] = tensor[hi]
    tensor[hi] = tmp


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


@contextmanager
def engine_calls(name: str, arg: int):
    """Spy on engine.<name> (the unchecked kernel `_apply_1q` or
    `_apply_cnot`, or `decohere`) and yield the list of its calls as
    (circuit wire, call args). engine.run passes buffer
    positions: argument `arg` indexes the wires that engine.embed placed
    last, ascending, or every wire when nothing was placed yet (a run
    from an initial state)."""
    calls, placed = [], [None]
    embed, target = engine.embed, getattr(engine, name)

    def spy_embed(state, wires, new_wires):
        placed[0] = list(new_wires)
        return embed(state, wires, new_wires)

    def spy(*args, **kwargs):
        p = args[arg]
        calls.append((p if placed[0] is None else placed[0][p], args))
        return target(*args, **kwargs)

    with mock.patch.object(engine, "embed", side_effect=spy_embed), \
            mock.patch.object(engine, name, side_effect=spy):
        yield calls


def validate_reference(circuit: Circuit, device: DeviceModel | None = None) -> list[Violation]:
    """circuit.validate as one generic loop, with no fast path: every
    instruction's `qubits` tuple, isinstance tests and measured-set scan
    in full. The same findings, in the same order."""
    found: list[Violation] = []
    measured: set[int] = set()
    for idx, instr in enumerate(circuit.instrs):
        wires = []
        for q in instr.qubits:
            if _is_int(q) and 0 <= q < circuit.num_qubits:
                wires.append(q)
            else:
                found.append(Violation(
                    idx, ViolationCode.QUBIT_OUT_OF_RANGE,
                    f"q{q} out of range for {circuit.num_qubits}-qubit circuit",
                ))
        if isinstance(instr, Gate1) and not isinstance(instr.kind, GateKind):
            found.append(Violation(
                idx, ViolationCode.UNKNOWN_GATE,
                f"unknown gate kind {instr.kind!r}",
            ))
        is_gate = isinstance(instr, (Gate1, Cnot))
        for q in wires:
            if q in measured:
                found.append(Violation(
                    idx, ViolationCode.GATE_AFTER_MEASURE,
                    f"gate on q{q} after its measurement" if is_gate
                    else f"q{q} measured twice",
                ))
        if not is_gate:
            measured.update(wires)
        if device is not None:
            for q in wires:
                if q >= device.num_qubits:
                    found.append(Violation(
                        idx, ViolationCode.QUBIT_OUT_OF_RANGE,
                        f"q{q} not present on {device.num_qubits}-qubit "
                        f"device '{device.name}'",
                    ))
            # only a target that passed the wire check above
            if (isinstance(instr, Cnot) and instr.target in wires
                    and instr.target not in device.allowed_cnot_targets):
                allowed = ",".join(f"q{t}" for t in sorted(device.allowed_cnot_targets))
                found.append(Violation(
                    idx, ViolationCode.CNOT_TARGET_FORBIDDEN,
                    f"cx may not target q{instr.target} on '{device.name}' "
                    f"(allowed targets: {allowed})",
                ))
    if device is not None and circuit.num_qubits > device.num_qubits:
        found.append(Violation(
            len(circuit.instrs), ViolationCode.QUBIT_OUT_OF_RANGE,
            f"{circuit.num_qubits}-qubit register does not fit {device.num_qubits}-qubit "
            f"device '{device.name}'",
        ))
    if not measured:
        found.append(Violation(
            len(circuit.instrs), ViolationCode.NO_MEASUREMENT,
            "circuit has no measurement",
        ))
    return found


def marginal_brute_force(weights: np.ndarray, n: int, measured: list[int]) -> dict[str, float]:
    """Accumulate basis-index weights key by key, one index at a time."""
    qs = sorted(measured)
    out: dict[str, float] = {}
    for i, w in enumerate(weights):
        key = "".join(str((i >> (n - 1 - q)) & 1) for q in qs)
        out[key] = out.get(key, 0.0) + float(w)
    return out


def probabilities_by_format(state, measured) -> dict[str, float]:
    """The probability map built key by key: `format` each marginal index
    whose weight reaches the floor, in index order."""
    width = len(measured)
    return {format(i, f"0{width}b"): float(p)
            for i, p in enumerate(marginal(state, measured)) if p >= _PROB_FLOOR}


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


def random_phase_unitary(rng, anti: bool) -> np.ndarray:
    """A random diagonal unitary diag(p, r), or the anti-diagonal
    [[0, p], [r, 0]] when `anti`, with p and r random unit phases."""
    p, r = np.exp(2j * np.pi * rng.random(2))
    return np.array([[0, p], [r, 0]] if anti else [[p, 0], [0, r]], dtype=complex)


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


def teleport_branches_dense(rho: np.ndarray, psi_in: np.ndarray,
                            fixups: dict[str, tuple[GateKind, ...]]) -> dict[str, tuple[float, float]]:
    """Outcome mn -> (weight, fidelity) of an 8x8 teleport state: P = |mn><mn| x I
    post-selects the sender bits, sigma = Tr_01(P rho P) by reshape and einsum,
    and fidelity = <psi| F sigma F^dagger |psi> / tr sigma with F the fix-up."""
    out = {}
    for key, gates in fixups.items():
        ket = np.zeros(4)
        ket[int(key, 2)] = 1.0
        proj = np.kron(np.outer(ket, ket), np.eye(2))
        sigma = np.einsum("aiaj->ij", (proj @ rho @ proj).reshape(4, 2, 4, 2))
        fix = np.eye(2, dtype=complex)
        for g in gates:
            fix = matrix_of(g) @ fix
        weight = float(np.trace(sigma).real)
        fidelity = float((psi_in.conj() @ fix @ sigma @ fix.conj().T @ psi_in).real) / weight
        out[key] = (weight, fidelity)
    return out


def phase_insensitive_overlap(u: np.ndarray, v: np.ndarray) -> float:
    """|<u|v>| for unit vectors; 1 means equal up to a global phase."""
    return float(abs(np.vdot(u, v)))
