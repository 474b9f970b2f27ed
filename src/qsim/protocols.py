"""Bell states, the teleportation protocol (algebraic and circuit forms),
and the identity-gate decoherence sweep, both executed by engine's one
interpreter on either processor. Results are data: `cli` writes them as text.

Teleportation layout used throughout: the state to send is prepared on
wire 0, the entangled resource lives on wires 1 and 2, the sender's
basis-change-plus-measurement happens on wires 0 and 1, and the receiver
holds wire 2. A measurement outcome is written "mn" with m the wire-0
bit and n the wire-1 bit, matching histogram key order; the receiver's
fix-up for each outcome is an ordered Pauli list, applied left to right.
Every pure state here, Bell pair or protocol input, is a PureState.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .circuit import (MAX_SWEEP_POINTS, PROCESSORS, Circuit, Cnot, DeviceModel, Gate1,
                      MeasureZ, _expect, _is_int, default_device, validate)
from .engine import _evolve, run
from .errors import ValidationError
from .gates import _SQRT1_2, GateKind, matrix_of
from .measure import Histogram, probabilities, sample
from .noise import NoiseConfig, decohere
from .states import DensityMatrix, PureState, check_capacity


class BellIndex(NamedTuple):
    """Labels one of the four Bell states: n picks the bit pattern
    (|0n> + (-1)^m |1,1-n>)/sqrt(2), m the relative sign."""

    n: int
    m: int


def _bell_labels(idx: BellIndex) -> tuple[int, int]:
    """The (n, m) labels of a Bell index, a BellIndex or a plain pair."""
    n, m = idx
    if not (_is_int(n) and _is_int(m)) or n not in (0, 1) or m not in (0, 1):
        raise ValueError(f"Bell labels must be the integers 0 or 1, got {idx}")
    return n, m


def bell_state(idx: BellIndex) -> PureState:
    """The maximally entangled two-qubit state with the given labels."""
    n, m = _bell_labels(idx)
    vec = np.zeros(4, dtype=complex)
    vec[n] = _SQRT1_2                      # |0 n>
    vec[2 + (1 - n)] = (-1) ** m * _SQRT1_2  # |1 (1-n)>
    return PureState(vec)


def correction_for(channel: BellIndex, outcome: BellIndex) -> tuple[GateKind, ...]:
    """Receiver's Pauli fix-up, as a function of the shared resource.

    X is needed exactly when resource and outcome differ in the bit
    label n, Z when they differ in the sign label m; the list is in
    application order (X first). Only the channel-(0,0) and
    channel-(1,1) columns are standard tables; other channels follow
    the same rule and are verified numerically in the test suite.
    """
    (channel_n, channel_m), (outcome_n, outcome_m) = _bell_labels(channel), _bell_labels(outcome)
    correction: list[GateKind] = []
    if channel_n ^ outcome_n:
        correction.append(GateKind.X)
    if channel_m ^ outcome_m:
        correction.append(GateKind.Z)
    return tuple(correction)


def _apply_gates(gates: Sequence[GateKind], start: np.ndarray) -> np.ndarray:
    """Apply the single-qubit gate list, left to right, to a 2-vector or 2x2 matrix."""
    out = start
    for g in gates:
        out = matrix_of(g) @ out
    return out


def teleport_algebraic(
    input_state: PureState,
    channel: BellIndex,
    alice_outcome: BellIndex,
) -> tuple[PureState, tuple[GateKind, ...]]:
    """One branch of the measurement-based protocol, done by linear algebra.

    The sender holds the input qubit and one half of `channel`; a Bell
    measurement on her pair with result `alice_outcome` collapses the
    receiver's qubit. Returns that collapsed state (normalized, phase
    as it falls out of the projection) and the fix-up that restores the
    input up to a global phase. The input must be a normalized one-qubit
    state.
    """
    _expect(input_state, PureState, 1)
    psi = PureState.from_amplitudes(input_state.amps).amps
    resource = bell_state(channel).amps
    joint = np.kron(psi, resource)  # wires: sender-input, sender-half, receiver
    proj = bell_state(alice_outcome).amps.conj()
    bob = np.zeros(2, dtype=complex)
    for k in range(2):
        bob[k] = proj @ joint[k::2]  # contract the two sender wires
    bob /= np.linalg.norm(bob)  # 1/2 for every normalized input: each branch has weight 1/4
    return (
        PureState(bob),
        correction_for(channel, alice_outcome),
    )


def circuit_correction_table() -> dict[str, tuple[GateKind, ...]]:
    """Outcome -> fix-up map for the circuit protocol (resource (0,0)).

    Keys are the sender's measured bits "mn"; values are applied left
    to right on the receiver's wire.
    """
    table = {}
    for m in (0, 1):
        for n in (0, 1):
            table[f"{m}{n}"] = correction_for(BellIndex(0, 0), BellIndex(n, m))
    return table


def build_teleport_circuit(prep: Sequence[GateKind] = ()) -> Circuit:
    """Three-wire teleport circuit runnable on the packaged device.

    prep gates load the state to send on wire 0; H + CNOT entangle wires
    1 and 2 into the (0,0) resource; the sender's Bell measurement is
    realized as CNOT(0->2), H(0), then computational-basis measurements
    of wires 0 and 1. Pointing the CNOT at wire 2 keeps the circuit
    legal under the device's target restriction and acts identically to
    targeting wire 1 because the resource is maximally entangled.
    """
    for g in prep:
        if not isinstance(g, GateKind):
            raise ValueError(f"prep must contain single-qubit gates, got {g!r}")
    instrs: list = [Gate1(g, 0) for g in prep]
    instrs += [
        Gate1(GateKind.H, 1),
        Cnot(1, 2),
        Cnot(0, 2),
        Gate1(GateKind.H, 0),
        MeasureZ(0),
        MeasureZ(1),
    ]
    return Circuit(3, instrs, name="teleport")


class BranchReport(NamedTuple):
    """Post-selected analysis of one sender outcome."""

    outcome: str
    probability: float
    correction: tuple[GateKind, ...]
    fidelity: float


class TeleportResult(NamedTuple):
    """What run_teleport reports: the exact three-wire distribution, the
    sampled histogram (None when run in exact mode), and one analysis
    per sender outcome, in outcome order."""

    probabilities: dict[str, float]
    histogram: Histogram | None
    branches: list[BranchReport]


def run_teleport(
    prep: Sequence[GateKind],
    processor: str = "ideal",
    shots: int | None = 8192,
    seed: int = 0,
    device: DeviceModel | None = None,
) -> TeleportResult:
    """Teleport the prep state and analyze every measurement branch.

    The reported distribution covers all three wires (sender bits m, n
    and the receiver bit), so outcome keys are 3 bits wide. For each
    sender outcome the receiver's post-selected state is corrected per
    circuit_correction_table() and compared against the input. Both
    processors read the branch from the same 2x2 block of the three-wire
    density matrix, so the fidelity is <in| rho_corrected |in> on either.

    shots=None skips sampling and reports exact probabilities only.
    """
    state = run(build_teleport_circuit(prep), processor=processor, device=device)
    probs = probabilities(state, [0, 1, 2])
    hist = sample(state, [0, 1, 2], shots, seed) if shots is not None else None

    rho = state.to_density() if isinstance(state, PureState) else state
    psi_in = _apply_gates(prep, np.array([1.0, 0.0], dtype=complex))
    branches = []
    for outcome, correction in circuit_correction_table().items():
        fixup = _apply_gates(correction, np.eye(2, dtype=complex))
        base = int(outcome, 2) << 1  # the receiver's 2x2 block under sender bits "mn"
        block = rho.mat[base:base + 2, base:base + 2]
        weight = float(np.trace(block).real)
        if weight > 1e-12:
            block = block / weight
        corrected = fixup @ block @ fixup.conj().T
        fidelity = float(np.real(psi_in.conj() @ corrected @ psi_in))
        branches.append(BranchReport(outcome, weight, correction, fidelity))
    return TeleportResult(probabilities=probs, histogram=hist, branches=branches)


def decoherence_sweep(
    qubit: int,
    n_max: int,
    processor: str = "real",
    device: DeviceModel | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> list[tuple[int, float, float]]:
    """Probe one qubit's decay by idling it in superposition: a list of
    points (n, p0, p1), one per idle length n = 0..n_max in `id` gates,
    with n_max at most MAX_SWEEP_POINTS.

    Point n is the readout of [h q; id x n; measure q] on wires 0..q: Hadamard puts the
    wire at the equator, the identity line holds it there for n gate slots, and the
    readout records how far the population has drifted back toward |0>. That probe is
    validated, but only its wire q is evolved: wires 0..q-1 stay |0><0|, the slot's
    fixed point, and add exact zeros to the readout. The slot commutes with `id`, so
    engine.run applies all n + 1 slots at the circuit's end; here `h` runs once on one
    wire and each point applies the slots, at the rates device.qubits[q], to a copy of
    that 2x2 state, so a sweep costs O(n_max) on any wire. On the ideal engine every
    exact point has p0 = p1 = 0.4999999999999999, the gate table's rounded 1/√2
    squared; on the real engine p0 climbs toward 1 at the wire's relaxation rate.

    shots=None records exact probabilities; otherwise each point is
    sampled with its own derived seed (seed XOR n). On either processor
    the probe must pass validate() on the device, else ValidationError,
    and fit the processor's engine, else CapacityError.
    """
    if not _is_int(qubit) or qubit < 0:
        raise ValueError(f"qubit must be an integer >= 0, got {qubit!r}")
    if not _is_int(n_max) or n_max < 0:
        raise ValueError(f"n_max must be an integer >= 0, got {n_max!r}")
    if n_max > MAX_SWEEP_POINTS:
        raise ValueError(f"n_max is capped at {MAX_SWEEP_POINTS}, got {n_max}")
    if device is None:
        device = default_device()

    probe = Circuit(qubit + 1, [Gate1(GateKind.H, qubit), MeasureZ(qubit)])
    findings = validate(probe, device)  # the device's rules, on either processor
    if findings:
        raise ValidationError(findings, probe)
    if processor not in PROCESSORS:
        raise ValueError(f"processor must be one of {PROCESSORS}, got {processor!r}")
    real = processor == "real"
    check_capacity(DensityMatrix if real else PureState, probe.num_qubits)
    equator = _evolve(Circuit(1, [Gate1(GateKind.H, 0)]), processor, device,
                      NoiseConfig(device, enabled=False))
    points = []
    for n in range(n_max + 1):
        state = decohere(equator.copy(), 0, *device.qubits[qubit], slots=n + 1) if real else equator
        if shots is None:
            probs = probabilities(state, [0])
            p0 = probs.get("0", 0.0)
            p1 = probs.get("1", 0.0)
        else:
            hist = sample(state, [0], shots, seed ^ n)
            p0 = hist.counts.get("0", 0) / shots
            p1 = hist.counts.get("1", 0) / shots
        points.append((n, p0, p1))
    return points
