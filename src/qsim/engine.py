"""The one instruction interpreter, shared by the ideal and real processors.

Every gate instruction updates the state. The ideal processor evolves a
statevector and enforces only structural validity; the real processor
evolves a density matrix, enforces the device, and charges each gate
one decoherence slot on every wire (see noise.py). Measurement and
tomography markers are inert: the returned state is the
pre-measurement one.

Slots are flushed lazily. The slot acts on one wire, and it commutes
with every gate on other wires and with diagonal gates on its own wire
(it is phase-covariant). So run keeps a count of pending slots per
noisy wire and applies them as one `decohere(..., slots=k)` only before
a non-diagonal gate or a cx touches the wire, and at the end of the
run: at most two flushes per gate, plus one per noisy wire at the end.

Diagonal gates are deferred the same way, on both processors. Each
wire keeps one pending diag(a, d), the product of its diagonal gates
since the last pass over it; a diagonal gate only multiplies into it.
The next anti-diagonal gate on the wire absorbs it (U·D stays
anti-diagonal), and it is applied as one pass before any other
non-diagonal gate on the wire, before a cx that targets the wire, and
at the end of the run. A cx leaves its control's phase pending, since
the two commute, and so does a pending slot. The returned state is
fully evolved.
"""

from __future__ import annotations

from .circuit import (
    Circuit,
    Cnot,
    DeviceModel,
    Gate1,
    Violation,
    ViolationCode,
    default_device,
    validate,
)
from .errors import ValidationError
from .gates import matrix_of
from .noise import NoiseConfig, decohere
from .states import DensityMatrix, PureState, apply_1q, apply_cnot, zero_density, zero_state

PROCESSORS = ("ideal", "real")


def check(circuit: Circuit, processor: str, device: DeviceModel) -> list[Violation]:
    """validate() under the processor's rules.

    The CNOT-target rule and the chip size are hardware constraints, so
    only the real processor checks the circuit against `device`.
    """
    if processor not in PROCESSORS:
        raise ValueError(f"processor must be one of {PROCESSORS}, got {processor!r}")
    return validate(circuit, device if processor == "real" else None)


def run(
    circuit: Circuit,
    processor: str = "ideal",
    device: DeviceModel | None = None,
    noise: NoiseConfig | None = None,
    initial: PureState | DensityMatrix | None = None,
) -> PureState | DensityMatrix:
    """Execute a circuit on the chosen processor.

    Rejects circuits with validator findings under check(); a missing
    measurement alone does not block state evolution.

    Args:
        circuit: instructions to execute.
        processor: "ideal" (statevector) or "real" (density matrix).
        device: constraints and rates of the real processor; the
            packaged device if omitted. Ignored by the ideal processor.
        noise: overrides the device rates on the real processor (e.g.
            enabled=False for the ideal limit).
        initial: starting state, copied and not mutated; a PureState on
            the ideal processor, a DensityMatrix on the real one.
            |0...0> if omitted.
    """
    real = processor == "real"
    if real and device is None:
        device = default_device()
    problems = [
        v for v in check(circuit, processor, device)
        if v.code is not ViolationCode.NO_MEASUREMENT
    ]
    if problems:
        raise ValidationError(problems, circuit)
    n = circuit.num_qubits
    if initial is None:
        state = zero_density(n) if real else zero_state(n)
    else:
        kind = DensityMatrix if real else PureState
        if not isinstance(initial, kind) or initial.num_qubits != n:
            raise ValueError(f"initial state must be a {n}-qubit {kind.__name__}")
        state = initial.copy()
    slot = (noise or NoiseConfig.from_device(device)).slot(n) if real else []
    rates = {q: (gamma, lam) for q, gamma, lam in slot}
    flushed = dict.fromkeys(rates, 0)  # gate count at each noisy wire's last flush
    gates = 0
    phases = {}  # wire -> its pending diagonal gate diag(a, d)

    def flush(*wires):
        for q in wires:
            if q in rates and flushed[q] < gates:
                decohere(state, q, *rates[q], slots=gates - flushed[q])
                flushed[q] = gates

    def settle(q):
        if q in phases:
            a, d = phases.pop(q)
            apply_1q(state, [[a, 0], [0, d]], q)

    for instr in circuit.instrs:
        if isinstance(instr, Gate1):
            q = instr.qubit
            (a, b), (c, d) = matrix_of(instr.kind).tolist()
            if b == 0 and c == 0:
                pa, pd = phases.get(q, (1, 1))
                phases[q] = (a * pa, d * pd)
            else:
                flush(q)  # the slot commutes with diagonal gates only
                if a == 0 and d == 0 and q in phases:  # U·D stays anti-diagonal
                    pa, pd = phases.pop(q)
                    b, c = b * pd, c * pa
                settle(q)
                apply_1q(state, [[a, b], [c, d]], q)
        elif isinstance(instr, Cnot):
            flush(instr.control, instr.target)
            settle(instr.target)  # a diagonal on the control commutes with cx
            apply_cnot(state, instr.control, instr.target)
        else:
            continue  # measurement markers: no unitary, no slot
        gates += 1
    flush(*rates)
    for q in list(phases):
        settle(q)
    return state
