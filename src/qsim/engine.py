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

Gates that are diagonal or anti-diagonal (x, y, z, s, sdg, t, tdg, id)
are deferred as well, as in a Pauli frame (Knill, Nature 434, 39
(2005)). Each wire keeps one pending monomial M_q, a diagonal or
anti-diagonal 2x2 matrix, and the invariant is: true state = (pending
slots) ∘ (⊗ M_q) applied to (buffer ⊗ |0> on every untouched wire).
Such a gate U only sets
M_q <- U·M_q, so it makes no pass on the ideal processor. The slot
commutes with diagonals only, so on the real processor an anti-diagonal
gate flushes its wire first, and a flush applies a pending
anti-diagonal M_q before the slots. Three identities keep a flip
pending past the gates that would otherwise apply it:

- H·X = Z·H. An h after M_q = [[0, b], [c, 0]] = X·diag(c, b) applies
  diag(c, b) (nothing when b == c), runs the butterfly, and leaves Z
  pending (b·Z when b == c).
- X on the target commutes with cx. A cx applies only the diagonal
  factor of its target's M_q and leaves a scalar times I or X pending.
  A diagonal on the control commutes with it too and stays pending.
- cx·X_c = X_c·X_t·cx. A flip pending on the control is copied onto
  the target: M_t <- X·M_t.

Any other gate on the wire applies M_q first, and whatever is still
pending is applied at the end of the run.

The buffer holds only the active wires, those that have left |0>, in
ascending order; a kernel or `decohere` call takes a wire's position in
that list, not its circuit index. A run from |0...0> starts from a
0-wire register (one amplitude, or a 1x1 matrix); with `initial`, every
wire is active from the start. `states.embed` adds a wire, in |0>, when
an h, an applied anti-diagonal M_q or a cx with an active control first
reaches it. Until then the rules above reduce to:

- a diagonal M_q applied there multiplies the buffer by its first entry
  a (by a, then conj(a), on rho: the products the kernel would form);
- a cx with the control there makes no pass: the control is |0> up to
  the frame, so only the frame rule for a pending flip applies;
- its slots are skipped on the real processor when M_q is diagonal,
  since |0><0| is the fixed point of both damping and dephasing.

The gate loop runs under a 256-element ufunc buffer: with numpy's
default of 8192, the buffered copy of a strided half made a gate on the
middle wires of a wide register cost 2-3x as much as on wire 0. The
returned state is fully evolved and placed on all n wires.
"""

from __future__ import annotations

import numpy as np

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
from .states import (DensityMatrix, PureState, apply_1q, apply_cnot, check_capacity,
                     embed)

PROCESSORS = ("ideal", "real")
_IDENTITY = (1, 0, 0, 1)
_PAULI_X = (0, 1, 1, 0)
UFUNC_BUFSIZE = 256  # elements, for the gate loop (numpy's default is 8192)


def _product(u, m):
    """u·m of two 2x2 matrices, each given as (a, b, c, d) = [[a, b], [c, d]]."""
    a, b, c, d = u
    pa, pb, pc, pd = m
    return (a * pa + b * pc, a * pb + b * pd, c * pa + d * pc, c * pb + d * pd)


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
            |0...0> if omitted, held as only the wires that leave |0>.
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
    kind = DensityMatrix if real else PureState
    if initial is None:
        check_capacity(kind, n)
        state = kind(0, np.ones((1, 1) if real else 1))
        pos = {}  # active wire -> its buffer position
    else:
        if not isinstance(initial, kind) or initial.num_qubits != n:
            raise ValueError(f"initial state must be a {n}-qubit {kind.__name__}")
        state = initial.copy()
        pos = {q: q for q in range(n)}
    slot = (noise or NoiseConfig.from_device(device)).slot(n) if real else []
    rates = {q: (gamma, lam) for q, gamma, lam in slot}
    flushed = dict.fromkeys(rates, 0)  # gate count at each noisy wire's last flush
    gates = 0
    frame = {}  # wire -> its pending monomial M_q, as (a, b, c, d)

    def place(q):
        """q's buffer position; q joins the buffer, in |0>, if it is not there."""
        nonlocal state, pos
        if q not in pos:
            wires = sorted([*pos, q])
            state = embed(state, list(pos), wires)
            pos = {w: k for k, w in enumerate(wires)}
        return pos[q]

    def kernel(q, u):
        p = place(q)
        apply_1q(state, u, p)

    def settle(q, m):
        if m == _IDENTITY:
            return
        if q in pos or m[0] == 0:
            kernel(q, [m[:2], m[2:]])
            return
        a = m[0]  # a diagonal on a wire still in |0>: one scalar on the buffer
        buf = state.mat if real else state.amps
        for f in (a, a.conjugate()) if real else (a,):
            if f != 1:
                buf *= f

    def flush(*wires):
        for q in wires:
            if q in rates and flushed[q] < gates:
                if frame.get(q, _IDENTITY)[0] == 0:  # anti-diagonal: goes before the slots
                    settle(q, frame.pop(q))
                if q in pos:  # |0><0| is the slots' fixed point: skip them there
                    decohere(state, pos[q], *rates[q], slots=gates - flushed[q])
                flushed[q] = gates

    old_bufsize = np.setbufsize(UFUNC_BUFSIZE)
    try:
        for instr in circuit.instrs:
            if isinstance(instr, Gate1):
                q = instr.qubit
                u = matrix_of(instr.kind)
                (a, b), (c, d) = u.tolist()
                if a == 0 or b == c == 0:  # a monomial joins the frame
                    if a == 0:
                        flush(q)
                    frame[q] = _product((a, b, c, d), frame.get(q, _IDENTITY))
                else:
                    flush(q)
                    m = frame.pop(q, _IDENTITY)
                    if m[0] == 0 and a == b == c == -d:  # H·X·diag(c, b) = Z·H·diag(c, b)
                        k = m[1]
                        if m[1] != m[2]:
                            settle(q, (m[2], 0, 0, m[1]))
                            k = 1
                        kernel(q, u)
                        frame[q] = (k, 0, 0, -k)
                    else:
                        settle(q, m)
                        kernel(q, u)
            elif isinstance(instr, Cnot):
                ctl, tgt = instr.control, instr.target
                flush(ctl)
                flip = frame.get(ctl, _IDENTITY)[0] == 0
                if ctl in pos or flip:  # else the control is |0>: cx does nothing
                    flush(tgt)
                if ctl in pos:
                    a, b, c, d = frame.get(tgt, _IDENTITY)
                    if a != d:  # a scalar times I or X commutes with cx: apply the rest
                        settle(tgt, frame.pop(tgt))
                    elif b != c:
                        settle(tgt, (c, 0, 0, b))
                        frame[tgt] = _PAULI_X
                    p = place(tgt)
                    apply_cnot(state, pos[ctl], p)
                if flip:  # cx·X_c = X_c·X_t·cx
                    frame[tgt] = _product(_PAULI_X, frame.get(tgt, _IDENTITY))
            else:
                continue  # measurement markers: no unitary, no slot
            gates += 1
        flush(*rates)
        for q, m in frame.items():
            settle(q, m)
    finally:
        np.setbufsize(old_bufsize)
    return state if len(pos) == n else embed(state, list(pos), range(n))
