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
anti-diagonal 2x2 matrix; the register keeps one scalar, `scale`, and
a count, `hs`, of h gates whose factor c (1/√2 on psi, 1/2 on rho) is
still owed. The invariant is: true state = scale · c^hs · (pending
slots) ∘ (⊗ M_q) applied to (buffer ⊗ |0> on every untouched wire).
Such a gate U only sets M_q <- U·M_q, so it makes no pass on the ideal
processor. The slot commutes with diagonals only, so on the real
processor an anti-diagonal gate flushes its wire first, and a flush
applies a pending anti-diagonal M_q before the slots.

Applying ("settling") M_q moves its leading entry into scale:
diag(a, d) is a·diag(1, d/a), one half-pass, or none when d == a or
the wire is still in |0>; [[0, b], [c, 0]] is b·[[0, 1], [c/b, 0]], a copy plus
one multiply. An h runs unscaled, as [[1, 1], [1, -1]], counts its c,
and absorbs a diagonal pending on its wire: H·diag(p, r) =
p/√2·[[1, r/p], [1, -r/p]], one three-op pass, p into scale. On rho
scale stays 1, as only unit-modulus entries reach it. The unscaled
buffer grows by 1/c per h, so every 64 h gates it is rescaled by the
exact power of two they owe. The end folds what is still owed into
scale, a power of two times the gate table's rounded 1/√2 only for an
odd count on psi, and applies scale once: an ideal run of an even
number of h gates and no other phase rounds no 1/√2. Exact powers of
two change no rounding: a noise slot on the unscaled rho rounds as it
would on the scaled one.

Four identities keep a monomial pending past the gates that would
otherwise apply it:

- H·X = Z·H. An h after M_q = X·diag(c, b) runs as H·diag(c, b) and
  leaves Z pending.
- X on the target commutes with cx. A cx applies only the diagonal
  factor of its target's M_q and leaves a scalar times I or X pending.
  A diagonal on the control commutes with it too and stays pending.
- cx·Z_t = Z_c·Z_t·cx (Gottesman, arXiv:quant-ph/9807006). A target
  M_q whose diagonal factor is a scalar times Z stays pending, and Z
  joins the control's monomial on the right: M_c <- M_c·Z.
- cx·X_c = X_c·X_t·cx. A flip pending on the control is copied onto
  the target: M_t <- X·M_t.

Whatever is still pending is applied at the end of the run.

The buffer holds only the active wires, those that have left |0>, in
ascending order; a kernel or `decohere` call takes a wire's position in
that list, not its circuit index. A run from |0...0> starts from a
0-wire register (one amplitude, or a 1x1 matrix); with `initial`, every
wire is active from the start. `states.embed` adds a wire, in |0>, when
an h, an applied anti-diagonal M_q or a cx with an active control first
reaches it. Until then the rules above reduce to:

- a diagonal M_q applied there only multiplies scale by its first entry;
- a cx with the control there makes no pass: the control is |0> up to
  the frame, so only the frame rule for a pending flip applies;
- its slots are skipped on the real processor when M_q is diagonal,
  since |0><0| is the fixed point of both damping and dephasing.

The gate loop runs under a 256-element ufunc buffer: with numpy's
default of 8192, the buffered copy of a strided half made a gate on the
middle wires of a wide register cost 2-3x as much as on wire 0. The
returned state is fully evolved and placed on all n wires.

The per-gate Python work is paid once where it can be: each gate's four
entries are read from the table `gates.ENTRIES`, and a pass goes
straight to `states._apply_1q` or `states._apply_cnot` with the entries
as Python numbers and a buffer position run computed itself, so no 2x2
array is built, no wire is checked again, and rho's column copy is
conjugated in Python.
"""

from __future__ import annotations

import numpy as np

from .circuit import (
    PROCESSORS,
    Circuit,
    Cnot,
    DeviceModel,
    Gate1,
    ViolationCode,
    _expect,
    check,
    default_device,
)
from .errors import ValidationError
from .gates import ENTRIES, GateKind
from .noise import NoiseConfig, decohere
from .states import DensityMatrix, PureState, _apply_1q, _apply_cnot, check_capacity, embed

_IDENTITY = (1, 0, 0, 1)
_PAULI_X = (0, 1, 1, 0)
_PAULI_Z = (1, 0, 0, -1)
_RENORMALIZE_EVERY = 64  # h gates: the unscaled buffer grows by at most 2^64 in between
_SQRT_HALF = ENTRIES[GateKind.H][0]  # 1/√2, rounded: an h's factor on psi
UFUNC_BUFSIZE = 256  # elements, for the gate loop (numpy's default is 8192)


def _product(u, m):
    """u·m of two 2x2 matrices, each given as (a, b, c, d) = [[a, b], [c, d]]."""
    a, b, c, d = u
    pa, pb, pc, pd = m
    return (a * pa + b * pc, a * pb + b * pd, c * pa + d * pc, c * pb + d * pd)


def _diagonal(m):
    """(p, r) for a monomial m that is diag(p, r) or X·diag(p, r)."""
    return (m[0], m[3]) if m[0] else (m[2], m[1])


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
        noise: the real processor's slot, in place of the device's own:
            its rates are those of the config's device (and none for
            enabled=False, the ideal limit); `device` still validates.
        initial: starting state, copied and not mutated; an n-wire
            PureState on the ideal processor, DensityMatrix on the real
            one (`circuit._expect`: TypeError for another kind, ValueError
            for another size). |0...0> if omitted, held as only the wires
            that leave |0>. Either way `check_capacity` first refuses a
            register wider than the engine holds.
    """
    if processor == "real" and device is None:
        device = default_device()
    problems = [v for v in check(circuit, processor, device)
                if v.code is not ViolationCode.NO_MEASUREMENT]
    if problems:
        raise ValidationError(problems, circuit)
    return _evolve(circuit, processor, device, noise, initial)


def _evolve(circuit, processor, device, noise=None, initial=None):
    """run's body after its check: the caller has checked the circuit and `processor`."""
    real = processor == "real"
    n = circuit.num_qubits
    kind = DensityMatrix if real else PureState
    check_capacity(kind, n)
    if initial is None:
        state = kind(np.ones((1, 1) if real else 1))
        pos = {}  # active wire -> its buffer position
    else:
        _expect(initial, kind, n)
        state = initial.copy()
        pos = {q: q for q in range(n)}
    rates = (noise or NoiseConfig(device)).slot(n) if real else {}
    flushed = dict.fromkeys(rates, 0)  # gate count at each noisy wire's last flush
    gates = 0
    frame = {}  # wire -> its pending monomial M_q, as (a, b, c, d)
    scale = 1  # the register-wide scalar of the pending phases, on psi only
    hs = 0  # h gates since the last renormalization: 1/√2 each owed on psi, 1/2 on rho

    def place(q):
        """q's buffer position; q joins the buffer, in |0>, if it is not there."""
        nonlocal state, pos
        if q not in pos:
            wires = sorted([*pos, q])
            state = embed(state, list(pos), wires)
            pos = {w: k for k, w in enumerate(wires)}
        return pos[q]

    def kernel(q, m):
        p = place(q)
        _apply_1q(state, m, p)

    def rescale(f):
        buf = state.mat if real else state.amps
        buf *= f

    def owed():  # c^hs: a power of two, times one rounded 1/√2 for an odd hs on psi
        return 2.0 ** -hs if real else 2.0 ** -(hs // 2) * (_SQRT_HALF if hs % 2 else 1)

    def settle(q, m):
        """Apply M_q as its leading entry, into the scalar, times one
        half-pass: diag(1, d/a) or [[0, 1], [c/b, 0]]."""
        nonlocal scale
        a, b, c, d = m
        if not real:
            scale *= a or b
        if a == 0:
            kernel(q, ((0, 1), (c / b, 0)))
        elif d != a and q in pos:  # on a wire still in |0>, diag(a, d) is a
            kernel(q, ((1, 0), (0, d / a)))

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
                u = ENTRIES[instr.kind]
                a, b, c, d = u
                if a == 0 or b == c == 0:  # a monomial joins the frame
                    if a == 0:
                        flush(q)
                    frame[q] = _product(u, frame.get(q, _IDENTITY))
                else:  # h, the one other gate: H·diag(p, r) = a·p·[[1, r/p], [1, -r/p]]
                    flush(q)
                    m = frame.pop(q, _IDENTITY)
                    p, r = _diagonal(m)
                    x = r / p if q in pos else 1  # on |0>, diag(p, r) is p
                    kernel(q, ((1, x), (1, -x)))
                    if m[0] == 0:  # H·X·diag(p, r) = Z·H·diag(p, r)
                        frame[q] = _PAULI_Z
                    scale *= 1 if real else p
                    hs += 1
                    if hs == _RENORMALIZE_EVERY:
                        rescale(owed())
                        hs = 0
            elif isinstance(instr, Cnot):
                ctl, tgt = instr.control, instr.target
                flush(ctl)
                flip = frame.get(ctl, _IDENTITY)[0] == 0
                if ctl in pos or flip:  # else the control is |0>: cx does nothing
                    flush(tgt)
                if ctl in pos:
                    m = frame.get(tgt, _IDENTITY)
                    p, r = _diagonal(m)
                    if r == -p:  # cx·Z_t = Z_c·Z_t·cx: Z joins the control's monomial
                        frame[ctl] = _product(frame.get(ctl, _IDENTITY), _PAULI_Z)
                    elif r != p:  # a scalar times I or X commutes with cx: apply the rest
                        settle(tgt, (p, 0, 0, r))
                        if m[0]:
                            del frame[tgt]
                        else:
                            frame[tgt] = _PAULI_X
                    t = place(tgt)
                    _apply_cnot(state, pos[ctl], t)
                if flip:  # cx·X_c = X_c·X_t·cx
                    frame[tgt] = _product(_PAULI_X, frame.get(tgt, _IDENTITY))
            else:
                continue  # measurement markers: no unitary, no slot
            gates += 1
        flush(*rates)
        for q, m in frame.items():
            settle(q, m)
        scale *= owed()
        if scale != 1:
            rescale(scale)
    finally:
        np.setbufsize(old_bufsize)
    return state if len(pos) == n else embed(state, list(pos), range(n))
