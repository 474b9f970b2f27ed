"""Circuit IR, text format, device model, validator, and CNOT retargeting.

Circuit file grammar (one instruction per line, tokens whitespace
separated, everything case-insensitive, ``#`` starts a comment, blank
lines ignored)::

    qubits <N>          header, 1 <= N <= 16, must come first
    <m> q<i>            m in {x, y, z, h, s, sdg, t, tdg, id}
    cx q<c> q<t>        controlled-NOT
    measure q<i>        computational-basis measurement
    bloch q<i>          single-qubit tomography marker

Measurement is terminal per qubit: once a wire is measured (either
kind), no further gate may touch it. The validator reports that, plus
device-level problems, as data rather than exceptions.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Union

from .errors import DeviceError, ParseError, UntranspilableError
from .gates import GateKind

MAX_QUBITS = 16

_QUBIT_TOKEN = re.compile(r"^q(\d+)$")


@dataclass(frozen=True)
class Gate1:
    """A single-qubit gate on one wire."""

    kind: GateKind
    qubit: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)


@dataclass(frozen=True)
class Cnot:
    control: int
    target: int

    def __post_init__(self):
        if self.control == self.target:
            raise ValueError("cnot control and target must differ")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.control, self.target)


@dataclass(frozen=True)
class MeasureZ:
    qubit: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)


@dataclass(frozen=True)
class BlochMeasure:
    qubit: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)


Instruction = Union[Gate1, Cnot, MeasureZ, BlochMeasure]


@dataclass
class Circuit:
    """Ordered instruction list over a fixed-size register.

    `source_lines`, filled by the parser, maps each instruction to its
    line in the source text; it is diagnostic only and excluded from
    structural equality.
    """

    num_qubits: int
    instrs: list[Instruction] = field(default_factory=list)
    name: str = field(default="", compare=False)
    source_lines: list[int] | None = field(default=None, compare=False, repr=False)

    def measured_qubits(self) -> list[int]:
        """Wires with a computational-basis measurement, ascending."""
        return sorted(i.qubit for i in self.instrs if isinstance(i, MeasureZ))

    def bloch_qubits(self) -> list[int]:
        """Wires with a tomography marker, ascending."""
        return sorted(i.qubit for i in self.instrs if isinstance(i, BlochMeasure))


@dataclass(frozen=True)
class QubitNoise:
    """Per-slot decoherence rates of one device qubit."""

    gamma_relax: float
    gamma_phase: float


@dataclass(frozen=True)
class DeviceModel:
    """Executable-gate constraints and noise rates of one device.

    `allowed_cnot_targets` encodes the hardware rule that CNOT may only
    point at designated wires; `gate_time_tau_s` is the wall-clock
    duration of one gate slot, used to convert identity-gate counts to
    elapsed time.
    """

    name: str
    num_qubits: int
    allowed_cnot_targets: frozenset[int]
    gate_time_tau_s: float
    qubits: tuple[QubitNoise, ...]

    def __post_init__(self):
        if self.num_qubits < 1:
            raise DeviceError("device must have at least one qubit")
        if len(self.qubits) != self.num_qubits:
            raise DeviceError("device needs one noise entry per qubit")
        for t in self.allowed_cnot_targets:
            if not 0 <= t < self.num_qubits:
                raise DeviceError(f"allowed cnot target q{t} not on device")
        if not 0.0 < self.gate_time_tau_s < math.inf:
            raise DeviceError(
                f"gate_time_tau_s={self.gate_time_tau_s} must be positive and finite"
            )
        for i, qn in enumerate(self.qubits):
            for label, rate in (("gamma_relax", qn.gamma_relax),
                                ("gamma_phase", qn.gamma_phase)):
                if not 0.0 <= rate <= 1.0:
                    raise DeviceError(f"qubit {i} {label}={rate} outside [0, 1]")

    @classmethod
    def from_dict(cls, data: dict) -> "DeviceModel":
        try:
            qubits = tuple(
                QubitNoise(_json_number(q["gamma_relax"], "gamma_relax"),
                           _json_number(q["gamma_phase"], "gamma_phase"))
                for q in data["qubits"]
            )
            return cls(
                name=str(data["name"]),
                num_qubits=_json_number(data["num_qubits"], "num_qubits", int),
                allowed_cnot_targets=frozenset(
                    _json_number(t, "allowed_cnot_targets entry", int)
                    for t in data["allowed_cnot_targets"]
                ),
                gate_time_tau_s=_json_number(data["gate_time_tau_s"], "gate_time_tau_s"),
                qubits=qubits,
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DeviceError(f"bad device description: {exc}") from exc


def _json_number(value, field: str, kind: type = float):
    """A device field as `kind`: a JSON integer for int, any JSON number for float."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        noun = "an integer" if kind is int else "a number"
        raise TypeError(f"{field} must be {noun}, got {value!r}")
    return kind(value)


def load_device(path) -> DeviceModel:
    """Load a device model from a JSON file (see DeviceModel.from_dict)."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DeviceError(f"{path}: {exc}") from exc
    return DeviceModel.from_dict(data)


def default_device() -> DeviceModel:
    """The packaged 5-qubit device: CNOT targets restricted to q2, qubit 3
    the least robust against relaxation. Rates are illustrative defaults,
    not calibration data."""
    ref = resources.files("qsim") / "devices" / "ibmqx-like.json"
    return DeviceModel.from_dict(json.loads(ref.read_text(encoding="utf-8")))


class ViolationCode(Enum):
    CNOT_TARGET_FORBIDDEN = "CnotTargetForbidden"
    UNKNOWN_GATE = "UnknownGate"
    QUBIT_OUT_OF_RANGE = "QubitOutOfRange"
    GATE_AFTER_MEASURE = "GateAfterMeasure"
    NO_MEASUREMENT = "NoMeasurement"


@dataclass(frozen=True)
class Violation:
    """One validator finding; `index` points into Circuit.instrs, or one
    past the end for circuit-level findings."""

    index: int
    code: ViolationCode
    message: str


def _parse_qubit(token: str, num_qubits: int, line_no: int) -> int:
    m = _QUBIT_TOKEN.match(token)
    if not m:
        raise ParseError(line_no, f"malformed qubit token {token!r} (expected q<i>)")
    q = int(m.group(1))
    if q >= num_qubits:
        raise ParseError(
            line_no, f"qubit q{q} out of range for declared size {num_qubits}"
        )
    return q


_MNEMONICS = {g.value: g for g in GateKind}


def parse(source: str, name: str = "") -> Circuit:
    """Parse circuit text into a Circuit.

    Raises :class:`ParseError` (with line number) on unknown mnemonics,
    malformed or out-of-range qubit tokens, wrong operand counts, and a
    missing or duplicated ``qubits`` header.
    """
    num_qubits: int | None = None
    instrs: list[Instruction] = []
    lines: list[int] = []

    for line_no, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("#", 1)[0].strip().lower()
        if not text:
            continue
        tokens = text.split()
        mnemonic, args = tokens[0], tokens[1:]

        if mnemonic == "qubits":
            if num_qubits is not None:
                raise ParseError(line_no, "duplicate 'qubits' header")
            if len(args) != 1:
                raise ParseError(line_no, "expected 'qubits <N>'")
            try:
                declared = int(args[0])
            except ValueError:
                raise ParseError(line_no, f"malformed qubit count {args[0]!r}") from None
            if not 1 <= declared <= MAX_QUBITS:
                raise ParseError(
                    line_no, f"qubit count must be 1..{MAX_QUBITS}, got {declared}"
                )
            num_qubits = declared
            continue

        if num_qubits is None:
            raise ParseError(line_no, "missing 'qubits <N>' header")

        if mnemonic in _MNEMONICS:
            if len(args) != 1:
                raise ParseError(line_no, f"'{mnemonic}' expects one qubit operand")
            q = _parse_qubit(args[0], num_qubits, line_no)
            instrs.append(Gate1(_MNEMONICS[mnemonic], q))
        elif mnemonic == "cx":
            if len(args) != 2:
                raise ParseError(line_no, "'cx' expects two qubit operands")
            control = _parse_qubit(args[0], num_qubits, line_no)
            target = _parse_qubit(args[1], num_qubits, line_no)
            if control == target:
                raise ParseError(line_no, "cx control and target must differ")
            instrs.append(Cnot(control, target))
        elif mnemonic == "measure":
            if len(args) != 1:
                raise ParseError(line_no, "'measure' expects one qubit operand")
            instrs.append(MeasureZ(_parse_qubit(args[0], num_qubits, line_no)))
        elif mnemonic == "bloch":
            if len(args) != 1:
                raise ParseError(line_no, "'bloch' expects one qubit operand")
            instrs.append(BlochMeasure(_parse_qubit(args[0], num_qubits, line_no)))
        else:
            raise ParseError(line_no, f"unknown mnemonic {mnemonic!r}")
        lines.append(line_no)

    if num_qubits is None:
        raise ParseError(1, "missing 'qubits <N>' header")
    return Circuit(num_qubits, instrs, name=name, source_lines=lines)


def format_circuit(circuit: Circuit) -> str:
    """Render a circuit in canonical (lowercase) text form.

    parse(format_circuit(c)) is structurally equal to c, and formatting
    an already-canonical text reproduces it byte for byte.
    """
    out = [f"qubits {circuit.num_qubits}"]
    for instr in circuit.instrs:
        if isinstance(instr, Gate1):
            out.append(f"{instr.kind.value} q{instr.qubit}")
        elif isinstance(instr, Cnot):
            out.append(f"cx q{instr.control} q{instr.target}")
        elif isinstance(instr, MeasureZ):
            out.append(f"measure q{instr.qubit}")
        elif isinstance(instr, BlochMeasure):
            out.append(f"bloch q{instr.qubit}")
        else:
            raise TypeError(f"cannot format {type(instr).__name__}")
    return "\n".join(out) + "\n"


def validate(circuit: Circuit, device: DeviceModel | None = None) -> list[Violation]:
    """Check that a circuit can execute, optionally on a given device.

    Returns findings as data (empty list means runnable), in instruction
    order, and never raises on a well-typed circuit. Wire bounds, gate
    kinds and terminal measurement are checked first; with a device,
    wires must then fit the chip and every CNOT must point at an allowed
    target. Either way the circuit needs at least one measurement.
    """
    found: list[Violation] = []
    measured: set[int] = set()
    for idx, instr in enumerate(circuit.instrs):
        for q in instr.qubits:
            if not 0 <= q < circuit.num_qubits:
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
        for q in instr.qubits:
            if q in measured:
                found.append(Violation(
                    idx, ViolationCode.GATE_AFTER_MEASURE,
                    f"gate on q{q} after its measurement" if is_gate
                    else f"q{q} measured twice",
                ))
        if not is_gate:
            measured.update(instr.qubits)
        if device is not None:
            for q in instr.qubits:
                if 0 <= q < circuit.num_qubits and q >= device.num_qubits:
                    found.append(Violation(
                        idx, ViolationCode.QUBIT_OUT_OF_RANGE,
                        f"q{q} not present on {device.num_qubits}-qubit "
                        f"device '{device.name}'",
                    ))
            if isinstance(instr, Cnot) and instr.target not in device.allowed_cnot_targets:
                allowed = ",".join(f"q{t}" for t in sorted(device.allowed_cnot_targets))
                found.append(Violation(
                    idx, ViolationCode.CNOT_TARGET_FORBIDDEN,
                    f"cx may not target q{instr.target} on '{device.name}' "
                    f"(allowed targets: {allowed})",
                ))
    if not measured:
        found.append(Violation(
            len(circuit.instrs), ViolationCode.NO_MEASUREMENT,
            "circuit has no measurement",
        ))
    return found


def retarget_cnots(circuit: Circuit, device: DeviceModel) -> Circuit:
    """Rewrite forbidden-target CNOTs using the Hadamard reversal identity.

    cx c t with a forbidden target becomes h c, h t, cx t c, h c, h t,
    which acts identically on the state and points the new CNOT at the
    old control. Requires each offending CNOT to have its control on an
    allowed target wire; otherwise the circuit is rejected.

    Returns the input object unchanged when nothing needs rewriting.
    """
    allowed = device.allowed_cnot_targets
    rewritten = False
    instrs: list[Instruction] = []
    for idx, instr in enumerate(circuit.instrs):
        if isinstance(instr, Cnot) and instr.target not in allowed:
            if instr.control not in allowed:
                raise UntranspilableError(
                    f"instruction {idx}: cx q{instr.control} q{instr.target} has "
                    f"no endpoint in the device's allowed targets"
                )
            c, t = instr.control, instr.target
            instrs.extend([
                Gate1(GateKind.H, c),
                Gate1(GateKind.H, t),
                Cnot(t, c),
                Gate1(GateKind.H, c),
                Gate1(GateKind.H, t),
            ])
            rewritten = True
        else:
            instrs.append(instr)
    if not rewritten:
        return circuit
    return Circuit(circuit.num_qubits, instrs, name=circuit.name)
