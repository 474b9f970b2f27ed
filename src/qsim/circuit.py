"""Circuit IR, text format, device model, validator, and CNOT retargeting.

Circuit file grammar (one instruction per line, tokens whitespace
separated, everything case-insensitive, ``#`` starts a comment, blank
lines ignored)::

    qubits <N>          header, 1 <= N <= 16, must come first
    <m> q<i>            m in {x, y, z, h, s, sdg, t, tdg, id}
    cx q<c> q<t>        controlled-NOT
    measure q<i>        computational-basis measurement
    bloch q<i>          single-qubit tomography marker

<N> and <i> are written in ASCII digits 0-9 only. `_line` spells each
canonical line, for format_circuit and for the per-size table in which
`parse` looks a line up before it checks one token by token.

Measurement is terminal per qubit: once a wire is measured (either
kind), no further gate may touch it. The validator reports that, plus
device-level problems, as data rather than exceptions. On the real
processor, which checks a circuit against a device, the whole register
must fit the device, even wires that no instruction touches.
`PROCESSORS` names the two processors, `check` their rule and
`MAX_SWEEP_POINTS` the sweep's cap here, so that the CLI can offer them
and refuse a circuit or a sweep without numpy.
"""

from __future__ import annotations

import codecs
import json
import math
import numbers
import os
from enum import Enum
from functools import cache, partial
from itertools import permutations
from typing import Iterable, NamedTuple, Union

from .errors import DeviceError, ParseError, UntranspilableError
from .gates import GateKind

MAX_QUBITS = 16
PROCESSORS = ("ideal", "real")  # engine.run's statevector and density-matrix engines
MAX_SWEEP_POINTS = 200  # decoherence_sweep's largest n_max


def _is_int(x) -> bool:
    """The package's one integer rule, for wire indices, counts and seeds: a
    Python or numpy integer, but not a bool (which indexes numpy as a mask)."""
    # runs per wire check and per `decohere` flush: plain ints skip the ~0.7 us ABC lookup
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def _expect(value, kind: type, n: int | None = None) -> None:
    """The package's one check of an argument of one class (a circuit, a
    device, a state): `value` must be a `kind`, on n wires if n is given."""
    if not isinstance(value, kind):
        raise TypeError(f"expected a {kind.__name__}, got {type(value).__name__}")
    if n is not None and value.num_qubits != n:
        raise ValueError(f"expected a {n}-qubit {kind.__name__}, got {value.num_qubits} qubits")


class _Record:
    """Base of the records that check their fields when built, and of
    the instructions, which `parse` shares from its per-size table. The
    fields are the class's `__slots__`, in constructor order, set once by
    `_set`; assigning to one raises AttributeError, and a copy or a pickle
    is rebuilt through the constructor. A record equals, and hashes
    with, a record of its own class whose fields are equal."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((type(self), *self._values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Gate1(_Record):
    """A single-qubit gate on one wire."""

    __slots__ = ("kind", "qubit")

    def __init__(self, kind: GateKind, qubit: int):
        self._set(kind, qubit)

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)


class Cnot(_Record):
    __slots__ = ("control", "target")

    def __init__(self, control: int, target: int):
        if control == target:
            raise ValueError("cnot control and target must differ")
        self._set(control, target)

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.control, self.target)


class MeasureZ(_Record):
    __slots__ = ("qubit",)

    def __init__(self, qubit: int):
        self._set(qubit)

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)


class BlochMeasure(_Record):
    __slots__ = ("qubit",)

    def __init__(self, qubit: int):
        self._set(qubit)

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)


Instruction = Union[Gate1, Cnot, MeasureZ, BlochMeasure]


class Circuit:
    """Ordered instruction list over a fixed-size register.

    `source_lines`, filled by the parser, maps each instruction to its
    line in the source text; it is diagnostic only and, like `name`,
    excluded from structural equality.
    """

    __slots__ = ("num_qubits", "instrs", "name", "source_lines")

    def __init__(self, num_qubits: int, instrs: list[Instruction] | None = None,
                 name: str = "", source_lines: list[int] | None = None):
        self.num_qubits = num_qubits
        self.instrs = [] if instrs is None else instrs
        self.name = name
        self.source_lines = source_lines

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.num_qubits, self.instrs) == (other.num_qubits, other.instrs)

    def __repr__(self):
        return f"Circuit(num_qubits={self.num_qubits!r}, instrs={self.instrs!r}, name={self.name!r})"

    def measured_qubits(self) -> list[int]:
        """Wires with a computational-basis measurement, ascending."""
        return sorted(i.qubit for i in self.instrs if isinstance(i, MeasureZ))

    def bloch_qubits(self) -> list[int]:
        """Wires with a tomography marker, ascending."""
        return sorted(i.qubit for i in self.instrs if isinstance(i, BlochMeasure))


class QubitNoise(NamedTuple):
    """Per-slot decoherence rates of one device qubit."""

    gamma_relax: float
    gamma_phase: float


class DeviceModel(_Record):
    """Executable-gate constraints and noise rates of one device.

    `allowed_cnot_targets` encodes the hardware rule that CNOT may only
    point at designated wires; `gate_time_tau_s` is the wall-clock
    duration of one gate slot, used to convert identity-gate counts to
    elapsed time. The constructor checks every field, on every path
    (`from_dict`, a call, a copy, a pickle): a wrong type is a TypeError,
    a value out of range a DeviceError. It stores ints, floats, a
    frozenset of targets and a tuple of QubitNoise, which it builds from
    (gamma_relax, gamma_phase) pairs.
    """

    __slots__ = ("name", "num_qubits", "allowed_cnot_targets", "gate_time_tau_s", "qubits")

    def __init__(self, name: str, num_qubits: int, allowed_cnot_targets: Iterable[int],
                 gate_time_tau_s: float, qubits: Iterable[tuple[float, float]]):
        qubits = tuple(QubitNoise(_json_number(relax, "gamma_relax"),
                                  _json_number(phase, "gamma_phase")) for relax, phase in qubits)
        if not isinstance(name, str):
            raise TypeError(f"name must be a str, got {name!r}")
        self._set(name, _json_number(num_qubits, "num_qubits", int),
                  frozenset(_json_number(t, "allowed_cnot_targets entry", int)
                            for t in allowed_cnot_targets),
                  _json_number(gate_time_tau_s, "gate_time_tau_s"), qubits)
        try:
            self.name.encode()  # reports print the name; a lone surrogate cannot be written
        except UnicodeEncodeError as exc:
            raise DeviceError(f"device name {self.name!r}: {exc.reason}") from exc
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
            qubits = [(q["gamma_relax"], q["gamma_phase"]) for q in data["qubits"]]
            return cls(data["name"], data["num_qubits"], data["allowed_cnot_targets"],
                       data["gate_time_tau_s"], qubits)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DeviceError(f"bad device description: {exc}") from exc


def _json_number(value, field: str, kind: type = float):
    """A device field as `kind`: an integer for int, any number for float; never a bool."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        noun = "an integer" if kind is int else "a number"
        raise TypeError(f"{field} must be {noun}, got {value!r}")
    return kind(value)


def read_utf8(path) -> str:
    """A file's bytes decoded as UTF-8, one leading byte-order mark
    dropped; bytes that are not UTF-8 raise UnicodeDecodeError. `path` is
    a str, bytes or os.PathLike, else TypeError: open() would take an
    integer as a file descriptor, and close it."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise TypeError(f"path must be a str, bytes or os.PathLike, got {type(path).__name__}")
    with open(path, "rb") as fh:
        return fh.read().removeprefix(codecs.BOM_UTF8).decode("utf-8")


def load_device(path) -> DeviceModel:
    """Load a device model from a JSON file (see DeviceModel.from_dict).

    A leading byte-order mark is skipped. Every refusal of the file's
    content (bytes that are not UTF-8, bad JSON, nesting past the
    parser's recursion limit, an integer past Python's digit limit, a
    bad field) is a DeviceError that starts with the path.
    """
    try:
        return DeviceModel.from_dict(json.loads(read_utf8(path)))
    except (ValueError, RecursionError, DeviceError) as exc:
        raise DeviceError(f"{path}: {exc}") from exc


def default_device() -> DeviceModel:
    """The packaged 5-qubit device: CNOT targets restricted to q2, qubit 3
    the least robust against relaxation. Rates are illustrative defaults,
    not calibration data. load_device reads the file beside this module
    (a zipped install is not supported), so a damaged install's
    DeviceError names its path."""
    return load_device(os.path.join(os.path.dirname(__file__), "devices", "ibmqx-like.json"))


class ViolationCode(Enum):
    CNOT_TARGET_FORBIDDEN = "CnotTargetForbidden"
    UNKNOWN_GATE = "UnknownGate"
    QUBIT_OUT_OF_RANGE = "QubitOutOfRange"
    GATE_AFTER_MEASURE = "GateAfterMeasure"
    NO_MEASUREMENT = "NoMeasurement"


class Violation(NamedTuple):
    """One validator finding; `index` points into Circuit.instrs, or one
    past the end for circuit-level findings."""

    index: int
    code: ViolationCode
    message: str


# The grammar: each mnemonic's instruction constructor and operand count.
_GRAMMAR = {
    **{g.value: (partial(Gate1, g), 1) for g in GateKind},
    "cx": (Cnot, 2),
    "measure": (MeasureZ, 1),
    "bloch": (BlochMeasure, 1),
}

# Its inverse, keyed as _line looks an instruction up: a Gate1 by its
# kind, any other instruction by its class.
_MNEMONICS = {
    make.args[0] if isinstance(make, partial) else make: mnemonic
    for mnemonic, (make, _) in _GRAMMAR.items()
}

_OPERANDS = {1: "one qubit operand", 2: "two qubit operands"}
_MAX_DIGITS = 9  # past any register; and some builds refuse int() of 4300+ digits


def _digits(text: str) -> str | None:
    """`text` without leading zeros when it is ASCII 0-9 only, else None:
    no signs, underscores or other scripts' digits, which int() accepts."""
    if not (text.isascii() and text.isdigit()):
        return None
    return text.lstrip("0") or "0"


def _clip(text: str) -> str:
    """`text`, cut short enough to quote in an error message."""
    return text if len(text) <= 12 else f"{text[:9]}... ({len(text)} chars)"


def _line(instr: Instruction) -> str:
    """An instruction's canonical line: ``h q3``, ``cx q1 q2``, ``measure q0``."""
    mnemonic = _MNEMONICS.get(getattr(instr, "kind", type(instr)))
    if mnemonic is None:
        raise TypeError(f"cannot format {type(instr).__name__}")
    return " ".join([mnemonic, *(f"q{q}" for q in instr.qubits)])


@cache  # one table per register size parse accepts: at most MAX_QUBITS
def _vocabulary(num_qubits: int) -> dict[str, Instruction]:
    """Every canonical instruction line of a `num_qubits`-wire register,
    written through `_line`, mapped to its frozen instruction: 11n +
    n(n-1) entries, built on first use and kept for the process. Read only."""
    instrs = (make(*wires) for make, arity in _GRAMMAR.values()
              for wires in permutations(range(num_qubits), arity))
    return {_line(instr): instr for instr in instrs}


def parse(source: str, name: str = "") -> Circuit:
    """Parse circuit text into a Circuit.

    Raises :class:`ParseError` (with line number) on unknown mnemonics,
    malformed or out-of-range qubit tokens, wrong operand counts, and a
    missing or duplicated ``qubits`` header. Once the header is read, a
    line is looked up, as written and then normalized, in the register
    size's vocabulary of canonical lines, and every occurrence shares its
    frozen instruction; only a line the vocabulary lacks (an odd spelling
    such as ``H Q03``, or an invalid line) is checked token by token.
    A `source` that is not a `str` is a TypeError.
    """
    _expect(source, str)
    num_qubits: int | None = None
    instrs: list[Instruction] = []
    lines: list[int] = []
    vocabulary: dict[str, Instruction] = {}  # empty until the header

    for line_no, raw in enumerate(source.splitlines(), start=1):
        instr = vocabulary.get(raw)
        if instr is None:
            text = raw.split("#", 1)[0].strip().lower()
            if not text:
                continue
            instr = vocabulary.get(text)
        if instr is None:
            tokens = text.split()
            mnemonic, args = tokens[0], tokens[1:]

            if mnemonic == "qubits":
                if num_qubits is not None:
                    raise ParseError(line_no, "duplicate 'qubits' header")
                if len(args) != 1:
                    raise ParseError(line_no, "expected 'qubits <N>'")
                digits = _digits(args[0])
                if digits is None:
                    raise ParseError(line_no, f"malformed qubit count {_clip(args[0])!r}")
                if len(digits) > _MAX_DIGITS or not 1 <= int(digits) <= MAX_QUBITS:
                    raise ParseError(
                        line_no, f"qubit count must be 1..{MAX_QUBITS}, got {_clip(digits)}"
                    )
                num_qubits = int(digits)
                vocabulary = _vocabulary(num_qubits)
                continue

            if num_qubits is None:
                raise ParseError(line_no, "missing 'qubits <N>' header")

            if mnemonic not in _GRAMMAR:
                raise ParseError(line_no, f"unknown mnemonic {mnemonic!r}")
            make, arity = _GRAMMAR[mnemonic]
            if len(args) != arity:
                raise ParseError(line_no, f"'{mnemonic}' expects {_OPERANDS[arity]}")
            wires = []
            for token in args:
                digits = _digits(token[1:]) if token[0] == "q" else None
                if digits is None:
                    raise ParseError(line_no,
                                     f"malformed qubit token {_clip(token)!r} (expected q<i>)")
                if len(digits) > _MAX_DIGITS or int(digits) >= num_qubits:
                    raise ParseError(line_no, f"qubit q{_clip(digits)} out of range "
                                     f"for declared size {num_qubits}")
                q = int(digits)
                if q in wires:
                    raise ParseError(line_no, f"{mnemonic} control and target must differ")
                wires.append(q)
            instr = make(*wires)
        instrs.append(instr)
        lines.append(line_no)

    if num_qubits is None:
        raise ParseError(1, "missing 'qubits <N>' header")
    return Circuit(num_qubits, instrs, name=name, source_lines=lines)


def format_circuit(circuit: Circuit) -> str:
    """Render a circuit in canonical (lowercase) form: its header, then each `_line`.

    parse(format_circuit(c)) is structurally equal to c, and formatting
    an already-canonical text reproduces it byte for byte.
    """
    _expect(circuit, Circuit)
    return "\n".join([f"qubits {circuit.num_qubits}", *map(_line, circuit.instrs)]) + "\n"


def validate(circuit: Circuit, device: DeviceModel | None = None) -> list[Violation]:
    """Check that a circuit can execute, optionally on a given device.

    Returns findings as data (empty list means runnable), in instruction
    order, and never raises on a well-typed circuit; a `circuit` or
    `device` of the wrong class is a TypeError. Wire bounds, gate
    kinds and terminal measurement are checked first; a wire index that
    is not an integer in range is reported once and checked no further.
    With a device, the register and its wires must then fit the chip and
    every CNOT must point at an allowed target. Either way the circuit
    needs at least one measurement.

    An instruction that can have no finding takes a fast path,
    dispatched on its exact class: a Gate1 of a known kind, a marker, or
    a Cnot with an allowed target, on plain int wires that fit the
    register and the chip and are not yet measured. Every other
    instruction goes through `_check_instruction`, which runs every check.
    """
    _expect(circuit, Circuit)
    if device is not None:
        _expect(device, DeviceModel)
    n = circuit.num_qubits
    fits = n if device is None else min(n, device.num_qubits)
    allowed = None if device is None else device.allowed_cnot_targets
    found: list[Violation] = []
    measured: set[int] = set()
    for idx, instr in enumerate(circuit.instrs):
        cls = type(instr)
        if cls is Cnot:
            c, t = instr.control, instr.target
            if (type(c) is int and type(t) is int and 0 <= c < fits and 0 <= t < fits
                    and c not in measured and t not in measured
                    and (allowed is None or t in allowed)):
                continue
        elif cls is Gate1 or cls is MeasureZ or cls is BlochMeasure:
            q = instr.qubit
            if (type(q) is int and 0 <= q < fits and q not in measured
                    and (cls is not Gate1 or isinstance(instr.kind, GateKind))):
                if cls is not Gate1:
                    measured.add(q)
                continue
        _check_instruction(found, measured, idx, instr, n, device)
    if device is not None and n > device.num_qubits:
        found.append(Violation(
            len(circuit.instrs), ViolationCode.QUBIT_OUT_OF_RANGE,
            f"{n}-qubit register does not fit {device.num_qubits}-qubit "
            f"device '{device.name}'",
        ))
    if not measured:
        found.append(Violation(
            len(circuit.instrs), ViolationCode.NO_MEASUREMENT,
            "circuit has no measurement",
        ))
    return found


def check(circuit: Circuit, processor: str, device: DeviceModel) -> list[Violation]:
    """validate() under the processor's rules: the CNOT-target rule and
    the chip size are hardware constraints, checked on the real one only.
    A device that is given is a `DeviceModel` on either processor."""
    if device is not None:
        _expect(device, DeviceModel)
    if processor not in PROCESSORS:
        raise ValueError(f"processor must be one of {PROCESSORS}, got {processor!r}")
    return validate(circuit, device if processor == "real" else None)


def _check_instruction(found: list[Violation], measured: set[int], idx: int,
                       instr: Instruction, num_qubits: int,
                       device: DeviceModel | None) -> None:
    """validate's every check on one instruction: append its findings to
    `found`, and add the wires a measurement marker takes to `measured`."""
    wires = []
    for q in instr.qubits:
        if _is_int(q) and 0 <= q < num_qubits:
            wires.append(q)
        else:
            found.append(Violation(
                idx, ViolationCode.QUBIT_OUT_OF_RANGE,
                f"q{q} out of range for {num_qubits}-qubit circuit",
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


def retarget_cnots(circuit: Circuit, device: DeviceModel) -> Circuit:
    """Rewrite forbidden-target CNOTs using the Hadamard reversal identity.

    cx c t with a forbidden target becomes h c, h t, cx t c, h c, h t,
    which acts identically on the state and points the new CNOT at the
    old control. Requires each offending CNOT to have its control on an
    allowed target wire; otherwise the circuit is rejected.

    Returns the input object unchanged when nothing needs rewriting.
    """
    _expect(circuit, Circuit)
    _expect(device, DeviceModel)
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
