"""Text format round-trips, the device validator, and CNOT retargeting."""

import copy
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsim
from qsim import circuit as circuit_module
from qsim.circuit import (
    BlochMeasure,
    Circuit,
    Cnot,
    DeviceModel,
    Gate1,
    MeasureZ,
    QubitNoise,
    ViolationCode,
    default_device,
    format_circuit,
    load_device,
    parse,
    retarget_cnots,
    validate,
)
from qsim.cli import simulate_text
from qsim.engine import run
from qsim.errors import DeviceError, ParseError, UntranspilableError, ValidationError
from qsim.gates import GateKind
from qsim.states import PureState

from oracles import (phase_insensitive_overlap, random_circuit, random_pure_vec,
                     validate_reference)

PROPERTY_SETTINGS = settings(max_examples=100, derandomize=True, deadline=None, database=None)
SEEDS = st.integers(0, 2**32 - 1)

TELEPORT_TEXT = """\
# teleport a freshly prepared |1>
qubits 3
x q0
h q1
cx q1 q2
cx q0 q2
h q0
measure q0
measure q1
"""


class TestParse:
    def test_minimal_circuit(self):
        c = parse("qubits 1\nh q0\nmeasure q0\n")
        assert c == Circuit(1, [Gate1(GateKind.H, 0), MeasureZ(0)])

    def test_teleport_listing(self):
        c = parse(TELEPORT_TEXT)
        assert c.num_qubits == 3
        assert c.instrs == [
            Gate1(GateKind.X, 0),
            Gate1(GateKind.H, 1),
            Cnot(1, 2),
            Cnot(0, 2),
            Gate1(GateKind.H, 0),
            MeasureZ(0),
            MeasureZ(1),
        ]
        assert c.source_lines == [3, 4, 5, 6, 7, 8, 9]

    def test_unknown_mnemonic(self):
        with pytest.raises(ParseError, match="unknown mnemonic 'foo'") as exc:
            parse("qubits 2\nfoo q0\n")
        assert exc.value.line == 2

    def test_missing_header(self):
        with pytest.raises(ParseError, match="missing 'qubits"):
            parse("h q0\n")
        with pytest.raises(ParseError, match="missing 'qubits"):
            parse("# only a comment\n")

    def test_duplicate_header(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse("qubits 2\nqubits 3\n")

    @pytest.mark.parametrize("count", ["0", "17", "-3", "two"])
    def test_bad_qubit_count(self, count):
        with pytest.raises(ParseError):
            parse(f"qubits {count}\n")

    def test_index_beyond_declared_size(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("qubits 2\nx q2\n")

    def test_long_qubit_token_keeps_its_line(self):
        # past Python's 4300-digit int() limit on builds that have one
        with pytest.raises(ParseError, match="out of range for declared size 2") as exc:
            parse("qubits 2\nh q" + "1" * 5000 + "\n")
        assert exc.value.line == 2
        assert len(str(exc.value)) < 200
        c = parse("qubits 2\nh q" + "0" * 5000 + "1\n")  # leading zeros are no digits
        assert c.instrs == [Gate1(GateKind.H, 1)]

    @pytest.mark.parametrize("token", ["0", "qx", "q", "q-1", "q+1", "q0_1", "q\u0661",
                                       "q\u06f1", "q\uff11", pytest.param("q" + "x" * 5000, id="qxxx...")])
    def test_malformed_qubit_token(self, token):
        with pytest.raises(ParseError, match="malformed qubit token") as exc:
            parse(f"qubits 2\nx {token}\n")
        assert exc.value.line == 2
        assert len(str(exc.value)) < 200

    @pytest.mark.parametrize("count", ["1_6", "+2", "\u0662", "\u0661\u0666", "\uff12",
                                       "2.0", "0x2", pytest.param("x" * 5000, id="xxx...")])
    def test_qubit_count_is_ascii_digits_only(self, count):
        # int() accepts the first four; the grammar names ASCII 0-9 only
        with pytest.raises(ParseError, match="malformed qubit count") as exc:
            parse(f"qubits {count}\nh q0\n")
        assert exc.value.line == 1
        assert len(str(exc.value)) < 200

    def test_long_qubit_count_gives_a_short_message(self):
        with pytest.raises(ParseError, match="qubit count must be 1..16") as exc:
            parse("qubits " + "1" * 5000 + "\n")
        assert exc.value.line == 1
        assert len(str(exc.value)) < 200
        assert parse("qubits " + "0" * 5000 + "16\n").num_qubits == 16

    def test_wrong_operand_count(self):
        with pytest.raises(ParseError, match="one qubit operand"):
            parse("qubits 2\nx q0 q1\n")
        with pytest.raises(ParseError, match="two qubit operands"):
            parse("qubits 2\ncx q0\n")

    def test_cx_needs_distinct_wires(self):
        with pytest.raises(ParseError, match="must differ"):
            parse("qubits 2\ncx q1 q1\n")

    def test_case_and_comments_and_blanks(self):
        c = parse("QUBITS 2\n\nH Q0   # prepare\n  CX q0 Q1\nMeasure q1\n")
        assert c.instrs == [Gate1(GateKind.H, 0), Cnot(0, 1), MeasureZ(1)]

    def test_bloch_marker(self):
        c = parse("qubits 1\nh q0\nbloch q0\n")
        assert c.instrs[-1] == BlochMeasure(0)

    def test_repeated_lines_keep_their_own_line_numbers(self):
        c = parse("qubits 2\nh q0\nH Q0  # again\ncx q0 q1\n\nh q0\ncx q0 q1\nmeasure q1\n")
        h, cx = Gate1(GateKind.H, 0), Cnot(0, 1)
        assert c.instrs == [h, h, cx, h, cx, MeasureZ(1)]
        assert c.source_lines == [2, 3, 4, 6, 7, 8]
        canonical = "qubits 2\nh q0\nh q0\ncx q0 q1\nh q0\ncx q0 q1\nmeasure q1\n"
        assert format_circuit(c) == canonical
        assert parse(canonical) == c

    def test_a_repeated_bad_line_reports_its_first_line(self):
        with pytest.raises(ParseError) as info:
            parse("qubits 2\nh q0\nx q5\nh q0\nx q5\n")
        assert info.value.line == 3


class TestVocabulary:
    """parse looks canonical lines up in a per-size table and checks
    every other line token by token: both give the same circuit."""

    CANONICAL = "qubits 4\nh q3\ncx q0 q2\nmeasure q3\n"

    @pytest.mark.parametrize("text", [
        "QUBITS 4\nH Q3\nCX Q0 Q2\nMEASURE Q3\n",  # upper case
        "qubits\t4\nh\tq3\ncx  q0\t\tq2\nmeasure   q3\n",  # tabs and double spaces
        "qubits 04\nh q003\ncx q000 q002\nmeasure q03\n",  # leading zeros
        "qubits 4 # four wires\nh q3# on q3\ncx q0 q2  # entangle\nmeasure q3 #\n",
        "  qubits 4  \n  h q3\ncx q0 q2  \n measure q3\n",
    ])
    def test_odd_spellings_parse_as_the_canonical_lines(self, text):
        odd, canonical = parse(text), parse(self.CANONICAL)
        assert odd == canonical
        assert odd.source_lines == canonical.source_lines == [2, 3, 4]
        assert format_circuit(odd) == self.CANONICAL

    @pytest.mark.parametrize("text, line, message", [
        ("h q0\nqubits 2\n", 1, "missing 'qubits <N>' header"),
        ("qubits 2\nh q0\nh q2\nh q2\n", 3, "qubit q2 out of range for declared size 2"),
        ("qubits 2\nh q0\ncx q1 q1\n", 3, "cx control and target must differ"),
        ("qubits 2\nh q0\nqubits 2\n", 3, "duplicate 'qubits' header"),
        ("qubits 2\nh q0\nhh q0\n", 3, "unknown mnemonic 'hh'"),
        ("qubits 2\nh q0\nh q0 q1\n", 3, "'h' expects one qubit operand"),
        ("qubits 2\nh q0\ncx q0\n", 3, "'cx' expects two qubit operands"),
        ("qubits 2\nh q0\nmeasure 0\n", 3, "malformed qubit token '0' (expected q<i>)"),
        ("qubits 2\nh q0\nh q-1\n", 3, "malformed qubit token 'q-1' (expected q<i>)"),
        ("qubits\nh q0\n", 1, "expected 'qubits <N>'"),
        ("qubits 2 3\nh q0\n", 1, "expected 'qubits <N>'"),
    ])
    def test_bad_lines_keep_their_errors_and_first_line(self, text, line, message):
        parse("qubits 2\nh q0\nmeasure q0\n")  # the size-2 table exists already
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.line == line
        assert message in str(info.value)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_the_table_holds_each_canonical_line_once(self, n):
        table = circuit_module._vocabulary(n)
        assert len(table) == 11 * n + n * (n - 1)
        for line, instr in table.items():
            assert format_circuit(Circuit(n, [instr])) == f"qubits {n}\n{line}\n"
            # parse shares these: each is immutable, and a copy equals and hashes with it
            twin = copy.copy(instr)
            assert twin is not instr and twin == instr and hash(twin) == hash(instr)
            assert format_circuit(Circuit(n, [twin])) == f"qubits {n}\n{line}\n"
            for name in ("kind", "qubit", "control", "target"):
                if hasattr(instr, name):
                    with pytest.raises(AttributeError):
                        setattr(instr, name, 0)
                    with pytest.raises(AttributeError):
                        delattr(instr, name)
        assert circuit_module._vocabulary(n) is table
        assert circuit_module._vocabulary.cache_info().currsize <= 16

    @PROPERTY_SETTINGS
    @given(seed=SEEDS, n=st.integers(1, 16), depth=st.integers(0, 40), markers=st.booleans())
    def test_format_round_trips_through_the_table(self, seed, n, depth, markers):
        # format_circuit and the table spell a line through one function:
        # every line written after the header is its instruction's key
        rng = np.random.default_rng(seed)
        c = random_circuit(rng, n, depth)
        if markers:
            c.instrs.extend(BlochMeasure(int(q)) for q in rng.integers(n, size=3))
        text = format_circuit(c)
        table = circuit_module._vocabulary(n)
        header, *lines = text.splitlines()
        assert header == f"qubits {n}"
        assert [table[line] for line in lines] == c.instrs
        assert parse(text) == c
        assert format_circuit(parse(text)) == text
        assert len(table) == 11 * n + n * (n - 1)


class TestEquality:
    def test_instructions_equal_only_their_own_type(self):
        assert MeasureZ(0) != BlochMeasure(0) and BlochMeasure(0) != MeasureZ(0)
        assert Gate1(GateKind.H, 0) != (GateKind.H, 0)
        assert Cnot(0, 1) != (0, 1) and MeasureZ(0) != (0,)
        assert len({MeasureZ(0), BlochMeasure(0), MeasureZ(0)}) == 2
        assert Circuit(1, [MeasureZ(0)]) != Circuit(1, [BlochMeasure(0)])

    def test_circuits_ignore_name_and_source_lines(self):
        assert Circuit(1, [MeasureZ(0)], name="a", source_lines=[1]) == Circuit(1, [MeasureZ(0)])
        spaced = parse("qubits 1\n\nh q0\nmeasure q0\n", name="spaced")
        assert spaced.source_lines == [3, 4]
        assert spaced == parse("qubits 1\nh q0\nmeasure q0\n")
        assert Circuit(2) != Circuit(1) and Circuit(1).instrs == []
        assert Circuit(1).instrs is not Circuit(1).instrs


@pytest.mark.parametrize("call, message", [
    (lambda: format_circuit(None), "expected a Circuit, got NoneType"),
    (lambda: validate(None), "expected a Circuit, got NoneType"),
    (lambda: validate(parse(TELEPORT_TEXT), "dev"), "expected a DeviceModel, got str"),
    (lambda: retarget_cnots(None, default_device()), "expected a Circuit, got NoneType"),
    (lambda: retarget_cnots(parse(TELEPORT_TEXT), None), "expected a DeviceModel, got NoneType"),
    (lambda: run(None), "expected a Circuit, got NoneType"),
    (lambda: run(parse(TELEPORT_TEXT), "real", "dev"), "expected a DeviceModel, got str"),
    # the ideal processor has no use for a device, but a given one is still checked
    (lambda: run(parse(TELEPORT_TEXT), "ideal", "dev"), "expected a DeviceModel, got str"),
    (lambda: simulate_text(parse(TELEPORT_TEXT), "dev", "ideal", "csv", 4, 1),
     "expected a DeviceModel, got str"),
    (lambda: simulate_text(parse(TELEPORT_TEXT), "dev", "ideal", "json", 4, 1),
     "expected a DeviceModel, got str"),
    (lambda: parse(None), "expected a str, got NoneType"),
    (lambda: parse(5), "expected a str, got int"),
    (lambda: parse([]), "expected a str, got list"),
], ids=["format", "validate", "validate-device", "retarget", "retarget-device", "run",
        "run-device", "run-ideal-device", "simulate-csv-device", "simulate-json-device",
        "parse-none", "parse-int", "parse-list"])
def test_an_argument_of_the_wrong_class_is_a_type_error(call, message):
    # refused before any attribute is read; run and simulate_text go through check
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


class TestFormat:
    def test_empty_circuit(self):
        assert format_circuit(Circuit(5)) == "qubits 5\n"

    def test_foreign_instruction_is_refused(self):
        with pytest.raises(TypeError, match="cannot format tuple"):
            format_circuit(Circuit(2, [Gate1(GateKind.H, 0), (0, 1)]))

    def test_mixed_case_input_canonicalizes_to_lowercase(self):
        text = format_circuit(parse("QUBITS 1\nX Q0\nMEASURE Q0\n"))
        assert text == "qubits 1\nx q0\nmeasure q0\n"

    def test_round_trip_is_byte_identical_after_one_pass(self):
        canonical = format_circuit(parse(TELEPORT_TEXT))
        assert format_circuit(parse(canonical)) == canonical
        # every mnemonic of the grammar, parsed and formatted
        every = "qubits 3\n" + "".join(f"{g.value} q{i % 3}\n" for i, g in enumerate(GateKind))
        every += "cx q0 q2\nmeasure q1\nbloch q2\n"
        assert format_circuit(parse(every)) == every
        assert len(parse(every).instrs) == len(GateKind) + 3

    def test_parse_format_parse_idempotent_on_generated_circuits(self):
        rng = np.random.default_rng(21)
        for i in range(50):
            c = random_circuit(rng, int(rng.integers(1, 6)), int(rng.integers(0, 25)))
            if i % 3 == 0:
                c.instrs.append(BlochMeasure(int(rng.integers(c.num_qubits))))
            once = parse(format_circuit(c))
            twice = parse(format_circuit(once))
            assert once == twice
            assert once == c

    @PROPERTY_SETTINGS
    @given(seed=SEEDS, n=st.integers(1, 16), depth=st.integers(0, 40), measure=st.booleans())
    def test_parse_inverts_format(self, seed, n, depth, measure):
        c = random_circuit(np.random.default_rng(seed), n, depth, measure=measure)
        assert parse(format_circuit(c)) == c


class TestDeviceModel:
    def test_packaged_default(self):
        dev = default_device()
        assert dev.num_qubits == 5
        assert dev.allowed_cnot_targets == frozenset({2})
        assert max(range(5), key=lambda q: dev.qubits[q].gamma_relax) == 3
        assert all(q.gamma_phase == 0.0 for q in dev.qubits)

    def test_load_device_round_trip(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text(
            '{"name": "toy", "num_qubits": 2, "allowed_cnot_targets": [1],'
            ' "gate_time_tau_s": 1e-6,'
            ' "qubits": [{"gamma_relax": 0.1, "gamma_phase": 0.2},'
            '            {"gamma_relax": 0.0, "gamma_phase": 0.0}]}'
        )
        dev = load_device(path)
        assert dev.name == "toy"
        assert dev.qubits[0] == QubitNoise(0.1, 0.2)

    def test_bad_rate_rejected(self):
        with pytest.raises(DeviceError, match="outside"):
            DeviceModel("bad", 1, frozenset(), 1e-6, (QubitNoise(1.5, 0.0),))

    @pytest.mark.parametrize("fields, message", [
        ({"qubits": (QubitNoise(0.1, 1.5), QubitNoise(0.0, 0.0))}, "gamma_phase=1.5 outside"),
        ({"num_qubits": 3}, "one noise entry per qubit"),
        ({"num_qubits": 0, "qubits": ()}, "at least one qubit"),
        ({"allowed_cnot_targets": frozenset({2})}, "target q2 not on device"),
    ], ids=["rate", "size", "empty", "target"])
    def test_a_bad_field_is_refused_on_every_construction_path(self, tmp_path, fields, message):
        good = {"name": "toy", "num_qubits": 2, "allowed_cnot_targets": frozenset({1}),
                "gate_time_tau_s": 1e-6, "qubits": (QubitNoise(0.1, 0.2), QubitNoise(0.0, 0.0))}
        bad = {**good, **fields}
        data = {**bad, "allowed_cnot_targets": sorted(bad["allowed_cnot_targets"]),
                "qubits": [{"gamma_relax": q.gamma_relax, "gamma_phase": q.gamma_phase}
                           for q in bad["qubits"]]}
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(data))
        for build in (lambda: DeviceModel(**bad), lambda: DeviceModel(*bad.values()),
                      lambda: DeviceModel.from_dict(data), lambda: load_device(path)):
            with pytest.raises(DeviceError, match=message):
                build()
        # a built device cannot be changed, and a copy or a pickle is checked again
        device = DeviceModel(**good)
        with pytest.raises(AttributeError):
            device.qubits = bad["qubits"]
        assert not hasattr(device, "_replace")
        assert copy.deepcopy(device) == pickle.loads(pickle.dumps(device)) == device
        forced = DeviceModel(**good)
        for name, value in fields.items():
            object.__setattr__(forced, name, value)
        for rebuild in (copy.copy, copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))):
            with pytest.raises(DeviceError, match=message):
                rebuild(forced)

    def test_a_path_that_is_no_str_bytes_or_pathlike_is_refused(self):
        # open() would take an int (a bool, a numpy int) as a file
        # descriptor, read it and close it; stdin and stdout stay open
        code = ("import os\nimport numpy as np\nfrom qsim.circuit import load_device\n"
                "refusals = []\n"
                "for path in (0, True, np.int64(1)):\n"
                "    try:\n        load_device(path)\n"
                "    except TypeError as exc:\n        refusals.append(str(exc))\n"
                "os.fstat(0), os.fstat(1)\nprint(refusals)\n")
        env = {k: v for k, v in os.environ.items() if k != "QSIM_DEVICE"}
        src = str(Path(qsim.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == str([f"path must be a str, bytes or os.PathLike, got {kind}"
                                   for kind in ("int", "bool", "int64")]) + "\n"

    def test_a_bytes_path_is_read(self):
        path = Path(qsim.__file__).resolve().parent / "devices" / "ibmqx-like.json"
        assert load_device(os.fsencode(path)) == default_device()

    @pytest.mark.parametrize("tau", [-1e-7, 0.0, float("nan"), float("inf")])
    def test_bad_gate_time_rejected(self, tau):
        with pytest.raises(DeviceError, match="gate_time_tau_s"):
            DeviceModel("bad", 1, frozenset(), tau, (QubitNoise(0.0, 0.0),))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "dev.json"
        empty = {"name": "empty", "num_qubits": 0, "allowed_cnot_targets": [],
                 "gate_time_tau_s": 1e-7, "qubits": []}
        unwritable = {**empty, "name": "q\ud800", "num_qubits": 1,
                      "qubits": [{"gamma_relax": 0.0, "gamma_phase": 0.0}]}
        # the deep one overflows the json parser's recursion; then two byte
        # strings that are not UTF-8 (the second a cut byte-order mark), a
        # value from_dict cannot read, an integer past Python's digit limit,
        # and two devices DeviceModel refuses: no qubit, and a name no
        # report can print
        for text in (b"{not json", b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe", b"\xef\xbb",
                     b"[]", b"1" * 5000, json.dumps(empty).encode(),
                     json.dumps(unwritable).encode()):
            path.write_bytes(text)
            with pytest.raises(DeviceError, match=re.escape(f"{path}: ")) as refused:
                load_device(path)
            if text in (b"\xff\xfe", b"\xef\xbb"):
                assert str(refused.value).startswith(f"{path}: 'utf-8' codec can't decode ")

    @pytest.mark.parametrize("field, value, message", [
        ("num_qubits", 5.7, "num_qubits must be an integer, got 5.7"),
        ("num_qubits", True, "num_qubits must be an integer, got True"),
        ("num_qubits", "5", "num_qubits must be an integer, got '5'"),
        ("allowed_cnot_targets", [2.9], "allowed_cnot_targets entry must be an integer"),
        ("allowed_cnot_targets", [True], "allowed_cnot_targets entry must be an integer"),
        ("gate_time_tau_s", True, "gate_time_tau_s must be a number, got True"),
        ("gate_time_tau_s", "1e-7", "gate_time_tau_s must be a number"),
        ("gate_time_tau_s", 10 ** 400, "int too large to convert to float"),
        ("qubits", [{"gamma_relax": True, "gamma_phase": 0.0}], "gamma_relax must be a number"),
        ("qubits", [{"gamma_relax": 0.0, "gamma_phase": "0"}], "gamma_phase must be a number"),
        ("qubits", [], "device needs one noise entry per qubit"),
        ("allowed_cnot_targets", [1], "allowed cnot target q1 not on device"),
        ("allowed_cnot_targets", [0.5], "allowed_cnot_targets entry must be an integer, got 0.5"),
        ("qubits", [{"gamma_relax": None, "gamma_phase": 0.0}],
         "gamma_relax must be a number, got None"),
        ("name", 5, "name must be a str, got 5"),
    ])
    def test_non_numeric_fields_rejected(self, field, value, message):
        data = {"name": "toy", "num_qubits": 1, "allowed_cnot_targets": [0],
                "gate_time_tau_s": 1e-7, "qubits": [{"gamma_relax": 0.0, "gamma_phase": 0.0}]}
        data[field] = value
        with pytest.raises(DeviceError, match=re.escape(message)):
            DeviceModel.from_dict(data)
        # the constructor runs the same checks: a wrong type is its own TypeError
        # (OverflowError for an int no float holds), a bad value a DeviceError
        fields = {**data, "qubits": [(q["gamma_relax"], q["gamma_phase"]) for q in data["qubits"]]}
        refusal = (DeviceError if "device" in message
                   else OverflowError if "too large" in message else TypeError)
        with pytest.raises(refusal, match=f"^{re.escape(message)}"):
            DeviceModel(**fields)

    @pytest.mark.parametrize("field, value, stored", [
        ("gate_time_tau_s", 1, 1.0),
        ("allowed_cnot_targets", [0], frozenset({0})),
        ("qubits", [(0, 1)], (QubitNoise(0.0, 1.0),)),
    ], ids=["tau", "targets", "qubits"])
    def test_a_direct_call_stores_what_from_dict_stores(self, field, value, stored):
        fields = {"name": "toy", "num_qubits": 1, "allowed_cnot_targets": frozenset(),
                  "gate_time_tau_s": 1e-7, "qubits": (QubitNoise(0.0, 0.0),), field: value}
        data = {**fields, "allowed_cnot_targets": list(fields["allowed_cnot_targets"]),
                "qubits": [{"gamma_relax": g, "gamma_phase": p} for g, p in fields["qubits"]]}
        device = DeviceModel(**fields)
        assert device == DeviceModel.from_dict(data)
        assert hash(device) == hash(DeviceModel.from_dict(data))
        assert getattr(device, field) == stored
        assert type(getattr(device, field)) is type(stored)
        assert type(device.gate_time_tau_s) is float
        assert [type(q) for q in device.qubits] == [QubitNoise]
        assert [type(rate) for rate in device.qubits[0]] == [float, float]


class TestValidate:
    def test_teleport_is_clean_on_default_device(self):
        assert validate(parse(TELEPORT_TEXT), default_device()) == []

    def test_forbidden_cnot_target(self):
        c = parse("qubits 3\ncx q2 q0\nmeasure q0\n")
        found = validate(c, default_device())
        assert [v.code for v in found] == [ViolationCode.CNOT_TARGET_FORBIDDEN]
        assert found[0].index == 0

    def test_no_measurement(self):
        c = parse("qubits 2\nh q0\n")
        found = validate(c, default_device())
        assert [v.code for v in found] == [ViolationCode.NO_MEASUREMENT]
        assert found[0].index == len(c.instrs)

    def test_gate_after_measure(self):
        c = parse("qubits 1\nmeasure q0\nx q0\n")
        found = validate(c)
        assert [v.code for v in found] == [ViolationCode.GATE_AFTER_MEASURE]

    def test_double_measurement_flagged(self):
        c = parse("qubits 1\nh q0\nmeasure q0\nmeasure q0\n")
        assert [v.code for v in validate(c)] == [ViolationCode.GATE_AFTER_MEASURE]

    def test_circuit_larger_than_device(self):
        c = parse("qubits 6\nx q5\nmeasure q5\n")
        codes = {v.code for v in validate(c, default_device())}
        assert ViolationCode.QUBIT_OUT_OF_RANGE in codes
        # the whole register must fit, even wires no instruction touches
        c = parse("qubits 7\nh q0\ncx q0 q2\nmeasure q2\n")
        found = validate(c, default_device())
        assert [(v.index, v.code) for v in found] == [(3, ViolationCode.QUBIT_OUT_OF_RANGE)]
        assert found[0].message == "7-qubit register does not fit 5-qubit device 'ibmqx-like'"
        assert validate(c) == []

    def test_unknown_gate_kind_reported_not_raised(self):
        c = Circuit(1, [Gate1("bogus", 0), MeasureZ(0)])
        found = validate(c)
        assert [v.code for v in found] == [ViolationCode.UNKNOWN_GATE]

    def test_out_of_range_index_reported_not_raised(self):
        # the kernels' rule: a Python or numpy integer in range, never a bool
        for q in (5, -1, np.int64(2), 1.0, 0.5, True, False):
            c = Circuit(2, [Gate1(GateKind.H, q), MeasureZ(1), MeasureZ(0)])
            found = validate(c)
            assert [(v.index, v.code) for v in found] == [(0, ViolationCode.QUBIT_OUT_OF_RANGE)]
            with pytest.raises(ValidationError):
                run(c)
        assert validate(Circuit(2, [Gate1(GateKind.H, np.int64(1)), MeasureZ(np.int64(1))])) == []

    def test_validate_is_total_on_generated_circuits(self):
        from oracles import random_circuit

        rng = np.random.default_rng(22)
        for _ in range(100):
            c = random_circuit(rng, int(rng.integers(1, 7)), int(rng.integers(0, 20)),
                               measure=bool(rng.integers(2)))
            found = validate(c, default_device())  # must never raise
            assert [v.index for v in found] == sorted(v.index for v in found)

    def test_findings_in_instruction_order_structural_first(self):
        device = DeviceModel("toy3", 3, frozenset({0, 2}), 1e-7, (QubitNoise(0.0, 0.0),) * 3)
        c = Circuit(5, [MeasureZ(3), Cnot(4, 3), Gate1("zz", 7)])
        V = ViolationCode
        assert [(v.index, v.code, v.message) for v in validate(c, device)] == [
            (0, V.QUBIT_OUT_OF_RANGE, "q3 not present on 3-qubit device 'toy3'"),
            (1, V.GATE_AFTER_MEASURE, "gate on q3 after its measurement"),
            (1, V.QUBIT_OUT_OF_RANGE, "q4 not present on 3-qubit device 'toy3'"),
            (1, V.QUBIT_OUT_OF_RANGE, "q3 not present on 3-qubit device 'toy3'"),
            (1, V.CNOT_TARGET_FORBIDDEN, "cx may not target q3 on 'toy3' (allowed targets: q0,q2)"),
            (2, V.QUBIT_OUT_OF_RANGE, "q7 out of range for 5-qubit circuit"),
            (2, V.UNKNOWN_GATE, "unknown gate kind 'zz'"),
            (3, V.QUBIT_OUT_OF_RANGE, "5-qubit register does not fit 3-qubit device 'toy3'"),
        ]


class _TaggedGate(Gate1):
    """A Gate1 subclass: validate takes its generic path."""


def _wires(n):
    """Mostly plain ints in range; else numpy ints, bools, floats, or ints
    out of range."""
    odd = st.integers(-2, n + 1)
    odd = odd | odd.map(np.int64) | st.booleans() | st.sampled_from([1.0, 0.5])
    return st.one_of(*[st.integers(0, n - 1)] * 4, odd)


def _cnot_or_none(c, t):
    try:
        return Cnot(c, t)
    except ValueError:  # control == target, compared as numbers
        return None


@st.composite
def validator_cases(draw):
    """A circuit with wires of every type in and out of range, unknown gate
    kinds, gates and markers after a measurement, and maybe a device."""
    n = draw(st.integers(1, 4))
    wire = _wires(n)
    kind = st.sampled_from(list(GateKind)) | st.sampled_from(["h", "bogus", None])
    instr = st.one_of(
        st.builds(Gate1, kind, wire),
        st.builds(_TaggedGate, kind, wire),
        st.builds(_cnot_or_none, wire, wire).filter(lambda c: c is not None),
        st.builds(MeasureZ, wire),
        st.builds(BlochMeasure, wire),
    )
    circuit = Circuit(n, draw(st.lists(instr, min_size=4, max_size=24)))
    size = draw(st.integers(max(1, n - 2), n + 1))
    targets = draw(st.frozensets(st.integers(0, size - 1)))
    device = DeviceModel("toy", size, targets, 1e-7, (QubitNoise(0.0, 0.0),) * size)
    return circuit, draw(st.none() | st.just(device))


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(case=validator_cases())
@example(case=(Circuit(2, [MeasureZ(1), Cnot(0, 1)]), None))  # a cx target after its measurement
@example(case=(Circuit(2, [BlochMeasure(0), Cnot(0, 1), MeasureZ(1)]), None))  # a cx control
@example(case=(Circuit(3, [Cnot(0, 2), Cnot(2, 1), MeasureZ(0)]), default_device()))
def test_validate_equals_the_generic_loop(case):
    circuit, device = case
    assert validate(circuit, device) == validate_reference(circuit, device)


class TestRetarget:
    def test_textbook_reversal(self):
        c = Circuit(3, [Cnot(2, 0), MeasureZ(0)])
        out = retarget_cnots(c, default_device())
        assert out.instrs == [
            Gate1(GateKind.H, 2),
            Gate1(GateKind.H, 0),
            Cnot(0, 2),
            Gate1(GateKind.H, 2),
            Gate1(GateKind.H, 0),
            MeasureZ(0),
        ]
        assert validate(out, default_device()) == []

    def test_legal_circuit_returned_unchanged(self):
        c = parse(TELEPORT_TEXT)
        assert retarget_cnots(c, default_device()) is c

    def test_untranspilable_cnot(self):
        c = Circuit(3, [Cnot(0, 1), MeasureZ(0)])
        with pytest.raises(UntranspilableError):
            retarget_cnots(c, default_device())

    def test_rewrite_preserves_the_unitary_action(self):
        rng = np.random.default_rng(23)
        device = default_device()
        kinds = list(GateKind)
        for _ in range(10):
            instrs = []
            for _ in range(12):
                roll = rng.random()
                if roll < 0.2:
                    instrs.append(Cnot(2, int(rng.integers(2))))  # needs rewrite
                elif roll < 0.4:
                    instrs.append(Cnot(int(rng.integers(2)), 2))  # already legal
                else:
                    instrs.append(Gate1(kinds[int(rng.integers(len(kinds)))],
                                        int(rng.integers(3))))
            instrs.extend(MeasureZ(q) for q in range(3))
            circuit = Circuit(3, instrs)
            rewritten = retarget_cnots(circuit, device)
            assert validate(rewritten, device) == []
            for _ in range(20):
                start = PureState(random_pure_vec(rng, 3))
                before = run(circuit, initial=start).amps
                after = run(rewritten, initial=start).amps
                assert phase_insensitive_overlap(before, after) >= 1 - 1e-10

    @PROPERTY_SETTINGS
    @given(seed=SEEDS, n=st.integers(2, 5), depth=st.integers(0, 30),
           targets=st.integers(1, 2**5 - 1))
    def test_rewrite_keeps_the_ideal_state(self, seed, n, depth, targets):
        allowed = frozenset(q for q in range(n) if targets >> q & 1)
        device = DeviceModel("drawn", n, allowed, 1e-7, (QubitNoise(0.0, 0.0),) * n)
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng, n, depth, cnot_weight=0.4)
        try:
            rewritten = retarget_cnots(circuit, device)
        except UntranspilableError:
            assert any(isinstance(i, Cnot) and not {i.control, i.target} & allowed
                       for i in circuit.instrs)
            return
        assert validate(rewritten, device) == []
        start = PureState(random_pure_vec(rng, n))
        np.testing.assert_allclose(run(rewritten, initial=start).amps,
                                   run(circuit, initial=start).amps, rtol=0, atol=1e-12)
