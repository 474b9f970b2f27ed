"""The public namespace, the modules each CLI process loads, the names each
module imports, and the public callables' refusal of bad arguments."""

import ast
import functools
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsim

SRC = Path(qsim.__file__).resolve().parent.parent
BELL = Path(__file__).resolve().parents[1] / "circuits" / "bell.qc"  # cx q0 q1: refused on real
PUBLIC_NAMES = [
    "BellIndex", "BlochMeasure", "BlochVector", "BranchReport", "CapacityError",
    "Circuit", "Cnot", "DensityMatrix", "DeviceError", "DeviceModel", "Gate1",
    "GateKind", "Histogram", "KrausChannel", "MeasureZ", "NoiseConfig", "ParseError",
    "PureState", "QsimError", "QubitNoise", "TeleportResult",
    "UntranspilableError", "ValidationError", "Violation", "ViolationCode",
    "amplitude_damping", "apply_1q", "apply_cnot", "bell_state", "bloch_measure",
    "build_teleport_circuit", "circuit_correction_table", "correction_for",
    "decoherence_sweep", "default_device", "dephasing", "format_circuit",
    "histogram_json_fields", "is_separable", "load_device", "matrix_of", "parse",
    "probabilities", "reduced_density_1q", "retarget_cnots", "run", "run_teleport",
    "sample", "teleport_algebraic", "validate", "zero_density", "zero_state",
]
ACCEPTED = "qubits 3\nx q0\nh q1\ncx q1 q2\ncx q0 q2\nh q0\nmeasure q0\nmeasure q1\n"
# the packaged device allows cx targets q2 only
FORBIDDEN_CX = "qubits 3\nh q0\ncx q1 q0\nmeasure q0\n"
MALFORMED = "qubits 3\nfoo q0\n"
WIDE = "qubits 6\nh q0\nmeasure q0\n"  # does not fit the packaged 5-qubit device
NO_READOUT = "qubits 1\nh q0\n"
# generating a dataclass imports inspect (with ast, dis and tokenize); qsim's records need
# neither, and it reads the packaged device by path, not through importlib.resources, which
# imports inspect from Python 3.12
CODE_GENERATION = {"dataclasses", "inspect"}


def test_every_public_name_resolves():
    missing = [name for name in qsim.__all__ if not hasattr(qsim, name)]
    assert missing == []
    namespace: dict = {}
    exec("from qsim import *", namespace)
    assert set(qsim.__all__) <= set(namespace)


def test_public_names_are_pinned():
    assert sorted(qsim.__all__) == PUBLIC_NAMES


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qsim.no_such_name  # noqa: B018


def _run_reporting(code: str) -> tuple[object, set[str]]:
    """(the value of `result`, the names in sys.modules) after running
    code in a fresh interpreter that imports qsim from this tree."""
    env = {k: v for k, v in os.environ.items() if k != "QSIM_DEVICE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # the names are taken before the report imports json
    report = ("import sys\nloaded = sorted(sys.modules)\n"
              "import json\nprint(json.dumps([result, loaded]))")
    proc = subprocess.run([sys.executable, "-c", f"result = None\n{code}\n{report}"],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    result, modules = json.loads(proc.stdout.splitlines()[-1])
    return result, set(modules)


@functools.cache
def _bare_modules() -> frozenset[str]:
    """The modules a bare `python -c pass` has loaded in the same environment
    (`site` and what it imports, such as a .pth file's packages)."""
    return frozenset(_run_reporting("pass")[1])


def _modules_after(code: str) -> tuple[object, set[str]]:
    """(the value of `result`, the modules that code adds to a bare
    interpreter's) after running it in a fresh interpreter."""
    result, modules = _run_reporting(code)
    return result, modules - _bare_modules()


def test_import_qsim_loads_no_submodule():
    _, modules = _modules_after("import qsim")
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("qsim")} == {"qsim"}


def test_histogram_json_fields_loads_no_numpy():
    # the JSON schema lives in cli, which imports numpy only to run a circuit
    result, modules = _modules_after("import qsim\nresult = qsim.histogram_json_fields({})")
    assert result == {"shots": 0, "seed": None, "rng": None, "counts": {}, "probabilities": {}}
    assert "numpy" not in modules


@pytest.mark.parametrize("command, text, code", [
    ("validate", ACCEPTED, 0), ("validate", FORBIDDEN_CX, 1), ("validate", WIDE, 1),
    ("validate", MALFORMED, 2),
    ("simulate", MALFORMED, 2),  # numpy loads only once the circuit has parsed
    ("simulate", NO_READOUT, 1),  # and has a measure or bloch to report
], ids=["accepted", "forbidden-cx", "wide-register", "malformed", "simulate-malformed",
        "simulate-no-readout"])
def test_validate_loads_no_numpy(tmp_path, command, text, code):
    path = tmp_path / "c.qc"
    path.write_text(text)
    result, modules = _modules_after(
        f"from qsim.cli import main\nresult = main([{command!r}, {str(path)!r}])")
    assert result == code
    assert "numpy" not in modules
    assert not modules & {"qsim.engine", "qsim.measure", "qsim.protocols", "qsim.states"}
    assert "encodings.utf_8_sig" not in modules  # circuit.read_utf8 drops the mark itself
    assert not modules & CODE_GENERATION


def test_refused_real_simulate_loads_no_numpy(capsys):
    # the device is checked before the engine is imported, so a refusal
    # prints validate's report without loading numpy or a state module
    result, modules = _modules_after(
        "import contextlib, io\nfrom qsim.cli import main\nout = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = main(['simulate', {str(BELL)!r}, '--processor', 'real'])\n"
        "result = [code, out.getvalue()]")
    from qsim.cli import main

    assert main(["validate", str(BELL)]) == 1
    report = capsys.readouterr().out
    assert "CnotTargetForbidden" in report
    assert result == [1, report]
    assert not modules & {"numpy", "qsim.engine", "qsim.measure", "qsim.noise", "qsim.states"}
    assert not modules & CODE_GENERATION


def test_no_module_imports_dataclasses():
    imports = re.compile(r"^\s*(import|from)\s+dataclasses\b", re.MULTILINE)
    sources = sorted(Path(qsim.__file__).resolve().parent.glob("*.py"))
    assert len(sources) >= 10
    assert [p.name for p in sources if imports.search(p.read_text(encoding="utf-8"))] == []


def _writes(tree: ast.Module) -> list[str]:
    """The top-level function (or "<module>") around each call in `tree` that
    writes output: sys.stdout.write, sys.stderr.write, print or .write_text."""
    found = []
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "print"
                    or isinstance(f, ast.Attribute) and f.attr == "write_text"
                    or isinstance(f, ast.Attribute) and f.attr == "write"
                    and ast.unparse(f.value) in ("sys.stdout", "sys.stderr")):
                found.append(where)
    return found


def test_cli_run_is_the_only_writer():
    sources = sorted(Path(qsim.__file__).resolve().parent.glob("*.py"))
    assert len(sources) >= 10
    writers = {(p.stem, where) for p in sources
               for where in _writes(ast.parse(p.read_text(encoding="utf-8")))}
    assert writers == {("cli", "_run")}


def test_simulate_loads_no_protocols(tmp_path):
    path = tmp_path / "c.qc"
    path.write_text(ACCEPTED)
    result, modules = _modules_after(
        f"from qsim.cli import main\nresult = main(['simulate', {str(path)!r}, '--seed', '7'])")
    assert result == 0
    assert {"numpy", "qsim.engine", "qsim.measure"} <= modules
    assert "qsim.protocols" not in modules
    assert "encodings.utf_8_sig" not in modules


def _imported_names(tree: ast.Module) -> set[str]:
    """The names a module's import statements bind, `from __future__` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, in code or in an unquoted annotation (so a
    name imported under TYPE_CHECKING for annotations counts)."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_imported_name_is_used():
    # __init__.py is skipped: a package's __init__ may import a name only to export it
    sources = sorted(Path(qsim.__file__).resolve().parent.glob("*.py"))
    unused = {}
    for path in sources:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if extra := _imported_names(tree) - _used_names(tree):
            unused[path.name] = sorted(extra)
    assert len(sources) >= 10
    assert unused == {}


# Each public callable with at most three required arguments gets each of these
# values in each required argument in turn, with the other arguments valid.
BAD_VALUES = [None, True, 2.0, -1, 10**30, "x", [], math.nan, np.int64(1), np.zeros(3),
              object()]
# The instruction IR and the result records take any field value, by design:
# validate's contract covers only well-typed circuits. They are not swept.
UNCHECKED_RECORDS = {"BlochMeasure", "Circuit", "Cnot", "Gate1", "Histogram", "MeasureZ",
                     "QubitNoise"}
SWEEP_CIRCUIT = "qubits 3\nh q0\ncx q0 q2\nmeasure q0\nmeasure q2\n"
DEVICE_PATH = Path(qsim.__file__).resolve().parent / "devices" / "ibmqx-like.json"
# valid required arguments of each swept callable, built fresh for each call
# (apply_1q and apply_cnot change the state they are given)
VALID_ARGUMENTS = {
    "BellIndex": lambda: (0, 1),
    "DensityMatrix": lambda: (np.ones((1, 1), dtype=complex),),
    "GateKind": lambda: ("h",),
    "KrausChannel": lambda: (qsim.amplitude_damping(0.1).ops,),
    "NoiseConfig": lambda: (qsim.default_device(),),
    "PureState": lambda: (np.array([1, 0], dtype=complex),),
    "TeleportResult": lambda: ({}, None, []),
    "Violation": lambda: (0, qsim.ViolationCode.NO_MEASUREMENT, "circuit has no measurement"),
    "ViolationCode": lambda: ("NoMeasurement",),
    "amplitude_damping": lambda: (0.1,),
    "apply_1q": lambda: (qsim.zero_state(2), qsim.matrix_of(qsim.GateKind.H), 1),
    "apply_cnot": lambda: (qsim.zero_state(2), 0, 1),
    "bell_state": lambda: (qsim.BellIndex(0, 1),),
    "bloch_measure": lambda: (qsim.zero_state(2), 1),
    "correction_for": lambda: (qsim.BellIndex(0, 1), qsim.BellIndex(1, 0)),
    "decoherence_sweep": lambda: (0, 3),
    "dephasing": lambda: (0.1,),
    "format_circuit": lambda: (qsim.parse(SWEEP_CIRCUIT),),
    "histogram_json_fields": lambda: ({"0": 1.0},),
    "is_separable": lambda: (qsim.zero_state(2),),
    "load_device": lambda: (str(DEVICE_PATH),),
    "matrix_of": lambda: (qsim.GateKind.H,),
    "parse": lambda: (SWEEP_CIRCUIT,),
    "probabilities": lambda: (qsim.zero_state(2), [1]),
    "reduced_density_1q": lambda: (qsim.zero_state(2), 1),
    "retarget_cnots": lambda: (qsim.parse(SWEEP_CIRCUIT), qsim.default_device()),
    "run": lambda: (qsim.parse(SWEEP_CIRCUIT),),
    "run_teleport": lambda: ((qsim.GateKind.X,),),
    "teleport_algebraic": lambda: (qsim.PureState.from_amplitudes([0, 1]),
                                   qsim.BellIndex(0, 1), qsim.BellIndex(1, 0)),
    "validate": lambda: (qsim.parse(SWEEP_CIRCUIT),),
    "zero_density": lambda: (2,),
    "zero_state": lambda: (2,),
}


def _required_arguments(value) -> int:
    parameters = inspect.signature(value).parameters.values()
    return sum(p.default is p.empty and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
               for p in parameters)


def test_every_public_callable_refuses_a_bad_argument_with_a_typed_error(tmp_path,
                                                                         monkeypatch):
    # each call returns or raises one of the refusals; a MemoryError or a hang
    # would mean that 10**30 reached an allocation or a loop before the check
    # that bounds it. load_device's "x" names a missing file.
    swept = {name for name in qsim.__all__
             if name not in UNCHECKED_RECORDS and callable(value := getattr(qsim, name))
             and not (isinstance(value, type) and issubclass(value, BaseException))
             and 1 <= _required_arguments(value) <= 3}
    assert swept == set(VALID_ARGUMENTS)
    monkeypatch.chdir(tmp_path)
    escapes = []
    for name, valid in sorted(VALID_ARGUMENTS.items()):
        call = getattr(qsim, name)
        refusals = (qsim.QsimError, ValueError, TypeError)
        if name == "load_device":
            refusals += (OSError,)
        call(*valid())
        for slot in range(_required_arguments(call)):
            for bad in BAD_VALUES:
                args = list(valid())
                args[slot] = bad
                try:
                    call(*args)
                except refusals:
                    pass
                except Exception as exc:  # noqa: BLE001 - each escape is reported
                    escapes.append(f"{name} argument {slot} = {bad!r}: "
                                   f"{type(exc).__name__}: {exc}")
    assert escapes == []
