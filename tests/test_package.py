"""The public namespace, and the modules each CLI process loads."""

import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_simulate_loads_no_protocols(tmp_path):
    path = tmp_path / "c.qc"
    path.write_text(ACCEPTED)
    result, modules = _modules_after(
        f"from qsim.cli import main\nresult = main(['simulate', {str(path)!r}, '--seed', '7'])")
    assert result == 0
    assert {"numpy", "qsim.engine", "qsim.measure"} <= modules
    assert "qsim.protocols" not in modules
    assert "encodings.utf_8_sig" not in modules
