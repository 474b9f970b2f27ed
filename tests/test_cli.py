"""CLI contract: exit codes, formats, determinism, device resolution."""

import contextlib
import io
import json
import os
import re
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim.circuit import default_device, load_device, parse
from qsim.cli import DEFAULT_SHOTS, _violation_report, main, simulate_text
from qsim.errors import ValidationError

from oracles import EXACT_ATOL, exact_probabilities

BELL_TEXT = "qubits 2\nh q0\ncx q0 q1\nmeasure q0\nmeasure q1\n"
TELEPORT_TEXT = (
    "qubits 3\nx q0\nh q1\ncx q1 q2\ncx q0 q2\nh q0\nmeasure q0\nmeasure q1\n"
)


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(BELL_TEXT)
    return path


@pytest.fixture
def teleport_file(tmp_path):
    path = tmp_path / "teleport_one.qc"
    path.write_text(TELEPORT_TEXT)
    return path


class TestValidate:
    def test_legal_teleport_exits_zero(self, teleport_file, capsys):
        assert main(["validate", str(teleport_file)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_forbidden_target_exits_one_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.qc"
        path.write_text("qubits 3\ncx q2 q0\nmeasure q0\n")
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "line 2" in out
        assert "CnotTargetForbidden" in out

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.qc")]) == 2

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.qc"
        path.write_text("qubits 2\nfoo q0\n")
        assert main(["validate", str(path)]) == 2
        assert "unknown mnemonic" in capsys.readouterr().err


class TestSimulate:
    def test_bell_exact_probabilities(self, bell_file, capsys):
        assert main(["simulate", str(bell_file), "--probabilities"]) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["processor"] == "ideal"
        assert artifact["shots"] == 0
        assert artifact["counts"] == {}
        assert artifact["probabilities"]["00"] == pytest.approx(0.5, abs=1e-10)
        assert artifact["probabilities"]["11"] == pytest.approx(0.5, abs=1e-10)
        assert set(artifact["probabilities"]) == {"00", "11"}

    def test_teleport_shot_counts_near_quarter(self, teleport_file, capsys):
        assert main(["simulate", str(teleport_file), "--shots", "8192",
                     "--seed", "11"]) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["rng"] == "pcg64"
        assert sum(artifact["counts"].values()) == 8192
        for key in ("00", "01", "10", "11"):
            assert abs(artifact["counts"][key] - 2048) <= 136

    def test_same_seed_identical_bytes(self, bell_file, capsys):
        main(["simulate", str(bell_file), "--seed", "3"])
        first = capsys.readouterr().out
        main(["simulate", str(bell_file), "--seed", "3"])
        assert capsys.readouterr().out == first

    def test_ideal_skips_device_constraint_but_real_enforces_it(self, bell_file,
                                                                capsys):
        # cx q0 q1 violates the packaged device's target rule
        assert main(["simulate", str(bell_file), "--probabilities"]) == 0
        capsys.readouterr()
        assert main(["simulate", str(bell_file), "--processor", "real",
                     "--probabilities"]) == 1
        assert "CnotTargetForbidden" in capsys.readouterr().out

    def test_real_processor_on_legal_circuit(self, teleport_file, capsys):
        assert main(["simulate", str(teleport_file), "--processor", "real",
                     "--probabilities"]) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["processor"] == "real"
        assert sum(artifact["probabilities"].values()) == pytest.approx(1.0, abs=1e-9)

    def test_no_measurement_aborts(self, tmp_path, capsys):
        path = tmp_path / "none.qc"
        path.write_text("qubits 1\nh q0\n")
        assert main(["simulate", str(path)]) == 1
        assert "NoMeasurement" in capsys.readouterr().out

    def test_csv_format(self, bell_file, capsys):
        assert main(["simulate", str(bell_file), "--probabilities",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "bitstring,probability"
        assert lines[1].startswith("00,")

    @pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
    def test_csv_is_the_histogram_only(self, tmp_path, capsys, exact):
        # csv has no Bloch section: a circuit's bloch markers are dropped,
        # not refused, and the rows are the json artifact's histogram
        path = tmp_path / "tomo.qc"
        path.write_text("qubits 2\nh q0\nt q0\ncx q0 q1\nmeasure q1\nbloch q0\n")
        argv = ["simulate", str(path), "--seed", "3"] + ["--probabilities"] * exact
        assert main(argv + ["--format", "json"]) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert main(argv + ["--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "bloch" not in out and "q0" not in out
        header, *rows = out.splitlines()
        assert header == ("bitstring,probability" if exact else "bitstring,count,probability")
        cells = [row.split(",") for row in rows]
        assert {c[0]: float(c[-1]) for c in cells} == artifact["probabilities"]
        counts = {c[0]: int(c[1]) for c in cells if not exact and int(c[1])}
        assert counts == artifact["counts"]
        assert artifact["bloch"]["q0"]

    def test_ascii_format(self, bell_file, capsys):
        assert main(["simulate", str(bell_file), "--seed", "2",
                     "--format", "ascii"]) == 0
        out = capsys.readouterr().out
        assert "#" in out and "shots" in out

    def test_output_file(self, bell_file, tmp_path, capsys):
        dest = tmp_path / "out.json"
        assert main(["simulate", str(bell_file), "--probabilities",
                     "-o", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(dest.read_text())["probabilities"]["00"] > 0.4

    def test_bloch_markers_reported(self, tmp_path, capsys):
        path = tmp_path / "tomo.qc"
        path.write_text("qubits 1\nh q0\nbloch q0\n")
        assert main(["simulate", str(path), "--probabilities"]) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["bloch"]["q0"]["x"] == pytest.approx(1.0, abs=1e-9)

    def test_device_env_var_override(self, bell_file, tmp_path, monkeypatch, capsys):
        dev = tmp_path / "open.json"
        dev.write_text(json.dumps({
            "name": "open-target",
            "num_qubits": 2,
            "allowed_cnot_targets": [0, 1],
            "gate_time_tau_s": 1e-7,
            "qubits": [{"gamma_relax": 0.0, "gamma_phase": 0.0}] * 2,
        }))
        monkeypatch.setenv("QSIM_DEVICE", str(dev))
        assert main(["simulate", str(bell_file), "--processor", "real",
                     "--probabilities"]) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["device"] == "open-target"


class TestTeleport:
    def test_one_exact_text_report(self, capsys):
        assert main(["teleport", "--state", "one", "--probabilities"]) == 0
        out = capsys.readouterr().out
        for key in ("001", "010", "101", "110"):
            assert key in out
        assert out.count("1.000000") == 4  # one fidelity per branch

    def test_plus_exact_json(self, capsys):
        assert main(["teleport", "--state", "plus", "--probabilities",
                     "--format", "json"]) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert len(artifact["probabilities"]) == 8
        for p in artifact["probabilities"].values():
            assert p == pytest.approx(0.125, abs=1e-10)

    def test_real_processor_fidelities_below_one(self, capsys):
        assert main(["teleport", "--state", "plus", "--processor", "real",
                     "--probabilities", "--format", "json"]) == 0
        artifact = json.loads(capsys.readouterr().out)
        for branch in artifact["branches"]:
            assert branch["fidelity"] < 1.0

    def test_sampled_mode_deterministic(self, capsys):
        main(["teleport", "--state", "one", "--seed", "4", "--format", "json"])
        first = capsys.readouterr().out
        main(["teleport", "--state", "one", "--seed", "4", "--format", "json"])
        assert capsys.readouterr().out == first


class TestSweep:
    def test_exact_csv_matches_closed_form(self, capsys):
        assert main(["sweep", "--qubit", "3", "--n-max", "8",
                     "--probabilities"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,t_seconds,p0,p1"
        gamma = 0.02  # packaged device, qubit 3
        for row in lines[1:]:
            n, _, p0, _ = row.split(",")
            assert float(p0) == pytest.approx(
                1 - (1 - gamma) ** (int(n) + 1) / 2, abs=1e-12)

    def test_ideal_rows_flat(self, capsys):
        assert main(["sweep", "--qubit", "0", "--n-max", "3",
                     "--processor", "ideal", "--probabilities"]) == 0
        for row in capsys.readouterr().out.splitlines()[1:]:
            assert row.endswith(",0.4999999999999999,0.4999999999999999")

    def test_plot_goes_to_stderr(self, capsys):
        assert main(["sweep", "--qubit", "3", "--n-max", "4",
                     "--probabilities", "--plot"]) == 0
        captured = capsys.readouterr()
        assert "p0 vs n" in captured.err
        assert "p0 vs n" not in captured.out

    def test_qubit_off_device_is_usage_error(self, capsys):
        # an off-device wire is a validator finding (exit 1), as in `validate`
        assert main(["sweep", "--qubit", "9", "--n-max", "3"]) == 1

    def test_n_max_cap(self, capsys):
        assert main(["sweep", "--qubit", "0", "--n-max", "201"]) == 2

    def test_bad_gate_time_is_usage_error(self, tmp_path, capsys):
        dev = tmp_path / "bad.json"
        dev.write_text(json.dumps({
            "name": "bad-tau",
            "num_qubits": 1,
            "allowed_cnot_targets": [],
            "gate_time_tau_s": -1e-7,
            "qubits": [{"gamma_relax": 0.01, "gamma_phase": 0.0}],
        }))
        assert main(["sweep", "--qubit", "0", "--n-max", "3",
                     "--device", str(dev)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gate_time_tau_s" in captured.err


@pytest.mark.parametrize("argv", [
    ["simulate", "CIRCUIT", "--probabilities"],
    ["teleport", "--state", "one"],
    ["sweep", "--qubit", "0", "--n-max", "2"],
])
def test_negative_seed_is_usage_error(argv, bell_file, capsys):
    argv = [str(bell_file) if a == "CIRCUIT" else a for a in argv]
    assert main([*argv, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be >= 0\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "CIRCUIT", "--probabilities"],
    ["teleport", "--state", "one", "--probabilities"],
    ["sweep", "--qubit", "0", "--n-max", "2", "--probabilities"],
])
def test_zero_shots_is_usage_error(argv, bell_file, capsys):
    argv = [str(bell_file) if a == "CIRCUIT" else a for a in argv]
    assert main([*argv, "--shots", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --shots must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "CIRCUIT"],
    ["teleport", "--state", "one"],
    ["sweep", "--qubit", "0", "--n-max", "2"],
])
def test_huge_shots_is_usage_error(argv, bell_file, capsys):
    # numpy draws an int64 count; more shots than that is an argument error
    argv = [str(bell_file) if a == "CIRCUIT" else a for a in argv]
    assert main([*argv, "--shots", "99999999999999999999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: shots must be in 1..2**63-1, got 99999999999999999999\n")


def _device_file(path: Path, num_qubits: int, targets: list[int]) -> Path:
    path.write_text(json.dumps({
        "name": path.stem,
        "num_qubits": num_qubits,
        "allowed_cnot_targets": targets,
        "gate_time_tau_s": 1e-7,
        "qubits": [{"gamma_relax": 0.01, "gamma_phase": 0.0}] * num_qubits,
    }))
    return path


class TestRefusals:
    """Every validator refusal is one report on stdout with exit 1."""

    def test_teleport_report_cites_instructions(self, tmp_path, capsys):
        dev = _device_file(tmp_path / "q0-only.json", 3, [0])
        assert main(["teleport", "--state", "one", "--processor", "real",
                     "--device", str(dev)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("instruction 2: CnotTargetForbidden: cx may not target q2")
        assert lines[1].startswith("instruction 3: CnotTargetForbidden: cx may not target q2")

    def test_register_beyond_density_engine(self, tmp_path, capsys):
        dev = _device_file(tmp_path / "wide.json", 11, list(range(11)))
        path = tmp_path / "wide.qc"
        path.write_text("qubits 11\nh q0\nmeasure q10\n")
        assert main(["simulate", str(path), "--processor", "real",
                     "--device", str(dev)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: density engine supports 1..10 qubits, got 11\n"

    def test_sweep_off_device_prints_the_probe_report(self, monkeypatch, capsys):
        monkeypatch.delenv("QSIM_DEVICE", raising=False)
        assert main(["sweep", "--qubit", "9", "--n-max", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "instruction 0: QubitOutOfRange: q9 not present on 5-qubit device 'ibmqx-like'\n"
            "instruction 1: QubitOutOfRange: q9 not present on 5-qubit device 'ibmqx-like'\n"
            "end of circuit: QubitOutOfRange: 10-qubit register does not fit "
            "5-qubit device 'ibmqx-like'\n"
        )

    def test_sweep_negative_qubit_is_usage_error(self, capsys):
        assert main(["sweep", "--qubit=-1", "--n-max", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: qubit must be an integer >= 0, got -1\n"

    def test_bad_device_reported_before_bad_circuit(self, tmp_path, capsys):
        dev = tmp_path / "broken.json"
        path = tmp_path / "bad.qc"
        path.write_text("qubits 2\nfoo q0\n")
        empty = {"name": "empty", "num_qubits": 0, "allowed_cnot_targets": [],
                 "gate_time_tau_s": 1e-7, "qubits": []}
        unwritable = {**empty, "name": "q\ud800", "num_qubits": 1,
                      "qubits": [{"gamma_relax": 0.0, "gamma_phase": 0.0}]}
        # the deep one overflows the parser; then not UTF-8, not a device
        # object, past Python's int digit limit, a device with no qubit and
        # one whose name cannot be printed
        for text in (b"{", b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe", b"[]", b"1" * 5000,
                     json.dumps(empty).encode(), json.dumps(unwritable).encode()):
            dev.write_bytes(text)
            for command in ("validate", "simulate"):
                assert main([command, str(path), "--device", str(dev)]) == 2
                err = capsys.readouterr().err
                assert err.startswith(f"error: {dev}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["validate"], ["simulate", "--seed", "7"]],
                         ids=["validate", "simulate"])
def test_circuit_file_with_byte_order_mark_reads_as_plain(argv, tmp_path, monkeypatch):
    text = (REPO / "circuits" / "bell.qc").read_bytes()
    runs = []
    for folder, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "bell.qc").write_bytes(prefix + text)
        monkeypatch.chdir(tmp_path / folder)  # the same argv prints the same path
        runs.append(_golden_run([argv[0], "bell.qc", *argv[1:]]))
    assert runs[0].split("\n", 1)[0] != "exit 2"
    assert runs[1] == runs[0]


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_circuit_file_not_utf8_names_itself(command, tmp_path, capsys):
    path = tmp_path / "bad.qc"
    path.write_bytes(b"qubits 1\n\xff\n")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1

# Any argv of the four subcommands ends in exit 0, 1 or 2 with no escaping
# exception, and prints the same stdout when run again. Circuit text mixes
# legal lines with malformed ones, forbidden cx targets (the packaged device
# allows q2 only), wires beyond the register or the chip, and may measure nothing.
def _circuit_text(n):
    wire = st.integers(0, n - 1)
    legal = st.one_of(
        st.builds("{} q{}".format,
                  st.sampled_from(["h", "x", "t", "id", "measure", "bloch"]), wire),
        st.builds("cx q{} q{}".format, wire, wire).filter(lambda line: len(set(line.split())) == 3),
    )
    broken = st.sampled_from(["foo q0", f"h q{n}", "h qx", "cx q0", "qubits 2", "# note", ""])
    readout = st.builds("measure q{}".format, wire)
    return st.builds(lambda *parts: "\n".join([f"qubits {n}", *sum(parts, [])]) + "\n",
                     st.lists(legal, max_size=8), st.lists(readout, max_size=2),
                     st.lists(broken, max_size=1))


_CIRCUITS = st.integers(1, 6).flatmap(_circuit_text)


def _run_options(formats):
    shots = st.one_of(st.integers(1, 4096), st.integers(2**63 - 2, 2**64), st.integers(-1, 0))
    samples = st.one_of(shots.map(lambda n: [f"--shots={n}"]), st.just(["--probabilities"]))
    return st.builds(
        lambda processor, sampling, seed, fmt: [f"--processor={processor}", *sampling,
                                                f"--seed={seed}", *fmt],
        st.sampled_from(["ideal", "real"]), samples, st.integers(-1, 2**64),
        st.sampled_from([[]] + [[f"--format={f}"] for f in formats]),
    )


_ARGV = st.one_of(
    st.builds(lambda opts: ["simulate", "CIRCUIT", *opts], _run_options(["json", "csv", "ascii"])),
    st.builds(lambda state, opts: ["teleport", f"--state={state}", *opts],
              st.sampled_from(["one", "plus"]), _run_options(["json", "ascii"])),
    st.builds(lambda q, n, opts, plot: ["sweep", f"--qubit={q}", f"--n-max={n}", *opts, *plot],
              st.integers(-2, 12), st.integers(0, 60), _run_options([]),
              st.sampled_from([[], ["--plot"]])),
    st.just(["validate", "CIRCUIT"]),
)


@pytest.fixture(scope="module")
def circuit_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-property") / "case.qc"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=_CIRCUITS, argv=_ARGV)
def test_any_argv_exits_0_1_or_2_with_stable_stdout(circuit_path, text, argv):
    circuit_path.write_text(text)
    argv = [str(circuit_path) if a == "CIRCUIT" else a for a in argv]
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("QSIM_DEVICE", raising=False)
        first = _golden_run(argv)  # "exit <code>\n" + stdout
        assert first.split("\n", 1)[0] in ("exit 0", "exit 1", "exit 2")
        assert _golden_run(argv) == first


# Byte-stable stdout: each case's exit code and stdout, as recorded in
# tests/golden/<name>.txt ("exit <code>" on the first line, then stdout).
# Regenerate with `PYTHONPATH=src python tests/test_cli.py` when a change
# moves a printed value on purpose, and record the moved values.
REPO = Path(__file__).resolve().parents[1]
GOLDEN_DIR = REPO / "tests" / "golden"
DEPHASING_DEVICE = "tests/data/dephasing-5q.json"
GOLDEN_CASES = {
    **{
        f"simulate_{c.stem}_{p}_json": ["simulate", f"circuits/{c.name}", "--processor", p,
                                        "--format", "json", "--seed", "7"]
        for c in sorted((REPO / "circuits").glob("*.qc"))
        for p in ("ideal", "real")
    },
    "simulate_bell_csv": ["simulate", "circuits/bell.qc", "--format", "csv", "--seed", "7"],
    "simulate_bell_ascii": ["simulate", "circuits/bell.qc", "--format", "ascii", "--seed", "7"],
    # the ascii Bloch lines, the paper's tomography readout
    **{
        f"simulate_tomography_plus_{p}_ascii": ["simulate", "circuits/tomography_plus.qc",
                                                "--processor", p, "--format", "ascii",
                                                "--seed", "7"]
        for p in ("ideal", "real")
    },
    **{
        f"teleport_{s}_{p}": ["teleport", "--state", s, "--processor", p, "--seed", "7"]
        for s in ("one", "plus")
        for p in ("ideal", "real")
    },
    "teleport_one_real_json": ["teleport", "--state", "one", "--processor", "real",
                               "--format", "json", "--seed", "7"],
    "sweep_q3_exact": ["sweep", "--qubit", "3", "--n-max", "50", "--probabilities"],
    "sweep_q3_sampled": ["sweep", "--qubit", "3", "--n-max", "50", "--shots", "500",
                         "--seed", "7"],
    # a device with dephasing and a zero-rate wire (q1), which the packaged
    # one lacks: the slot's dephasing half, and a wire the slot leaves out
    **{
        f"simulate_{c}_real_json_dephasing": ["simulate", f"circuits/{c}.qc", "--processor",
                                              "real", "--format", "json", "--seed", "7",
                                              "--device", DEPHASING_DEVICE]
        for c in ("teleport_plus", "tomography_plus")
    },
    "sweep_q3_exact_dephasing": ["sweep", "--qubit", "3", "--n-max", "50", "--probabilities",
                                 "--device", DEPHASING_DEVICE],
}


def _golden_run(argv) -> str:
    argv = [str(REPO / a) if a.startswith(("circuits/", "tests/data/")) else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_stdout_matches_golden(name, monkeypatch):
    monkeypatch.delenv("QSIM_DEVICE", raising=False)
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert _golden_run(GOLDEN_CASES[name]) == expected



# Each ideal json golden prints probabilities within EXACT_ATOL of the
# exact Clifford+T values, so a change that moves them can say which way.
@pytest.mark.parametrize("name", sorted(n for n in GOLDEN_CASES
                                        if n.startswith("simulate_") and n.endswith("_ideal_json")))
def test_ideal_golden_probabilities_are_exact(name):
    path = REPO / GOLDEN_CASES[name][1]
    circuit = parse(path.read_text(encoding="utf-8"))
    stdout = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8").split("\n", 1)[1]
    printed = json.loads(stdout, parse_float=Decimal)["probabilities"]
    measured = circuit.measured_qubits()
    exact = exact_probabilities(circuit, measured) if measured else {}
    assert set(printed) <= set(exact)
    assert all(abs(printed.get(key, 0) - p) <= EXACT_ATOL for key, p in exact.items())


# simulate_text is the artifact of `qsim simulate`: on every golden simulate
# invocation, sampled and exact, it returns main's stdout, and it raises the
# refusal main reports.
@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
@pytest.mark.parametrize("name", sorted(n for n, argv in GOLDEN_CASES.items()
                                        if argv[0] == "simulate"))
def test_simulate_text_is_mains_stdout(name, exact, monkeypatch):
    monkeypatch.delenv("QSIM_DEVICE", raising=False)
    argv = GOLDEN_CASES[name]
    opts = dict(zip(argv[2::2], argv[3::2]))  # every option here takes a value
    path = REPO / argv[1]
    circuit = parse(path.read_text(encoding="utf-8"), name=path.stem)
    code, stdout = _golden_run(argv + ["--probabilities"] * exact).split("\n", 1)

    def text():
        device = load_device(REPO / opts["--device"]) if "--device" in opts else default_device()
        return simulate_text(circuit, device, opts.get("--processor", "ideal"),
                             opts["--format"], None if exact else DEFAULT_SHOTS,
                             int(opts["--seed"]))

    if code == "exit 0":
        assert text() == stdout
    else:
        assert code == "exit 1"
        with pytest.raises(ValidationError) as refused:
            text()
        assert _violation_report(refused.value.circuit, refused.value.violations) == stdout


@pytest.mark.parametrize("fmt, shots, message", [
    ("xml", None, "format must be one of json, csv, ascii, got 'xml'"),
    ("json", 0, "shots must be in 1..2**63-1, got 0"),
])
def test_simulate_text_refuses_bad_format_and_shots(fmt, shots, message):
    circuit = parse(BELL_TEXT)
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate_text(circuit, default_device(), "ideal", fmt, shots, 7)


# Any JSON value or raw bytes as --device: validate and a real-processor
# simulate either succeed, print a validator report (exit 1), or print one
# error line that names the device file (exit 2), and never raise.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _spoil(device, change):
    """device unchanged (change None), or with change = (field, []) dropping
    the field and (field, [v]) setting it to v."""
    if change is None:
        return device
    field, value = change
    rest = {k: v for k, v in device.items() if k != field}
    if value:
        rest[field] = value[0]
    return rest


def _device(n):
    """A legal n-wire device, or one whose one field is dropped or
    replaced by any JSON value."""
    fields = {
        "name": st.text(max_size=8),
        "num_qubits": st.just(n),
        "allowed_cnot_targets": st.lists(st.integers(0, n - 1), max_size=2),
        "gate_time_tau_s": st.floats(1e-9, 1e-6),
        "qubits": st.lists(st.fixed_dictionaries({"gamma_relax": st.floats(0, 1),
                                                  "gamma_phase": st.floats(0, 1)}),
                           min_size=n, max_size=n),
    }
    change = st.tuples(st.sampled_from(sorted(fields)), st.lists(_JSON, max_size=1))
    return st.builds(_spoil, st.fixed_dictionaries(fields), st.none() | change)


_DEVICE_BYTES = st.one_of(
    st.builds(lambda bom, device: bom + json.dumps(device).encode(),
              st.sampled_from([b"", b"\xef\xbb\xbf"]), st.integers(1, 5).flatmap(_device)),
    st.one_of(_JSON.map(lambda v: json.dumps(v).encode()), st.binary(max_size=24),
              st.just(b"1" * 5000)),
)


@pytest.fixture(scope="module")
def device_case(tmp_path_factory):
    """(circuit, device) paths; the circuit needs 2 wires and q0 as a cx target."""
    folder = tmp_path_factory.mktemp("device-property")
    (folder / "c.qc").write_text("qubits 2\nh q1\ncx q1 q0\nmeasure q0\n")
    return folder / "c.qc", folder / "device.json"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(content=_DEVICE_BYTES)
def test_any_device_file_is_ok_a_report_or_one_named_error(device_case, content):
    circuit, device_path = device_case
    device_path.write_bytes(content)
    for argv in (["validate"], ["simulate", "--processor", "real", "--probabilities"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(circuit), *argv[1:], "--device", str(device_path)])
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert err == ""
            if argv[0] == "validate":
                assert out == f"{circuit}: ok on device '{load_device(device_path).name}'\n"
            else:
                assert json.loads(out)["processor"] == "real"
        elif code == 1:
            assert err == "" and out.startswith(("line ", "end of circuit: "))
        else:
            assert code == 2 and out == ""
            assert err.startswith(f"error: {device_path}: ") and err.count("\n") == 1

if __name__ == "__main__":
    os.environ.pop("QSIM_DEVICE", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN_CASES.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(_golden_run(argv), encoding="utf-8")
    print(f"wrote {len(GOLDEN_CASES)} files to {GOLDEN_DIR}")
