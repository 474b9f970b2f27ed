"""CLI contract: exit codes, formats, determinism, device resolution."""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from qsim.cli import main

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
        assert main(["sweep", "--qubit", "9", "--n-max", "3"]) == 2

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


# Byte-stable stdout: each case's exit code and stdout, as recorded in
# tests/golden/<name>.txt ("exit <code>" on the first line, then stdout).
# Regenerate with `PYTHONPATH=src python tests/test_cli.py` when a change
# moves a printed value on purpose, and record the moved values.
REPO = Path(__file__).resolve().parents[1]
GOLDEN_DIR = REPO / "tests" / "golden"
GOLDEN_CASES = {
    **{
        f"simulate_{c.stem}_{p}_json": ["simulate", f"circuits/{c.name}", "--processor", p,
                                        "--format", "json", "--seed", "7"]
        for c in sorted((REPO / "circuits").glob("*.qc"))
        for p in ("ideal", "real")
    },
    "simulate_bell_csv": ["simulate", "circuits/bell.qc", "--format", "csv", "--seed", "7"],
    "simulate_bell_ascii": ["simulate", "circuits/bell.qc", "--format", "ascii", "--seed", "7"],
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
}


def _golden_run(argv) -> str:
    argv = [str(REPO / a) if a.startswith("circuits/") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_stdout_matches_golden(name, monkeypatch):
    monkeypatch.delenv("QSIM_DEVICE", raising=False)
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert _golden_run(GOLDEN_CASES[name]) == expected


if __name__ == "__main__":
    os.environ.pop("QSIM_DEVICE", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN_CASES.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(_golden_run(argv), encoding="utf-8")
    print(f"wrote {len(GOLDEN_CASES)} files to {GOLDEN_DIR}")
