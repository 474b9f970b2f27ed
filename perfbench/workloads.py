"""The workloads: one request, its output checks, its trace probes.

A request calls qsim's public functions the way a user's program or
shell would; every call into a module sits in a span named
`module.function`, so a traced run attributes time to qsim's layers
without any change inside qsim. Checks run after the request's timed
interval and return a list of problems (empty when the output is
right). They test properties that hold for any seed, never bytes
against a golden file. Probes run only in a traced run, each in its own
span outside the request span.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from qsim import (
    DeviceModel,
    NoiseConfig,
    ValidationError,
    bloch_measure,
    decoherence_sweep,
    default_device,
    histogram_json_fields,
    load_device,
    parse,
    probabilities,
    run,
    run_teleport,
    sample,
    validate,
)
from qsim.cli import main as cli_main
from qsim.errors import ParseError
from qsim.gates import GateKind

from gen import describe

AMP_BYTES = 16  # complex128
NORM_TOL = 1e-9
PROB_TOL = 1e-10
HERMITIAN_TOL = 1e-12
NEGATIVE_POP_TOL = 1e-12
CROSS_ENGINE_TOL = 1e-10
SWEEP_TOL = 1e-12
SAMPLED_SIGMAS = 7.0
BLOCK_ROWS = 64  # row block for density-matrix comparisons, to bound memory

# The installed `qsim` entry point, run from this interpreter.
CLI_ENTRY = "import sys; from qsim.cli import main; sys.exit(main())"
CLI_IMPORT = "import qsim.cli"
CLI_TIMEOUT_S = 60
# build_teleport_circuit: one prep gate, then h, cx, cx, h on 3 wires
TELEPORT_SPEC = {"num_qubits": 3, "gates_1q": 3, "cnots": 2, "idles": 0}

COMPUTED = (
    "states.pure_gate_ops_computed",
    "states.density_gate_ops_computed",
    "states.pure_bytes_computed",
    "states.density_bytes_computed",
    "noise.wire_slots_computed",
    "noise.channel_applications_computed",
    "noise.idle_slots_computed",
)


def run_counts(spec: dict, processor: str, device: DeviceModel) -> Counter:
    """Kernel work of one engine run, computed from its input (a
    gen.describe dict) and the device's rates.

    Byte model: a pure 1q gate reads and writes every amplitude once, a
    pure cx the half it swaps; a density gate does that twice (rows,
    then columns). Every gate instruction on the real processor charges
    one slot to each wire, which applies that wire's nonzero-rate
    channels; `id` slots are the idle ones.
    """
    n, g1, cx = spec["num_qubits"], spec["gates_1q"], spec["cnots"]
    if processor == "ideal":
        return Counter({"states.pure_gate_ops_computed": g1 + cx,
                        "states.pure_bytes_computed": AMP_BYTES * 2 ** n * (2 * g1 + cx)})
    channels = sum((q.gamma_relax > 0) + (q.gamma_phase > 0) for q in device.qubits[:n])
    return Counter({
        "states.density_gate_ops_computed": g1 + cx,
        "states.density_bytes_computed": AMP_BYTES * 4 ** n * (4 * g1 + 2 * cx),
        "noise.wire_slots_computed": (g1 + cx) * n,
        "noise.channel_applications_computed": (g1 + cx) * channels,
        "noise.idle_slots_computed": spec["idles"] * n,
    })


def sweep_counts(qubit: int, n_max: int, device: DeviceModel) -> Counter:
    """decoherence_sweep runs [h; id x n; measure] on qubit+1 wires for n in 0..n_max."""
    total = Counter()
    for n in range(n_max + 1):
        spec = {"num_qubits": qubit + 1, "gates_1q": n + 1, "cnots": 0, "idles": n}
        total.update(run_counts(spec, "real", device))
    return total


def idle_probe_p1(gamma: float, n: int) -> float:
    """Excited population after h plus n idle slots: every gate slot,
    the h included, scales it by (1 - gamma)."""
    return 0.5 * (1.0 - gamma) ** (n + 1)


def sweep_problems(points, n_max, gamma, shots) -> list[str]:
    """(n, p0, p1) rows against the idle-decay closed form."""
    if [p[0] for p in points] != list(range(n_max + 1)):
        return [f"sweep rows {[p[0] for p in points][:5]}... do not cover 0..{n_max}"]
    problems = []
    for n, p0, p1 in points:
        exact1 = idle_probe_p1(gamma, n)
        if shots is None:
            if abs(p1 - exact1) > SWEEP_TOL or abs(p0 - (1.0 - exact1)) > SWEEP_TOL:
                problems.append(f"n={n}: p0={p0!r} p1={p1!r}, closed form p1={exact1!r}")
        else:
            c0, c1 = p0 * shots, p1 * shots
            sigma = math.sqrt(exact1 * (1.0 - exact1) / shots)
            if (abs(c0 - round(c0)) > 1e-6 or round(c0) + round(c1) != shots
                    or abs(p1 - exact1) > SAMPLED_SIGMAS * sigma + 1.0 / shots):
                problems.append(f"n={n}: sampled p0={p0!r} p1={p1!r}, closed form p1={exact1!r}")
    return problems[:3]


def histogram_problems(probs, counts, shots, width) -> list[str]:
    problems = []
    if probs and abs(sum(probs.values()) - 1.0) > PROB_TOL:
        problems.append(f"probabilities sum to {sum(probs.values())!r}")
    if sum(counts.values()) != shots:
        problems.append(f"counts sum to {sum(counts.values())}, not {shots}")
    if any(len(k) != width or set(k) - {"0", "1"} for k in [*probs, *counts]):
        problems.append(f"a key is not {width} bits")
    return problems


def bloch_problems(radii, expected_keys) -> list[str]:
    problems = []
    if set(radii) != set(expected_keys):
        problems.append(f"bloch keys {sorted(radii)}, expected {sorted(expected_keys)}")
    problems += [f"bloch {k} radius {r!r} > 1" for k, r in radii.items()
                 if r > 1.0 + NORM_TOL]
    return problems


class SimulateWide:
    """`qsim simulate --format json` done in-process, step by step:
    parse, validate, run, probabilities, sample, bloch_measure, JSON.
    Ideal requests resolve the packaged device, as cmd_simulate does;
    real ones load a generated device per width."""

    def __init__(self, rounds, workdir: Path):
        self.rounds = rounds
        self.device = default_device()
        names = sorted({req["device"] for batch in rounds for req in batch
                        if req["processor"] == "real"})
        self.devices = {name: load_device(workdir / name) for name in names}

    def device_for(self, req) -> DeviceModel:
        return self.devices[req["device"]] if req["processor"] == "real" else self.device

    def request(self, req, tr):
        device = self.device_for(req)
        processor = req["processor"]
        with tr.span("circuit.parse"):
            circuit = parse(req["text"], name=req["class"])
        with tr.span("circuit.validate"):
            violations = validate(circuit, device if processor == "real" else None)
        if violations:
            raise ValidationError(violations)
        with tr.span(f"engine.{processor}_run"):
            state = run(circuit, processor=processor, device=device)
        measured = circuit.measured_qubits()
        with tr.span("measure.probabilities"):
            probs = probabilities(state, measured)
        tr.count("measure.keys", len(probs))
        with tr.span("measure.sample"):
            hist = sample(state, measured, req["shots"], req["seed"])
        tr.count("measure.shots", hist.shots)
        with tr.span("measure.bloch"):
            bloch = {f"q{q}": bloch_measure(state, q) for q in circuit.bloch_qubits()}
        with tr.span("measure.serialize"):
            artifact = {
                "circuit": circuit.name,
                "device": device.name,
                "processor": processor,
                **histogram_json_fields(probs, hist),
            }
            if bloch:
                artifact["bloch"] = {
                    key: {"x": b.x, "y": b.y, "z": b.z, "theta": b.theta,
                          "phi": b.phi, "purity_norm": b.purity_norm}
                    for key, b in sorted(bloch.items())
                }
            text = json.dumps(artifact, indent=2) + "\n"
        return circuit, state, probs, hist, bloch, text

    def check(self, req, out, tr) -> list[str]:
        circuit, state, probs, hist, bloch, text = out
        spec = describe(req["text"])
        if req["processor"] == "real":
            problems = self.density_problems(circuit, state, self.device_for(req), tr)
        else:
            drift = abs(state.norm() - 1.0)
            problems = [f"norm drift {drift!r}"] if drift > NORM_TOL else []
        if circuit.measured_qubits() != spec["measured"]:
            problems.append(f"measured {circuit.measured_qubits()}, input has {spec['measured']}")
        problems += histogram_problems(probs, hist.counts, req["shots"], len(spec["measured"]))
        problems += bloch_problems({k: b.purity_norm for k, b in bloch.items()},
                                   [f"q{q}" for q in spec["bloch"]])
        parsed = json.loads(text)
        if parsed["counts"] != hist.counts or len(parsed["probabilities"]) != len(probs):
            problems.append("JSON artifact does not round-trip the histogram")
        return problems

    @staticmethod
    def density_problems(circuit, rho, device, tr) -> list[str]:
        problems = []
        mat = rho.mat
        drift = abs(rho.trace() - 1.0)
        if drift > NORM_TOL:
            problems.append(f"trace drift {drift!r}")
        lowest = float(np.real(np.diagonal(mat)).min())
        if lowest < -NEGATIVE_POP_TOL:
            problems.append(f"negative population {lowest!r}")
        with tr.span("states.density_kernel"):
            ideal_limit = run(circuit, "real", device,
                              NoiseConfig.from_device(device, enabled=False))
        psi = run(circuit, "ideal").amps
        herm = cross = 0.0
        for i in range(0, mat.shape[0], BLOCK_ROWS):
            rows = slice(i, i + BLOCK_ROWS)
            herm = max(herm, float(np.abs(mat[rows] - mat[:, rows].conj().T).max()))
            pure = np.outer(psi[rows], psi.conj())
            cross = max(cross, float(np.abs(ideal_limit.mat[rows] - pure).max()))
        if herm > HERMITIAN_TOL:
            problems.append(f"not Hermitian: {herm!r}")
        if cross > CROSS_ENGINE_TOL:
            problems.append(f"noiseless real run differs from ideal run by {cross!r}")
        return problems

    def probe(self, req, out, tr) -> None:
        pass

    def counts(self, req) -> Counter:
        return run_counts(describe(req["text"]), req["processor"], self.device_for(req))


class DeviceSession:
    """`qsim validate|simulate|teleport|sweep` as one process per request,
    on the packaged device, the way a shell user drives the platform."""

    def __init__(self, rounds, workdir: Path):
        self.rounds = rounds
        self.workdir = workdir
        self.device = default_device()

    def argv(self, req) -> list[str]:
        argv = list(req["argv"])
        if req["file"]:
            argv.insert(1, str(self.workdir / req["file"]))
        return argv

    def request(self, req, tr):
        with tr.span("cli.process"):
            proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *self.argv(req)],
                                  capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode:
            tr.count("cli.nonzero_exits")
        return proc

    def check(self, req, proc, tr) -> list[str]:
        if proc.returncode != req["expect"]:
            return [f"exit {proc.returncode}, expected {req['expect']}: {proc.stderr[-400:]}"]
        kind = req["check"]
        if kind == "ok":
            want = f"{self.workdir / req['file']}: ok on device '{self.device.name}'\n"
            return [] if proc.stdout == want else [f"validate printed {proc.stdout!r}"]
        if kind == "forbidden":
            return [] if "CnotTargetForbidden" in proc.stdout else ["no CnotTargetForbidden report"]
        if kind == "parse_error":
            return [] if proc.stderr.startswith("parse error: ") else [f"stderr {proc.stderr!r}"]
        if kind == "simulate":
            spec = describe((self.workdir / req["file"]).read_text(encoding="utf-8"))
            return self.simulate_problems(req, proc.stdout, spec)
        if kind == "teleport":
            return self.teleport_problems(req, proc.stdout)
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        points = [(int(n), float(p0), float(p1)) for n, _, p0, p1 in rows]
        gamma = self.device.qubits[req["qubit"]].gamma_relax
        return sweep_problems(points, req["n_max"], gamma, req["shots"])

    @staticmethod
    def simulate_problems(req, stdout, spec) -> list[str]:
        shots = 0 if req["exact"] or not spec["measured"] else req["shots"]
        width = len(spec["measured"])
        bloch_keys = [f"q{q}" for q in spec["bloch"]]
        fmt = req["fmt"]
        if fmt == "json":
            art = json.loads(stdout)
            radii = {k: v["purity_norm"] for k, v in art.get("bloch", {}).items()}
            return (histogram_problems(art["probabilities"], art["counts"], shots, width)
                    + ([] if art["shots"] == shots else [f"shots {art['shots']}"])
                    + bloch_problems(radii, bloch_keys))
        lines = stdout.splitlines()
        if fmt == "csv":
            rows = [line.split(",") for line in lines[1:]]
            if req["exact"]:
                probs = {k: float(p) for k, p in rows}
                counts = {}
            else:
                probs = {k: float(p) for k, _, p in rows if float(p) > 0}
                counts = {k: int(c) for k, c, _ in rows if int(c) > 0}
            return histogram_problems(probs, counts, shots, width)
        # ascii: a histogram block, then one line per Bloch marker
        radii = {line.split()[1].rstrip(":"): float(line.rsplit("r=", 1)[1])
                 for line in lines if line.startswith("bloch ")}
        rows = [line.split() for line in lines[1:] if not line.startswith("bloch ")]
        problems = bloch_problems(radii, bloch_keys)
        if req["exact"]:
            total = sum(float(r[1]) for r in rows)
            if abs(total - 1.0) > 5e-7 * len(rows) + 1e-9:
                problems.append(f"printed probabilities sum to {total!r}")
            problems += [f"key {r[0]!r}" for r in rows if len(r[0]) != width]
        else:
            if not lines[0].startswith(f"counts ({shots} shots"):
                problems.append(f"header {lines[0]!r}")
            problems += histogram_problems({}, {r[0]: int(r[1]) for r in rows}, shots, width)
        return problems

    @staticmethod
    def teleport_problems(req, stdout) -> list[str]:
        if req["fmt"] == "json":
            art = json.loads(stdout)
            problems = histogram_problems(art["probabilities"], art["counts"],
                                          art["shots"], 3)
            for b in art["branches"]:
                if abs(b["probability"] - 0.25) > NORM_TOL or abs(b["fidelity"] - 1.0) > NORM_TOL:
                    problems.append(f"ideal branch {b}")
            return problems
        table = stdout.split("branch  probability  correction  fidelity\n", 1)[1]
        rows = [line.split() for line in table.splitlines()]
        total = sum(float(r[1]) for r in rows)
        problems = [] if abs(total - 1.0) <= 4 * 5e-7 + 1e-9 else [f"branches sum to {total}"]
        problems += [f"branch {r}" for r in rows if not 0.5 <= float(r[-1]) <= 1.0 + 1e-6]
        return problems if len(rows) == 4 else problems + [f"{len(rows)} branches"]

    def probe(self, req, proc, tr) -> None:
        """In-process and start-up counterparts of the CLI request."""
        with tr.span("cli.startup"):
            subprocess.run([sys.executable, "-c", CLI_IMPORT], check=True,
                           timeout=CLI_TIMEOUT_S)
        sink = io.StringIO()
        with tr.span("cli.main"), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            cli_main(self.argv(req))
        command = req["argv"][0]
        if req["file"]:
            text = (self.workdir / req["file"]).read_text(encoding="utf-8")
            try:
                with tr.span("circuit.parse"):
                    circuit = parse(text)
            except ParseError:
                return
            with tr.span("circuit.validate"):  # the ideal processor skips device rules
                validate(circuit, None if req.get("processor") == "ideal" else self.device)
        elif command == "teleport":
            prep = (GateKind.X,) if req["state"] == "one" else (GateKind.H,)
            with tr.span("protocols.teleport"):
                run_teleport(prep, processor=req["processor"], device=self.device,
                             shots=None if req["exact"] else req["shots"],
                             seed=req["seed"])
        else:
            with tr.span("protocols.sweep"):
                decoherence_sweep(req["qubit"], req["n_max"], device=self.device,
                                  shots=req["shots"], seed=req["seed"])
            tr.count("protocols.sweep_points", req["n_max"] + 1)

    def counts(self, req) -> Counter:
        command = req["argv"][0]
        if req["expect"] != 0 or command == "validate":
            return Counter()
        if command == "sweep":
            return sweep_counts(req["qubit"], req["n_max"], self.device)
        if command == "teleport":
            spec = TELEPORT_SPEC
        else:
            spec = describe((self.workdir / req["file"]).read_text(encoding="utf-8"))
        return run_counts(spec, req["processor"], self.device)


WORKLOADS = {
    "device_session": DeviceSession,
    "simulate_wide": SimulateWide,
}
