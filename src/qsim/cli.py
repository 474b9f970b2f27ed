"""Command-line front end.

Subcommands: validate (device check), simulate (run a circuit file on
the ideal or real processor), teleport (built-in demo), sweep (idle
decay series). Exit codes: 0 success, 1 domain violation, 2 usage, I/O
or parse problem. All output is byte-deterministic given the inputs and
seed. The QSIM_DEVICE environment variable overrides the packaged
default device; --device overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .circuit import Circuit, DeviceModel, default_device, load_device, parse, validate
from .engine import check, run
from .errors import (
    CapacityError,
    DeviceError,
    ParseError,
    UntranspilableError,
    ValidationError,
)
from .gates import GateKind
from .measure import (
    Histogram,
    bloch_measure,
    histogram_json_fields,
    probabilities,
    sample,
)
from .protocols import decoherence_sweep, run_teleport

DEVICE_ENV_VAR = "QSIM_DEVICE"
DEFAULT_SHOTS = 8192
MAX_SWEEP_POINTS = 200
BAR_WIDTH = 60


def _resolve_device(path: Path | None) -> DeviceModel:
    if path is None:
        env = os.environ.get(DEVICE_ENV_VAR)
        if env:
            return load_device(env)
        return default_device()
    return load_device(path)


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text, encoding="utf-8")


def _violation_report(circuit: Circuit, violations) -> str:
    lines = []
    for v in violations:
        if circuit.source_lines and v.index < len(circuit.source_lines):
            where = f"line {circuit.source_lines[v.index]}"
        elif v.index >= len(circuit.instrs):
            where = "end of circuit"
        else:
            where = f"instruction {v.index}"
        lines.append(f"{where}: {v.code.value}: {v.message}")
    return "\n".join(lines) + "\n"


def _ascii_bars(rows: list[tuple[str, str, float]]) -> str:
    """rows of (key, annotation, weight); bars scale to the largest weight."""
    top = max((w for _, _, w in rows), default=0.0)
    out = []
    for key, note, weight in rows:
        bar = "#" * round(BAR_WIDTH * weight / top) if top > 0 else ""
        out.append(f"{key}  {note}  {bar}")
    return "\n".join(out) + "\n"


def _histogram_text(probs: dict[str, float], hist: Histogram | None) -> str:
    if hist is not None:
        header = f"counts ({hist.shots} shots, seed {hist.seed}, rng {hist.rng})\n"
        rows = [
            (k, f"{hist.counts.get(k, 0):>8}  {hist.counts.get(k, 0) / hist.shots:8.6f}",
             hist.counts.get(k, 0) / hist.shots)
            for k in sorted(probs)
        ]
    else:
        header = "exact probabilities\n"
        rows = [(k, f"{p:8.6f}", p) for k, p in sorted(probs.items())]
    return header + _ascii_bars(rows)


def _histogram_csv(probs: dict[str, float], hist: Histogram | None) -> str:
    if hist is None:
        lines = ["bitstring,probability"]
        lines += [f"{k},{p!r}" for k, p in sorted(probs.items())]
    else:
        lines = ["bitstring,count,probability"]
        lines += [f"{k},{hist.counts.get(k, 0)},{probs[k]!r}" for k in sorted(probs)]
    return "\n".join(lines) + "\n"


def cmd_validate(args) -> int:
    circuit = parse(args.circuit.read_text(encoding="utf-8"), name=args.circuit.stem)
    device = _resolve_device(args.device)
    violations = validate(circuit, device)
    if not violations:
        sys.stdout.write(f"{args.circuit}: ok on device '{device.name}'\n")
        return 0
    sys.stdout.write(_violation_report(circuit, violations))
    return 1


def cmd_simulate(args) -> int:
    circuit = parse(args.circuit.read_text(encoding="utf-8"), name=args.circuit.stem)
    device = _resolve_device(args.device)

    measured = circuit.measured_qubits()
    if not measured and not circuit.bloch_qubits():
        # run() evolves a circuit that measures nothing, but there is
        # nothing to report: refuse it here, with all its findings.
        sys.stdout.write(_violation_report(circuit, check(circuit, args.processor, device)))
        return 1
    try:
        state = run(circuit, args.processor, device)
    except ValidationError as exc:
        sys.stdout.write(_violation_report(circuit, exc.violations))
        return 1
    probs = probabilities(state, measured) if measured else {}
    hist = None
    if not args.probabilities and measured:
        hist = sample(state, measured, args.shots, args.seed)
    bloch = {
        f"q{q}": bloch_measure(state, q) for q in circuit.bloch_qubits()
    }

    if args.fmt == "json":
        artifact = {
            "circuit": circuit.name,
            "device": device.name,
            "processor": args.processor,
            **histogram_json_fields(probs, hist),
        }
        if bloch:
            artifact["bloch"] = {
                key: {"x": b.x, "y": b.y, "z": b.z, "theta": b.theta,
                      "phi": b.phi, "purity_norm": b.purity_norm}
                for key, b in sorted(bloch.items())
            }
        text = json.dumps(artifact, indent=2) + "\n"
    elif args.fmt == "csv":
        text = _histogram_csv(probs, hist)
    else:
        parts = []
        if probs or hist:
            parts.append(_histogram_text(probs, hist))
        for key, b in sorted(bloch.items()):
            parts.append(
                f"bloch {key}: x={b.x:+.6f} y={b.y:+.6f} z={b.z:+.6f} "
                f"theta={b.theta:.6f} phi={b.phi:.6f} r={b.purity_norm:.6f}\n"
            )
        text = "".join(parts)
    _emit(text, args.output)
    return 0


_PREPS = {"one": (GateKind.X,), "plus": (GateKind.H,)}


def cmd_teleport(args) -> int:
    device = _resolve_device(args.device)
    shots = None if args.probabilities else args.shots
    result = run_teleport(
        _PREPS[args.state],
        processor=args.processor,
        shots=shots,
        seed=args.seed,
        device=device,
    )
    if args.fmt == "json":
        artifact = {
            "state": args.state,
            "processor": args.processor,
            "device": device.name,
            **histogram_json_fields(result.probabilities, result.histogram),
            "branches": [
                {
                    "outcome": b.outcome,
                    "probability": b.probability,
                    "correction": " ".join(g.value for g in b.correction),
                    "fidelity": b.fidelity,
                }
                for b in result.branches
            ],
        }
        text = json.dumps(artifact, indent=2) + "\n"
    else:
        lines = [
            f"teleport of '{args.state}' on {args.processor} processor "
            f"(device '{device.name}')\n",
            _histogram_text(result.probabilities, result.histogram),
            "\nbranch  probability  correction  fidelity\n",
        ]
        for b in result.branches:
            fixup = " ".join(g.value for g in b.correction) or "-"
            lines.append(
                f"{b.outcome}      {b.probability:<11.6f}  {fixup:<10}  {b.fidelity:.6f}\n"
            )
        text = "".join(lines)
    _emit(text, args.output)
    return 0


def cmd_sweep(args) -> int:
    if args.n_max > MAX_SWEEP_POINTS:
        sys.stderr.write(f"error: --n-max is capped at {MAX_SWEEP_POINTS}\n")
        return 2
    device = _resolve_device(args.device)
    shots = None if args.probabilities else args.shots
    result = decoherence_sweep(
        args.qubit,
        args.n_max,
        processor=args.processor,
        device=device,
        shots=shots,
        seed=args.seed,
    )
    _emit(result.to_csv(), args.output)
    if args.plot:
        rows = [(f"n={n:>4}", f"p0={p0:8.6f}", p0) for n, p0, _ in result.points]
        sys.stderr.write(f"p0 vs n, qubit {args.qubit}, {args.processor} processor\n")
        sys.stderr.write(_ascii_bars(rows))
    return 0


def _add_run_options(sub, default_processor: str) -> None:
    sub.add_argument("--device", type=Path, default=None,
                     help="device JSON (default: $QSIM_DEVICE or packaged)")
    sub.add_argument("--processor", choices=("ideal", "real"),
                     default=default_processor)
    sub.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--probabilities", action="store_true",
                     help="report exact probabilities instead of sampling")
    sub.add_argument("-o", "--output", type=Path, default=None,
                     help="write to file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsim",
        description="Small-register quantum circuit simulator with device "
        "constraints and an amplitude-damping noise model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a circuit file against a device")
    p_val.add_argument("circuit", type=Path)
    p_val.add_argument("--device", type=Path, default=None,
                       help="device JSON (default: $QSIM_DEVICE or packaged)")
    p_val.set_defaults(func=cmd_validate)

    p_sim = sub.add_parser("simulate", help="run a circuit file")
    p_sim.add_argument("circuit", type=Path)
    _add_run_options(p_sim, default_processor="ideal")
    p_sim.add_argument("--format", choices=("json", "csv", "ascii"),
                       default="json", dest="fmt")
    p_sim.set_defaults(func=cmd_simulate)

    p_tel = sub.add_parser("teleport", help="run the built-in teleport demo")
    p_tel.add_argument("--state", choices=sorted(_PREPS), required=True,
                       help="state loaded on wire 0: 'one' = X|0>, 'plus' = H|0>")
    _add_run_options(p_tel, default_processor="ideal")
    p_tel.add_argument("--format", choices=("json", "ascii"),
                       default="ascii", dest="fmt")
    p_tel.set_defaults(func=cmd_teleport)

    p_swp = sub.add_parser("sweep", help="idle-decay series on one qubit")
    p_swp.add_argument("--qubit", type=int, required=True)
    p_swp.add_argument("--n-max", type=int, required=True, dest="n_max")
    _add_run_options(p_swp, default_processor="real")
    p_swp.add_argument("--plot", action="store_true",
                       help="ASCII p0 chart on stderr alongside the CSV")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "seed", 0) < 0:  # simulate, teleport and sweep
        sys.stderr.write("error: --seed must be >= 0\n")
        return 2
    if getattr(args, "shots", 1) < 1:  # checked even with --probabilities
        sys.stderr.write("error: --shots must be >= 1\n")
        return 2
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except (DeviceError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValidationError as exc:
        for v in exc.violations:
            sys.stderr.write(f"{v.code.value}: {v.message}\n")
        return 1
    except (CapacityError, UntranspilableError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
