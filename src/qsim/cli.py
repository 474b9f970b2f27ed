"""Command-line front end.

Subcommands: validate (device check), simulate (run a circuit file on
the ideal or real processor), teleport (built-in demo), sweep (idle
decay series). Exit codes: 0 success, 1 domain violation, 2 usage, I/O
or parse problem. Every validator refusal, an off-device --qubit too,
prints one report on stdout (source lines for a circuit file, instruction
indices for the built-in circuits) and exits 1; a negative --qubit or
more --shots than an int64 holds exits 2. main reads the device
($QSIM_DEVICE, else the packaged default; --device overrides both)
before any circuit. Output is byte-deterministic given inputs and seed.

Circuit and device files are read by `circuit.read_utf8`: UTF-8, a
leading byte-order mark skipped. A device file whose content is refused,
and a circuit file that is not UTF-8, print one `error: <path>: <reason>`
line and exit 2. This module alone writes what the CLI prints:
`simulate_text`, `teleport_text` and `sweep_text` return the exact bytes
of their subcommand's artifact, which its `cmd_*` handler emits (`--plot`
charts the rows of `sweep_text`'s CSV), and `histogram_json_fields` is
the JSON histogram schema. The simulate csv format is the histogram
only: `bloch` markers are not refused there, and their vectors are left
out.

Each subcommand imports only what it runs: argument handling, `validate`
and the parse step of every subcommand need `circuit`, `gates` and
`errors` alone, so a `validate` process never loads numpy. Nor, before
Python 3.12, does it load `inspect`: qsim's records are `NamedTuple`s
and slotted classes, and no module imports `dataclasses` (from 3.12
`importlib.resources` imports `inspect` itself). `simulate`
loads the engine and `measure` (and with them numpy) only once the
circuit has parsed and passed its one validator pass, and only
`teleport` and `sweep` load `protocols`.

`main()` with no argument serves the process's own command line, and
the process ends when it returns (the `qsim` console script, `python -m
qsim.cli`). Such a run keeps the cyclic garbage collector off while it
parses, imports and runs, and freezes every object it leaves before it
returns, so the full collection at interpreter shutdown skips numpy's
import-time object graph. Stdout and stderr are still flushed and atexit
handlers still run. `main(argv)` with a list leaves the collector as it
found it, and importing this module does not touch it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .circuit import (
    PROCESSORS,
    Circuit,
    DeviceModel,
    check,
    default_device,
    load_device,
    parse,
    read_utf8,
    validate,
)
from .errors import (
    CapacityError,
    DeviceError,
    ParseError,
    ValidationError,
)
from .gates import GateKind

if TYPE_CHECKING:
    from .measure import Histogram

DEVICE_ENV_VAR = "QSIM_DEVICE"
DEFAULT_SHOTS = 8192
MAX_SWEEP_POINTS = 200
BAR_WIDTH = 60
FORMATS = ("json", "csv", "ascii")  # simulate --format
TELEPORT_FORMATS = ("json", "ascii")  # teleport --format


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
        counts = {k: hist.counts.get(k, 0) for k in probs}
        rows = [(k, f"{c:>8}  {c / hist.shots:8.6f}", c / hist.shots) for k, c in counts.items()]
    else:
        header = "exact probabilities\n"
        rows = [(k, f"{p:8.6f}", p) for k, p in probs.items()]
    return header + _ascii_bars(rows)


def _histogram_csv(probs: dict[str, float], hist: Histogram | None) -> str:
    if hist is None:
        lines = ["bitstring,probability"]
        lines += [f"{k},{p!r}" for k, p in probs.items()]
    else:
        lines = ["bitstring,count,probability"]
        lines += [f"{k},{hist.counts.get(k, 0)},{p!r}" for k, p in probs.items()]
    return "\n".join(lines) + "\n"


def histogram_json_fields(probs: dict[str, float], hist: Histogram | None = None) -> dict:
    """The JSON histogram schema (shots, seed, rng, counts, probabilities)
    of `probs`, the exact Born values, and `hist`, the sampled counts or
    None for exact-only artifacts (shots 0, seed and rng null). Both maps
    come back as given, in their builder's order (ascending key order)."""
    return {
        "shots": hist.shots if hist else 0,
        "seed": hist.seed if hist else None,
        "rng": hist.rng if hist else None,
        "counts": hist.counts if hist else {},
        "probabilities": probs,
    }


def _read_circuit(path: Path) -> Circuit:
    """Parse a circuit file. A leading byte-order mark is skipped, and
    bytes that are not UTF-8 are refused with the file's name."""
    try:
        text = read_utf8(path)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return parse(text, name=path.stem)


def cmd_validate(args) -> int:
    circuit = _read_circuit(args.circuit)
    violations = validate(circuit, args.device)
    if violations:
        raise ValidationError(violations, circuit)
    sys.stdout.write(f"{args.circuit}: ok on device '{args.device.name}'\n")
    return 0


def simulate_text(circuit: Circuit, device: DeviceModel, processor: str, fmt: str,
                  shots: int | None, seed: int) -> str:
    """The `qsim simulate` artifact of a parsed circuit, byte for byte.

    `fmt` is one of FORMATS. `shots=None` reports exact probabilities;
    any other value is the shot count `sample` draws (and refuses when
    out of range) for a circuit that measures a wire. Any `check` finding,
    a circuit with neither `measure` nor `bloch` included, raises
    ValidationError with all of them before the engine is imported.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {fmt!r}")
    measured = circuit.measured_qubits()
    tomographed = circuit.bloch_qubits()
    problems = check(circuit, processor, device)  # the run's one validator pass
    if problems:  # before the imports below, so a refused circuit exits without numpy
        raise ValidationError(problems, circuit)
    from .engine import _evolve
    from .measure import bloch_measure, probabilities, sample

    state = _evolve(circuit, processor, device)
    probs = probabilities(state, measured) if measured else {}
    hist = None
    if shots is not None and measured:
        hist = sample(state, measured, shots, seed)
    bloch = {f"q{q}": bloch_measure(state, q) for q in tomographed}

    if fmt == "json":
        artifact = {
            "circuit": circuit.name,
            "device": device.name,
            "processor": processor,
            **histogram_json_fields(probs, hist),
        }
        if bloch:
            artifact["bloch"] = {key: b._asdict() for key, b in sorted(bloch.items())}
        return json.dumps(artifact, indent=2) + "\n"
    if fmt == "csv":
        return _histogram_csv(probs, hist)
    parts = []
    if probs or hist:
        parts.append(_histogram_text(probs, hist))
    for key, b in sorted(bloch.items()):
        parts.append(
            f"bloch {key}: x={b.x:+.6f} y={b.y:+.6f} z={b.z:+.6f} "
            f"theta={b.theta:.6f} phi={b.phi:.6f} r={b.purity_norm:.6f}\n"
        )
    return "".join(parts)


def cmd_simulate(args) -> int:
    circuit = _read_circuit(args.circuit)
    _emit(simulate_text(circuit, args.device, args.processor, args.fmt,
                        args.shots, args.seed), args.output)
    return 0


_PREPS = {"one": (GateKind.X,), "plus": (GateKind.H,)}


def teleport_text(state: str, device: DeviceModel, processor: str, fmt: str,
                  shots: int | None, seed: int) -> str:
    """The `qsim teleport` artifact, byte for byte.

    `state` is a key of _PREPS (the state loaded on wire 0) and `fmt` one
    of TELEPORT_FORMATS; `shots` and `seed` are as in `simulate_text`.
    """
    if state not in tuple(_PREPS):
        raise ValueError(f"state must be one of {', '.join(_PREPS)}, got {state!r}")
    if fmt not in TELEPORT_FORMATS:
        raise ValueError(f"format must be one of {', '.join(TELEPORT_FORMATS)}, got {fmt!r}")
    from .protocols import run_teleport

    result = run_teleport(_PREPS[state], processor, shots, seed, device)
    if fmt == "json":
        artifact = {
            "state": state,
            "processor": processor,
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
        return json.dumps(artifact, indent=2) + "\n"
    lines = [
        f"teleport of '{state}' on {processor} processor (device '{device.name}')\n",
        _histogram_text(result.probabilities, result.histogram),
        "\nbranch  probability  correction  fidelity\n",
    ]
    for b in result.branches:
        fixup = " ".join(g.value for g in b.correction) or "-"
        lines.append(f"{b.outcome}      {b.probability:<11.6f}  {fixup:<10}  {b.fidelity:.6f}\n")
    return "".join(lines)


def cmd_teleport(args) -> int:
    _emit(teleport_text(args.state, args.device, args.processor, args.fmt,
                        args.shots, args.seed), args.output)
    return 0


def sweep_text(qubit: int, n_max: int, device: DeviceModel, processor: str,
               shots: int | None, seed: int) -> str:
    """The `qsim sweep` CSV, byte for byte: a `n,t_seconds,p0,p1` row per
    point of `decoherence_sweep`, with t_seconds = n * gate_time_tau_s."""
    from .protocols import decoherence_sweep

    tau = device.gate_time_tau_s
    rows = [f"{n},{n * tau!r},{p0!r},{p1!r}"
            for n, p0, p1 in decoherence_sweep(qubit, n_max, processor, device, shots, seed)]
    return "\n".join(["n,t_seconds,p0,p1", *rows]) + "\n"


def cmd_sweep(args) -> int:
    text = sweep_text(args.qubit, args.n_max, args.device, args.processor,
                      args.shots, args.seed)
    _emit(text, args.output)
    if args.plot:  # repr round-trips, so the CSV's p0 is the sweep's float
        points = [row.split(",") for row in text.splitlines()[1:]]
        rows = [(f"n={n:>4}", f"p0={float(p0):8.6f}", float(p0)) for n, _, p0, _ in points]
        sys.stderr.write(f"p0 vs n, qubit {args.qubit}, {args.processor} processor\n")
        sys.stderr.write(_ascii_bars(rows))
    return 0


def _add_run_options(sub, default_processor: str) -> None:
    sub.add_argument("--processor", choices=PROCESSORS,
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
    device = argparse.ArgumentParser(add_help=False)  # shared by every subcommand
    device.add_argument("--device", type=Path, default=None,
                        help="device JSON (default: $QSIM_DEVICE or packaged)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", parents=[device],
                           help="check a circuit file against a device")
    p_val.add_argument("circuit", type=Path)
    p_val.set_defaults(func=cmd_validate)

    p_sim = sub.add_parser("simulate", parents=[device], help="run a circuit file")
    p_sim.add_argument("circuit", type=Path)
    _add_run_options(p_sim, default_processor="ideal")
    p_sim.add_argument("--format", choices=FORMATS,
                       default="json", dest="fmt")
    p_sim.set_defaults(func=cmd_simulate)

    p_tel = sub.add_parser("teleport", parents=[device], help="run the built-in teleport demo")
    p_tel.add_argument("--state", choices=sorted(_PREPS), required=True,
                       help="state loaded on wire 0: 'one' = X|0>, 'plus' = H|0>")
    _add_run_options(p_tel, default_processor="ideal")
    p_tel.add_argument("--format", choices=TELEPORT_FORMATS,
                       default="ascii", dest="fmt")
    p_tel.set_defaults(func=cmd_teleport)

    p_swp = sub.add_parser("sweep", parents=[device], help="idle-decay series on one qubit")
    p_swp.add_argument("--qubit", type=int, required=True)
    p_swp.add_argument("--n-max", type=int, required=True, dest="n_max")
    _add_run_options(p_swp, default_processor="real")
    p_swp.add_argument("--plot", action="store_true",
                       help="ASCII p0 chart on stderr alongside the CSV")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Run one qsim command and return its exit code.

    argv=None reads sys.argv and is the process's whole life: the cyclic
    collector stays off until the command is done (argparse's SystemExit
    included), then every live object is frozen and the collector's
    enabled state restored. Frozen objects sit outside every generation,
    so the shutdown collection, which runs even with the collector off,
    neither walks nor frees them. Unlike os._exit this still flushes
    stdio and runs atexit handlers. A list argv leaves gc untouched, as
    in-process callers need.
    """
    if argv is not None:
        return _run(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(None)
    finally:
        gc.freeze()
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "seed", 0) < 0:  # simulate, teleport and sweep
        sys.stderr.write("error: --seed must be >= 0\n")
        return 2
    if getattr(args, "shots", 1) < 1:  # checked even with --probabilities
        sys.stderr.write("error: --shots must be >= 1\n")
        return 2
    if getattr(args, "n_max", 0) > MAX_SWEEP_POINTS:
        sys.stderr.write(f"error: --n-max is capped at {MAX_SWEEP_POINTS}\n")
        return 2
    if getattr(args, "probabilities", False):
        args.shots = None  # exact mode: no handler reads --probabilities
    try:
        args.device = _resolve_device(args.device)  # the handlers read the model
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except (DeviceError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValidationError as exc:
        sys.stdout.write(_violation_report(exc.circuit, exc.violations))
        return 1
    except CapacityError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
