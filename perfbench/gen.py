"""Seeded inputs for the qsim benchmark (standard library only).

Everything qsim receives in a benchmark run is text made here: circuit
files in the qsim text format and device descriptions in its JSON
schema. A workload's inputs are a list of rounds. Every round holds one
request of each of the workload's classes, in a fixed order; a class
fixes a range of sizes, and the seed picks the sizes inside it and the
gates. Every run therefore measures the same mix of request costs,
whatever the seed, and the same (workload, seed, tiny) always yields
byte-identical inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

GATES_1Q = ("x", "y", "z", "h", "s", "sdg", "t", "tdg", "id")
CX_SHARE = 0.3

# Rounds in the request pool; a run that gets through them starts again.
ROUNDS = {"device_session": 10, "simulate_wide": 10}

# Measured share of the register, cycled over a workload's classes.
MEASURED_SHARES = (1.0, 0.25, 0.5, 0.75)

IDEAL_WIDTHS = (12, 13, 14, 15, 16)
IDEAL_DEPTHS = ((300, 330), (600, 650), (930, 1000))
IDEAL_SHOTS = 8192

# (wires, min depth, max depth): depth shrinks as width grows, so that
# request costs spread evenly between a few tens of ms and one 10-wire gate.
REAL_CLASSES = (
    (6, 38, 42), (7, 4, 4),
    (6, 105, 115), (7, 11, 12), (8, 3, 3),
    (9, 1, 1),
    (6, 220, 240), (7, 23, 24), (8, 6, 6),
    (9, 2, 2),
    (10, 1, 1),
)
REAL_SHOTS = 8192

SESSION_TARGETS = (2,)  # allowed CNOT targets of the packaged device
SESSION_WIRES = 5
SESSION_SHOTS = 1024
SESSION_SWEEP_QUBIT = 3  # the packaged device's least robust wire

TINY_IDEAL_WIDTHS = (2, 3, 4, 5, 6)
TINY_IDEAL_DEPTHS = ((5, 10), (10, 20), (20, 30))
TINY_REAL_CLASSES = ((2, 5, 10), (3, 3, 6), (4, 1, 3))
TINY_SHOTS = 64


def describe(text: str) -> dict:
    """Gate and marker counts of circuit text, read without qsim."""
    info = {"num_qubits": 0, "gates_1q": 0, "cnots": 0, "idles": 0,
            "measured": [], "bloch": []}
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].lower().split()
        if not tokens:
            continue
        op, args = tokens[0], tokens[1:]
        if op == "qubits":
            info["num_qubits"] = int(args[0])
        elif op == "cx":
            info["cnots"] += 1
        elif op == "measure":
            info["measured"].append(int(args[0][1:]))
        elif op == "bloch":
            info["bloch"].append(int(args[0][1:]))
        else:
            info["gates_1q"] += 1
            info["idles"] += op == "id"
    info["measured"].sort()
    info["bloch"].sort()
    return info


def random_circuit(rng: random.Random, n: int, depth: int, n_measured: int,
                   n_bloch: int = 0, targets=None) -> str:
    """`depth` random gates (CX_SHARE of them cx, pointed only at `targets`
    when given), then `measure` on n_measured random wires and `bloch` on
    up to n_bloch of the others."""
    lines = [f"qubits {n}"]
    for _ in range(depth):
        if n > 1 and rng.random() < CX_SHARE:
            target = rng.choice(targets if targets else range(n))
            control = rng.choice([q for q in range(n) if q != target])
            lines.append(f"cx q{control} q{target}")
        else:
            lines.append(f"{rng.choice(GATES_1Q)} q{rng.randrange(n)}")
    wires = list(range(n))
    rng.shuffle(wires)
    lines += [f"measure q{q}" for q in sorted(wires[:n_measured])]
    lines += [f"bloch q{q}" for q in sorted(wires[n_measured:n_measured + n_bloch])]
    return "\n".join(lines) + "\n"


def _measured_count(n: int, share: float) -> int:
    return n if share == 1.0 else min(n - 1, max(1, round(share * n)))


def _circuit_request(rng, label, n, depth_range, share, shots, **extra) -> dict:
    k = _measured_count(n, share)
    text = random_circuit(rng, n, rng.randint(*depth_range), k, n_bloch=min(1, n - k))
    return {"class": label, "text": text, "shots": shots,
            "seed": rng.randrange(2 ** 32), **extra}


def device_json(rng: random.Random, n: int) -> str:
    """A device on which every wire may be a CNOT target and every wire
    has nonzero relaxation and dephasing rates."""
    device = {
        "name": f"bench-w{n}",
        "num_qubits": n,
        "allowed_cnot_targets": list(range(n)),
        "gate_time_tau_s": 1e-07,
        "qubits": [
            {"gamma_relax": round(rng.uniform(0.002, 0.02), 6),
             "gamma_phase": round(rng.uniform(0.0005, 0.005), 6)}
            for _ in range(n)
        ],
    }
    return json.dumps(device, indent=2) + "\n"


def _simulate_wide(rng, rounds, tiny):
    """Every round: the ideal classes (width x depth), then the real
    classes, each real width on its own generated device."""
    ideal = [(n, d) for n in (TINY_IDEAL_WIDTHS if tiny else IDEAL_WIDTHS)
             for d in (TINY_IDEAL_DEPTHS if tiny else IDEAL_DEPTHS)]
    real = TINY_REAL_CLASSES if tiny else REAL_CLASSES
    ideal_shots = TINY_SHOTS if tiny else IDEAL_SHOTS
    real_shots = TINY_SHOTS if tiny else REAL_SHOTS
    files = {f"device-w{n}.json": device_json(rng, n)
             for n in sorted({c[0] for c in real})}
    share = MEASURED_SHARES
    return [
        [_circuit_request(rng, f"ideal-w{n}-d{d[0]}", n, d, share[j % len(share)],
                          ideal_shots, processor="ideal")
         for j, (n, d) in enumerate(ideal)]
        + [_circuit_request(rng, f"real-w{n}-d{lo}", n, (lo, hi), share[j % len(share)],
                            real_shots, processor="real", device=f"device-w{n}.json")
           for j, (n, lo, hi) in enumerate(real)]
        for _ in range(rounds)
    ], files


MALFORMED = (
    lambda text: text.replace("qubits", "qubit", 1),        # unknown mnemonic
    lambda text: "\n".join(text.splitlines()[1:]) + "\n",   # missing header
    lambda text: text.replace("h q", "h x", 1) if "h q" in text else text + "h x0\n",
    lambda text: text + "x q9\n",                           # wire out of range
    lambda text: text + "cx q0\n",                          # missing operand
)


def _session(rng, rounds, tiny, shipped: dict[str, str]):
    files = {f"shipped-{name}": text for name, text in shipped.items()}
    names = sorted(files)
    depth = (4, 10) if tiny else (20, 80)
    sweep_n = (2, 4) if tiny else (48, 50)
    out = []
    for r in range(rounds):
        def circuit(tag, targets=SESSION_TARGETS, forbidden=False):
            n = rng.randint(3, SESSION_WIRES)
            text = random_circuit(rng, n, rng.randint(*depth), rng.randint(1, n - 1),
                                  n_bloch=1, targets=targets)
            if forbidden:  # one more cx, pointed at a wire the device forbids
                bad = rng.choice([q for q in range(n) if q not in SESSION_TARGETS])
                head, body = text.split("\n", 1)
                text = f"{head}\ncx q2 q{bad}\n{body}"
            name = f"r{r}-{tag}.qc"
            files[name] = text
            return name

        def cli(tag, command, processor, fmt, exact, **extra):
            seed = rng.randrange(2 ** 32)
            argv = [command, *extra.pop("args", ()), "--processor", processor,
                    "--format", fmt, "--shots", str(SESSION_SHOTS), "--seed", str(seed)]
            if exact:
                argv.append("--probabilities")
            return {"class": tag, "file": None, "argv": argv, "expect": 0,
                    "processor": processor, "fmt": fmt, "exact": exact,
                    "shots": SESSION_SHOTS, "seed": seed, **extra}

        def sim(tag, name, processor, fmt, exact, expect=0, check="simulate"):
            return cli(tag, "simulate", processor, fmt, exact, file=name,
                       expect=expect, check=check)

        shipped_name = names[r % len(names)]
        bell = shipped_name.endswith("bell.qc")
        source = random_circuit(rng, 3, rng.randint(*depth), 1, targets=SESSION_TARGETS)
        files[f"r{r}-malformed.qc"] = rng.choice(MALFORMED)(source)
        batch = [
            {"class": "validate-shipped", "file": shipped_name, "argv": ["validate"],
             "expect": 1 if bell else 0, "check": "forbidden" if bell else "ok"},
            {"class": "validate-legal", "file": circuit("legal"), "argv": ["validate"],
             "expect": 0, "check": "ok"},
            {"class": "validate-forbidden", "argv": ["validate"], "expect": 1,
             "file": circuit("forbidden", forbidden=True), "check": "forbidden"},
            {"class": "validate-malformed", "file": f"r{r}-malformed.qc",
             "argv": ["validate"], "expect": 2, "check": "parse_error"},
            sim("ideal-json", circuit("ideal-json", targets=None), "ideal", "json", False),
            sim("ideal-csv", circuit("ideal-csv", targets=None), "ideal", "csv", True),
            sim("ideal-ascii", circuit("ideal-ascii", targets=None), "ideal", "ascii", False),
            sim("real-json", circuit("real-json"), "real", "json", True),
            sim("real-csv", circuit("real-csv"), "real", "csv", False),
            sim("real-ascii", circuit("real-ascii"), "real", "ascii", True),
            sim("real-forbidden", circuit("real-forbidden", forbidden=True), "real",
                "json", False, expect=1, check="forbidden"),
            sim("shipped-ideal", shipped_name, "ideal", "json", False),
        ]
        for tag, processor, fmt, exact in (("teleport-ideal", "ideal", "json", False),
                                           ("teleport-real", "real", "ascii", True)):
            state = rng.choice(("one", "plus"))
            batch.append(cli(tag, "teleport", processor, fmt, exact, check="teleport",
                             state=state, args=("--state", state)))
        for tag, exact in (("sweep-exact", True), ("sweep-sampled", False),
                           ("sweep-exact-2", True)):
            q, n_max = SESSION_SWEEP_QUBIT, rng.randint(*sweep_n)
            seed = rng.randrange(2 ** 32)
            argv = ["sweep", "--qubit", str(q), "--n-max", str(n_max),
                    "--shots", str(SESSION_SHOTS), "--seed", str(seed)]
            if exact:
                argv.append("--probabilities")
            batch.append({"class": tag, "file": None, "argv": argv, "expect": 0,
                          "check": "sweep", "qubit": q, "n_max": n_max,
                          "shots": None if exact else SESSION_SHOTS, "seed": seed})
        out.append(batch)
    return out, files


def make_inputs(workload: str, seed: int, tiny: bool = False,
                shipped_dir: Path | None = None) -> tuple[list, dict]:
    """(rounds of request dicts, {file name: text}) for one workload.

    `shipped_dir` holds the repository's sample circuits, which
    device_session copies in beside its generated ones.
    """
    rng = random.Random(f"{workload}/{seed}/{int(tiny)}")
    rounds = 1 if tiny else ROUNDS[workload]
    if workload == "simulate_wide":
        return _simulate_wide(rng, rounds, tiny)
    if workload == "device_session":
        shipped = {p.name: p.read_text(encoding="utf-8")
                   for p in sorted(shipped_dir.glob("*.qc"))}
        if not shipped:
            raise FileNotFoundError(f"no sample circuits in {shipped_dir}")
        return _session(rng, rounds, tiny, shipped)
    raise ValueError(f"unknown workload {workload!r}")
