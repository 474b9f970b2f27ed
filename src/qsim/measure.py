"""Born-rule probabilities, seeded shot sampling, and Bloch tomography.

Bitstring keys cover exactly the measured qubits in ascending index
order, leftmost bit = lowest measured index, consistent with the global
qubit-0-is-most-significant convention. Shot sampling uses numpy's
PCG64 generator; the algorithm identifier travels with every histogram
so results are reproducible across platforms from (state, qubits,
shots, seed) alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import DensityMatrix, PureState, _check_qubit, reduced_density_1q

RNG_ALGORITHM = "pcg64"

# Keys below this weight are dropped from probability maps; small enough
# that a 16-qubit map still sums to 1 within 1e-10.
_PROB_FLOOR = 1e-15


@dataclass
class Histogram:
    """Counts of one shot run, keys fixed-width over the measured qubits."""

    shots: int
    counts: dict[str, int]
    seed: int
    rng: str = RNG_ALGORITHM


@dataclass(frozen=True)
class BlochVector:
    """Pauli expectations of one qubit plus spherical direction angles.

    (theta, phi) describe the direction x = r sin(theta) cos(phi),
    y = r sin(theta) sin(phi), z = r cos(theta) with r = purity_norm;
    phi is fixed to 0 at the poles and both angles to 0 for the
    maximally mixed point r = 0.
    """

    x: float
    y: float
    z: float
    theta: float
    phi: float
    purity_norm: float


def _measured_indices(state, measured: Sequence[int]) -> list[int]:
    qs = sorted(measured)
    if not qs:
        raise ValueError("measured qubit list is empty")
    for q in qs:
        _check_qubit(state.num_qubits, q)
    if len(set(qs)) != len(qs):
        raise ValueError("measured qubit list has duplicates")
    return qs


def probabilities(state, measured: Sequence[int]) -> dict[str, float]:
    """Marginal Born-rule distribution over the measured qubits.

    Works on either state kind: |amp|^2 weights for a pure state, the
    real diagonal for a density matrix, summed over the unmeasured
    wires. Keys are fixed-width bitstrings in ascending qubit order;
    zero-weight keys are omitted.
    """
    qs = _measured_indices(state, measured)
    n = state.num_qubits
    if isinstance(state, PureState):
        weights = np.abs(state.amps) ** 2
    elif isinstance(state, DensityMatrix):
        weights = np.real(np.diagonal(state.mat)).copy()
        np.clip(weights, 0.0, None, out=weights)
    else:
        raise TypeError(f"cannot measure {type(state).__name__}")
    tensor = weights.reshape((2,) * n)
    drop = tuple(q for q in range(n) if q not in set(qs))
    marginal = tensor.sum(axis=drop) if drop else tensor
    flat = marginal.reshape(-1)
    width = len(qs)
    return {
        format(i, f"0{width}b"): float(p)
        for i, p in enumerate(flat)
        if p >= _PROB_FLOOR
    }


def sample(state, measured: Sequence[int], shots: int, seed: int) -> Histogram:
    """Draw i.i.d. computational-basis shots from the state's distribution.

    Identical (state, measured, shots, seed) reproduce identical counts;
    parallel runs should derive distinct seeds as seed XOR run_index.
    Zero-count keys are omitted.
    """
    if not isinstance(shots, numbers.Integral):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    probs = probabilities(state, measured)
    keys = sorted(probs)
    pvec = np.array([probs[k] for k in keys])
    pvec /= pvec.sum()
    rng = np.random.default_rng(seed)
    drawn = rng.multinomial(shots, pvec)
    counts = {k: int(c) for k, c in zip(keys, drawn) if c > 0}
    return Histogram(shots=shots, counts=counts, seed=int(seed), rng=RNG_ALGORITHM)


def histogram_json_fields(probs: dict[str, float],
                          hist: Histogram | None = None) -> dict:
    """The serialized histogram schema: shots/seed/rng/counts/probabilities.

    `probs` carries the exact Born values; `hist` the sampled counts, or
    None for exact-only artifacts (shots 0, seed and rng null). Keys are
    emitted sorted so serialization is byte-stable.
    """
    return {
        "shots": hist.shots if hist else 0,
        "seed": hist.seed if hist else None,
        "rng": hist.rng if hist else None,
        "counts": dict(sorted(hist.counts.items())) if hist else {},
        "probabilities": dict(sorted(probs.items())),
    }


def bloch_measure(state, q: int) -> BlochVector:
    """Single-qubit tomography of wire q.

    Reduces the state to a 2x2 density matrix and reads off the Pauli
    expectations; unlike computational-basis probabilities this
    distinguishes |+> from |->. For one half of a maximally entangled
    pair the vector collapses to the origin (purity_norm 0): the reduced
    state carries no direction information.
    """
    rho = reduced_density_1q(state, q)
    # + 0.0 normalizes IEEE negative zeros out of the report
    x = float(2.0 * rho[0, 1].real) + 0.0
    y = float(-2.0 * rho[0, 1].imag) + 0.0
    z = float((rho[0, 0] - rho[1, 1]).real) + 0.0
    r = math.sqrt(x * x + y * y + z * z)
    if r > 1e-9:
        cos_theta = min(1.0, max(-1.0, z / r))
        theta = math.acos(cos_theta)
        sin_theta = math.sqrt(max(0.0, 1.0 - cos_theta * cos_theta))
        phi = math.atan2(y, x) + 0.0 if sin_theta >= 1e-12 else 0.0
    else:
        theta = 0.0
        phi = 0.0
    return BlochVector(x=x, y=y, z=z, theta=theta, phi=phi, purity_norm=r)
