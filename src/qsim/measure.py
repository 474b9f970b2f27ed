"""Born-rule probabilities, seeded shot sampling, and Bloch tomography.

Bitstring keys cover exactly the measured qubits in ascending index
order, leftmost bit = lowest measured index, consistent with the global
qubit-0-is-most-significant convention. `marginal` is the one place
that validates measured wires and clips negative populations, and
`sample` draws from it. Both build their bitstring keys in bulk
(`_bit_keys`): the kept indices' bits unpacked into one ASCII byte
matrix, a row per index ended by a space, decoded and split once, not
one `format` call per entry. Each map is built once, in index order,
which is key order, and the CLI's writers (`cli.histogram_json_fields`
for JSON) use it as built; this module writes no text. Shot sampling
uses numpy's PCG64 generator; the algorithm identifier travels with
every histogram so results are reproducible across platforms from
(state, qubits, shots, seed) alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .circuit import _is_int
from .states import _check_qubit, _register, reduced_density_1q

RNG_ALGORITHM = "pcg64"

# Keys below this weight are dropped from probability maps; small enough
# that a 16-qubit map still sums to 1 within 1e-10.
_PROB_FLOOR = 1e-15


class Histogram(NamedTuple):
    """Counts of one shot run, keys fixed-width over the measured qubits."""

    shots: int
    counts: dict[str, int]
    seed: int
    rng = RNG_ALGORITHM  # a class constant, not a field: the one algorithm `sample` draws with


class BlochVector(NamedTuple):
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


def marginal(state, measured: Sequence[int]) -> np.ndarray:
    """Born weights of the measured qubits, flat, in ascending-bit order.

    The one place that validates a measured-wire list, clips negative
    populations and refuses a state with non-finite weight or with no
    weight on the measured wires; sums |amp|^2 or the real diagonal over
    unmeasured wires, one wire at a time, so no SIMD kernel regroups the
    sums and the bytes do not depend on the CPU numpy dispatches to.
    """
    buf, _, copies = _register(state)
    for q in measured:
        _check_qubit(state, q)
    if len(measured) == 0:
        raise ValueError("measured qubit list is empty")
    if len(set(measured)) != len(measured):
        raise ValueError("measured qubit list has duplicates")
    n = state.num_qubits
    if len(copies) == 1:  # psi: one gate copy
        weights = buf.real * buf.real + buf.imag * buf.imag
    else:  # rho's diagonal, every (2^n + 1)-th entry of its buffer
        weights = np.clip(np.real(buf[::(1 << n) + 1]), 0.0, None)
    weights = weights.reshape((2,) * n)
    for q in reversed(range(n)):  # highest first, by elementwise adds: the same bytes on any CPU
        if q not in measured:
            weights = weights.take(0, axis=q) + weights.take(1, axis=q)
    flat = weights.reshape(-1)
    if not np.isfinite(flat).all():  # an inf or NaN weight reaches its sum
        raise ValueError(f"state has non-finite weight on qubits {list(measured)}")
    if not flat.max() >= _PROB_FLOOR:
        raise ValueError(f"state has no measurable weight on qubits {list(measured)}")
    return flat


def _bit_keys(indices: np.ndarray, width: int) -> list[str]:
    """`format(i, f"0{width}b")` of every index (at most 16 wires), built as
    one ASCII byte matrix: a row per index, its low `width` bits most
    significant first and then a space, so one `split` yields the keys."""
    chars = np.full((len(indices), width + 1), ord(" "), dtype=np.uint8)
    bits = np.unpackbits(indices.astype(">u2").view(np.uint8)).reshape(-1, 16)
    chars[:, :width] = bits[:, 16 - width:] + ord("0")
    return chars.tobytes().decode("ascii").split()


def probabilities(state, measured: Sequence[int]) -> dict[str, float]:
    """Marginal Born-rule distribution over the measured qubits.

    The `marginal` vector as a map from fixed-width bitstring keys in
    ascending qubit order; keys below the weight floor are omitted.
    """
    flat = marginal(state, measured)
    keep = np.flatnonzero(flat >= _PROB_FLOOR)
    return dict(zip(_bit_keys(keep, len(measured)), flat[keep].tolist()))


def sample(state, measured: Sequence[int], shots: int, seed: int) -> Histogram:
    """Draw i.i.d. computational-basis shots from the state's distribution.

    Draws from the renormalized `marginal` entries `probabilities` keeps.
    Identical (state, measured, shots, seed) reproduce identical counts;
    parallel runs should derive distinct seeds as seed XOR run_index.
    Zero-count keys are omitted.
    """
    if not _is_int(shots):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if not 1 <= shots < 2**63:  # numpy draws an int64 count
        raise ValueError(f"shots must be in 1..2**63-1, got {shots}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    flat = marginal(state, measured)
    keep = np.flatnonzero(flat >= _PROB_FLOOR)
    pvec = flat[keep]
    pvec /= pvec.sum()
    rng = np.random.default_rng(seed)
    drawn = rng.multinomial(shots, pvec)
    hit = np.flatnonzero(drawn)
    counts = dict(zip(_bit_keys(keep[hit], len(measured)), drawn[hit].tolist()))
    return Histogram(shots=int(shots), counts=counts, seed=int(seed))


def bloch_measure(state, q: int) -> BlochVector:
    """Single-qubit tomography of wire q.

    Reduces the state to a 2x2 density matrix and reads off the Pauli
    expectations; unlike computational-basis probabilities this
    distinguishes |+> from |->. For one half of a maximally entangled
    pair the vector collapses to the origin (purity_norm 0): the reduced
    state carries no direction information. A state with no weight on
    wire q is refused, as `marginal` refuses it, and so is a state with
    non-finite weight.
    """
    with np.errstate(invalid="ignore"):  # inf times 0 in the reduction: refused below
        rho = reduced_density_1q(state, q)
    if not np.isfinite(rho).all():
        raise ValueError(f"state has non-finite weight on qubit {q}")
    if not rho[0, 0].real + rho[1, 1].real >= _PROB_FLOOR:
        raise ValueError(f"state has no measurable weight on qubit {q}")
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
