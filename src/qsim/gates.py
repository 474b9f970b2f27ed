"""The platform gate set and its matrices.

Single-qubit gates are the three Paulis, Hadamard, the phase pair S/S†,
the non-Clifford pair T/T†, and an explicit identity. CNOT, the only
two-qubit gate, is the circuit's `Cnot` instruction, not a GateKind.
Identity is a first-class gate rather than a no-op because the noisy
engine charges one decoherence slot per gate, so a line of identities
is a timed idle period.

`ENTRIES` holds each gate's matrix as Python complex numbers, so parsing
and validating a circuit never import numpy; engine.run reads its gate
entries from it. `matrix_of` builds the read-only numpy matrix of a gate
from that table on its first call for the gate.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from functools import cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class GateKind(str, Enum):
    """The single-qubit gates, by their mnemonics in circuit files (CNOT,
    mnemonic cx, is the `Cnot` instruction)."""

    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    ID = "id"


_SQRT1_2 = 1.0 / math.sqrt(2.0)


def _entries(a, b, c, d) -> tuple[complex, complex, complex, complex]:
    return (complex(a), complex(b), complex(c), complex(d))


# each gate's 2x2 matrix [[a, b], [c, d]] as (a, b, c, d); -1j keeps its
# -0.0 real part, as numpy's complex conversion does
ENTRIES: dict[GateKind, tuple[complex, complex, complex, complex]] = {
    GateKind.X: _entries(0, 1, 1, 0),
    GateKind.Y: _entries(0, -1j, 1j, 0),
    GateKind.Z: _entries(1, 0, 0, -1),
    GateKind.H: _entries(_SQRT1_2, _SQRT1_2, _SQRT1_2, -_SQRT1_2),
    GateKind.S: _entries(1, 0, 0, 1j),
    GateKind.SDG: _entries(1, 0, 0, -1j),
    GateKind.T: _entries(1, 0, 0, cmath.exp(1j * math.pi / 4)),
    GateKind.TDG: _entries(1, 0, 0, cmath.exp(-1j * math.pi / 4)),
    GateKind.ID: _entries(1, 0, 0, 1),
}


@cache
def matrix_of(gate: GateKind) -> np.ndarray:
    """Return the 2x2 matrix of a single-qubit gate (read-only array);
    a value that is no GateKind, or its mnemonic, is a ValueError."""
    import numpy as np

    if gate not in ENTRIES:
        raise ValueError(f"unknown gate kind {gate!r}")
    a, b, c, d = ENTRIES[gate]
    m = np.array([[a, b], [c, d]])
    m.setflags(write=False)
    return m
