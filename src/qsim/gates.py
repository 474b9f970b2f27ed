"""The platform gate set and its matrices.

Single-qubit gates are the three Paulis, Hadamard, the phase pair S/S†,
the non-Clifford pair T/T†, and an explicit identity; CNOT is the only
two-qubit gate. Identity is a first-class gate rather than a no-op
because the noisy engine charges one decoherence slot per gate, so a
line of identities is a timed idle period.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

import numpy as np


class GateKind(str, Enum):
    """Gate mnemonics as they appear in circuit files."""

    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    ID = "id"
    CNOT = "cx"

    @property
    def is_two_qubit(self) -> bool:
        return self is GateKind.CNOT


_SQRT1_2 = 1.0 / math.sqrt(2.0)


def _mat(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.setflags(write=False)
    return m


_MATRICES: dict[GateKind, np.ndarray] = {
    GateKind.X: _mat([[0, 1], [1, 0]]),
    GateKind.Y: _mat([[0, -1j], [1j, 0]]),
    GateKind.Z: _mat([[1, 0], [0, -1]]),
    GateKind.H: _mat([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]]),
    GateKind.S: _mat([[1, 0], [0, 1j]]),
    GateKind.SDG: _mat([[1, 0], [0, -1j]]),
    GateKind.T: _mat([[1, 0], [0, cmath.exp(1j * math.pi / 4)]]),
    GateKind.TDG: _mat([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]]),
    GateKind.ID: _mat([[1, 0], [0, 1]]),
}


def matrix_of(gate: GateKind) -> np.ndarray:
    """Return the 2x2 matrix of a single-qubit gate (read-only array)."""
    if gate.is_two_qubit:
        raise ValueError("cx is a two-qubit gate; use apply_cnot()")
    return _MATRICES[gate]
