"""The decoherence slot of the "real processor".

On the real processor every gate instruction is charged one
decoherence slot on every wire of the register, idle wires included:
amplitude damping (relaxation toward |0>) plus optional dephasing, with
per-qubit rates read from the device a NoiseConfig holds. Identity
gates therefore act as timed idle slots. `decohere` applies k slots on
one wire at once: the closed form of both channels, in place. `KrausChannel`,
`amplitude_damping` and `dephasing` define the channels and are the
test oracle for that closed form. engine.run charges the slots per gate
and flushes them lazily, k at a time, when a gate that does not commute
with them reaches the wire.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import DeviceModel, _is_int, _Record
from .errors import DeviceError
from .states import DensityMatrix, _check_qubit, _expect

COMPLETENESS_ATOL = 1e-10


class KrausChannel(_Record):
    """A trace-preserving single-qubit channel given by its Kraus
    operators. Two channels are equal only when they are one object."""

    __slots__ = ("ops",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, ops: tuple[np.ndarray, ...]):
        self._set(ops)
        acc = np.zeros((2, 2), dtype=complex)
        for k in ops:
            if not isinstance(k, np.ndarray) or k.shape != (2, 2):
                raise ValueError("Kraus operators must be 2x2")
            acc += k.conj().T @ k
        if not np.allclose(acc, np.eye(2), atol=COMPLETENESS_ATOL):
            raise ValueError("Kraus operators do not satisfy sum K†K = I")


def _check_rate(name: str, rate: float) -> None:
    """Refuse a channel rate outside [0, 1], NaN included."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{name}={rate} outside [0, 1]")


def amplitude_damping(gamma: float) -> KrausChannel:
    """Relaxation channel whose fixed point is |0><0|.

    K0 = [[1, 0], [0, sqrt(1-g)]],  K1 = [[0, sqrt(g)], [0, 0]]

    One application scales the excited population by (1-g) and the
    coherences by sqrt(1-g); iterating it drives any state to |0>.
    """
    _check_rate("gamma", gamma)
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1))


def dephasing(lam: float) -> KrausChannel:
    """Pure dephasing channel: populations kept, coherences scaled by (1-2l).

    K0 = sqrt(1-l) I,  K1 = sqrt(l) Z
    """
    _check_rate("lambda", lam)
    k0 = math.sqrt(1.0 - lam) * np.eye(2, dtype=complex)
    k1 = math.sqrt(lam) * np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return KrausChannel((k0, k1))


def decohere(rho: DensityMatrix, q: int, gamma: float, lam: float,
             slots: int = 1) -> DensityMatrix:
    """`slots` slots of dephasing(lam) after amplitude_damping(gamma) on
    wire q, in place; returns rho. The two channels commute. On the row
    and column bit of wire q: rho00 += gamma rho11, rho11 *= 1-gamma, and
    rho01, rho10 are scaled by sqrt(1-gamma) (1-2 lam).

    k slots are one slot with rates 1-(1-gamma)^k and (1-(1-2 lam)^k)/2;
    a single slot uses gamma and lam as given. A state that is not a
    DensityMatrix is refused by `states._expect` (TypeError), and a rate
    outside [0, 1] by `_check_rate` (ValueError).
    """
    _expect(rho, DensityMatrix)
    _check_qubit(rho, q)
    _check_rate("gamma", gamma)
    _check_rate("lambda", lam)
    if not _is_int(slots) or slots < 1:
        raise ValueError(f"slots must be an integer >= 1, got {slots!r}")
    n = rho.num_qubits
    if slots > 1:
        gamma = 1.0 - (1.0 - gamma) ** slots
        lam = (1.0 - (1.0 - 2.0 * lam) ** slots) / 2.0
    above, below = 1 << q, 1 << (n - 1 - q)
    m = rho.mat.reshape(above, 2, below, above, 2, below)
    m[:, 0, :, :, 0] += gamma * m[:, 1, :, :, 1]
    m[:, 1, :, :, 1] *= 1.0 - gamma
    coherence = math.sqrt(1.0 - gamma) * (1.0 - 2.0 * lam)
    m[:, 0, :, :, 1] *= coherence
    m[:, 1, :, :, 0] *= coherence
    return rho


class NoiseConfig(_Record):
    """A device's decoherence slot, at the rates its DeviceModel checked, plus an on/off switch."""

    __slots__ = ("device", "enabled")

    def __init__(self, device: DeviceModel, enabled: bool = True):
        if not isinstance(device, DeviceModel):
            raise TypeError(f"NoiseConfig needs a DeviceModel, got {type(device).__name__}")
        self._set(device, enabled)

    @classmethod
    def from_device(cls, device: DeviceModel, enabled: bool = True) -> "NoiseConfig":
        """The constructor under another name, called by perfbench/workloads.py and three tests."""
        return cls(device, enabled)

    def slot(self, num_qubits: int) -> dict[int, tuple[float, float]]:
        """{wire: (gamma, lam)} of one gate slot, in wire order; wires whose
        two rates are zero are omitted, and a disabled config has none. A
        device with fewer qubits than the register is a DeviceError."""
        if not self.enabled:
            return {}
        qubits = self.device.qubits
        if len(qubits) < num_qubits:
            raise DeviceError(f"noise rates cover {len(qubits)} qubits, register has {num_qubits}")
        return {q: (r.gamma_relax, r.gamma_phase)
                for q, r in enumerate(qubits[:num_qubits]) if r.gamma_relax or r.gamma_phase}
