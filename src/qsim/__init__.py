"""qsim: a small-register quantum circuit simulator.

Parses a line-oriented text circuit format, validates circuits against a
device model (gate set, CNOT-target restriction, per-qubit noise rates),
and executes them on an ideal statevector engine or a noisy
density-matrix engine with per-gate-slot amplitude damping and optional
dephasing. Ships teleportation and idle-decay demo protocols and a CLI.
"""

from .circuit import (
    BlochMeasure,
    Circuit,
    Cnot,
    DeviceModel,
    Gate1,
    MeasureZ,
    QubitNoise,
    Violation,
    ViolationCode,
    default_device,
    format_circuit,
    load_device,
    parse,
    retarget_cnots,
    validate,
)
from .engine import run
from .errors import (
    CapacityError,
    DeviceError,
    ParseError,
    QsimError,
    UntranspilableError,
    ValidationError,
)
from .gates import GateKind, matrix_of
from .measure import (
    BlochVector,
    Histogram,
    bloch_measure,
    histogram_json_fields,
    probabilities,
    sample,
)
from .noise import (
    KrausChannel,
    NoiseConfig,
    amplitude_damping,
    dephasing,
)
from .protocols import (
    BellIndex,
    BranchReport,
    SweepResult,
    TeleportResult,
    bell_state,
    build_teleport_circuit,
    circuit_correction_table,
    correction_for,
    decoherence_sweep,
    run_teleport,
    teleport_algebraic,
)
from .states import (
    DensityMatrix,
    PureState,
    apply_1q,
    apply_cnot,
    is_separable,
    reduced_density_1q,
    zero_density,
    zero_state,
)

__version__ = "0.1.0"

__all__ = [
    "BellIndex",
    "BlochMeasure",
    "BlochVector",
    "BranchReport",
    "CapacityError",
    "Circuit",
    "Cnot",
    "DensityMatrix",
    "DeviceError",
    "DeviceModel",
    "Gate1",
    "GateKind",
    "Histogram",
    "KrausChannel",
    "MeasureZ",
    "NoiseConfig",
    "ParseError",
    "PureState",
    "QsimError",
    "QubitNoise",
    "SweepResult",
    "TeleportResult",
    "UntranspilableError",
    "ValidationError",
    "Violation",
    "ViolationCode",
    "amplitude_damping",
    "apply_1q",
    "apply_cnot",
    "bell_state",
    "bloch_measure",
    "build_teleport_circuit",
    "circuit_correction_table",
    "correction_for",
    "decoherence_sweep",
    "default_device",
    "dephasing",
    "format_circuit",
    "histogram_json_fields",
    "is_separable",
    "load_device",
    "matrix_of",
    "parse",
    "probabilities",
    "reduced_density_1q",
    "retarget_cnots",
    "run",
    "run_teleport",
    "sample",
    "teleport_algebraic",
    "validate",
    "zero_density",
    "zero_state",
]
