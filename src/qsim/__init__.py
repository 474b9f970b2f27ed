"""qsim: a small-register quantum circuit simulator.

Parses a line-oriented text circuit format, validates circuits against a
device model (gate set, CNOT-target restriction, per-qubit noise rates),
and executes them on an ideal statevector engine or a noisy
density-matrix engine with per-gate-slot amplitude damping and optional
dephasing. Ships teleportation and idle-decay demo protocols and a CLI.

`import qsim` loads no submodule. Each public name is resolved on first
access, through the module `__getattr__` of PEP 562, from the submodule
that `_EXPORTS` names for it, so a process that only parses and validates
circuits never imports numpy. `from qsim import *` resolves them all.
"""

from importlib import import_module as _import_module

# Every public name, by the submodule that defines it.
_EXPORTS = {
    "circuit": (
        "BlochMeasure",
        "Circuit",
        "Cnot",
        "DeviceModel",
        "Gate1",
        "MeasureZ",
        "QubitNoise",
        "Violation",
        "ViolationCode",
        "default_device",
        "format_circuit",
        "load_device",
        "parse",
        "retarget_cnots",
        "validate",
    ),
    "cli": ("histogram_json_fields",),
    "engine": ("run",),
    "errors": (
        "CapacityError",
        "DeviceError",
        "ParseError",
        "QsimError",
        "UntranspilableError",
        "ValidationError",
    ),
    "gates": ("GateKind", "matrix_of"),
    "measure": (
        "BlochVector",
        "Histogram",
        "bloch_measure",
        "probabilities",
        "sample",
    ),
    "noise": ("KrausChannel", "NoiseConfig", "amplitude_damping", "dephasing"),
    "protocols": (
        "BellIndex",
        "BranchReport",
        "TeleportResult",
        "bell_state",
        "build_teleport_circuit",
        "circuit_correction_table",
        "correction_for",
        "decoherence_sweep",
        "run_teleport",
        "teleport_algebraic",
    ),
    "states": (
        "DensityMatrix",
        "PureState",
        "apply_1q",
        "apply_cnot",
        "is_separable",
        "reduced_density_1q",
        "zero_density",
        "zero_state",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this call
    return value
