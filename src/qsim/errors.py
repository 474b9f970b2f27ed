"""Exception types shared across the package."""

from __future__ import annotations


class QsimError(Exception):
    """Base class for all qsim-specific errors."""


class CapacityError(QsimError):
    """Requested register is larger than the engine supports."""


class ParseError(QsimError):
    """Circuit text was rejected; carries the offending line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line


class DeviceError(QsimError):
    """Device description is malformed or internally inconsistent."""


class UntranspilableError(QsimError):
    """A CNOT touches no qubit that the device accepts as a target."""


class ValidationError(QsimError):
    """A circuit was refused; carries the validator findings and the circuit."""

    def __init__(self, violations, circuit=None):
        self.violations = list(violations)
        self.circuit = circuit
        detail = "; ".join(v.message for v in self.violations)
        super().__init__(detail or "circuit failed validation")
