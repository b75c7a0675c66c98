"""Exception taxonomy shared across the package.

Every failure mode that callers are expected to handle gets its own class so
tests and the CLI can match on type rather than message text. Each class is
raised somewhere in the package and maps to a documented exit code; the
package tests check both.
"""

from __future__ import annotations


class QtmixError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(QtmixError):
    """Operands have incompatible or unexpected shapes."""


class AutodiffError(QtmixError):
    """Misuse of the tape machinery (non-scalar backward, no tape, ...)."""


class CapacityError(QtmixError):
    """A requested register size exceeds the supported simulation cap."""


class WiringError(QtmixError):
    """An entangling template was requested on a register too small to
    hold it."""


class DegenerateStateError(QtmixError):
    """A statevector with (near-)zero norm was passed where a normalized
    state is required."""


class EmptyWindowError(QtmixError):
    """Every position of a window is masked out; there is nothing to mix."""


class DegenerateCoefficientError(QtmixError):
    """The surviving mixing coefficients have vanishing total magnitude."""


class CollapsedStateError(QtmixError):
    """The polynomial output state collapsed below the representable
    threshold and cannot be normalized."""


class LabelError(QtmixError):
    """A class label is outside the configured range."""


class InputError(QtmixError):
    """A document or batch is structurally unusable (e.g. empty)."""


class ParseError(QtmixError):
    """A data file is malformed; the message names the offending lines."""


class DataIOError(QtmixError):
    """A data file could not be read or written."""


class ConfigError(QtmixError):
    """A run configuration is invalid (unknown keys, out-of-range values)."""


class BudgetError(QtmixError):
    """A command refused to run because the request exceeds its size
    budget."""


class TrainingDiverged(QtmixError):
    """The training loss or a parameter became non-finite."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
