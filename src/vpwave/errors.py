"""Exception types shared across the package."""


class VpwaveError(Exception):
    """Base class for all vpwave errors."""


class SingularMatrix(VpwaveError):
    """A lattice matrix has determinant zero."""


class DimensionMismatch(VpwaveError):
    """Operands have incompatible dimensions."""


class TooLarge(VpwaveError):
    """A dense object would exceed the materialization guard."""


class IndexMismatch(VpwaveError):
    """A coefficient vector does not match the expected index set."""


class LevelOutOfRange(VpwaveError):
    """A chain level index is outside the valid range."""


class NotDyadic(VpwaveError):
    """A wavelet operation was requested on a non-dyadic factor."""


class DegenerateClass(VpwaveError):
    """A frequency congruence class carries no usable coefficient mass."""


class UnsupportedDimension(VpwaveError):
    """A specialized check only exists for particular dimensions."""


class ConditionViolated(VpwaveError):
    """A structural precondition on a factor chain fails."""


class InvalidParameter(VpwaveError, ValueError):
    """A parameter lies outside the values an operation accepts."""


class MalformedDescriptor(VpwaveError, ValueError):
    """A window descriptor string does not follow the grammar."""


class InexactInput(VpwaveError, TypeError):
    """A value cannot be read as an exact integer or rational."""


class FrozenValue(VpwaveError, AttributeError):
    """An attribute of an immutable package object was assigned or deleted."""
