"""Exception types shared across the toolkit."""


class CalibrationError(Exception):
    """Base class for every failure this package raises on purpose."""


class NotARotationError(CalibrationError):
    """Matrix fails orthonormality or determinant checks for a rotation."""


class SingularProjectionError(CalibrationError):
    """Left 3x3 block of a perspective matrix is not invertible."""


class DegenerateRotationError(CalibrationError):
    """Rotation angle too small to define an axis.

    ``index`` identifies the offending motion when raised while building
    constraints, and the offending matrix when ``rotation_axis`` is given a
    stack; it is None for a single matrix.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class TooFewPosesError(CalibrationError):
    """Fewer than two device positions were supplied."""


class TooFewMotionsError(CalibrationError):
    """Fewer motions than a solver needs."""


class IllConditionedError(CalibrationError):
    """Linear system (or eigenproblem) too close to rank-deficient to trust."""


class ZeroTranslationError(CalibrationError):
    """A relative translation error is undefined: the nominal translation,
    or a solution's translation-transfer norm, is zero."""


class ParseError(CalibrationError):
    """File is not readable as a structured document."""


class SchemaError(CalibrationError):
    """Document parsed but violates the dataset or solution schema."""


class FlagError(CalibrationError):
    """Invalid command-line flag combination."""
