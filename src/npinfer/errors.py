"""Exception types shared across the estimation and selection modules."""


class NpinferError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(NpinferError, ValueError):
    """A run configuration is invalid; raised before any work starts."""


class SingularDesignError(NpinferError):
    """The local weighted least-squares problem is numerically singular."""


class LeverageOneError(NpinferError):
    """A leverage value reached one; HC2/HC3 weights are undefined.

    Usually a symptom of a bandwidth too small for the design.
    """


class ZeroCurvatureError(NpinferError):
    """A plug-in curvature estimate vanished; the bandwidth is undefined."""


class MonotoneObjectiveError(NpinferError):
    """The coverage-error objective has no interior minimum on the bracket."""


class DegenerateSampleError(NpinferError):
    """The sample carries no usable variation for the requested quantity."""


class ParseError(NpinferError):
    """A data file could not be parsed; carries row/column context."""


class SchemaError(NpinferError):
    """A data file is missing required columns."""
