"""Exception types shared across the package."""


class OqbmError(Exception):
    """Base class for all errors raised by this package."""


class NonFinite(OqbmError):
    """A rate, a parameter or a solved field is NaN or infinite."""


class NonPositiveDiffusion(OqbmError):
    """gamma_p <= 0, or a diffusion width 2 gamma_p t that underflows to 0;
    the diffusion term would vanish or be negative."""


class NegativeRate(OqbmError):
    """A rate that must be non-negative is negative."""


class GridMismatch(OqbmError):
    """Two fields (or a field and a grid) live on different grids."""


class DomainTooNarrow(OqbmError):
    """The truncated domain does not contain the required tail mass."""


class WrongRegime(OqbmError):
    """A closed form or kernel was called outside its parameter regime, such
    as delta = 0 or omega = 0 for a driven kernel."""


class NonPositiveTime(OqbmError):
    """A kernel only defined for t > 0 was evaluated at t <= 0."""


class NegativeArgument(OqbmError):
    """A function restricted to non-negative arguments got a negative one."""


class ScaleMismatch(OqbmError):
    """The Laplace-coherent initial scale does not equal delta/omega."""


class QuadratureNotConverged(OqbmError):
    """Adaptive quadrature hit its order cap before converging."""


class GridUnderResolved(OqbmError):
    """Grid spacing too coarse for the requested kernel width."""


class TailNotDecayed(OqbmError):
    """A kernel or field has not decayed below tolerance at the boundary."""


class UnstableStep(OqbmError):
    """The explicit integrator blew up (norm growth beyond 10x)."""


class ConfigError(OqbmError):
    """A run configuration is missing keys or has inconsistent values."""


class UnknownFigure(OqbmError):
    """Requested figure name is not one of the built-in scenarios."""
