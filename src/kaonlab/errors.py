"""Exception types shared across the package.

Plain ``ValueError`` is raised for malformed arguments (non-finite numbers,
negative times, out-of-range parameters).  The classes below mark failure
modes that are physical or algorithmic rather than mere bad input, so that
callers (and the CLI exit-code mapping) can tell them apart.
"""


class KaonlabError(Exception):
    """Base class for domain errors raised by kaonlab."""


class ModelPathologyError(KaonlabError):
    """A model produced a negative probability density.

    Carries the offending time interval so callers can report where the
    density first dips below zero.
    """

    def __init__(self, message, t_lo=None, t_hi=None):
        super().__init__(message)
        self.t_lo = t_lo
        self.t_hi = t_hi


class DegenerateStateError(KaonlabError):
    """A state is too degenerate to define the requested quantity
    (e.g. totally destructive interference, vanishing normalisation)."""


class UndefinedSignatureError(KaonlabError):
    """The weight-ratio signature is undefined (no interference term)."""


class UnsupportedRegimeError(KaonlabError):
    """The requested computation lies outside the regime the method covers."""


class FitFailureError(KaonlabError):
    """Likelihood maximisation did not converge.  ``best`` carries the best
    point reached and its objective value, ``(x, fun)``, when known."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class DegenerateComparisonError(KaonlabError):
    """A model-discrimination run compared a model against itself."""


class CoverageError(KaonlabError):
    """Binned data does not span the time regimes a fit needs.

    ``missing`` names the absent regime ("short", "interference" or "long").
    """

    def __init__(self, message, missing=None):
        super().__init__(message)
        self.missing = missing
