"""Exception types shared across the package."""


class ExpanderLPError(Exception):
    """Base class for every error raised by this package."""


class EnumerationCapError(ExpanderLPError):
    """An exhaustive enumeration would exceed its configured cap."""


class GraphConstructionError(ExpanderLPError):
    """A graph sampler ran out of attempts or was asked for an impossible graph."""


class DomainError(ExpanderLPError):
    """A bound formula was evaluated outside its hypotheses."""


class NoValidThetaError(DomainError):
    """No positive multiple of 4/Delta lies strictly below the relative distance."""


class NotIntegralError(ExpanderLPError):
    """An LP block was expected to be a 0/1 indicator and is not."""


class WitnessUnavailableError(ExpanderLPError):
    """A dual witness construction has no valid input (e.g. stagnated peeling)."""


class NumericError(ExpanderLPError):
    """Floating-point trouble: lost feasibility, no convergence, iteration cap."""


class InternalInvariantError(ExpanderLPError):
    """Something held by theory was violated at runtime; indicates a bug."""
