"""Exception types shared across kerrlab modules."""


class KerrlabError(Exception):
    """Base class for all kerrlab errors."""


class DomainError(KerrlabError):
    """A chart point lies outside the admissible domain (exterior, axis guard, ...)."""


class CalibrationError(KerrlabError):
    """A check of computed values failed (the tetrad's normalization, V_ab's reality)."""


class StabilityError(KerrlabError):
    """A numerical integration failed: a CFL bound was violated, NaN/Inf
    appeared, an ODE solver stopped, or an integrated mode degenerated."""


class GuardBandError(KerrlabError):
    """A boundary eigenvalue fell inside the undecidable guard band around zero."""
