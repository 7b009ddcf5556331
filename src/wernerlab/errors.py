"""Exception types raised by wernerlab.

All validation failures raise one of these instead of bare ValueError so
callers (and the command line front end) can map them to exit codes.
"""


class WernerlabError(Exception):
    """Base class for all wernerlab errors."""


class NonHermitianError(WernerlabError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class NotPSDError(WernerlabError):
    """A matrix that must be positive semidefinite has a negative eigenvalue."""


class OutOfRangeError(WernerlabError):
    """A scalar parameter lies outside its admissible interval."""


class UnknownLabelError(WernerlabError):
    """A polarization or Bell-state label is not recognised."""


class SingularSystemError(WernerlabError):
    """A linear system built from measurement settings is not invertible."""


class EmptyDataError(WernerlabError):
    """Counts required for a normalization or ratio are missing or all zero."""


class UnphysicalStateError(WernerlabError):
    """Reconstructed data lies too far outside the states: a single-photon
    linear inversion or a two-photon search start whose projection onto the
    states is lost to round-off."""


class DegenerateDiagonalError(WernerlabError):
    """A coherence magnitude cannot be extracted because a diagonal vanishes."""
