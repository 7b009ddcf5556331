"""wernerlab: simulation and analysis of two-photon Werner states.

The package models a two-crystal downconversion source whose output
interpolates between a Bell state and the maximally mixed state, simulates
polarization-analyzed coincidence counting, reconstructs states by linear
inversion or maximum likelihood, and quantifies entanglement, mixedness and
Bell-inequality violation.  The ``decoherence`` module treats the
deliberate decoherence of photons in thick birefringent elements with one
channel, ``dephase``, for one or two photons, and ``states.source_state``
builds its mixed part with it.
"""

from . import analysis, decoherence, errors, fixtures, polarimetry, qlinalg, states, tomography

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "decoherence",
    "errors",
    "fixtures",
    "polarimetry",
    "qlinalg",
    "states",
    "tomography",
    "__version__",
]
