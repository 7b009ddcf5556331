"""Birefringent dephasing of polarization states.

A thick birefringent element delays one linear polarization with respect to
the other.  For light of finite bandwidth the delay washes out coherence
between the fast and slow axes; the surviving fraction is the complex
degree of coherence ``gamma`` of the spectrum evaluated at the optical path
difference of the element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import polarimetry
from .errors import (
    DegenerateDiagonalError,
    NonHermitianError,
    OutOfRangeError,
    UnknownLabelError,
)
from .qlinalg import check_hermitian, kron

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class Spectrum:
    """Rectangular optical spectrum: center wavelength and full width, in nm."""

    center_nm: float
    fwhm_nm: float

    def __post_init__(self):
        if not 0.0 < self.center_nm < np.inf:
            raise OutOfRangeError("center wavelength must be finite and positive")
        if not 0.0 <= self.fwhm_nm < np.inf:
            raise OutOfRangeError("spectral width must be finite and non-negative")


@dataclass(frozen=True)
class BirefringentElement:
    """Decohering element characterised by its optical path difference in nm."""

    opd_nm: float

    def __post_init__(self):
        if not np.isfinite(self.opd_nm):
            raise OutOfRangeError(f"optical path difference {self.opd_nm} is not finite")


# Reference source used by the command line defaults: a 702.2 nm downconversion
# line selected by a 4.62 nm (FWHM) interference filter.
DEFAULT_SPECTRUM = Spectrum(center_nm=702.2, fwhm_nm=4.62)


def _envelope(spectrum: Spectrum, opd_nm):
    """``|gamma|`` envelope ``sinc(L*dl/l0**2)`` of a path difference or an
    array of them."""
    l0 = spectrum.center_nm
    return np.sinc(opd_nm * spectrum.fwhm_nm / (l0 * l0))


def gamma(spectrum: Spectrum, element: BirefringentElement) -> complex:
    """Complex degree of coherence after an optical path difference.

    For a rectangular spectrum of center wavelength ``l0`` and full width
    ``dl`` the coherence left after a path difference ``L`` is
    ``exp(2j*pi*L/l0) * sinc(L*dl/l0**2)`` with ``sinc(u) = sin(pi*u)/(pi*u)``,
    which first vanishes at ``L = l0**2/dl``.
    """
    phase = 2.0 * np.pi * element.opd_nm / spectrum.center_nm
    return complex(np.exp(1j * phase) * _envelope(spectrum, element.opd_nm))


def _axis_matrix(basis: str) -> np.ndarray:
    if basis == "HV":
        return np.eye(2, dtype=complex)
    if basis == "DA":
        return _HADAMARD
    raise UnknownLabelError(f"unknown dephasing basis {basis!r}; use 'HV' or 'DA'")


def _scaling(g: complex) -> np.ndarray:
    g = complex(g)
    if not abs(g) <= 1.0 + 1e-12:  # also refuses a NaN
        raise OutOfRangeError(f"|gamma| = {abs(g):.6f} exceeds 1")
    return np.array([[1.0, g], [np.conjugate(g), 1.0]], dtype=complex)


def dephase_single(rho: np.ndarray, g: complex, basis: str = "HV") -> np.ndarray:
    """Scale the off-diagonal coherence of a qubit state by ``g``.

    ``basis`` selects the axes of the dephasing element: "HV" leaves the
    computational basis in place, "DA" dephases between the diagonal
    polarizations.  ``|g| <= 1`` is required for the map to be a channel.
    """
    rho = check_hermitian(rho)
    if rho.shape != (2, 2):
        raise NonHermitianError(f"expected a 2x2 state, got shape {rho.shape}")
    u = _axis_matrix(basis)
    r = u.conj().T @ rho @ u
    r = r * _scaling(g)
    return u @ r @ u.conj().T


def dephase_two_photon(rho, g1: complex, g2: complex, basis="HV") -> np.ndarray:
    """Independent dephasing of each photon of a two-photon state.

    ``basis`` may be a single label applied to both arms or a pair of labels;
    anything else raises ``UnknownLabelError``.
    """
    rho = check_hermitian(rho)
    if rho.shape != (4, 4):
        raise NonHermitianError(f"expected a 4x4 state, got shape {rho.shape}")
    if isinstance(basis, str):
        basis = (basis, basis)
    elif not isinstance(basis, (tuple, list)) or len(basis) != 2:
        raise UnknownLabelError(f"dephasing basis must be one label or two, got {basis!r}")
    u = kron(_axis_matrix(basis[0]), _axis_matrix(basis[1]))
    r = u.conj().T @ rho @ u
    r = r * kron(_scaling(g1), _scaling(g2))
    return u @ r @ u.conj().T


def gamma_from_density(rho: np.ndarray) -> complex:
    """Coherence estimate ``rho01 / sqrt(rho00 * rho11)`` of a qubit state."""
    rho = check_hermitian(rho)
    if rho.shape != (2, 2):
        raise NonHermitianError(f"expected a 2x2 state, got shape {rho.shape}")
    d0 = rho[0, 0].real
    d1 = rho[1, 1].real
    if min(d0, d1) <= 1e-12:
        raise DegenerateDiagonalError(
            "a diagonal element vanishes; coherence magnitude is undefined"
        )
    return complex(rho[0, 1] / np.sqrt(d0 * d1))


def decoherence_curve(spectrum: Spectrum, opd_over_center) -> np.ndarray:
    """``|gamma|`` on a grid of path differences given in units of the center
    wavelength.  Returns an ``(n, 2)`` array of ``(L/l0, |gamma|)`` rows."""
    grid = np.asarray(opd_over_center, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise OutOfRangeError("the path-difference grid must be a non-empty 1-d array")
    opd = grid * spectrum.center_nm
    if not np.all(np.isfinite(opd)):
        raise OutOfRangeError("the path-difference grid must be finite")
    return np.column_stack([grid, np.abs(_envelope(spectrum, opd))])


def curve_to_csv(curve: np.ndarray) -> str:
    """Render a decoherence curve as CSV with nine significant digits."""
    lines = ["opd_over_lambda0,gamma_abs"]
    for u, g in np.asarray(curve, dtype=float):
        lines.append(f"{u:.9g},{g:.9g}")
    return "\n".join(lines) + "\n"


# The H, V, D and R settings of a single-photon measurement, built once.
_PHOTON_SETTINGS = polarimetry._Settings(polarimetry.AnalyzerSetting(b) for b in "HVDR")


@dataclass(frozen=True)
class SinglePhotonRun:
    """Outcome of a simulated single-photon decoherence measurement."""

    records: object = field(repr=False)  # a polarimetry.CountRun
    rho: np.ndarray = field(repr=False)
    gamma_abs: float = 0.0


def simulate_single_photon_experiment(
    spectrum: Spectrum,
    element: BirefringentElement,
    config,
    exact: bool = False,
) -> SinglePhotonRun:
    """Send a diagonally polarized photon through a decohering element.

    The photon is measured in the H, V, D and R analyzer settings with the
    count statistics described by ``config`` (a ``polarimetry.SourceConfig``),
    the 2x2 state is reconstructed by the tomography's linear inversion (the
    nearest state when the inversion is unphysical, so no run is refused),
    and ``|gamma|`` is read off the ratio of the coherence to the geometric
    mean of the populations.
    """
    from . import tomography

    g = gamma(spectrum, element)
    diag = np.full((2, 2), 0.5, dtype=complex)
    rho_true = dephase_single(diag, g, basis="HV")
    records = polarimetry.simulate_counts(rho_true, _PHOTON_SETTINGS, config, exact=exact)
    rho_hat = tomography.single_qubit_reconstruct(records)
    return SinglePhotonRun(
        records=records,
        rho=rho_hat,
        gamma_abs=abs(gamma_from_density(rho_hat)),
    )
