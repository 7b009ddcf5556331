"""State metrics: fidelity, Werner-family fits, mixedness, entanglement
measures, and CHSH correlations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polarimetry
from .errors import EmptyDataError, NotPSDError, OutOfRangeError
from .qlinalg import _PSD_CLAMP, _scalar, check_hermitian, herm_eig, kron, psd_sqrt
from .states import SIGMA_Y, bell_state, pure_to_density

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

_X_LO = -1.0 / 3.0
_X_HI = 1.0


def _root_spectrum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Descending square roots of the spectrum of ``sqrt(b) a sqrt(b)``, the
    kernel of both the fidelity and the concurrence; ``a`` and ``b`` may be
    stacks that broadcast against each other."""
    sb = psd_sqrt(b)
    # The descending eigenvalues herm_eig would give, without its check and
    # eigenvector phase fix: ``a`` and ``b`` are checked, and only the
    # spectrum is used.
    w = np.linalg.eigh(sb @ a @ sb)[0][..., ::-1]
    lowest = w[..., -1].min()
    if lowest < -_PSD_CLAMP:
        raise NotPSDError(f"fidelity argument has eigenvalue {lowest:.3e}")
    # Eigenvalues at round-off scale are exact zeros; taking their square
    # root would inflate the noise from 1e-16 to 1e-8, so they are dropped.
    w = np.clip(w, 0.0, None)
    w[w < 1e-14 * np.maximum(1.0, w.max(axis=-1, keepdims=True))] = 0.0
    return np.sqrt(w)


def fidelity(a: np.ndarray, b: np.ndarray):
    """Uhlmann fidelity ``(tr sqrt(sqrt(b) a sqrt(b)))**2`` of two states, or
    the array of fidelities of two ``(..., 4, 4)`` stacks that broadcast."""
    a = check_hermitian(a)
    return _scalar(np.minimum(np.square(np.sum(_root_spectrum(a, b), axis=-1)), 1.0))


def linear_entropy(rho: np.ndarray):
    """Normalized linear entropy ``4/3 * (1 - tr(rho**2))`` of a two-photon
    state (or of each state of a stack); 0 for pure states, 1 for the
    maximally mixed state."""
    rho = check_hermitian(rho)
    purity = np.trace(rho @ rho, axis1=-2, axis2=-1).real
    return _scalar(4.0 / 3.0 * (1.0 - purity))


def concurrence(rho: np.ndarray):
    """Concurrence of a two-photon state (or of each state of a stack) via
    the spin-flipped spectrum.

    Uses the Hermitian form: the ordered square roots of the eigenvalues of
    ``sqrt(rho) rho_tilde sqrt(rho)`` with ``rho_tilde = (sy x sy) rho*
    (sy x sy)``, combined as ``max(0, l1 - l2 - l3 - l4)``.
    """
    rho = check_hermitian(rho)
    flip = kron(SIGMA_Y, SIGMA_Y)
    lam = _root_spectrum(flip @ rho.conj() @ flip, rho)
    return _scalar(np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]))


def tangle(rho: np.ndarray):
    """Tangle, the squared concurrence."""
    c = concurrence(rho)
    return c * c


@dataclass(frozen=True)
class WernerFit:
    """Best Werner-form approximation ``x*|target><target| + (1-x)/4 * I``;
    ``x`` and ``fidelity`` are arrays for a stack of states."""

    x: float
    fidelity: float
    target: str


def fit_werner(rho: np.ndarray, target: str = "phi-minus") -> WernerFit:
    """Maximize the fidelity between ``rho`` and the Werner family of the
    given Bell state over the mixing parameter.

    A golden section over the whole interval ``[-1/3, 1]`` locates the
    optimum to 1e-5 in ``x``, with no bracketing scan.  None is needed: the
    family ``sigma(x) = x*|t><t| + (1-x)/4 * I`` is affine in ``x``, and the
    root fidelity ``sqrt(F(rho, sigma))`` is concave in ``sigma`` (Uhlmann),
    so ``F`` along the family has a single maximum on the interval (or a
    flat top of equal values).

    A ``(..., 4, 4)`` stack runs the sections of all its states in lockstep,
    with one stacked fidelity evaluation per step.  Each section follows its
    own comparisons and stops at its own width, so every state gets the
    values it gets alone.
    """
    rho = check_hermitian(rho)
    w_rho, _ = herm_eig(rho)
    lowest = w_rho[..., -1].min()
    if lowest < -_PSD_CLAMP:
        raise NotPSDError(f"state has eigenvalue {lowest:.3e}")
    proj = pure_to_density(bell_state(target))
    eye = np.eye(4)

    def fid(x: np.ndarray):
        x = x[..., None, None]
        return fidelity(rho, x * proj + (1.0 - x) / 4.0 * eye)

    a = np.full(rho.shape[:-2], _X_LO)
    b = np.full(rho.shape[:-2], _X_HI)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fid(c), fid(d)
    while True:
        active = b - a > 1e-5
        if not active.any():
            break
        # Where fc >= fd the maximum lies in [a, d]: d becomes the upper end,
        # c the upper inner point, and a new lower inner point is probed.
        # Elsewhere the same happens mirrored on [c, b].
        left = active & (fc >= fd)
        right = active & ~left
        a, b = np.where(right, c, a), np.where(left, d, b)
        c, fc, d, fd = (
            np.where(right, d, c), np.where(right, fd, fc),
            np.where(left, c, d), np.where(left, fc, fd),
        )
        step = _GOLDEN * (b - a)
        probe = np.where(left, b - step, a + step)
        f = fid(probe)
        c, fc = np.where(left, probe, c), np.where(left, f, fc)
        d, fd = np.where(right, probe, d), np.where(right, f, fd)
    x_best = 0.5 * (a + b)
    return WernerFit(x=_scalar(x_best), fidelity=fid(x_best), target=target)


@dataclass(frozen=True)
class ChshAngles:
    """The four polarizer angles of a CHSH measurement, in degrees."""

    theta1: float
    theta1_prime: float
    theta2: float
    theta2_prime: float

    def as_tuple(self):
        return (self.theta1, self.theta1_prime, self.theta2, self.theta2_prime)


_OPTIMAL_ANGLES = {
    "phi-minus": ChshAngles(-22.5, 22.5, 0.0, 45.0),
    "phi-plus": ChshAngles(22.5, -22.5, 0.0, 45.0),
    "psi-minus": ChshAngles(112.5, 67.5, 0.0, 45.0),
    "psi-plus": ChshAngles(67.5, 112.5, 0.0, 45.0),
}


def angles_for_target(target: str) -> ChshAngles:
    """Polarizer angles that maximize |S| for the given Bell state."""
    try:
        return _OPTIMAL_ANGLES[target]
    except KeyError:
        bell_state(target)  # raises UnknownLabelError
        raise


DEFAULT_ANGLES = _OPTIMAL_ANGLES["phi-minus"]


def _analyzer_operator(theta_deg: float) -> np.ndarray:
    return polarimetry.projector(theta_deg) - polarimetry.projector(theta_deg + 90.0)


def chsh_value(rho: np.ndarray, angles: ChshAngles = DEFAULT_ANGLES):
    """CHSH combination ``S = E(t1,t2) + E(t1',t2) + E(t1,t2') - E(t1',t2')``
    evaluated exactly on a two-photon state, or on each state of a stack."""
    rho = check_hermitian(rho)
    t1, t1p, t2, t2p = angles.as_tuple()

    def corr(a, b):
        op = kron(_analyzer_operator(a), _analyzer_operator(b))
        return np.trace(rho @ op, axis1=-2, axis2=-1).real

    return _scalar(corr(t1, t2) + corr(t1p, t2) + corr(t1, t2p) - corr(t1p, t2p))


def chsh_schedule(angles: ChshAngles = DEFAULT_ANGLES) -> list:
    """The 16 analyzer settings of a counted CHSH run.

    Each of the four angle pairs contributes a quadruple ordered
    ``(a, b), (a+90, b+90), (a+90, b), (a, b+90)`` to match
    :func:`polarimetry.correlation_E`.
    """
    t1, t1p, t2, t2p = angles.as_tuple()
    settings = []
    for a, b in [(t1, t2), (t1p, t2), (t1, t2p), (t1p, t2p)]:
        settings += [
            polarimetry.AnalyzerSetting(a, b),
            polarimetry.AnalyzerSetting(a + 90.0, b + 90.0),
            polarimetry.AnalyzerSetting(a + 90.0, b),
            polarimetry.AnalyzerSetting(a, b + 90.0),
        ]
    return settings


@dataclass(frozen=True)
class ChshEstimate:
    """Counted CHSH estimate with its first-order Poisson uncertainty."""

    s: float
    sigma: float
    correlations: tuple


def chsh_from_counts(records: list) -> ChshEstimate:
    """Estimate S and its uncertainty from the 16 records of a CHSH run.

    Records must follow the :func:`chsh_schedule` order.  Each correlation's
    variance comes from first-order propagation of independent Poisson counts
    through the ratio estimator: ``var(E) = 4*(B'**2*A + A'**2*B) / T'**4``
    with ``A`` the coincident-count sum, ``B`` the anti-coincident sum, the
    primes marking those sums less their expected accidentals, and
    ``T' = A' + B'``.  Without accidentals this is ``4*A*B / T**3``.
    """
    if len(records) != 16:
        raise OutOfRangeError(f"a CHSH run has 16 records, got {len(records)}")
    es = []
    variances = []
    for q in range(4):
        quad = records[4 * q : 4 * q + 4]
        es.append(polarimetry.correlation_E(quad))
        a = float(quad[0].count + quad[1].count)
        b = float(quad[2].count + quad[3].count)
        a_pairs = a - quad[0].accidentals - quad[1].accidentals
        b_pairs = b - quad[2].accidentals - quad[3].accidentals
        t = a_pairs + b_pairs
        if t <= 0.0:
            raise EmptyDataError("a CHSH quadruple has no pair counts")
        variances.append(4.0 * (b_pairs**2 * a + a_pairs**2 * b) / t**4)
    s = es[0] + es[1] + es[2] - es[3]
    return ChshEstimate(s=float(s), sigma=float(np.sqrt(sum(variances))), correlations=tuple(es))
