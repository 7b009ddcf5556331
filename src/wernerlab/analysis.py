"""State metrics: fidelity, Werner-family fits, mixedness, entanglement
measures, and CHSH correlations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polarimetry
from .errors import EmptyDataError, NotPSDError, OutOfRangeError
from .qlinalg import _PSD_CLAMP, check_hermitian, herm_eig, kron, psd_sqrt
from .states import BELL_KINDS, SIGMA_Y, bell_state, pure_to_density

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

_X_LO = -1.0 / 3.0
_X_HI = 1.0


def _sqrt_spectrum(w: np.ndarray) -> np.ndarray:
    # Square roots of a nonnegative spectrum.  Eigenvalues at round-off scale
    # are exact zeros; taking their square root would inflate the noise from
    # 1e-16 to 1e-8, so they are dropped first.
    w = np.clip(w, 0.0, None)
    w[w < 1e-14 * max(1.0, float(w.max(initial=0.0)))] = 0.0
    return np.sqrt(w)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity ``(tr sqrt(sqrt(b) a sqrt(b)))**2`` of two states."""
    a = check_hermitian(a)
    sb = psd_sqrt(b)
    w, _ = herm_eig(sb @ a @ sb)
    if w[-1] < -_PSD_CLAMP:
        raise NotPSDError(f"fidelity argument has eigenvalue {w[-1]:.3e}")
    val = float(np.sum(_sqrt_spectrum(w)) ** 2)
    return min(val, 1.0)


def linear_entropy(rho: np.ndarray) -> float:
    """Normalized linear entropy ``4/3 * (1 - tr(rho**2))`` of a two-photon
    state; 0 for pure states, 1 for the maximally mixed state."""
    rho = check_hermitian(rho)
    purity = float(np.trace(rho @ rho).real)
    return 4.0 / 3.0 * (1.0 - purity)


def concurrence(rho: np.ndarray) -> float:
    """Concurrence of a two-photon state via the spin-flipped spectrum.

    Uses the Hermitian form: the ordered square roots of the eigenvalues of
    ``sqrt(rho) rho_tilde sqrt(rho)`` with ``rho_tilde = (sy x sy) rho*
    (sy x sy)``, combined as ``max(0, l1 - l2 - l3 - l4)``.
    """
    rho = check_hermitian(rho)
    flip = kron(SIGMA_Y, SIGMA_Y)
    tilde = flip @ rho.conj() @ flip
    s = psd_sqrt(rho)
    w, _ = herm_eig(s @ tilde @ s)
    lam = _sqrt_spectrum(w)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def tangle(rho: np.ndarray) -> float:
    """Tangle, the squared concurrence."""
    c = concurrence(rho)
    return c * c


@dataclass(frozen=True)
class WernerFit:
    """Best Werner-form approximation ``x*|target><target| + (1-x)/4 * I``."""

    x: float
    fidelity: float
    target: str


def _werner_family_fidelity(rho_bell: np.ndarray):
    # rho expressed in the Bell basis with the target state first; the family
    # is diagonal there, so each evaluation costs one 4x4 eigendecomposition.
    def fid(x: float) -> float:
        mu = np.array([(1.0 + 3.0 * x) / 4.0] + [(1.0 - x) / 4.0] * 3)
        scale = np.sqrt(np.clip(mu, 0.0, None))
        m = scale[:, None] * rho_bell * scale[None, :]
        w, _ = herm_eig(m)
        return min(float(np.sum(_sqrt_spectrum(w)) ** 2), 1.0)

    return fid


def fit_werner(rho: np.ndarray, target: str = "phi-minus") -> WernerFit:
    """Maximize the fidelity between ``rho`` and the Werner family of the
    given Bell state over the mixing parameter.

    A 100-point scan of ``x`` in ``[-1/3, 1]`` brackets the optimum, which a
    golden-section refinement then locates to 1e-5.
    """
    rho = check_hermitian(rho)
    w_rho, _ = herm_eig(rho)
    if w_rho[-1] < -_PSD_CLAMP:
        raise NotPSDError(f"state has eigenvalue {w_rho[-1]:.3e}")
    if target not in BELL_KINDS:
        # bell_state raises the canonical UnknownLabelError message
        bell_state(target)
    others = [k for k in BELL_KINDS if k != target]
    basis = np.column_stack([bell_state(k) for k in [target] + others])
    fid = _werner_family_fidelity(basis.conj().T @ rho @ basis)

    xs = np.linspace(_X_LO, _X_HI, 100)
    vals = [fid(x) for x in xs]
    i = int(np.argmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, len(xs) - 1)]

    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fid(c), fid(d)
    while b - a > 1e-5:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fid(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fid(d)
    x_best = 0.5 * (a + b)
    return WernerFit(x=float(x_best), fidelity=fid(x_best), target=target)


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


def chsh_value(rho: np.ndarray, angles: ChshAngles = DEFAULT_ANGLES) -> float:
    """CHSH combination ``S = E(t1,t2) + E(t1',t2) + E(t1,t2') - E(t1',t2')``
    evaluated exactly on a two-photon state."""
    rho = check_hermitian(rho)
    t1, t1p, t2, t2p = angles.as_tuple()

    def corr(a, b):
        op = kron(_analyzer_operator(a), _analyzer_operator(b))
        return float(np.trace(rho @ op).real)

    return corr(t1, t2) + corr(t1p, t2) + corr(t1, t2p) - corr(t1p, t2p)


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
