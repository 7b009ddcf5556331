"""State metrics: fidelity, Werner-family fits, mixedness, entanglement
measures, and CHSH correlations."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import polarimetry
from .errors import (
    EmptyDataError,
    NonHermitianError,
    NotPSDError,
    OutOfRangeError,
    UnknownLabelError,
)
from .qlinalg import _PSD_CLAMP, _eigvalsh, _scalar, check_hermitian, kron, psd_sqrt
from .states import SIGMA_Y, bell_state, pure_to_density

# the golden fraction of Brent's fallback step, and the Werner fit's tolerance:
# its search stops with every point of its bracket within 2 * _X_TOL < 1e-5
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
_X_TOL = 1e-5 / 3.0

_X_LO = -1.0 / 3.0
_X_HI = 1.0

# The spin flip sy x sy of the concurrence.
_SPIN_FLIP = kron(SIGMA_Y, SIGMA_Y)


def _check_two_photon(rho: np.ndarray) -> np.ndarray:
    """``rho``, raising ``NonHermitianError`` unless it is one 4x4 state or a
    ``(..., 4, 4)`` stack of them."""
    if rho.shape[-2:] != (4, 4):
        raise NonHermitianError(f"expected a 4x4 state, got shape {rho.shape}")
    return rho


def _root_spectrum(m: np.ndarray) -> np.ndarray:
    """Descending square roots of the spectrum of ``m``, the inner matrix of
    the fidelity or the concurrence (or a stack of them); only eigenvalues
    are used, so ``_eigvalsh`` reads them without eigenvectors.  ``m`` is a
    product of matrices that passed ``check_hermitian``: only an overflow in
    that product, which numpy reports with its RuntimeWarning, leaves it
    non-finite.  Its spectrum is then NaN, and raises ``NotPSDError`` as a
    negative eigenvalue does."""
    w = _eigvalsh(m)[..., ::-1]
    lowest = w[..., -1].min()
    # negated, so a NaN spectrum raises too
    if not lowest >= -_PSD_CLAMP:
        if np.isnan(lowest):
            raise NotPSDError("fidelity argument has a non-finite spectrum: its matrix "
                              "overflowed")
        raise NotPSDError(f"fidelity argument has eigenvalue {lowest:.3e}")
    # Eigenvalues at round-off scale are exact zeros; taking their square
    # root would inflate the noise from 1e-16 to 1e-8, so they are dropped.
    w = np.maximum(w, 0.0)
    w[w < 1e-14 * np.maximum(1.0, w.max(axis=-1, keepdims=True))] = 0.0
    return np.sqrt(w)


def _fidelity(m: np.ndarray):
    """Fidelity ``(tr sqrt(m))**2`` read from the inner matrix ``m``."""
    return _scalar(np.minimum(np.square(np.sum(_root_spectrum(m), axis=-1)), 1.0))


def fidelity(a: np.ndarray, b: np.ndarray):
    """Uhlmann fidelity ``(tr sqrt(m))**2``, ``m = sqrt(b) a sqrt(b)``, of two
    states, or the array of fidelities of two ``(..., 4, 4)`` stacks that
    broadcast; one square root of ``b`` forms ``m``, read by its spectrum.
    States of two sizes raise ``NonHermitianError``."""
    root, a = psd_sqrt(b), check_hermitian(a)
    if a.shape[-1] != root.shape[-1]:
        raise NonHermitianError(f"states of two sizes, shapes {a.shape} and {root.shape}")
    return _fidelity(root @ a @ root)


def linear_entropy(rho: np.ndarray):
    """Normalized linear entropy ``4/3 * (1 - tr(rho**2))`` of a two-photon
    state (or of each state of a stack); 0 for pure states, 1 for the
    maximally mixed state."""
    rho = _check_two_photon(check_hermitian(rho))
    purity = np.trace(rho @ rho, axis1=-2, axis2=-1).real
    return _scalar(4.0 / 3.0 * (1.0 - purity))


def concurrence(rho: np.ndarray):
    """Concurrence of a two-photon state (or of each state of a stack) via
    the spin-flipped spectrum.

    Uses the Hermitian form: the ordered square roots of the eigenvalues of
    ``sqrt(rho) rho_tilde sqrt(rho)`` with ``rho_tilde = (sy x sy) rho*
    (sy x sy)``, combined as ``max(0, l1 - l2 - l3 - l4)``.
    """
    rho = _check_two_photon(check_hermitian(rho))
    return _concurrence(rho, psd_sqrt(rho))


def _concurrence(rho: np.ndarray, root: np.ndarray):
    """:func:`concurrence` of a checked state (or stack) from its square root."""
    lam = _root_spectrum(root @ (_SPIN_FLIP @ rho.conj() @ _SPIN_FLIP) @ root)
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


def _brent(lo: float, hi: float):
    """Brent's minimization on ``[lo, hi]`` (*Algorithms for Minimization
    without Derivatives*, 1973, ch. 5) as a generator in Python floats: it
    yields each trial ``x``, is sent the function's value there, and returns
    the best ``(x, value)`` it evaluated once every point of the bracket
    around that ``x`` lies within ``2 * _X_TOL`` of it, with an end of
    ``[lo, hi]`` that the bracket still reaches evaluated last."""
    a, b = lo, hi
    x = w = v = a + _CGOLD * (b - a)
    fx = fw = fv = yield x
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * _X_TOL - 0.5 * (b - a):
            break
        # the vertex p / q of the parabola through x, w and v is taken only if
        # it falls inside the bracket and moves under half the step before
        # last (e); otherwise a golden step goes into the larger part
        parabolic = False
        if abs(e) > _X_TOL:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            parabolic = abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x)
            e = d
        if parabolic:
            d = p / q
            if x + d - a < 2.0 * _X_TOL or b - x - d < 2.0 * _X_TOL:
                d = _X_TOL if x < m else -_X_TOL
        else:
            e = (b if x < m else a) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= _X_TOL else (_X_TOL if d > 0.0 else -_X_TOL))
        fu = yield u
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    # Brent never steps onto an end; where the bracket still reaches one, the
    # minimum may lie on it, where the function need not be flat, so the end
    # is tried once
    end = hi if b == hi else lo if a == lo else None
    if end is not None:
        f_end = yield end
        if f_end <= fx:
            return end, f_end
    return x, fx


def fit_werner(rho: np.ndarray, target: str = "phi-minus") -> WernerFit:
    """Maximize the fidelity between ``rho`` and the Werner family of the
    given Bell state over the mixing parameter.

    Brent's search (parabolic steps with a golden fallback) over the whole
    interval ``[-1/3, 1]`` locates the optimum to 1e-5 in ``x``, with no
    bracketing scan.  None is needed: the family ``sigma(x) = x*|t><t| +
    (1-x)/4 * I`` is affine in ``x``, and the root fidelity ``sqrt(F(rho,
    sigma))`` is concave in ``sigma`` (Uhlmann), so ``F`` along the family
    has a single maximum on the interval (or a flat top of equal values).
    The search stops once the bracket around its best ``x`` lies within
    ``2e-5 / 3`` of it.  It never steps onto an end of the interval, so
    where the bracket still reaches one it evaluates that end once: a state
    of low rank can have its optimum there, where ``F`` is steep in ``x``.
    The fit returns the best ``x`` evaluated and the fidelity there, with no
    further evaluation.  The fidelity is symmetric (Jozsa, J. Mod. Opt. 41,
    2315 (1994)), so each step evaluates ``F(sigma(x), rho)`` on the one
    square root of ``rho`` taken before the search; a state with an
    eigenvalue below ``-1e-9`` raises :class:`NotPSDError` there.  The inner
    matrix ``sqrt(rho) sigma(x) sqrt(rho)`` is affine in ``x`` too, so it is
    formed at each step as ``x*A1 + (1-x)*A0`` from ``A1 = sqrt(rho) P
    sqrt(rho)`` and ``A0 = sqrt(rho) sqrt(rho) / 4``, both taken once.

    A ``(..., 4, 4)`` stack runs the searches of all its states in lockstep:
    each state follows its own search in Python floats, each turn makes one
    stacked fidelity evaluation on the states still searching, and a state
    leaves the stack when it stops, so every state gets the values it gets
    alone.
    """
    return _werner_fit(_check_two_photon(psd_sqrt(rho)), target)


def _werner_fit(root: np.ndarray, target: str) -> WernerFit:
    """:func:`fit_werner` of the state (or stack) whose square root is ``root``."""
    shape = root.shape[:-2]
    a1 = (root @ pure_to_density(bell_state(target)) @ root).reshape(-1, 4, 4)
    a0 = (root @ root / 4.0).reshape(-1, 4, 4)
    searches = [_brent(_X_LO, _X_HI) for _ in range(len(a1))]
    trials = {i: next(search) for i, search in enumerate(searches)}
    best = [None] * len(searches)
    while trials:
        live = list(trials)
        x = np.array([trials[i] for i in live])[:, None, None]
        f = _fidelity(x * a1[live] + (1.0 - x) * a0[live])
        for i, fi in zip(live, f.tolist()):
            try:
                trials[i] = searches[i].send(-fi)
            except StopIteration as stop:
                del trials[i]
                best[i] = stop.value
    x_best, f_best = np.array(best).T
    return WernerFit(x=_scalar(x_best.reshape(shape)), fidelity=_scalar(-f_best.reshape(shape)),
                     target=target)


@dataclass(frozen=True)
class ChshAngles:
    """The four polarizer angles of a CHSH measurement, in degrees."""

    theta1: float
    theta1_prime: float
    theta2: float
    theta2_prime: float

    def __post_init__(self):
        # held as floats, as the schedule's settings hold them (an array does not
        # serialize), and -0.0 as 0.0, which the schedule memo takes as equal
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)) + 0.0)

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


def chsh_value(rho: np.ndarray, angles: ChshAngles = DEFAULT_ANGLES):
    """CHSH combination ``S = E(t1,t2) + E(t1',t2) + E(t1,t2') - E(t1',t2')``
    evaluated exactly on a two-photon state, or on each state of a stack:
    each ``E = p1 + p2 - p3 - p4`` is read from the Born probabilities of a
    :func:`chsh_schedule` quadruple ``(a, b), (a_perp, b_perp), (a_perp, b),
    (a, b_perp)``, taken from its projector stack (the denominator is ``tr
    rho = 1``)."""
    rho = _check_two_photon(check_hermitian(rho))
    stack = polarimetry._schedule_stack(chsh_schedule(angles))
    p = np.matmul(stack, rho.reshape(*rho.shape[:-2], 16, 1)).real[..., 0]
    e = p[..., 0::4] + p[..., 1::4] - p[..., 2::4] - p[..., 3::4]
    return _scalar(e[..., 0] + e[..., 1] + e[..., 2] - e[..., 3])


def state_metrics(rho: np.ndarray, target: str = "phi-minus",
                  angles: ChshAngles | None = None) -> dict:
    """The derived metrics of a state, or the arrays of them for a
    ``(..., 4, 4)`` stack: ``x`` and ``fidelity`` of :func:`fit_werner` on
    ``target``, ``linear_entropy``, ``tangle`` and ``chsh_s``, the exact S at
    ``angles`` (default: the optimum for ``target``).  A stack gives each
    state the values it gets alone, and the Werner fit and the tangle share
    one square root of ``rho``."""
    if angles is None:
        angles = angles_for_target(target)
    root = _check_two_photon(psd_sqrt(rho))
    fit = _werner_fit(root, target)
    c = _concurrence(check_hermitian(rho), root)
    return {
        "x": fit.x,
        "fidelity": fit.fidelity,
        "linear_entropy": linear_entropy(rho),
        "tangle": c * c,
        "chsh_s": chsh_value(rho, angles),
    }


@functools.lru_cache(maxsize=polarimetry._SCHEDULES_KEPT)
def chsh_schedule(angles: ChshAngles) -> tuple:
    """The 16 analyzer settings of a counted CHSH run, built once per angle
    set and process; a tuple that hashes once, since every caller shares it.

    Each of the four angle pairs contributes a quadruple ordered
    ``(a, b), (a+90, b+90), (a+90, b), (a, b+90)``, the order of
    ``E = (C1 + C2 - C3 - C4) / (C1 + C2 + C3 + C4)``.
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
    return polarimetry._Settings(settings)


@dataclass(frozen=True)
class ChshEstimate:
    """Counted CHSH estimate, its first-order Poisson uncertainty and its run's angles."""

    s: float
    sigma: float
    correlations: tuple
    angles: ChshAngles


def chsh_from_counts(records) -> ChshEstimate:
    """Estimate S and its uncertainty from a CHSH run of 16 settings.

    The settings must be the :func:`chsh_schedule` of the angles on the arms
    of settings 1, 5 and 9, which the estimate reports; other settings raise
    :class:`UnknownLabelError` before any count is read.  Each quadruple's
    correlation is ``E = (A' - B') / T'`` with ``A`` the coincident-count sum
    (its first two settings), ``B`` the anti-coincident sum (its last two),
    the primes marking those sums less their expected accidentals, and
    ``T' = A' + B'``; a ``T'`` that is not positive raises
    :class:`EmptyDataError`.  Its variance comes from first-order
    propagation of independent Poisson counts through the ratio estimator:
    ``var(E) = 4*(B'**2*A + A'**2*B) / T'**4``, without accidentals
    ``4*A*B / T**3``.
    """
    run = polarimetry._as_run(records)
    if len(run) != 16:
        raise OutOfRangeError(f"a CHSH run has 16 records, got {len(run)}")
    settings = run.settings
    arms = [settings[i].arm1 for i in (0, 4)] + [settings[i].arm2 for i in (0, 8)]
    if not all(isinstance(a, float) for a in arms):
        raise UnknownLabelError("CHSH counts need polarizer angles on both arms")
    angles = ChshAngles(*arms)
    if settings != chsh_schedule(angles):
        raise UnknownLabelError("counts do not follow the CHSH schedule of their angles")
    counts = run.counts.tolist()
    es, variances = [], []
    for q in range(0, 16, 4):
        a = float(counts[q] + counts[q + 1])
        b = float(counts[q + 2] + counts[q + 3])
        a_pairs = a - run.accidentals - run.accidentals
        b_pairs = b - run.accidentals - run.accidentals
        t = a_pairs + b_pairs
        if t <= 0.0:
            raise EmptyDataError("a CHSH quadruple has no pair counts")
        es.append((a_pairs - b_pairs) / t)
        variances.append(4.0 * (b_pairs**2 * a + a_pairs**2 * b) / t**4)
    s = es[0] + es[1] + es[2] - es[3]
    return ChshEstimate(float(s), float(np.sqrt(sum(variances))), tuple(es), angles)
