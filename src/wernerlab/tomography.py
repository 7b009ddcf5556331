"""Polarization state reconstruction from counts.

Every function takes one run of counts, a :class:`polarimetry.CountRun`.
Two two-photon estimators with a ``fit`` method are provided, a direct
linear (Stokes) inversion and a maximum-likelihood fit by accelerated
projected gradient over the states; single photons take the same inversion.

A one-row run's pair flux and linear inversion are computed on its first
reconstruction, kept on the run and shared by every estimator and the
bootstrap's flux check.  Every matrix returned is a fresh array, and a run
that is refused is refused again, with the same error, on every call.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import analysis, polarimetry
from .errors import (
    EmptyDataError,
    NonHermitianError,
    OutOfRangeError,
    SingularSystemError,
    UnknownLabelError,
    UnphysicalStateError,
)
from .qlinalg import _eigh, _scalar, check_hermitian, kron
from .states import PAULIS, bell_state

_COND_LIMIT = 1e10  # largest condition number of an invertible design
_PROB_FLOOR = 1e-12  # floor of a setting's probability in the likelihood
# Cost gain at which a stationary search stops: the largest power of ten whose
# moves, against the same search run to 1e-9, stay inside bounds declared
# before they were measured, x by less than the Werner fit's own tolerance and
# every other metric by less than 1 % of its seed-to-seed sd at x = 1.0; 1e-7
# moved x by up to 3.9e-6 in 3 of 240 seeded searches
_FTOL = 1e-8
_MAX_EVALS = 100_000  # cost evaluations after which a search stops unconverged
_MAX_REPLICAS = 100_000  # largest bootstrap; its counts alone take 13 MB


# The Paulis over 2 and their two-photon products over 4, in the order of the
# Stokes vector, one flattened a row: keyed by the row length of the stack.
_PAULI_OPS = {4: np.array(PAULIS).reshape(4, 4) / 2.0,
              16: np.array([kron(a, b) for a in PAULIS for b in PAULIS]).reshape(16, 16) / 4.0}
_BLOCK_NAMES = {4: "H/V", 16: "HH/HV/VV/VH"}


def _normalization(run):
    """Total pair flux: the summed counts of the normalization block less
    their expected accidentals.  A run of ``R`` rows gives one flux per row,
    and a row without flux is named by its position (1 to ``R``) when it
    raises."""
    block = _block(run.settings)
    # a sum of one term per block setting, not a product: its rounding is the
    # one the package's outputs were written with
    accidentals = sum([run.accidentals] * len(block))
    # the ufunc reductions that .sum and .min call, without their wrappers;
    # the empty rows are found only to name the first of them
    block_sum = np.add.reduce(run.counts[..., block], axis=-1, dtype=float)
    n = block_sum - accidentals
    if np.minimum.reduce(n) <= 0.0:
        i = np.flatnonzero(n <= 0.0)[0]
        where = f"replica {i + 1} of {n.size}: " if np.ndim(n) else ""
        found = float(np.ravel(block_sum)[i])
        raise EmptyDataError(
            f"{where}normalization block counts sum to {found:.12g}, which does "
            f"not exceed their expected accidentals {accidentals:.12g}"
        )
    return _scalar(n)


def _flux(run):
    """:func:`_normalization` of a one-row run, kept on the run (which cannot
    change, and pickles without it) once taken; a refusal is not kept."""
    n_total = getattr(run, "_flux", None)
    if n_total is None:
        n_total = _normalization(run)
        object.__setattr__(run, "_flux", n_total)  # as CountRun.__post_init__ sets a field
    return n_total


def _linear(run):
    """``(flux, rho, lowest eigenvalue)`` of a one-row run, its
    :func:`_invert` over :func:`_flux`, kept on the run once taken with
    ``rho`` read-only; a refusal is not kept.  A schedule that cannot be
    inverted raises before the flux is read."""
    memo = getattr(run, "_linear", None)
    if memo is None:
        _reconstruction(run.settings)  # a schedule it cannot invert raises before the flux
        n_total = _flux(run)
        rho, lowest = _invert(run, n_total)
        rho.flags.writeable = False
        memo = (n_total, rho, lowest)
        object.__setattr__(run, "_linear", memo)
    return memo


def _two_photon_run(records):
    """``records`` as one run of two-photon settings: a one-photon setting is
    an input error, raised before any count is read."""
    run = polarimetry._as_run(records)
    if any(s.arm2 is None for s in run.settings):
        raise UnknownLabelError("two-photon tomography takes two analyzer arms a setting")
    return run


@functools.lru_cache(maxsize=polarimetry._SCHEDULES_KEPT)
def _block(settings: tuple) -> np.ndarray:
    """Positions of the normalization block in a tuple of one- or two-photon
    settings, found once per process and read-only: the settings whose every
    arm is H or V, (H, V) for one photon and (HH, HV, VV, VH) for two.  A
    schedule without the whole block cannot be normalized, an input error
    raised on every call."""
    width = polarimetry._schedule_stack(settings).shape[1]
    keys = [(s.arm1,) if s.arm2 is None else (s.arm1, s.arm2) for s in settings]
    in_block = [set(key) <= {"H", "V"} for key in keys]
    # the block holds every H/V combination: d of them for a d x d state
    if len({key for key, hv in zip(keys, in_block) if hv}) != math.isqrt(width):
        raise UnknownLabelError(
            f"records do not contain the {_BLOCK_NAMES[width]} normalization block"
        )
    block = np.flatnonzero(in_block)
    block.flags.writeable = False
    return block


@functools.lru_cache(maxsize=polarimetry._SCHEDULES_KEPT)
def _reconstruction(settings: tuple) -> np.ndarray:
    """The complex matrix ``M`` of a tuple of settings that takes their
    probabilities ``p`` to the flattened state, ``rho = p @ M`` (James et al.,
    PRA 64, 052312 (2001)), 4x4 for one photon and 16x16 for two:
    ``inv(design).T @ paulis``, with the real design mapping Stokes
    parameters to ``p``.  Built once per process and read-only; raises, on
    every call, if the design is not square and invertible."""
    stack = polarimetry._schedule_stack(settings)
    if len(stack) != stack.shape[1]:
        raise SingularSystemError("linear inversion needs exactly 4 settings for one "
                                  f"photon or 16 for two, got {len(stack)}")
    paulis = _PAULI_OPS[len(stack)]
    design = (stack @ paulis.T).real
    if np.linalg.cond(design) > _COND_LIMIT:
        raise SingularSystemError(
            "the measurement settings are informationally incomplete"
        )
    m = np.linalg.inv(design).T @ paulis
    m.flags.writeable = False
    return m


def _invert(run, n_total):
    """Linear inversion of a one- or two-photon run's counts less their
    expected accidentals over the pair flux ``n_total``, or of each row of an
    ``(R, n)`` run over an ``(R, 1)`` flux: ``(rho, lowest eigenvalue)``,
    with ``rho`` d x d for the ``n = d * d`` settings.

    The stack takes one product with the schedule's reconstruction matrix,
    each row a ``(1, n)`` matrix of its own, and one stacked
    eigendecomposition; each row gives the values it gives alone.
    The lowest eigenvalue is read from ``_eigh`` without a second Hermiticity
    check: the matrix is Hermitian by its symmetrization, and finite because
    its counts are int64 (a ``CountRun``), its flux passed
    ``_normalization`` and its design passed the condition check.
    """
    probs = (run.counts - run.accidentals) / n_total
    # matmul, not tensordot, so a stack gives the same values as one vector
    rho = np.matmul(probs[..., None, :], _reconstruction(run.settings))
    d = math.isqrt(len(run))
    rho = rho.reshape(*probs.shape[:-1], d, d)
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    return rho, _scalar(_eigh(rho)[0][..., 0])


@dataclass(frozen=True)
class LinearReconstruction:
    """Direct inversion result; ``matrix`` may have negative eigenvalues."""

    matrix: np.ndarray = field(repr=False)
    min_eigenvalue: float = 0.0


class LinearInversion:
    """Linear (Stokes) tomography over the 16-setting schedule.

    Inverts the 16x16 system mapping two-photon Stokes parameters to setting
    probabilities, estimated as the counts less their expected accidentals
    over the pair flux.  The fitted matrix is Hermitian with unit trace but
    can be unphysical (negative eigenvalues) at finite counts.

    Attributes after ``fit``: ``matrix_``, ``min_eigenvalue_``.
    """

    def fit(self, records):
        self.n_total_, rho, self.min_eigenvalue_ = _linear(_two_photon_run(records))
        self.matrix_ = rho.copy()
        return self


def linear_reconstruct(records) -> LinearReconstruction:
    """Linear inversion of a run: functional wrapper around
    :class:`LinearInversion`."""
    est = LinearInversion().fit(records)
    return LinearReconstruction(matrix=est.matrix_, min_eigenvalue=est.min_eigenvalue_)


def _project_to_states(m: np.ndarray) -> np.ndarray:
    """The density matrix nearest to the Hermitian part of ``m``.

    Its eigenvalues are projected onto the probability simplex (Smolin,
    Gambetta & Smith, PRL 108, 070502 (2012)) and clipped at 0 against
    round-off.  The simplex shift is taken in Python floats, in the order
    of a cumulative sum: with ``css_k`` the sum of the ``k`` largest
    eigenvalues less 1, it is ``css_k / k`` at the last ``k`` whose ``k``-th
    largest eigenvalue exceeds ``css_k / k``.

    ``m`` must be finite (``_eigh`` takes no other input); a LAPACK failure
    gives NaN eigenvalues, and so no state.  The arithmetic runs in place,
    each step giving the bits of its out-of-place form.
    """
    h = m + m.conj().T
    h *= 0.5
    w, v = _eigh(h)
    total = 0.0
    for k, wk in enumerate(w[::-1].tolist(), 1):
        total += wk
        # k = 1 always qualifies, even where an eigenvalue above 2**53 hides the 1
        if k == 1 or wk > (total - 1.0) / k:
            shift = (total - 1.0) / k
    w -= shift
    np.maximum(w, 0.0, out=w)
    v_h = v.conj().T
    v *= w
    rho = v @ v_h
    # numpy's trace of a 4x4 complex matrix adds its real diagonal in pairs
    d = rho.diagonal().real.tolist()
    trace = d[0] + d[1] if len(d) == 2 else (d[0] + d[1]) + (d[2] + d[3])
    if not trace > 0.0:  # the shift left no weight: no state, in NaNs
        return np.full_like(rho, np.nan)
    rho /= trace
    return rho


def _nearest_state(m: np.ndarray, what: str) -> np.ndarray:
    """:func:`_project_to_states` of ``m``; a projection lost to round-off
    (an eigenvalue far above 2**53) raises ``UnphysicalStateError``."""
    rho = _project_to_states(m)
    if np.isnan(rho).any():
        raise UnphysicalStateError(
            f"{what} lies too far outside the states to project onto them")
    return rho


def _projected_gradient(cost, gradient, rho):
    """Accelerated projected gradient (FISTA) over density matrices.

    ``cost(rho)`` returns the objective and the per-setting means it was
    taken from, and ``gradient(mu)`` the objective's gradient at those means
    as a Hermitian matrix.  The gradient is formed only where it is read: at
    the start, at each extrapolated point, and at an accepted state on a
    restart, a step without momentum or a stationarity check.  The step is
    halved until the quadratic model bounds the cost (backtracking), and
    tried 25 % longer on the next iteration; the momentum restarts from the
    best state when the cost rises.  The search converges when an accepted
    iteration improves the cost by less than ``_FTOL`` (relative once the
    cost exceeds 1) at a stationary state: one whose projected gradient is
    below ``sqrt(_FTOL)`` of the gradient at the start.  A small gain alone
    is no test, since a step that backtracking has cut to nothing gains
    nothing anywhere.  ``_FTOL`` is 1e-8 because no output reads a finer
    state, and 1e-7 moved x beyond the Werner fit's tolerance (its comment
    gives the rule).  The search also stops, converged only if stationary,
    when a step from the best state no longer lowers the cost.  At most
    ``_MAX_EVALS`` cost evaluations are made.  Returns ``(rho, f, evals,
    iterations, converged, history)`` with ``history`` the best cost after
    each accepted iteration.

    The first step opens at the least power of two at or above ``2 / s``,
    with ``s`` the norm of the gradient at the start, and at most at 1.  That
    step lies on the halving chain 1, 1/2, 1/4, ... of an opening at 1, where
    every trial above the first step that the bound accepts is rejected and
    changes nothing but the count of evaluations.  So wherever that first
    accepted step is at or below the opening, as it is whenever it is below
    ``4 / s``, the search is the one that opens at 1 bit for bit, less the
    opening halvings it skips.  Over 1,035 seeded searches at 3 to 1e5 pairs
    a second, with and without accidentals, the first accepted step was at
    most ``1.52 / s`` (x = 1.0 without accidentals).
    """
    f, mu = cost(rho)
    grad = gradient(mu)
    scale = np.linalg.norm(grad) or 1.0

    def stationary(rho, grad):
        # the projected move of a step 1 / scale is the projected gradient / scale
        moved = _project_to_states(rho - grad / scale) - rho
        return bool(np.linalg.norm(moved) <= np.sqrt(_FTOL))

    evals, iterations, history = 1, 0, []
    y, fy, gy = rho, f, grad
    # open at the least power of two at or above 2 / scale, at most 1: a step
    # on the halving chain from 1 (frexp's exponent 0 gives 1 for 0 and inf)
    mantissa, exponent = math.frexp(2.0 / scale)
    t, step = 1.0, min(1.0, math.ldexp(1.0, exponent - (mantissa == 0.5)))
    while evals < _MAX_EVALS:
        trial = step * gy
        z = _project_to_states(np.subtract(y, trial, out=trial))
        fz, mu_z = cost(z)
        evals += 1
        d = z - y
        # negated, so a trial that projects to no state (a NaN cost) backtracks
        if not fz <= fy + np.vdot(gy, d).real + np.vdot(d, d).real / (2.0 * step):
            step *= 0.5
            continue
        if fz >= f:
            if y is rho:
                return rho, f, evals, iterations, stationary(rho, grad), history
            if grad is None:
                grad = gradient(mu)
            y, fy, gy, t = rho, f, grad, 1.0
            continue
        iterations += 1
        gain = f - fz
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        previous = rho
        rho, f, mu, t = z, fz, mu_z, t_next
        history.append(f)
        small = gain < _FTOL * max(1.0, abs(f))
        grad = gradient(mu) if small or beta == 0.0 else None
        if small and stationary(rho, grad):
            return rho, f, evals, iterations, True, history
        step *= 1.25
        if beta == 0.0:
            y, fy, gy = rho, f, grad
        elif evals < _MAX_EVALS:
            y = rho - previous
            y *= beta
            y += rho
            fy, mu_y = cost(y)
            gy = gradient(mu_y)
            evals += 1
    return rho, f, evals, iterations, False, history


@dataclass(frozen=True)
class MLEResult:
    """Maximum-likelihood reconstruction outcome; ``path`` is ``"linear"``
    when the physical linear inversion was returned, ``"search"`` otherwise."""

    rho: np.ndarray = field(repr=False)
    cost: float = 0.0
    iterations: int = 0
    converged: bool = False
    path: str = "search"
    n_evaluations: int = 0


class MaximumLikelihood:
    """Maximum-likelihood tomography over the density matrices.

    The objective is the Gaussian statistic of James, Kwiat, Munro & White,
    PRA 64, 052312 (2001),

        ``sum((mu - n)**2 / (2 mu))`` with ``mu = N p + a``

    over the settings, where ``N`` is the pair flux, ``a`` the run's
    expected accidental count per setting and ``p`` floored at ``1e-12``.

    A physical linear inversion (no negative eigenvalue) is returned without
    a search: it reproduces every floor-corrected count, so ``mu = n`` on
    every setting and the objective, a sum of non-negative terms, is zero
    there.  Otherwise a deterministic accelerated projected-gradient search
    runs on ``rho`` itself (Shang, Zhang & Ng, PRA 95, 062336 (2017)) from
    the density matrix nearest to ``seed_matrix`` (default: the linear
    inversion): FISTA steps projected onto the density matrices, with
    backtracking on the step size and a momentum restart when the cost
    rises; convergence when an iteration improves the cost by less than
    ``_FTOL`` (1e-8, the coarsest stop that moves no output beyond the
    precision it is read at) at a stationary state, and a hard cap of
    100,000 objective evaluations.  The first step opens at the least power
    of two at or above 2 over the norm of the gradient at the start, and at
    most at 1.  That step lies on the halving chain from 1, so the search
    keeps the bits of one that opens at 1 wherever its first accepted step
    lies at or below the opening, as it always does below 4 over that norm
    (it lay at most at 1.52 over it on 1,035 seeded searches), and skips the
    halvings above it.
    An evaluation forms the objective alone, and the search forms the
    gradient only at the points where it reads it.  The estimator takes no
    options.
    ``seed_matrix`` is only the search's starting point, a 4×4 matrix;
    a run the linear inversion refuses (not 16 settings, or
    informationally incomplete) is searched from it.

    Attributes after ``fit``: ``rho_``, ``cost_``, ``iterations_``,
    ``n_evaluations_``, ``converged_``, ``cost_history_`` and ``path_``
    (``"linear"`` or ``"search"``); the linear path reports no iterations,
    one evaluation and an empty history.
    """

    def _cost_function(self, run, proj, n_total):
        """The objective and its gradient, for the counts of ``run``:
        ``(cost, gradient)``.  ``cost(rho)`` returns ``(f, mu)``, the
        objective at the density matrix ``rho`` and the per-setting means
        ``mu`` it was taken from; ``gradient(mu)`` returns ``sum_i N g_i
        P_i`` with ``g_i`` the derivative of the setting's term by its mean.
        Where the probability sits at the floor, ``g_i`` is taken at the
        floored mean: a state's probabilities only rise from 0, and with
        accidentals the cost can rise with them."""
        accidentals = run.accidentals
        counts = run.counts.astype(float)  # floats before any product
        counts_sq = counts * counts
        proj_conj = proj.conj()

        def cost(rho):
            p = (proj @ rho.ravel()).real
            mu = n_total * np.maximum(p, _PROB_FLOOR) + accidentals
            resid = mu - counts
            resid *= resid
            resid /= 2.0 * mu
            return float(np.add.reduce(resid)), mu

        def gradient(mu):
            # 2 (mu mu) is (2 mu) mu bit for bit: scaling by 2 is exact
            mu2 = mu * mu
            g = mu2 - counts_sq
            mu2 *= 2.0
            g /= mu2
            g *= n_total
            return (g @ proj_conj).reshape(4, 4)

        return cost, gradient

    def fit(self, records, seed_matrix: np.ndarray | None = None):
        run = _two_photon_run(records)
        n_total = _flux(run)
        cost, gradient = self._cost_function(
            run, polarimetry._schedule_stack(run.settings), n_total)
        linear = lowest = None
        try:
            _, linear, lowest = _linear(run)
        except SingularSystemError:
            if seed_matrix is None:
                raise
        if linear is not None and lowest >= 0.0:
            self.rho_ = linear.copy()
            self.cost_ = cost(linear)[0]
            self.iterations_ = 0
            self.n_evaluations_ = 1
            self.converged_ = True
            self.cost_history_ = []
            self.path_ = "linear"
            return self
        if seed_matrix is None:
            seed_matrix = linear
        seed_matrix = np.asarray(seed_matrix, dtype=complex)
        if seed_matrix.shape != (4, 4):
            raise NonHermitianError(
                f"the search's seed matrix must be 4x4, got shape {seed_matrix.shape}")
        if not np.isfinite(seed_matrix).all():
            raise NonHermitianError("the search's seed matrix has a non-finite entry")
        start = _nearest_state(seed_matrix, "the search's starting matrix")
        rho, f, evals, iters, converged, history = _projected_gradient(cost, gradient, start)
        self.rho_ = rho
        self.cost_ = f
        self.iterations_ = iters
        self.n_evaluations_ = evals
        self.converged_ = converged
        self.cost_history_ = history
        self.path_ = "search"
        return self


def mle_reconstruct(records, seed_matrix: np.ndarray | None = None) -> MLEResult:
    """Maximum-likelihood state of a run: functional wrapper around
    :class:`MaximumLikelihood`, which takes no options.

    A physical linear inversion is returned as it is (``path="linear"``);
    ``seed_matrix`` only sets where the search starts when one runs.
    """
    est = MaximumLikelihood().fit(records, seed_matrix=seed_matrix)
    return MLEResult(
        rho=est.rho_,
        cost=est.cost_,
        iterations=est.iterations_,
        converged=est.converged_,
        path=est.path_,
        n_evaluations=est.n_evaluations_,
    )


def single_qubit_reconstruct(records) -> np.ndarray:
    """Single-photon state from an informationally complete 4-setting run,
    such as H, V, D and R, by the two-photon estimators' linear inversion:
    counts less their expected accidentals over the H + V flux.  A Bloch
    vector outside the ball gives the nearest state, the pure state along
    it; a schedule of another size, or an incomplete one, raises
    ``SingularSystemError``."""
    run = polarimetry._as_run(records)
    if any(s.arm2 is not None for s in run.settings):
        raise UnknownLabelError("single-photon records take one analyzer arm")
    _, rho, lowest = _linear(run)
    return rho.copy() if lowest >= 0.0 else _nearest_state(rho, "the linear inversion")


def bootstrap_errors(
    records,
    point: np.ndarray,
    n_replicas: int = 50,
    seed: int = 0,
    target: str = "phi-minus",
    angles: analysis.ChshAngles | None = None,
) -> tuple[dict, dict]:
    """The derived state metrics of the state ``point`` and their bootstrap
    uncertainties from a run of counts, in one stacked pass over the point
    and the replicas.

    One :func:`polarimetry.poisson_sample` call redraws every count of every
    replica at the observed count as mean, with the values that drawing
    replica after replica would give, on the run's settings, duration and
    accidental rate.  Each replica is reconstructed as
    :func:`mle_reconstruct` reconstructs the original data: one product with
    the schedule's reconstruction matrix inverts all replicas, a physical
    inversion is the maximum-likelihood state as it stands, and only the
    replicas with a negative eigenvalue run the maximum-likelihood search,
    each as a one-row run.  :func:`analysis.state_metrics` scores
    the point and the replicas in one call on their stack, the point first,
    and gives the point the values it gets alone.  Returns ``(values,
    errors)``: the point's metrics, and the sample standard deviation of each
    metric over the replicas with, under ``"nonconverged"``, the number of
    replicas whose maximum-likelihood search did not converge (their metrics
    are still used).  A run whose normalization block has no flux raises
    ``EmptyDataError`` as in the estimators; a replica without flux raises
    it naming the replica and the bootstrap's seed.  An unknown ``target``
    (``UnknownLabelError``) and a ``point`` that is not a finite Hermitian
    4×4 matrix (``NonHermitianError``) are refused before any count is drawn.
    """
    if isinstance(n_replicas, bool) or not isinstance(n_replicas, numbers.Integral):
        raise OutOfRangeError(f"bootstrap replicas must be an integer, got {n_replicas!r}")
    if n_replicas < 2:
        raise OutOfRangeError("bootstrap needs at least 2 replicas")
    if n_replicas > _MAX_REPLICAS:
        raise OutOfRangeError(f"bootstrap takes at most {_MAX_REPLICAS} replicas, got {n_replicas}")
    bell_state(target)  # raises UnknownLabelError
    point = check_hermitian(point)
    if point.shape != (4, 4):
        raise NonHermitianError(f"the bootstrap's point must be 4x4, got shape {point.shape}")
    run = _two_photon_run(records)
    _flux(run)
    rng = np.random.Generator(np.random.PCG64(seed))
    observed = np.broadcast_to(run.counts, (n_replicas, len(run)))
    replicas = polarimetry.CountRun(run.settings, polarimetry.poisson_sample(rng, observed),
                                    run.duration, run.accidental_rate)
    try:
        n_total = _normalization(replicas)
    except EmptyDataError as exc:
        raise EmptyDataError(f"bootstrap at seed {seed}: {exc}") from exc
    rho, lowest = _invert(replicas, n_total[:, None])
    nonconverged = 0
    for i in np.flatnonzero(lowest < 0.0):
        result = mle_reconstruct(polarimetry.CountRun(
            run.settings, replicas.counts[i], run.duration, run.accidental_rate))
        rho[i] = result.rho
        nonconverged += not result.converged
    samples = analysis.state_metrics(np.concatenate([[point], rho]), target, angles)
    values = {k: float(v[0]) for k, v in samples.items()}
    stds = {k: float(np.std(v[1:], ddof=1)) for k, v in samples.items()}
    stds["nonconverged"] = nonconverged
    return values, stds
