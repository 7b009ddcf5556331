"""Two-photon state reconstruction from coincidence counts.

Every function takes a :class:`polarimetry.CountRun`, or a list of records
that it converts into one.  Two estimators with a ``fit`` method are
provided: a direct linear (Stokes) inversion of the 16-setting schedule,
and a maximum-likelihood fit by accelerated projected gradient over the
density matrices.
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
from .qlinalg import _eigh, _scalar, _solve, kron, min_eigenvalue
from .states import PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z

_N_PARAMS = 16
_COND_LIMIT = 1e10  # largest condition number of an invertible design
_PROB_FLOOR = 1e-12  # floor of a setting's probability in the likelihood
_FTOL = 1e-9  # cost gain at which a stationary search stops
_MAX_EVALS = 100_000  # cost evaluations after which a search stops unconverged
_MAX_REPLICAS = 100_000  # largest bootstrap; its counts alone take 13 MB


# The 16 two-photon Pauli products over 4, in the order of the Stokes vector.
_PAULI_OPS = np.array([kron(a, b) for a in PAULIS for b in PAULIS]) / 4.0


def _normalization(run):
    """Total pair flux: the summed counts of the normalization block less
    their expected accidentals.  A run of ``R`` rows gives one flux per row,
    and a row without flux is named by its position (1 to ``R``) when it
    raises."""
    block = _block(run.settings)
    # summed as the block's records would be, one accidental term at a time
    accidentals = sum([run.accidentals] * len(block))
    block_sum = run.counts[..., block].sum(axis=-1, dtype=float)
    n = block_sum - accidentals
    empty = n <= 0.0
    if empty.any():
        i = np.flatnonzero(empty)[0]
        where = f"replica {i + 1} of {n.size}: " if np.ndim(n) else ""
        found = float(np.ravel(block_sum)[i])
        raise EmptyDataError(
            f"{where}normalization block counts sum to {found:.12g}, which does "
            f"not exceed their expected accidentals {accidentals:.12g}"
        )
    return _scalar(n)


def _check_record_count(run) -> None:
    if len(run) != _N_PARAMS:
        raise SingularSystemError(
            f"linear inversion needs exactly 16 settings, got {len(run)}"
        )


@functools.lru_cache(maxsize=polarimetry._SCHEDULES_KEPT)
def _block(settings: tuple) -> np.ndarray:
    """Positions of the (HH, HV, VV, VH) normalization block in a tuple of
    settings, found once per process and read-only; a schedule without the
    block cannot be normalized, an input error raised on every call."""
    keys = [(s.arm1, s.arm2) for s in settings]
    if not set(polarimetry.NORMALIZATION_BLOCK) <= set(keys):
        raise UnknownLabelError(
            "records do not contain the HH/HV/VV/VH normalization block"
        )
    block = np.flatnonzero([key in polarimetry.NORMALIZATION_BLOCK for key in keys])
    block.flags.writeable = False
    return block


@functools.lru_cache(maxsize=polarimetry._SCHEDULES_KEPT)
def _design(settings: tuple) -> np.ndarray:
    """The real 16x16 matrix mapping Stokes parameters to the probabilities
    of a tuple of settings, built once per process and read-only; raises,
    on every call, if it is not invertible."""
    design = (polarimetry._schedule_stack(settings) @ _PAULI_OPS.reshape(16, -1).T).real
    if np.linalg.cond(design) > _COND_LIMIT:
        raise SingularSystemError(
            "the measurement settings are informationally incomplete"
        )
    design.flags.writeable = False
    return design


def _invert(run, n_total):
    """Linear inversion of a run's counts less their expected accidentals
    over the pair flux ``n_total``, or of each row of an ``(R, 16)`` run over
    an ``(R, 1)`` flux: ``(rho, lowest eigenvalue)``.

    The stack takes one solve, which broadcasts the design over the rows
    and gives each row its own one-column right-hand side (a solve of many
    columns at once can round differently on some BLAS kernels), and one
    stacked eigendecomposition; each row gives the values it gives alone.
    """
    probs = (run.counts - run.accidentals) / n_total
    stokes = _solve(_design(run.settings), probs[..., None])[..., 0]
    # matmul, not tensordot, so a stack gives the same values as one vector
    rho = np.matmul(stokes[..., None, :], _PAULI_OPS.reshape(16, -1))
    rho = rho.reshape(*stokes.shape[:-1], 4, 4)
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    return rho, min_eigenvalue(rho)


@dataclass(frozen=True)
class LinearReconstruction:
    """Direct inversion result; ``matrix`` may have negative eigenvalues."""

    matrix: np.ndarray = field(repr=False)
    min_eigenvalue: float = 0.0


class LinearInversion:
    """Linear (Stokes) tomography over the 16-setting schedule.

    Solves the 16x16 system mapping two-photon Stokes parameters to setting
    probabilities, estimated as the counts less their expected accidentals
    over the pair flux.  The fitted matrix is Hermitian with unit trace but
    can be unphysical (negative eigenvalues) at finite counts.

    Attributes after ``fit``: ``matrix_``, ``min_eigenvalue_``.
    """

    def fit(self, records):
        run = polarimetry._as_run(records)
        _check_record_count(run)
        self.n_total_ = _normalization(run)
        self.matrix_, lowest = _invert(run, self.n_total_)
        self.min_eigenvalue_ = float(lowest)
        return self


def linear_reconstruct(records) -> LinearReconstruction:
    """Functional wrapper around :class:`LinearInversion`."""
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
    rho = (v * w) @ v.conj().T
    # numpy's trace: a Python sum of the diagonal need not add in its order
    trace = rho.trace().real
    if not trace > 0.0:  # the shift left no weight: no state, in NaNs
        return np.full_like(rho, np.nan)
    rho /= trace
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
    nothing anywhere.  The search also stops, converged only if stationary,
    when a step from the best state no longer lowers the cost.  At most
    ``_MAX_EVALS`` cost evaluations are made.  Returns ``(rho, f, evals,
    iterations, converged, history)`` with ``history`` the best cost after
    each accepted iteration.
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
    t, step = 1.0, 1.0
    while evals < _MAX_EVALS:
        z = _project_to_states(y - step * gy)
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
            y = rho + beta * (rho - previous)
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
    ``1e-9`` at a stationary state, and a hard cap of 100,000 objective
    evaluations.  An evaluation forms the objective alone, and the search
    forms the gradient only at the points where it reads it.  The estimator
    takes no options.
    ``seed_matrix`` is only the search's starting point, a 4×4 matrix;
    records the linear inversion refuses (not 16 settings, or
    informationally incomplete) are searched from it.

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
            g = (mu * mu - counts_sq) / (2.0 * mu * mu)
            return ((n_total * g) @ proj_conj).reshape(4, 4)

        return cost, gradient

    def fit(self, records, seed_matrix: np.ndarray | None = None):
        run = polarimetry._as_run(records)
        n_total = _normalization(run)
        cost, gradient = self._cost_function(
            run, polarimetry._schedule_stack(run.settings), n_total)
        linear = lowest = None
        try:
            _check_record_count(run)
            linear, lowest = _invert(run, n_total)
        except SingularSystemError:
            if seed_matrix is None:
                raise
        if linear is not None and lowest >= 0.0:
            self.rho_ = linear
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
        start = _project_to_states(seed_matrix)
        if np.isnan(start).any():
            raise UnphysicalStateError(
                "the search's starting matrix lies too far outside the states to project onto them"
            )
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
    """Functional wrapper around :class:`MaximumLikelihood`, which takes no
    options.

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
    """Single-photon state from counts in the H, V, D and R settings.

    Each count is read less its expected accidentals.  The H and V counts fix
    the flux; the Stokes vector follows from the normalized count ratios.  A
    Bloch vector up to 5 % outside the unit ball is rescaled onto it, anything
    worse raises ``UnphysicalStateError``.
    """
    run = polarimetry._as_run(records)
    if any(s.arm2 is not None for s in run.settings):
        raise UnknownLabelError("single-photon records take one analyzer arm")
    pairs = (run.counts - run.accidentals).tolist()
    by_label = dict(zip((s.arm1 for s in run.settings), pairs))
    missing = {"H", "V", "D", "R"} - set(by_label)
    if missing:
        raise UnknownLabelError(
            f"single-photon reconstruction needs H, V, D, R; missing {sorted(missing)}"
        )
    n = by_label["H"] + by_label["V"]
    if n <= 0.0:
        raise EmptyDataError("H and V counts do not exceed their expected accidentals")
    s = np.array(
        [
            2.0 * by_label["D"] / n - 1.0,
            1.0 - 2.0 * by_label["R"] / n,
            (by_label["H"] - by_label["V"]) / n,
        ]
    )
    norm = float(np.linalg.norm(s))
    if norm > 1.05:
        raise UnphysicalStateError(f"Bloch vector norm {norm:.4f} exceeds 1.05")
    if norm > 1.0:
        s /= norm
    return 0.5 * (
        np.eye(2, dtype=complex)
        + s[0] * SIGMA_X
        + s[1] * SIGMA_Y
        + s[2] * SIGMA_Z
    )


def bootstrap_errors(
    records,
    point: np.ndarray,
    n_replicas: int = 50,
    seed: int = 0,
    target: str = "phi-minus",
    angles: analysis.ChshAngles | None = None,
) -> tuple[dict, dict]:
    """The derived state metrics of the state ``point`` and their bootstrap
    uncertainties, in one stacked pass over the point and the replicas.

    One :func:`polarimetry.poisson_sample` call redraws every count of every
    replica at the observed count as mean, with the values that drawing
    replica after replica would give, on the run's settings, duration and
    accidental rate.  Each replica is reconstructed as
    :func:`mle_reconstruct` reconstructs the original data: one linear solve
    inverts all replicas, a physical inversion is the maximum-likelihood
    state as it stands, and only the replicas with a negative eigenvalue run
    the maximum-likelihood search, each as a one-row run.  :func:`analysis.state_metrics` scores
    the point and the replicas in one call on their stack, the point first,
    and gives the point the values it gets alone.  Returns ``(values,
    errors)``: the point's metrics, and the sample standard deviation of each
    metric over the replicas with, under ``"nonconverged"``, the number of
    replicas whose maximum-likelihood search did not converge (their metrics
    are still used).  Records whose normalization block has no flux raise
    ``EmptyDataError`` as in the estimators; a replica without flux raises
    it naming the replica and the bootstrap's seed.
    """
    if isinstance(n_replicas, bool) or not isinstance(n_replicas, numbers.Integral):
        raise OutOfRangeError(f"bootstrap replicas must be an integer, got {n_replicas!r}")
    if n_replicas < 2:
        raise OutOfRangeError("bootstrap needs at least 2 replicas")
    if n_replicas > _MAX_REPLICAS:
        raise OutOfRangeError(f"bootstrap takes at most {_MAX_REPLICAS} replicas, got {n_replicas}")
    run = polarimetry._as_run(records)
    _normalization(run)
    rng = np.random.Generator(np.random.PCG64(seed))
    observed = np.broadcast_to(run.counts, (n_replicas, len(run)))
    replicas = polarimetry.CountRun(run.settings, polarimetry.poisson_sample(rng, observed),
                                    run.duration, run.accidental_rate)
    try:
        n_total = _normalization(replicas)
    except EmptyDataError as exc:
        raise EmptyDataError(f"bootstrap at seed {seed}: {exc}") from exc
    polarimetry._schedule_stack(run.settings)  # a mixed schedule raises before the count check
    _check_record_count(run)
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
