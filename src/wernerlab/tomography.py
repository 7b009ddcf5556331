"""Two-photon state reconstruction from coincidence counts.

Two estimators with ``fit`` and ``predict`` are provided: a direct linear
(Stokes) inversion of the 16-setting schedule, and a maximum-likelihood fit
by accelerated projected gradient over the density matrices.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis, polarimetry
from .errors import (
    EmptyDataError,
    OutOfRangeError,
    SingularSystemError,
    UnknownLabelError,
    UnphysicalStateError,
)
from .qlinalg import _scalar, herm_eig, kron
from .states import PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z

_N_PARAMS = 16
_COND_LIMIT = 1e10  # largest condition number of an invertible design
_PROB_FLOOR = 1e-12  # floor of a setting's probability in the likelihood
_FTOL = 1e-9  # cost gain at which a stationary search stops


# The 16 two-photon Pauli products over 4, in the order of the Stokes vector.
_PAULI_OPS = np.array([kron(a, b) for a in PAULIS for b in PAULIS]) / 4.0


def _normalization(records, counts=None):
    """Total pair flux: the summed counts of the (HH, HV, VV, VH) block less
    their expected accidentals.  ``counts`` replaces the records' counts; an
    ``(R, n)`` stack of counts of the ``n`` records gives one flux per row."""
    if counts is None:
        counts = [r.count for r in records]
    keys = [(r.setting.arm1, r.setting.arm2) for r in records]
    if not set(polarimetry.NORMALIZATION_BLOCK) <= set(keys):
        raise EmptyDataError(
            "records do not contain the HH/HV/VV/VH normalization block"
        )
    block = [key in polarimetry.NORMALIZATION_BLOCK for key in keys]
    accidentals = sum(r.accidentals for r, in_block in zip(records, block) if in_block)
    n = np.asarray(counts)[..., block].sum(axis=-1) - accidentals
    if (n <= 0.0).any():
        raise EmptyDataError(
            "normalization block counts do not exceed their expected accidentals"
        )
    return _scalar(n)


def _accidentals(records) -> np.ndarray:
    """Expected accidental count of each record."""
    return np.array([r.accidentals for r in records], dtype=float)


def _projector_stack(settings) -> np.ndarray:
    """One row per two-photon setting, such that ``stack @ rho.ravel()`` is
    the vector of ``tr(rho P)`` (complex, real up to round-off)."""
    rows = []
    for s in settings:
        if s.arm2 is None:
            raise UnknownLabelError("two-photon tomography needs both analyzer arms")
        rows.append(s.projector().T.ravel())
    return np.array(rows)


def _check_record_count(records) -> None:
    if len(records) != _N_PARAMS:
        raise SingularSystemError(
            f"linear inversion needs exactly 16 settings, got {len(records)}"
        )


def _design(proj) -> np.ndarray:
    """The real 16x16 matrix mapping Stokes parameters to the probabilities
    of the settings of ``proj``; raises if it is not invertible."""
    design = (proj @ _PAULI_OPS.reshape(16, -1).T).real
    if np.linalg.cond(design) > _COND_LIMIT:
        raise SingularSystemError(
            "the measurement settings are informationally incomplete"
        )
    return design


def _invert(design, probs):
    """Linear inversion of a vector of setting probabilities, or of each row
    of an ``(R, 16)`` stack: ``(stokes, rho, lowest eigenvalue)``.

    The stack takes one solve, with the rows as right-hand sides, and one
    stacked eigendecomposition; each row gives the values it gives alone.
    """
    stokes = np.linalg.solve(design, probs.T).T
    # matmul, not tensordot, so a stack gives the same values as one vector
    rho = np.matmul(stokes[..., None, :], _PAULI_OPS.reshape(16, -1))
    rho = rho.reshape(*stokes.shape[:-1], 4, 4)
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    w, _ = herm_eig(rho)
    return stokes, rho, w[..., -1]


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

    Attributes after ``fit``: ``matrix_``, ``min_eigenvalue_``, ``stokes_``.
    """

    def fit(self, records):
        _check_record_count(records)
        n_total = _normalization(records)
        return self._fit(records, _projector_stack([r.setting for r in records]), n_total)

    def _fit(self, records, proj, n_total):
        """Fit 16 records given their projector stack and pair flux."""
        counts = np.array([r.count for r in records], dtype=float)
        probs = (counts - _accidentals(records)) / n_total
        self.stokes_, self.matrix_, lowest = _invert(_design(proj), probs)
        self.min_eigenvalue_ = float(lowest)
        self.n_total_ = n_total
        return self

    def predict(self, settings) -> np.ndarray:
        return (_projector_stack(settings) @ self.matrix_.ravel()).real


def linear_reconstruct(records) -> LinearReconstruction:
    """Functional wrapper around :class:`LinearInversion`."""
    est = LinearInversion().fit(records)
    return LinearReconstruction(matrix=est.matrix_, min_eigenvalue=est.min_eigenvalue_)


def _project_to_states(m: np.ndarray) -> np.ndarray:
    """The density matrix nearest to the Hermitian part of ``m``.

    Its eigenvalues are projected onto the probability simplex (Smolin,
    Gambetta & Smith, PRL 108, 070502 (2012)) and clipped at 0 against
    round-off.
    """
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    descending = w[::-1]
    css = np.cumsum(descending) - 1.0
    k = np.arange(1, w.size + 1)
    r = np.flatnonzero(descending > css / k)[-1]
    w = np.maximum(w - css[r] / k[r], 0.0)
    rho = (v * w) @ v.conj().T
    return rho / rho.trace().real


def _projected_gradient(cost, rho, max_evals):
    """Accelerated projected gradient (FISTA) over density matrices.

    ``cost(rho)`` returns the objective and its gradient as a Hermitian
    matrix.  The step is halved until the quadratic model bounds the cost
    (backtracking), and tried 25 % longer on the next iteration; the
    momentum restarts from the best state when the cost rises.  The search
    converges when an accepted iteration improves the cost by less than
    ``_FTOL`` (relative once the cost exceeds 1) at a stationary state: one
    whose projected gradient is below ``sqrt(_FTOL)`` of the gradient at the
    start.  A small gain alone is no test, since a step that backtracking
    has cut to nothing gains nothing anywhere.  The search also stops,
    converged only if stationary, when a step from the best state no longer
    lowers the cost.  At most ``max_evals`` cost evaluations are made.
    Returns ``(rho, f, evals, iterations, converged, history)`` with
    ``history`` the best cost after each accepted iteration.
    """
    f, grad = cost(rho)
    scale = np.linalg.norm(grad) or 1.0

    def stationary(rho, grad):
        # the projected move of a step 1 / scale is the projected gradient / scale
        moved = _project_to_states(rho - grad / scale) - rho
        return np.linalg.norm(moved) <= np.sqrt(_FTOL)

    evals, iterations, history = 1, 0, []
    y, fy, gy = rho, f, grad
    t, step = 1.0, 1.0
    while evals < max_evals:
        z = _project_to_states(y - step * gy)
        fz, gz = cost(z)
        evals += 1
        d = z - y
        if fz > fy + np.vdot(gy, d).real + np.vdot(d, d).real / (2.0 * step):
            step *= 0.5
            continue
        if fz >= f:
            if y is rho:
                return rho, f, evals, iterations, stationary(rho, grad), history
            y, fy, gy, t = rho, f, grad, 1.0
            continue
        iterations += 1
        gain = f - fz
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        previous = rho
        rho, f, grad, t = z, fz, gz, t_next
        history.append(f)
        if gain < _FTOL * max(1.0, abs(f)) and stationary(rho, grad):
            return rho, f, evals, iterations, True, history
        step *= 1.25
        if beta == 0.0:
            y, fy, gy = rho, f, grad
        elif evals < max_evals:
            y = rho + beta * (rho - previous)
            fy, gy = cost(y)
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

    over the settings, where ``N`` is the pair flux, ``a`` the record's
    expected accidental count and ``p`` floored at ``1e-12``.

    A physical linear inversion (no negative eigenvalue) is returned without
    a search: it reproduces every floor-corrected count, so ``mu = n`` on
    every setting and the objective, a sum of non-negative terms, is zero
    there.  Otherwise a deterministic accelerated projected-gradient search
    runs on ``rho`` itself (Shang, Zhang & Ng, PRA 95, 062336 (2017)) from
    the density matrix nearest to ``seed_matrix`` (default: the linear
    inversion): FISTA steps projected onto the density matrices, with
    backtracking on the step size and a momentum restart when the cost
    rises; convergence when an iteration improves the cost by less than
    ``1e-9`` at a stationary state, and a hard cap of ``max_evals``
    objective evaluations (at least 1).
    ``seed_matrix`` is only the search's starting point; records the linear
    inversion refuses (not 16 settings, or informationally incomplete) are
    searched from it.

    Attributes after ``fit``: ``rho_``, ``cost_``, ``iterations_``,
    ``n_evaluations_``, ``converged_``, ``cost_history_`` and ``path_``
    (``"linear"`` or ``"search"``); the linear path reports no iterations,
    one evaluation and an empty history.
    """

    def __init__(self, max_evals: int = 100_000):
        if max_evals < 1:
            raise OutOfRangeError(f"max_evals must be at least 1, got {max_evals!r}")
        self.max_evals = max_evals

    def _cost_function(self, records, proj, n_total):
        """The objective and its gradient as functions of the density
        matrix: ``cost(rho)`` returns ``(f, sum_i N g_i P_i)`` with ``g_i``
        the derivative of the setting's term by its mean.  Where the
        probability sits at the floor, ``g_i`` is taken at the floored mean:
        a state's probabilities only rise from 0, and with accidentals the
        cost can rise with them."""
        counts = np.array([r.count for r in records], dtype=float)
        accidentals = _accidentals(records)

        def cost(rho):
            p = (proj @ rho.ravel()).real
            mu = n_total * np.maximum(p, _PROB_FLOOR) + accidentals
            resid = mu - counts
            f = np.sum(resid * resid / (2.0 * mu))
            g = (mu * mu - counts * counts) / (2.0 * mu * mu)
            return float(f), ((n_total * g) @ proj).reshape(4, 4).conj()

        return cost

    def fit(self, records, seed_matrix: np.ndarray | None = None):
        n_total = _normalization(records)
        proj = _projector_stack([r.setting for r in records])
        cost = self._cost_function(records, proj, n_total)
        linear = None
        try:
            _check_record_count(records)
            linear = LinearInversion()._fit(records, proj, n_total)
        except SingularSystemError:
            if seed_matrix is None:
                raise
        if linear is not None and linear.min_eigenvalue_ >= 0.0:
            self.rho_ = linear.matrix_
            self.cost_ = cost(linear.matrix_)[0]
            self.iterations_ = 0
            self.n_evaluations_ = 1
            self.converged_ = True
            self.cost_history_ = []
            self.path_ = "linear"
            return self
        if seed_matrix is None:
            seed_matrix = linear.matrix_
        start = _project_to_states(np.asarray(seed_matrix, dtype=complex))
        rho, f, evals, iters, converged, history = _projected_gradient(
            cost, start, self.max_evals
        )
        self.rho_ = rho
        self.cost_ = f
        self.iterations_ = iters
        self.n_evaluations_ = evals
        self.converged_ = converged
        self.cost_history_ = history
        self.path_ = "search"
        return self

    def predict(self, settings) -> np.ndarray:
        return (_projector_stack(settings) @ self.rho_.ravel()).real


def mle_reconstruct(records, seed_matrix: np.ndarray | None = None, **params) -> MLEResult:
    """Functional wrapper around :class:`MaximumLikelihood`.

    A physical linear inversion is returned as it is (``path="linear"``);
    ``seed_matrix`` only sets where the search starts when one runs.
    """
    est = MaximumLikelihood(**params).fit(records, seed_matrix=seed_matrix)
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
    by_label = {}
    for r in records:
        if r.setting.arm2 is not None:
            raise UnknownLabelError("single-photon records take one analyzer arm")
        by_label[r.setting.arm1] = float(r.count) - r.accidentals
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
    n_replicas: int = 50,
    seed: int = 0,
    target: str = "phi-minus",
    angles: analysis.ChshAngles | None = None,
) -> dict:
    """Bootstrap uncertainties of the derived state metrics, in one stacked
    pass over the replicas.

    One :func:`polarimetry.poisson_sample` call redraws every count of every
    replica at the observed count as mean, with the values that drawing
    replica after replica would give; every other record field, such as the
    accidental rate, is kept.  Each replica is reconstructed as
    :func:`mle_reconstruct` reconstructs the original data: one linear solve
    inverts all replicas, a physical inversion is the maximum-likelihood
    state as it stands, and only the replicas with a negative eigenvalue run
    the maximum-likelihood search.  The metrics of all replicas are computed
    on the stack.  Returns the sample standard deviation of each metric over
    the replicas, and under ``"nonconverged"`` the number of replicas whose
    maximum-likelihood search did not converge (their metrics are still
    used).
    """
    if isinstance(n_replicas, bool) or not isinstance(n_replicas, numbers.Integral):
        raise OutOfRangeError(f"bootstrap replicas must be an integer, got {n_replicas!r}")
    if n_replicas < 2:
        raise OutOfRangeError("bootstrap needs at least 2 replicas")
    if angles is None:
        angles = analysis.angles_for_target(target)
    rng = np.random.Generator(np.random.PCG64(seed))
    observed = np.array([float(r.count) for r in records])
    counts = polarimetry.poisson_sample(rng, np.broadcast_to(observed, (n_replicas, observed.size)))
    n_total = _normalization(records, counts)
    proj = _projector_stack([r.setting for r in records])
    _check_record_count(records)
    probs = (counts - _accidentals(records)) / n_total[:, None]
    _, rho, lowest = _invert(_design(proj), probs)
    nonconverged = 0
    for i in np.flatnonzero(lowest < 0.0):
        redrawn = [replace(r, count=int(c)) for r, c in zip(records, counts[i])]
        result = mle_reconstruct(redrawn)
        rho[i] = result.rho
        nonconverged += not result.converged
    fit = analysis.fit_werner(rho, target=target)
    samples = {
        "x": fit.x,
        "fidelity": fit.fidelity,
        "linear_entropy": analysis.linear_entropy(rho),
        "tangle": analysis.tangle(rho),
        "chsh_s": analysis.chsh_value(rho, angles),
    }
    stds = {k: float(np.std(v, ddof=1)) for k, v in samples.items()}
    stds["nonconverged"] = nonconverged
    return stds
