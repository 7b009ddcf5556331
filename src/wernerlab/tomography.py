"""Two-photon state reconstruction from coincidence counts.

Two reconstruction routes are provided with a scikit-learn flavoured
estimator interface: a direct linear (Stokes) inversion of the 16-setting
schedule, and a maximum-likelihood fit over a Cholesky-style factorization
that is positive semidefinite by construction.
"""

from __future__ import annotations

import inspect
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
from .qlinalg import herm_eig, kron
from .states import PAULIS

_N_PARAMS = 16
# Row-major order of the strictly-lower-triangular entries of the 4x4 factor.
_TRI_ROWS = np.array([1, 2, 2, 3, 3, 3])
_TRI_COLS = np.array([0, 0, 1, 0, 1, 2])

_EIG_FLOOR = 1e-9


class _Estimator:
    """Minimal parameter-introspection base in the scikit-learn style."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


# The 16 two-photon Pauli products over 4, in the order of the Stokes vector.
_PAULI_OPS = np.array([kron(a, b) for a in PAULIS for b in PAULIS]) / 4.0


def _normalization(records) -> float:
    """Total pair flux: the summed counts of the (HH, HV, VV, VH) block less
    their expected accidentals."""
    totals = {pair: None for pair in polarimetry.NORMALIZATION_BLOCK}
    accidentals = 0.0
    for r in records:
        key = (r.setting.arm1, r.setting.arm2)
        if key in totals:
            totals[key] = (totals[key] or 0) + r.count
            accidentals += r.accidentals
    if any(v is None for v in totals.values()):
        raise EmptyDataError(
            "records do not contain the HH/HV/VV/VH normalization block"
        )
    n = float(sum(totals.values())) - accidentals
    if n <= 0.0:
        raise EmptyDataError(
            "normalization block counts do not exceed their expected accidentals"
        )
    return n


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


@dataclass(frozen=True)
class LinearReconstruction:
    """Direct inversion result; ``matrix`` may have negative eigenvalues."""

    matrix: np.ndarray = field(repr=False)
    min_eigenvalue: float = 0.0


class LinearInversion(_Estimator):
    """Linear (Stokes) tomography over the 16-setting schedule.

    Solves the 16x16 system mapping two-photon Stokes parameters to setting
    probabilities, estimated as the counts less their expected accidentals
    over the pair flux.  The fitted matrix is Hermitian with unit trace but
    can be unphysical (negative eigenvalues) at finite counts.

    Attributes after ``fit``: ``matrix_``, ``min_eigenvalue_``, ``stokes_``.
    """

    def __init__(self, cond_limit: float = 1e10):
        self.cond_limit = cond_limit

    def fit(self, records):
        _check_record_count(records)
        n_total = _normalization(records)
        return self._fit(records, _projector_stack([r.setting for r in records]), n_total)

    def _fit(self, records, proj, n_total):
        """Fit 16 records given their projector stack and pair flux."""
        design = (proj @ _PAULI_OPS.reshape(16, -1).T).real
        if np.linalg.cond(design) > self.cond_limit:
            raise SingularSystemError(
                "the measurement settings are informationally incomplete"
            )
        counts = np.array([r.count for r in records], dtype=float)
        probs = (counts - _accidentals(records)) / n_total
        stokes = np.linalg.solve(design, probs)
        rho = np.tensordot(stokes, _PAULI_OPS, 1)
        rho = 0.5 * (rho + rho.conj().T)
        w, _ = herm_eig(rho)
        self.stokes_ = stokes
        self.matrix_ = rho
        self.min_eigenvalue_ = float(w[-1])
        self.n_total_ = n_total
        return self

    def predict(self, settings) -> np.ndarray:
        return (_projector_stack(settings) @ self.matrix_.ravel()).real


def linear_reconstruct(records) -> LinearReconstruction:
    """Functional wrapper around :class:`LinearInversion`."""
    est = LinearInversion().fit(records)
    return LinearReconstruction(matrix=est.matrix_, min_eigenvalue=est.min_eigenvalue_)


def _factor_to_rho(t: np.ndarray):
    tri = np.zeros((4, 4), dtype=complex)
    tri[np.diag_indices(4)] = t[:4]
    tri[_TRI_ROWS, _TRI_COLS] = t[4::2] + 1j * t[5::2]
    rho = tri @ tri.conj().T
    trace = rho.trace().real
    return rho / trace, trace


def _rho_to_factor(rho: np.ndarray) -> np.ndarray:
    w, v = herm_eig(rho)
    w = np.clip(w, _EIG_FLOOR, None)
    made = v @ np.diag(w) @ v.conj().T
    made /= made.trace().real
    try:
        tri = np.linalg.cholesky(made)
    except np.linalg.LinAlgError:
        made = made + 4.0 * _EIG_FLOOR * np.eye(4)
        tri = np.linalg.cholesky(made / made.trace().real)
    t = np.empty(_N_PARAMS)
    t[:4] = tri.diagonal().real
    t[4::2] = tri[_TRI_ROWS, _TRI_COLS].real
    t[5::2] = tri[_TRI_ROWS, _TRI_COLS].imag
    return t


def _nelder_mead(fun, x0, ftol, max_evals):
    """Deterministic Nelder-Mead minimizer.

    The initial simplex perturbs each coordinate by 5 % (0.00025 when zero).
    Convergence is declared when a full cycle of ``dim + 1`` iterations
    improves the best value by less than ``ftol`` and the simplex values have
    collapsed to within the same tolerance (the spread condition keeps a
    temporarily stalled simplex searching); the search restarts once from the
    best vertex before reporting.  Returns ``(x, f, evals, iterations,
    converged, history)`` with ``history`` the best value after each accepted
    iteration.
    """
    n = x0.size
    evals = 0
    iterations = 0
    history = []

    def run(start, budget):
        nonlocal evals, iterations
        sim = np.tile(start, (n + 1, 1))
        for i in range(n):
            if sim[i + 1, i] != 0.0:
                sim[i + 1, i] *= 1.05
            else:
                sim[i + 1, i] = 0.00025
        fsim = np.array([fun(v) for v in sim])
        evals += n + 1
        cycle = n + 1
        since_check = 0
        order = np.argsort(fsim, kind="stable")
        sim, fsim = sim[order], fsim[order]
        best_at_check = fsim[0]
        converged = False
        while evals < budget:
            centroid = sim[:-1].mean(axis=0)
            xr = centroid + (centroid - sim[-1])
            fr = fun(xr)
            evals += 1
            if fr < fsim[0]:
                xe = centroid + 2.0 * (centroid - sim[-1])
                fe = fun(xe)
                evals += 1
                if fe < fr:
                    sim[-1], fsim[-1] = xe, fe
                else:
                    sim[-1], fsim[-1] = xr, fr
            elif fr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fr
            else:
                if fr < fsim[-1]:
                    xc = centroid + 0.5 * (centroid - sim[-1])
                else:
                    xc = centroid - 0.5 * (centroid - sim[-1])
                fc = fun(xc)
                evals += 1
                if fc < min(fr, fsim[-1]):
                    sim[-1], fsim[-1] = xc, fc
                else:
                    sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                    fsim[1:] = [fun(v) for v in sim[1:]]
                    evals += n
            order = np.argsort(fsim, kind="stable")
            sim, fsim = sim[order], fsim[order]
            iterations += 1
            history.append(float(fsim[0]))
            since_check += 1
            if since_check >= cycle:
                since_check = 0
                spread = fsim[-1] - fsim[0]
                scale = max(1.0, abs(fsim[0]))
                if best_at_check - fsim[0] < ftol * scale and spread < ftol * scale:
                    converged = True
                    break
                best_at_check = fsim[0]
        return sim[0].copy(), float(fsim[0]), converged

    x_best, f_best, _ = run(np.asarray(x0, dtype=float), max_evals)
    x_best, f_best, converged = run(x_best, max_evals)
    return x_best, f_best, evals, iterations, converged, history


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


class MaximumLikelihood(_Estimator):
    """Maximum-likelihood tomography over a positive-by-construction factor.

    The state is parameterized as ``rho = T T^dag / tr(T T^dag)`` with ``T``
    lower triangular (16 real parameters), so every candidate is a valid
    density matrix.  The default objective is the Gaussian statistic

        ``sum((mu - n)**2 / (2 mu))`` with ``mu = N p + a``

    over the settings, where ``N`` is the pair flux, ``a`` the record's
    expected accidental count and ``p`` floored at ``prob_floor``;
    ``objective="poisson"`` switches to the exact Poisson deviance of the
    same mean.

    A physical linear inversion (no negative eigenvalue) is returned without
    a search: it reproduces every floor-corrected count, so ``mu = n`` on
    every setting and both objectives, sums of non-negative terms, are zero
    there.  Otherwise a deterministic Nelder-Mead search runs from
    ``seed_matrix`` (default: the linear inversion): fixed initial simplex,
    convergence when a full parameter cycle improves the cost by less than
    ``ftol``, a single restart from the best vertex, and a hard cap of
    ``max_evals`` objective evaluations.  ``seed_matrix`` is only the
    search's starting point; records the linear inversion refuses (not 16
    settings, or informationally incomplete) are searched from it.

    Attributes after ``fit``: ``rho_``, ``cost_``, ``iterations_``,
    ``n_evaluations_``, ``converged_``, ``cost_history_`` and ``path_``
    (``"linear"`` or ``"search"``); the linear path reports no iterations,
    one evaluation and an empty history.
    """

    def __init__(
        self,
        objective: str = "gaussian",
        prob_floor: float = 1e-12,
        ftol: float = 1e-9,
        max_evals: int = 100_000,
    ):
        self.objective = objective
        self.prob_floor = prob_floor
        self.ftol = ftol
        self.max_evals = max_evals

    def _cost_function(self, records, proj, n_total):
        """The objective as a function of the density matrix."""
        counts = np.array([r.count for r in records], dtype=float)
        accidentals = _accidentals(records)
        floor = self.prob_floor
        if self.objective == "gaussian":

            def cost(rho):
                p = np.maximum((proj @ rho.ravel()).real, floor)
                mu = n_total * p + accidentals
                resid = mu - counts
                return float(np.sum(resid * resid / (2.0 * mu)))

        elif self.objective == "poisson":

            def cost(rho):
                p = np.maximum((proj @ rho.ravel()).real, floor)
                mu = n_total * p + accidentals
                # mu - n + n log(n/mu) = d - n log1p(d/n) with d = mu - n,
                # which does not cancel near an exact fit
                dev = mu - counts
                nz = counts > 0
                dev[nz] -= counts[nz] * np.log1p(dev[nz] / counts[nz])
                return float(np.sum(dev))

        else:
            raise UnknownLabelError(
                f"unknown objective {self.objective!r}; use 'gaussian' or 'poisson'"
            )
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
            self.cost_ = cost(linear.matrix_)
            self.iterations_ = 0
            self.n_evaluations_ = 1
            self.converged_ = True
            self.cost_history_ = []
            self.path_ = "linear"
            return self
        if seed_matrix is None:
            seed_matrix = linear.matrix_
        t0 = _rho_to_factor(np.asarray(seed_matrix, dtype=complex))
        t, f, evals, iters, converged, history = _nelder_mead(
            lambda t: cost(_factor_to_rho(t)[0]), t0, self.ftol, self.max_evals
        )
        rho, _ = _factor_to_rho(t)
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
    rho = 0.5 * (
        np.eye(2, dtype=complex)
        + s[0] * np.array([[0, 1], [1, 0]], dtype=complex)
        + s[1] * np.array([[0, -1j], [1j, 0]], dtype=complex)
        + s[2] * np.array([[1, 0], [0, -1]], dtype=complex)
    )
    return rho


def bootstrap_errors(
    records,
    n_replicas: int = 50,
    seed: int = 0,
    target: str = "phi-minus",
    angles: analysis.ChshAngles | None = None,
    resampler=None,
) -> dict:
    """Bootstrap uncertainties of the derived state metrics.

    Each replica redraws every count as Poisson with the observed count as
    mean (``resampler(rng, count)`` overrides the redraw, e.g. with the
    identity to verify the plumbing), keeps every other record field such as
    the accidental rate, re-runs the maximum-likelihood reconstruction
    exactly as for the original data, and recomputes the metrics.  Returns
    the sample standard deviation of each metric over the replicas, and
    under ``"nonconverged"`` the number of replicas whose maximum-likelihood
    search did not converge (their metrics are still used).
    """
    if n_replicas < 2:
        raise OutOfRangeError("bootstrap needs at least 2 replicas")
    if angles is None:
        angles = analysis.angles_for_target(target)
    if resampler is None:
        resampler = lambda rng, count: polarimetry.poisson_sample(rng, float(count))
    rng = np.random.Generator(np.random.PCG64(seed))
    samples = {k: [] for k in ("x", "fidelity", "linear_entropy", "tangle", "chsh_s")}
    nonconverged = 0
    for _ in range(n_replicas):
        redrawn = [
            replace(r, count=int(resampler(rng, r.count))) for r in records
        ]
        result = mle_reconstruct(redrawn)
        nonconverged += not result.converged
        rho = result.rho
        fit = analysis.fit_werner(rho, target=target)
        samples["x"].append(fit.x)
        samples["fidelity"].append(fit.fidelity)
        samples["linear_entropy"].append(analysis.linear_entropy(rho))
        samples["tangle"].append(analysis.tangle(rho))
        samples["chsh_s"].append(analysis.chsh_value(rho, angles))
    stds = {k: float(np.std(v, ddof=1)) for k, v in samples.items()}
    stds["nonconverged"] = nonconverged
    return stds
