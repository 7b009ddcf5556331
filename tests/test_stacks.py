"""A stack of states gives, bit for bit, what its states give one at a time.

The numerical core takes ``(..., 4, 4)`` stacks, and a single matrix is a
batch of one on the same code, so these tests compare each stacked call with
a loop of single calls.  The bootstrap is compared with the per-replica loop
it replaced, and the maximum-likelihood search, which forms its gradient
only where it reads it and opens at a step set by the gradient's norm, with
the search that formed the gradient at every evaluation and opened at step
1.0; both are kept here as references, the search with its own
out-of-place copy of the projection onto the states.  The linear inversion of
a stack of runs is compared with its single-row inversions, and the package's
raw LAPACK calls, ``qlinalg._eigh`` and ``_eigvalsh``, byte for byte with
``np.linalg.eigh`` and ``np.linalg.eigvalsh``.  The search's stop at
``tomography._FTOL`` is compared with the reference run to 1e-9, within
bounds on what it may move.
"""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from wernerlab import analysis, fixtures, polarimetry, qlinalg, tomography
from wernerlab.errors import EmptyDataError, SingularSystemError, UnknownLabelError
from wernerlab.polarimetry import SourceConfig, simulate_counts, tomographic_settings
from wernerlab.qlinalg import herm_eig, min_eigenvalue, psd_sqrt
from wernerlab.states import bell_state, pure_to_density, werner_phi_minus

from conftest import random_density

SCHEDULE = tomographic_settings()
SCHEDULE_RUN = simulate_counts(werner_phi_minus(1.0), SCHEDULE, SourceConfig(seed=0))


def state_stack():
    """Ginibre states of rank 1 to 4 and seeded maximum-likelihood states,
    both physical inversions and searched ones."""
    rng = np.random.default_rng(90210)
    states = [random_density(rng, rank=rank) for rank in (1, 2, 3, 4) for _ in range(6)]
    for x in (0.0, 0.405, 0.801, 1.0):
        for seed in range(4):
            records = simulate_counts(werner_phi_minus(x), SCHEDULE, SourceConfig(seed=seed))
            states.append(tomography.mle_reconstruct(records).rho)
    return np.array(states)


STACK = state_stack()


def test_herm_eig_and_psd_sqrt_of_a_stack_equal_single_calls():
    w, v = herm_eig(STACK)
    roots = psd_sqrt(STACK)
    lowest = min_eigenvalue(STACK)
    for i, rho in enumerate(STACK):
        w1, v1 = herm_eig(rho)
        assert np.array_equal(w[i], w1)
        assert np.array_equal(v[i], v1)
        assert np.array_equal(roots[i], psd_sqrt(rho))
        assert lowest[i] == min_eigenvalue(rho)
    # a stack of stacks is taken matrix by matrix too
    w2, v2 = herm_eig(STACK[:6].reshape(2, 3, 4, 4))
    assert np.array_equal(w2.reshape(6, 4), w[:6])
    assert np.array_equal(v2.reshape(6, 4, 4), v[:6])


def same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(), (21,), (1000,)])
def test_the_raw_eigh_is_numpys_eigh_byte_for_byte(shape):
    # no skip: a numpy whose _umath_linalg lacks the gufunc fails here
    assert hasattr(_umath_linalg, "eigh_lo")
    rng = np.random.default_rng(4711)
    g = rng.normal(size=shape + (4, 4)) + 1j * rng.normal(size=shape + (4, 4))
    m = 0.5 * (g + g.conj().swapaxes(-1, -2))
    w, v = qlinalg._eigh(m)
    want_w, want_v = np.linalg.eigh(m)
    assert same_bytes(w, want_w)
    assert same_bytes(v, want_v)
    assert hasattr(_umath_linalg, "eigvalsh_lo")
    assert same_bytes(qlinalg._eigvalsh(m), np.linalg.eigvalsh(m))


@pytest.mark.parametrize("x", [0.0, 0.801, 1.0])
def test_a_stacked_inversion_equals_its_single_row_inversions(x):
    runs = [simulate_counts(werner_phi_minus(x), SCHEDULE, SourceConfig(seed=seed))
            for seed in range(48)]
    stack = polarimetry.CountRun(SCHEDULE_RUN.settings, np.array([run.counts for run in runs]),
                                 SCHEDULE_RUN.duration, SCHEDULE_RUN.accidental_rate)
    rho, lowest = tomography._invert(stack, tomography._normalization(stack)[:, None])
    for i, run in enumerate(runs):
        rho1, lowest1 = tomography._invert(run, tomography._normalization(run))
        assert same_bytes(rho[i], rho1)
        assert lowest[i] == lowest1


def fresh(run):
    """A copy of ``run`` rebuilt from its fields, as pickling rebuilds it, so
    nothing computed on ``run`` is carried over."""
    return pickle.loads(pickle.dumps(run))


def mle_fields(result):
    return (result.rho.tobytes(), result.cost, result.iterations, result.converged,
            result.path, result.n_evaluations)


@pytest.mark.parametrize("x, seed, path", [(0.801, 0, "linear"), (1.0, 0, "search")])
def test_a_runs_estimators_share_one_inversion_bit_for_bit(x, seed, path):
    """Each estimator, called twice on one run, gives the bits of its first
    call on a fresh copy of the run, and every array it returns is its own."""
    run = simulate_counts(werner_phi_minus(x), SCHEDULE, SourceConfig(seed=seed))
    arrays = []
    for _ in range(2):
        for seeded in (False, True):
            linear = tomography.linear_reconstruct(run)
            want = tomography.linear_reconstruct(fresh(run))
            assert same_bytes(linear.matrix, want.matrix)
            assert linear.min_eigenvalue == want.min_eigenvalue
            seed_matrix = linear.matrix if seeded else None
            mle = tomography.mle_reconstruct(run, seed_matrix=seed_matrix)
            assert mle.path == path
            assert mle_fields(mle) == mle_fields(
                tomography.mle_reconstruct(fresh(run), seed_matrix=seed_matrix))
            arrays += [linear.matrix, mle.rho]
    # what a run keeps is not pickled: a loaded run holds its fields alone
    assert vars(fresh(run)).keys() == {"settings", "counts", "duration", "accidental_rate"}
    assert all(a.flags.writeable for a in arrays)
    for i, written in enumerate(arrays):
        before = [a.copy() for a in arrays]
        written[...] = np.nan
        assert all(same_bytes(a, b) for j, (a, b) in enumerate(zip(arrays, before)) if j != i)
        arrays[i] = before[i]
    assert same_bytes(tomography.linear_reconstruct(run).matrix,
                      tomography.linear_reconstruct(fresh(run)).matrix)


def test_a_single_photon_inversion_is_shared_bit_for_bit():
    hvdr = [polarimetry.AnalyzerSetting(arm) for arm in "HVDR"]
    run = simulate_counts(np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex), hvdr,
                          SourceConfig(seed=4))
    first = tomography.single_qubit_reconstruct(run)
    second = tomography.single_qubit_reconstruct(run)
    assert same_bytes(first, tomography.single_qubit_reconstruct(fresh(run)))
    assert same_bytes(second, first)
    first[...] = np.nan
    assert same_bytes(tomography.single_qubit_reconstruct(run), second)


def without_flux(run):
    """``run`` with no counts in its HH/HV/VV/VH block and no accidentals."""
    counts = np.array(run.counts)
    counts[:4] = 0
    return polarimetry.CountRun(run.settings, counts, run.duration, 0.0)


INCOMPLETE = tuple(SCHEDULE[:4]) + (polarimetry.AnalyzerSetting("D", "D"),) * 12


CALLS = {
    "linear": tomography.linear_reconstruct,
    "mle": tomography.mle_reconstruct,
    "seeded": lambda run: tomography.mle_reconstruct(run, seed_matrix=np.eye(4) / 4),
}


def refused(name):
    """A run that some estimator refuses, and the error of each call on it:
    the CHSH schedule, which has no normalization block and cannot be
    inverted, a run without flux, and an incomplete schedule with a flux."""
    if name == "chsh":
        chsh = simulate_counts(werner_phi_minus(0.801),
                               analysis.chsh_schedule(analysis.DEFAULT_ANGLES), SourceConfig(seed=0))
        return chsh, {"linear": SingularSystemError, "mle": UnknownLabelError,
                      "seeded": UnknownLabelError}
    if name == "no-flux":
        return without_flux(SCHEDULE_RUN), dict.fromkeys(CALLS, EmptyDataError)
    incomplete = polarimetry.CountRun(INCOMPLETE, SCHEDULE_RUN.counts, SCHEDULE_RUN.duration,
                                      SCHEDULE_RUN.accidental_rate)
    return incomplete, {"linear": SingularSystemError, "mle": SingularSystemError, "seeded": None}


@pytest.mark.parametrize("order", [("linear", "mle", "seeded"), ("seeded", "mle", "linear"),
                                   ("mle", "seeded", "linear")])
@pytest.mark.parametrize("name", ["chsh", "no-flux", "incomplete"])
def test_each_estimator_refuses_a_run_on_every_call_in_any_order(name, order):
    """A refusal is never kept: each call on one run raises what the same
    call raises on a fresh copy of it, with the same message, and a call
    that succeeds leaves the others' refusals as they were."""
    run, errors = refused(name)
    for _ in range(2):
        for call in order:
            error = errors[call]
            if error is None:
                assert mle_fields(CALLS[call](run)) == mle_fields(CALLS[call](fresh(run)))
                continue
            with pytest.raises(error) as got:
                CALLS[call](run)
            with pytest.raises(error) as want:
                CALLS[call](fresh(run))
            assert str(got.value) == str(want.value)


WERNER = werner_phi_minus(0.6)


@pytest.mark.parametrize(
    "metric",
    [
        analysis.tangle,
        analysis.linear_entropy,
        analysis.chsh_value,
        lambda rho: analysis.chsh_value(rho, analysis.angles_for_target("psi-plus")),
        lambda rho: analysis.fidelity(rho, WERNER),
        lambda rho: analysis.fidelity(WERNER, rho),
    ],
    ids=["tangle", "linear_entropy", "chsh", "chsh-psi-plus", "fidelity", "fidelity-swapped"],
)
def test_metrics_of_a_stack_equal_single_calls(metric):
    values = metric(STACK)
    assert values.shape == (len(STACK),)
    for rho, value in zip(STACK, values):
        single = metric(rho)
        assert type(single) is float
        assert value == single


def test_fidelity_of_two_stacks_pairs_their_states():
    others = STACK[::-1]
    values = analysis.fidelity(STACK, others)
    for i in range(len(STACK)):
        assert values[i] == analysis.fidelity(STACK[i], others[i])


@pytest.mark.parametrize("target", ["phi-minus", "psi-plus"])
def test_lockstep_werner_fits_equal_single_fits(target):
    fits = analysis.fit_werner(STACK, target=target)
    assert fits.x.shape == fits.fidelity.shape == (len(STACK),)
    for i, rho in enumerate(STACK):
        single = analysis.fit_werner(rho, target=target)
        assert type(single.x) is float
        assert fits.x[i] == single.x
        assert fits.fidelity[i] == single.fidelity


# 21 seeded maximum-likelihood states, the size of a 20-replica bootstrap's
# stack: searched ones at x = 1.0 and physical inversions at x = 0.801
METRICS_STACK = np.array([
    tomography.mle_reconstruct(simulate_counts(werner_phi_minus(x), SCHEDULE,
                                               SourceConfig(seed=seed))).rho
    for x, seeds in ((1.0, range(8100, 8111)), (0.801, range(8100, 8110))) for seed in seeds])


@pytest.mark.parametrize("target", ["phi-minus", "psi-plus"])
def test_state_metrics_equal_each_metric_called_alone_byte_for_byte(target):
    """``state_metrics`` takes one square root for the Werner fit and the
    tangle; each value is the bytes of its metric called alone, on the stack
    and on one state."""
    assert METRICS_STACK.shape == (21, 4, 4)
    angles = analysis.angles_for_target(target)
    for rho in (METRICS_STACK, METRICS_STACK[0]):
        fit = analysis.fit_werner(rho, target=target)
        alone = {"x": fit.x, "fidelity": fit.fidelity,
                 "linear_entropy": analysis.linear_entropy(rho),
                 "tangle": analysis.tangle(rho), "chsh_s": analysis.chsh_value(rho, angles)}
        got = analysis.state_metrics(rho, target)
        assert list(got) == list(alone)
        for key, value in alone.items():
            assert type(got[key]) is type(value)
            assert np.asarray(got[key]).tobytes() == np.asarray(value).tobytes()


FLIP = np.kron(np.array([[0.0, -1j], [1j, 0.0]]), np.array([[0.0, -1j], [1j, 0.0]]))
# A rank-deficient state's inner matrix can hold an eigenvalue near 1e-11
# that eigh and eigvalsh read about 1e-17 apart; its square root then moves
# by about 1e-12.  Such states get this capped bound instead of 1e-13.
RANK_DEFICIENT_TOL = 1e-10


def sqrtm_reference(m):
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def root_spectrum_reference(m):
    """Descending square roots of the spectrum of ``m`` from a full ``eigh``,
    with round-off eigenvalues zeroed as the package zeroes them."""
    w = np.clip(np.linalg.eigh(m)[0][::-1], 0.0, None)
    w[w < 1e-14 * max(1.0, w.max())] = 0.0
    return np.sqrt(w)


def fidelity_reference(a, b):
    root = sqrtm_reference(b)
    return min(float(np.sum(root_spectrum_reference(root @ a @ root)) ** 2), 1.0)


def tangle_reference(rho):
    root = sqrtm_reference(rho)
    lam = root_spectrum_reference(root @ (FLIP @ rho.conj() @ FLIP) @ root)
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3]) ** 2


def test_spectrum_kernel_matches_a_full_eigendecomposition():
    """The metrics read only eigenvalues; a full ``eigh`` gives the same
    values to 1e-13 on full-rank states.  On the rank-deficient ones (lowest
    eigenvalue below 1e-12) the bound is ``RANK_DEFICIENT_TOL``: the tangle
    of one rank-2 MLE state at x = 1.0 moves by 5.8e-12, where both solvers
    are about 1e-11 off the exact tangle."""
    values = {
        "fidelity": analysis.fidelity(STACK, WERNER),
        "fidelity-swapped": analysis.fidelity(WERNER, STACK),
        "tangle": analysis.tangle(STACK),
    }
    fits = {t: analysis.fit_werner(STACK, target=t) for t in ("phi-minus", "psi-plus")}
    tols = np.where(min_eigenvalue(STACK) < 1e-12, RANK_DEFICIENT_TOL, 1e-13)
    for i, rho in enumerate(STACK):
        references = {
            "fidelity": fidelity_reference(rho, WERNER),
            "fidelity-swapped": fidelity_reference(WERNER, rho),
            "tangle": tangle_reference(rho),
        }
        got = {key: v[i] for key, v in values.items()}
        for target, fit in fits.items():
            x, proj = fit.x[i], pure_to_density(bell_state(target))
            references[target] = fidelity_reference(x * proj + (1.0 - x) / 4.0 * np.eye(4), rho)
            got[target] = fit.fidelity[i]
        for key, want in references.items():
            assert abs(got[key] - want) <= tols[i], (i, key)


@pytest.mark.parametrize("shape", [(7, 16), (3, 2, 16)])
def test_one_poisson_draw_of_an_array_equals_scalar_draws(shape):
    means = np.random.default_rng(5).uniform(0.0, 40.0, size=shape)
    means.flat[0] = 0.0  # below 10 and at or above 10 use different samplers
    drawn = polarimetry.poisson_sample(np.random.Generator(np.random.PCG64(11)), means)
    rng = np.random.Generator(np.random.PCG64(11))
    scalar = [polarimetry.poisson_sample(rng, float(m)) for m in means.ravel()]
    assert drawn.shape == shape
    assert drawn.ravel().tolist() == scalar
    assert all(type(count) is int for count in scalar)


def reference_bootstrap(records, n_replicas, seed, target="phi-minus"):
    """The per-replica loop: redraw, reconstruct and score one replica at a
    time."""
    angles = analysis.angles_for_target(target)
    rng = np.random.Generator(np.random.PCG64(seed))
    samples = {k: [] for k in ("x", "fidelity", "linear_entropy", "tangle", "chsh_s")}
    nonconverged = 0
    for _ in range(n_replicas):
        redrawn = [polarimetry.poisson_sample(rng, float(c)) for c in records.counts.tolist()]
        result = tomography.mle_reconstruct(replace(records, counts=np.array(redrawn)))
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


@pytest.mark.parametrize("n_replicas", [2, 20, 50])
@pytest.mark.parametrize("x", [0.0, 0.405, 0.801, 1.0])
def test_bootstrap_equals_the_per_replica_loop(x, n_replicas):
    records = simulate_counts(werner_phi_minus(x), SCHEDULE, SourceConfig(seed=3))
    point = werner_phi_minus(x)
    _, got = tomography.bootstrap_errors(records, point, n_replicas=n_replicas, seed=17)
    want = reference_bootstrap(records, n_replicas, seed=17)
    assert got.keys() == want.keys()
    assert got["nonconverged"] == want["nonconverged"]
    assert got["x"] == want["x"]
    assert got["chsh_s"] == want["chsh_s"]
    for key in ("fidelity", "linear_entropy", "tangle"):
        assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("target", ["phi-minus", "psi-plus"])
@pytest.mark.parametrize("x", [0.0, 0.405, 0.801, 1.0])
def test_bootstrap_point_gets_its_single_state_values(x, target):
    """The bootstrap scores its point on the stack with the replicas; the
    point gets, bit for bit, the values the metrics give it alone, whether
    it is the counts' maximum-likelihood state or another state."""
    records = simulate_counts(werner_phi_minus(x), SCHEDULE, SourceConfig(seed=5))
    angles = analysis.angles_for_target(target)
    mle = tomography.mle_reconstruct(records).rho
    for point in (mle, werner_phi_minus(x), STACK[0]):
        values, _ = tomography.bootstrap_errors(records, point, n_replicas=3, seed=11,
                                                target=target)
        fit = analysis.fit_werner(point, target=target)
        assert values == {
            "x": fit.x,
            "fidelity": fit.fidelity,
            "linear_entropy": analysis.linear_entropy(point),
            "tangle": analysis.tangle(point),
            "chsh_s": analysis.chsh_value(point, angles),
        }
        assert all(type(v) is float for v in values.values())


# ------------------------------------------------ the maximum-likelihood search


def reference_cost_function(run, proj, n_total):
    """The objective with its gradient formed at every evaluation: ``cost(rho)``
    returns ``(f, sum_i N g_i P_i)``."""
    accidentals = run.accidentals
    counts = run.counts.astype(float)
    counts_sq = counts * counts
    proj_conj = proj.conj()

    def cost(rho):
        p = (proj @ rho.ravel()).real
        mu = n_total * np.maximum(p, tomography._PROB_FLOOR) + accidentals
        resid = mu - counts
        two_mu = 2.0 * mu
        f = (resid * resid / two_mu).sum()
        g = (mu * mu - counts_sq) / (two_mu * mu)
        return float(f), ((n_total * g) @ proj_conj).reshape(4, 4)

    return cost


def reference_project(m):
    """The density matrix nearest to the Hermitian part of ``m``, written out
    of place through ``np.linalg.eigh``: the simplex shift of the eigenvalues
    in Python floats, then the clipped spectrum over numpy's trace."""
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    total = 0.0
    for k, wk in enumerate(w[::-1].tolist(), 1):
        total += wk
        if k == 1 or wk > (total - 1.0) / k:
            shift = (total - 1.0) / k
    w = np.maximum(w - shift, 0.0)
    rho = (v * w) @ v.conj().T
    trace = rho.trace().real
    if not trace > 0.0:
        return np.full_like(rho, np.nan)
    return rho / trace


def search_inputs(run, seed_matrix=None):
    """The matrices a seeded search hands the projection, in order."""
    seen = []

    def recording(m):
        seen.append(m.copy())
        return project(m)

    project = tomography._project_to_states
    tomography._project_to_states = recording
    try:
        tomography.MaximumLikelihood().fit(run, seed_matrix=seed_matrix)
    finally:
        tomography._project_to_states = project
    return seen


def projection_inputs():
    """Seeded 4x4 matrices: random complex ones at several scales, Gram
    matrices of rank 1 to 3, matrices whose spectra are degenerate up to
    1e-12, and the inputs of two searches (their trials ``y - step * gy``)."""
    rng = np.random.default_rng(2803)
    matrices = []
    for scale in (0.01, 0.3, 1.0, 5.0, 1e3):
        g = rng.normal(size=(40, 4, 4)) + 1j * rng.normal(size=(40, 4, 4))
        matrices += list(scale * g)
    for rank in (1, 2, 3):
        matrices += [random_density(rng, rank=rank) for _ in range(40)]
    for _ in range(100):
        q, _r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        spectrum = rng.choice([0.0, 0.25, 0.5, -0.1], size=4)
        spectrum = spectrum + 1e-12 * rng.normal(size=4)
        matrices.append((q * spectrum) @ q.conj().T)
    matrices += search_inputs(simulate_counts(werner_phi_minus(1.0), SCHEDULE,
                                              SourceConfig(seed=0)))
    matrices += search_inputs(simulate_counts(fixtures.load("rho1"), SCHEDULE,
                                              SourceConfig(seed=3)), fixtures.load("rho1"))
    return matrices


def test_the_projection_is_its_out_of_place_reference_byte_for_byte():
    matrices = projection_inputs()
    assert len(matrices) >= 500
    for m in matrices:
        want = reference_project(m)
        assert np.isfinite(want).all()
        assert same_bytes(tomography._project_to_states(m), want)


def reference_projected_gradient(cost, rho, max_evals, ftol=None):
    """The FISTA search with one projection per trial and the gradient of
    every evaluated point, opening at step 1.0, under the package's stopping
    rule at the tolerance ``ftol`` (default ``tomography._FTOL``) and the cap
    ``max_evals``."""
    project = reference_project
    ftol = tomography._FTOL if ftol is None else ftol
    f, grad = cost(rho)
    scale = np.linalg.norm(grad) or 1.0

    def stationary(rho, grad):
        moved = project(rho - grad / scale) - rho
        return bool(np.linalg.norm(moved) <= np.sqrt(ftol))

    evals, iterations, history = 1, 0, []
    y, fy, gy = rho, f, grad
    t, step = 1.0, 1.0
    while evals < max_evals:
        z = project(y - step * gy)
        fz, gz = cost(z)
        evals += 1
        d = z - y
        if not fz <= fy + np.vdot(gy, d).real + np.vdot(d, d).real / (2.0 * step):
            step *= 0.5
            continue
        if fz >= f:
            if y is rho:
                return rho, f, evals, iterations, stationary(rho, grad), history
            y, fy, gy, t = rho, f, grad, 1.0
            continue
        iterations += 1
        gain = f - fz
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        previous = rho
        rho, f, grad, t = z, fz, gz, t_next
        history.append(f)
        if gain < ftol * max(1.0, abs(f)) and stationary(rho, grad):
            return rho, f, evals, iterations, True, history
        step *= 1.25
        if beta == 0.0:
            y, fy, gy = rho, f, grad
        elif evals < max_evals:
            y = rho + beta * (rho - previous)
            fy, gy = cost(y)
            evals += 1
    return rho, f, evals, iterations, False, history


def opening_halvings(scale):
    """The halvings from 1.0 to the search's opening step, the least power of
    two at or above ``2 / scale``, at most 1."""
    halvings, step = 0, 1.0
    while step / 2.0 >= 2.0 / scale:
        halvings, step = halvings + 1, step / 2.0
    return halvings


def assert_search_is_the_reference(run, seed_matrix=None):
    """``MaximumLikelihood`` searches the run's counts to the bits of the
    reference, which opens at 1.0: state, cost, iterations, convergence and
    history, with the reference's evaluations less the opening halvings the
    search skips.  The reference is capped that many evaluations higher.
    Returns the estimator and the halvings skipped."""
    n_total = tomography._normalization(run)
    cost = reference_cost_function(run, polarimetry._schedule_stack(run.settings), n_total)
    linear, _ = tomography._invert(run, n_total)
    start = reference_project(linear if seed_matrix is None else seed_matrix)
    skipped = opening_halvings(np.linalg.norm(cost(start)[1]) or 1.0)
    rho, f, evals, iterations, converged, history = reference_projected_gradient(
        cost, start, tomography._MAX_EVALS + skipped)
    est = tomography.MaximumLikelihood().fit(run, seed_matrix=seed_matrix)
    assert est.path_ == "search"
    assert est.rho_.tobytes() == rho.tobytes()
    assert (est.cost_, est.n_evaluations_, est.iterations_, est.converged_, est.cost_history_) \
        == (f, evals - skipped, iterations, converged, history)
    return est, skipped


SEARCHED = {"x=1.0": werner_phi_minus(1.0), "rho1": fixtures.load("rho1")}
# seeds whose linear inversion is unphysical at the default count level
SEARCHED_SEEDS = [("x=1.0", seed) for seed in range(4)] + [("rho1", seed) for seed in (0, 3, 5, 11)]


@pytest.mark.parametrize("start", ["linear", "source"])
@pytest.mark.parametrize("source, seed", SEARCHED_SEEDS)
def test_search_is_the_eager_gradient_search_bit_for_bit(source, seed, start):
    rho = SEARCHED[source]
    records = simulate_counts(rho, SCHEDULE, SourceConfig(seed=seed))
    est, _ = assert_search_is_the_reference(records, None if start == "linear" else rho)
    assert est.converged_


LOW = SourceConfig(pair_rate=3.0, accidental_rate=0.1, duration=10.0)


@pytest.mark.parametrize("seed, first_step", [(4, 8), (1, 10)])
def test_search_with_an_early_first_step_is_the_reference(seed, first_step, monkeypatch):
    """At 30 pairs a setting the reference accepts its first step at
    evaluation ``first_step`` (the start is the first), after 6 or 8 halvings
    rather than about 20; the search, opening ``skipped`` halvings lower,
    accepts it at ``first_step - skipped``.  Caps on the last rejected
    opening trial and on the first accepted one pin it."""
    records = simulate_counts(werner_phi_minus(1.0), SCHEDULE, replace(LOW, seed=seed))
    _, skipped = assert_search_is_the_reference(records)
    assert 0 < skipped < first_step - 2
    for max_evals, iterations in ((first_step - skipped - 1, 0), (first_step - skipped, 1)):
        monkeypatch.setattr(tomography, "_MAX_EVALS", max_evals)
        est, _ = assert_search_is_the_reference(records)
        assert (est.n_evaluations_, est.iterations_) == (max_evals, iterations)


@pytest.mark.parametrize("max_evals", [2, 5, 8, 9])
def test_search_capped_within_its_opening_halvings_is_the_reference(max_evals, monkeypatch):
    """At seed 0 the search opens 13 halvings below 1.0 and accepts its first
    step at evaluation 9, where the reference, opening at 1.0, accepts it at
    evaluation 22."""
    records = simulate_counts(werner_phi_minus(1.0), SCHEDULE, SourceConfig(seed=0))
    monkeypatch.setattr(tomography, "_MAX_EVALS", max_evals)
    est, skipped = assert_search_is_the_reference(records)
    assert skipped == 13
    assert (est.n_evaluations_, est.iterations_, est.converged_) \
        == (max_evals, int(max_evals == 9), False)


# Without accidentals, x = 1.0 searches accept their first step nearest to
# the opening: at up to 1.21 / |grad f| at 300 pairs/s (1.52 at 1e5 pairs/s),
# where the opening keeps the bits of any step below 4 / |grad f|.  An opening
# at the largest power of two at or below 1 / |grad f| moves the bits of seeds
# 2, 5, 7, 8, 10, 14, 17 and 21 of these.
OPENING_RUNS = {"no-accidentals": SourceConfig(accidental_rate=0.0), "3-pairs-per-s": LOW}


@pytest.mark.parametrize("level", OPENING_RUNS)
def test_searches_opened_from_the_gradient_are_the_reference_bit_for_bit(level):
    searched = 0
    for seed in range(24):
        records = simulate_counts(werner_phi_minus(1.0), SCHEDULE,
                                  replace(OPENING_RUNS[level], seed=seed))
        if tomography._invert(records, tomography._normalization(records))[1] < 0.0:
            assert_search_is_the_reference(records)
            searched += 1
    assert searched >= 20


# What the search's stop at _FTOL may move against the same search run to
# 1e-9, declared before the tolerance was measured: x less than the Werner
# fit's own tolerance; S, the tangle and the cost less than 1 % of their
# seed-to-seed sd at x = 1.0 (1.83e-3, 1.62e-3 and 2.98, seeds 7000-7199).
FINE_FTOL = 1e-9
MOVE_BOUNDS = {"chsh_s": 1.8e-5, "tangle": 1.6e-5, "cost": 3.0e-2}


@pytest.mark.parametrize("source, searches", [("x=1.0", 40), ("rho1", 17)])
def test_the_search_tolerance_moves_no_output_beyond_its_bounds(source, searches):
    """Seeds 8000-8039 at the default count level: each searched run against
    the reference search to 1e-9 from the same start, with the same path and
    convergence, x within ``_X_TOL`` and S, the tangle and the cost within
    their bounds."""
    searched = 0
    for seed in range(8000, 8040):
        run = simulate_counts(SEARCHED[source], SCHEDULE, SourceConfig(seed=seed))
        n_total = tomography._normalization(run)
        linear, lowest = tomography._invert(run, n_total)
        result = tomography.mle_reconstruct(run)
        assert result.path == ("search" if lowest < 0.0 else "linear")
        if result.path == "linear":
            continue
        cost = reference_cost_function(run, polarimetry._schedule_stack(run.settings), n_total)
        rho, f, _, _, converged, _ = reference_projected_gradient(
            cost, reference_project(linear), tomography._MAX_EVALS, ftol=FINE_FTOL)
        assert result.converged == converged
        shipped, fine = analysis.state_metrics(result.rho), analysis.state_metrics(rho)
        assert abs(shipped["x"] - fine["x"]) < analysis._X_TOL
        for key in ("chsh_s", "tangle"):
            assert abs(shipped[key] - fine[key]) < MOVE_BOUNDS[key]
        assert abs(result.cost - f) < MOVE_BOUNDS["cost"]
        searched += 1
    assert searched == searches
