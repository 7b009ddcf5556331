import dataclasses
import json
import re

import numpy as np
import pytest

from wernerlab import analysis, decoherence, fixtures, polarimetry, tomography
from wernerlab.analysis import fidelity
from wernerlab.errors import (
    EmptyDataError,
    NonHermitianError,
    OutOfRangeError,
    SingularSystemError,
    UnknownLabelError,
    UnphysicalStateError,
)
from wernerlab.polarimetry import (
    AnalyzerSetting,
    CountRun,
    SourceConfig,
    _born_probabilities,
    simulate_counts,
    tomographic_settings,
)
from wernerlab.qlinalg import min_eigenvalue
from wernerlab.states import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bell_state,
    pure_to_density,
    werner_phi_minus,
)
from wernerlab.tomography import (
    LinearInversion,
    MaximumLikelihood,
    bootstrap_errors,
    linear_reconstruct,
    mle_reconstruct,
    single_qubit_reconstruct,
)

from conftest import random_density, random_hermitian, take

SCHEDULE = tomographic_settings()


def exact_records(rho, rate=1e6, duration=1.0, accidentals=0.0):
    cfg = SourceConfig(pair_rate=rate, accidental_rate=accidentals, duration=duration, seed=0)
    return simulate_counts(rho, SCHEDULE, cfg, exact=True)


# ------------------------------------------------------------ linear path

def test_linear_inversion_roundtrip_random_states(rng):
    for _ in range(5):
        rho = random_density(rng)
        est = LinearInversion().fit(exact_records(rho))
        np.testing.assert_allclose(est.matrix_, rho, atol=2e-6)
        assert est.matrix_.trace().real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(est.matrix_, est.matrix_.conj().T, atol=1e-12)


def test_linear_inversion_werner_spectrum():
    rho = werner_phi_minus(0.801)
    rec = linear_reconstruct(exact_records(rho))
    np.testing.assert_allclose(rec.matrix, rho, atol=2e-6)
    assert rec.min_eigenvalue == pytest.approx((1 - 0.801) / 4, abs=1e-5)


def test_linear_inversion_predict_gives_probabilities():
    rho = werner_phi_minus(0.5)
    est = LinearInversion().fit(exact_records(rho))
    probs = [_born_probabilities(est.matrix_, [s])[0] for s in SCHEDULE]
    expected = [_born_probabilities(rho, [s])[0] for s in SCHEDULE]
    np.testing.assert_allclose(probs, expected, atol=1e-5)


def test_linear_inversion_wrong_record_count():
    rho = werner_phi_minus(0.5)
    recs = exact_records(rho)
    with pytest.raises(SingularSystemError):
        LinearInversion().fit(take(recs, slice(15)))
    with pytest.raises(SingularSystemError):
        LinearInversion().fit(CountRun((), np.zeros(0, dtype=np.int64), 1.0))


def test_linear_inversion_missing_normalization_block():
    # replace the HH/HV/VV/VH block with repeated diagonal settings
    recs = exact_records(werner_phi_minus(0.5))
    broken = dataclasses.replace(recs, settings=[AnalyzerSetting("D", "D")] * 16)
    with pytest.raises((UnknownLabelError, SingularSystemError)):
        LinearInversion().fit(broken)


def test_estimators_refuse_one_photon_records():
    # the normalization block and twelve one-photon settings: 16 settings with
    # a valid flux, which only the two-photon check refuses
    block = take(exact_records(werner_phi_minus(0.5)), slice(4))
    singles = [AnalyzerSetting(label) for label in ("H", "V", "D", "A", "R", "L") * 2]
    recs = CountRun(block.settings + tuple(singles),
                    np.concatenate([block.counts, np.full(12, 1000)]), 1.0)
    assert len(recs) == 16
    with pytest.raises(UnknownLabelError):
        linear_reconstruct(recs)
    with pytest.raises(UnknownLabelError):
        mle_reconstruct(recs)
    with pytest.raises(UnknownLabelError):
        bootstrap_errors(recs, werner_phi_minus(0.5), n_replicas=3)


@pytest.mark.parametrize("estimate", [
    linear_reconstruct,
    mle_reconstruct,
    lambda run: mle_reconstruct(run, seed_matrix=np.eye(4) / 4.0),
    lambda run: bootstrap_errors(run, werner_phi_minus(0.5), n_replicas=3),
], ids=["linear", "mle", "mle-seeded", "bootstrap"])
def test_two_photon_estimators_refuse_a_one_photon_run(estimate):
    # the one-photon run the linear inversion takes, with no counts: a count
    # read before the refusal would raise EmptyDataError instead
    run = CountRun([AnalyzerSetting(label) for label in "HVDR"], np.zeros(4, dtype=np.int64), 1.0)
    with pytest.raises(UnknownLabelError, match="^two-photon tomography takes two analyzer arms"):
        estimate(run)


def no_draw(*args):
    raise AssertionError("poisson_sample called")


@pytest.mark.parametrize("point, target, error", [
    (werner_phi_minus(0.5), "bogus", UnknownLabelError),
    (np.eye(2) / 2.0, "phi-minus", NonHermitianError),
    (np.stack([werner_phi_minus(0.5)] * 2), "phi-minus", NonHermitianError),
    (np.triu(werner_phi_minus(0.5) + 0.1), "phi-minus", NonHermitianError),
    (np.full((4, 4), np.nan), "phi-minus", NonHermitianError),
], ids=["target", "2x2", "stack", "not-hermitian", "nan"])
def test_bootstrap_refuses_its_target_and_point_before_it_draws(monkeypatch, point, target,
                                                                error):
    recs = exact_records(werner_phi_minus(0.5))
    monkeypatch.setattr(polarimetry, "poisson_sample", no_draw)
    with pytest.raises(error):
        bootstrap_errors(recs, point, n_replicas=3, target=target)


def test_linear_inversion_duplicate_settings_singular():
    recs = exact_records(werner_phi_minus(0.5))
    dup = take(recs, [0, 1, 2, 3] + [4] * 12)
    with pytest.raises(SingularSystemError):
        LinearInversion().fit(dup)


def test_linear_inversion_negative_eigenvalue_on_noisy_pure_state():
    rho = pure_to_density(bell_state("phi-minus"))
    recs = simulate_counts(rho, SCHEDULE, SourceConfig(seed=0))
    rec = linear_reconstruct(recs)
    assert rec.min_eigenvalue < 0


def test_linear_inversion_subtracts_accidentals():
    rho = werner_phi_minus(1.0)
    recs = exact_records(rho, accidentals=1e4)
    assert recs.accidentals == 1e4
    est = LinearInversion().fit(recs)
    np.testing.assert_allclose(est.matrix_, rho, atol=2e-6)
    assert est.n_total_ == pytest.approx(1e6, abs=2.0)
    # the same counts read as pure pair counts come back as a mixed state
    bare = dataclasses.replace(recs, accidental_rate=0.0)
    assert fidelity(LinearInversion().fit(bare).matrix_, rho) < 0.99


def test_normalization_block_below_accidentals_is_empty():
    recs = exact_records(werner_phi_minus(0.5))
    recs = dataclasses.replace(recs, accidental_rate=1e7)
    with pytest.raises(EmptyDataError):
        LinearInversion().fit(recs)


@pytest.mark.parametrize("index, count", [(0, float("nan")), (5, float("nan")), (5, float("inf"))])
def test_a_non_finite_count_is_refused(index, count):
    # a run holds int64 counts only, and the counts document holds integers
    # only, so no estimator is handed a non-finite count
    run = exact_records(werner_phi_minus(0.5))
    counts = run.counts.astype(float)
    counts[index] = count
    with pytest.raises(TypeError, match="counts must be integers"):
        CountRun(run.settings, counts, run.duration, run.accidental_rate)
    doc = polarimetry.records_to_json(run)
    doc["records"][index]["count"] = count
    with pytest.raises(ValueError, match="count must be a non-negative integer"):
        polarimetry.records_from_json(json.loads(json.dumps(doc)))


def huge_count_run(count, block=None):
    """The seed-0 x = 0.8 run with setting 6's count replaced; when ``block``
    is given, without accidentals and with every other count set to
    ``block`` on the normalization block and 1000 elsewhere."""
    run = simulate_counts(werner_phi_minus(0.8), SCHEDULE, SourceConfig())
    counts, rate = run.counts.copy(), run.accidental_rate
    if block is not None:
        counts[:], counts[:4], rate = 1000, block, 0.0
    counts[5] = count
    return polarimetry.CountRun(run.settings, counts, run.duration, rate)


@pytest.mark.parametrize("count", [10**10, 10**11, 10**17, 2**62])
def test_a_huge_count_is_searched_to_a_state(count):
    # a search trial's eigenvalue above 2**53 hides the 1 of the simplex shift
    # at k = 1, which left no shift at all; such a trial now projects to NaNs
    # and is backtracked
    result = mle_reconstruct(huge_count_run(count))
    assert result.path == "search"
    assert np.isfinite(result.rho).all()
    assert result.rho.trace().real == pytest.approx(1.0, abs=1e-12)
    assert min_eigenvalue(result.rho) >= -1e-12
    assert np.isfinite(result.cost)


@pytest.mark.parametrize("index", [0, 5])
def test_the_inversion_at_the_int64_extreme_is_finite_with_its_lowest_eigenvalue(index):
    # one count of 2**63 - 1, on the normalization block or off it: the
    # inversion's matrix is finite, and its lowest eigenvalue, read without a
    # second Hermiticity check, is min_eigenvalue's bit for bit, alone and as
    # a row of a stack
    run = huge_count_run(0)
    counts = run.counts.copy()
    counts[index] = 2**63 - 1
    run = dataclasses.replace(run, counts=counts)
    rho, lowest = tomography._invert(run, tomography._normalization(run))
    assert np.isfinite(rho).all()
    assert type(lowest) is float and lowest.hex() == min_eigenvalue(rho).hex()
    rows = dataclasses.replace(run, counts=np.stack([counts, huge_count_run(7).counts]))
    stacked, lowest_rows = tomography._invert(rows, tomography._normalization(rows)[:, None])
    assert np.isfinite(stacked).all()
    assert lowest_rows.tobytes() == min_eigenvalue(stacked).tobytes()
    assert lowest_rows[0].hex() == lowest.hex()


def test_a_search_start_that_projects_to_no_state_is_refused():
    # a flux of 4 pairs puts the inversion's eigenvalues near 1e18, far above
    # 2**53, so the projection of the search's start keeps no weight
    run = huge_count_run(2**62, block=1)
    assert linear_reconstruct(run).min_eigenvalue < -2.0**53
    with pytest.raises(UnphysicalStateError, match="too far outside the states"):
        mle_reconstruct(run)


@pytest.mark.parametrize("shape", [(1, 4, 4), (2, 2, 4), (16,), (3, 3)])
def test_a_seed_matrix_that_is_not_4x4_is_refused(shape):
    # 15 settings cannot be inverted, so the seed sets where the search starts
    recs = take(exact_records(werner_phi_minus(0.5)), slice(15))
    seed = np.resize(werner_phi_minus(0.5), shape)
    with pytest.raises(NonHermitianError, match=re.escape(f"must be 4x4, got shape {shape}")):
        mle_reconstruct(recs, seed_matrix=seed)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)])
def test_a_non_finite_seed_matrix_is_refused_and_named(entry):
    # the eigensolver takes finite input only: refused before any projection
    recs = take(exact_records(werner_phi_minus(0.5)), slice(15))
    seed = werner_phi_minus(0.5).astype(complex)
    seed[1, 2] = entry
    with pytest.raises(NonHermitianError, match="seed matrix has a non-finite entry"):
        mle_reconstruct(recs, seed_matrix=seed)


# --------------------------------------------------------------- MLE path

def test_mle_exact_data_recovers_state():
    for x in (0.0, 0.405, 0.801):
        rho = werner_phi_minus(x)
        result = mle_reconstruct(exact_records(rho))
        assert result.converged
        assert fidelity(result.rho, rho) > 1 - 1e-9
        np.testing.assert_allclose(result.rho, rho, atol=1e-5)
        assert result.cost < 1e-9


def test_mle_repairs_unphysical_linear_estimate():
    rho = pure_to_density(bell_state("phi-minus"))
    recs = simulate_counts(rho, SCHEDULE, SourceConfig(seed=0))
    assert linear_reconstruct(recs).min_eigenvalue < 0
    result = mle_reconstruct(recs)
    assert min_eigenvalue(result.rho) >= -1e-9
    assert result.rho.trace().real == pytest.approx(1.0, abs=1e-10)
    assert result.cost > 0
    assert fidelity(result.rho, rho) > 0.98


def test_mle_estimator_attributes_and_history():
    recs = simulate_counts(
        pure_to_density(bell_state("phi-minus")), SCHEDULE, SourceConfig(seed=0)
    )
    est = MaximumLikelihood().fit(recs)
    assert est.converged_
    assert est.iterations_ > 0
    assert est.n_evaluations_ > est.iterations_
    hist = np.asarray(est.cost_history_)
    assert np.all(np.diff(hist) <= 1e-12)  # best-so-far cost never rises
    assert hist[-1] == pytest.approx(est.cost_, abs=1e-15)
    probs = (polarimetry._projector_stack(SCHEDULE) @ est.rho_.ravel()).real
    assert np.all(probs >= -1e-12)
    assert probs.shape == (16,)


def test_mle_count_scaling_invariance():
    """Scaling every count (and the duration) leaves the estimate unchanged.

    The run keeps its accidental rate, so the expected accidentals
    scale with the counts.
    """
    rho = werner_phi_minus(0.801)
    recs = simulate_counts(rho, SCHEDULE, SourceConfig(seed=5))
    scaled = dataclasses.replace(recs, duration=10 * recs.duration, counts=10 * recs.counts)
    a = mle_reconstruct(recs)
    b = mle_reconstruct(scaled)
    np.testing.assert_allclose(a.rho, b.rho, atol=1e-6)


def test_mle_models_accidentals():
    rho = werner_phi_minus(1.0)
    recs = exact_records(rho, accidentals=1e4)
    result = mle_reconstruct(recs)
    assert fidelity(result.rho, rho) > 1 - 1e-5
    np.testing.assert_allclose(result.rho, rho, atol=1e-4)


def test_mle_seed_matrix_accepted():
    rho = werner_phi_minus(0.801)
    recs = simulate_counts(rho, SCHEDULE, SourceConfig(seed=1))
    seeded = mle_reconstruct(recs, seed_matrix=rho)
    unseeded = mle_reconstruct(recs)
    # different starting points land on physically equivalent optima
    assert seeded.converged
    assert min_eigenvalue(seeded.rho) >= -1e-9
    assert fidelity(seeded.rho, unseeded.rho) > 0.999


def test_mle_deterministic():
    recs = simulate_counts(
        pure_to_density(bell_state("phi-minus")), SCHEDULE, SourceConfig(seed=0)
    )
    a = mle_reconstruct(recs)
    b = mle_reconstruct(recs)
    assert np.array_equal(a.rho, b.rho)
    assert a.cost == b.cost


# Round-off floor of the objective at a state that reproduces every count:
# a sum of terms quadratic in the ~1e-12 residuals.
ZERO_COST = 1e-20


def test_mle_returns_physical_linear_inversion():
    rho = werner_phi_minus(0.801)
    for recs in (exact_records(rho), simulate_counts(rho, SCHEDULE, SourceConfig(seed=3))):
        linear = linear_reconstruct(recs)
        assert linear.min_eigenvalue >= 0.0
        for seed_matrix in (None, rho):
            est = MaximumLikelihood().fit(recs, seed_matrix=seed_matrix)
            assert np.array_equal(est.rho_, linear.matrix)
            assert est.path_ == "linear"
            assert est.iterations_ == 0
            assert est.n_evaluations_ == 1
            assert est.converged_
            assert est.cost_history_ == []
            assert 0.0 <= est.cost_ < ZERO_COST
            result = mle_reconstruct(recs, seed_matrix=seed_matrix)
            assert np.array_equal(result.rho, linear.matrix)
            assert (result.path, result.n_evaluations) == ("linear", 1)


def test_mle_searches_when_linear_inversion_unphysical():
    recs = simulate_counts(
        pure_to_density(bell_state("phi-minus")), SCHEDULE, SourceConfig(seed=0)
    )
    est = MaximumLikelihood().fit(recs)
    assert est.path_ == "search"
    result = mle_reconstruct(recs)
    assert result.path == "search"
    assert result.n_evaluations == est.n_evaluations_ > est.iterations_ > 0


@pytest.mark.parametrize("max_evals", [50, 2000])
def test_mle_max_evals_is_a_hard_cap(max_evals, monkeypatch):
    recs = simulate_counts(
        pure_to_density(bell_state("phi-minus")), SCHEDULE, SourceConfig(seed=0)
    )
    monkeypatch.setattr(tomography, "_MAX_EVALS", max_evals)
    est = MaximumLikelihood().fit(recs)
    assert est.path_ == "search"
    assert est.n_evaluations_ <= max_evals
    # 50 evaluations stop the search early; 2000 let it converge
    assert est.converged_ == (est.n_evaluations_ < max_evals) == (max_evals == 2000)


def test_mle_collapsed_step_is_not_convergence(monkeypatch):
    # An uphill gradient fails the quadratic bound at every step until
    # backtracking has cut the step to nothing; the cost then stops falling
    # at a state that is not stationary.
    cost_function = MaximumLikelihood._cost_function

    def uphill(self, *args):
        cost, gradient = cost_function(self, *args)
        return cost, lambda mu: -gradient(mu)

    monkeypatch.setattr(MaximumLikelihood, "_cost_function", uphill)
    recs = simulate_counts(
        pure_to_density(bell_state("phi-minus")), SCHEDULE, SourceConfig(seed=0)
    )
    monkeypatch.setattr(tomography, "_MAX_EVALS", 500)
    est = MaximumLikelihood().fit(recs)
    assert est.path_ == "search"
    assert est.n_evaluations_ <= 500
    assert not est.converged_


# Nelder-Mead's cost on unphysical count sets (300 pairs/s, 1/s accidentals,
# 100 s per setting), seeded with the linear inversion or with the source
# state, before the search became a projected gradient.  The pure x = 1.0
# source puts four settings at probability 0, where the cost still rises
# with the probability.
NELDER_MEAD_COST = {
    ("x=1.0", 0, "linear"): 7.657421879064969,
    ("x=1.0", 9, "linear"): 4.609818673082942,
    ("rho1", 0, "linear"): 3.5518433646327043,
    ("rho1", 19, "linear"): 1.7420036803284167,
    ("x=1.0", 0, "source"): 7.657386560735803,
}


@pytest.mark.parametrize("source, seed, start", list(NELDER_MEAD_COST))
def test_mle_search_reaches_nelder_mead_optimum(source, seed, start):
    rho = werner_phi_minus(1.0) if source == "x=1.0" else fixtures.load("rho1")
    recs = simulate_counts(
        rho, SCHEDULE,
        SourceConfig(pair_rate=300.0, accidental_rate=1.0, duration=100.0, seed=seed),
    )
    seed_matrix = linear_reconstruct(recs).matrix if start == "linear" else rho
    est = MaximumLikelihood().fit(recs, seed_matrix=seed_matrix)
    assert est.path_ == "search"
    assert est.converged_
    assert est.cost_ <= NELDER_MEAD_COST[source, seed, start] * (1 + 1e-6)
    # an exact zero eigenvalue reads as +-1e-16 through eigh
    assert min_eigenvalue(est.rho_) >= -1e-15
    assert abs(est.rho_.trace() - 1.0) <= 1e-12


def test_mle_searches_records_the_linear_inversion_refuses():
    rho = werner_phi_minus(0.801)
    labels = "HVDARL"
    every_pair = [AnalyzerSetting(a, b) for a in labels for b in labels]
    seeded = simulate_counts(rho, SCHEDULE, SourceConfig(seed=4))
    all_36 = simulate_counts(rho, every_pair, SourceConfig(seed=4))
    duplicated = take(seeded, [0, 1, 2, 3] + [4] * 12)
    for recs in (take(seeded, slice(12)), all_36, duplicated):
        with pytest.raises(SingularSystemError):
            mle_reconstruct(recs)
        est = MaximumLikelihood().fit(recs, seed_matrix=rho)
        assert est.path_ == "search"
        assert est.converged_
        assert est.n_evaluations_ > est.iterations_ > 0
        assert min_eigenvalue(est.rho_) >= -1e-9


def reference_projection(m):
    """Smolin, Gambetta & Smith's projection onto the density matrices, with
    the eigenvalues sorted in descending order and the shift read from their
    cumulative sum."""
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    descending = np.sort(w)[::-1]
    css = np.cumsum(descending) - 1.0
    k = np.arange(1, w.size + 1)
    r = np.flatnonzero(descending > css / k)[-1]
    w = np.maximum(w - css[r] / k[r], 0.0)
    rho = (v * w) @ v.conj().T
    return rho / rho.trace().real


def random_unitary(rng):
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q


def test_project_to_states_matches_the_sorted_cumsum_projection(rng):
    physical = [random_density(rng) for _ in range(5)]
    physical += [random_density(rng, rank=r) for r in (1, 2, 3) for _ in range(3)]
    physical += [werner_phi_minus(0.3), werner_phi_minus(1.0), np.eye(4) / 4.0]
    tied = [
        u @ np.diag(w) @ u.conj().T
        for w in ([0.5, 0.5, -0.2, -0.2], [0.4, 0.4, 0.4, -0.3], [0.9, 0.2, 0.2, 0.2])
        for u in (random_unitary(rng), random_unitary(rng))
    ]
    tied.append(werner_phi_minus(0.5) - 0.1 * np.eye(4))
    hermitian = [random_hermitian(rng) for _ in range(20)]
    offset = [random_hermitian(rng) + c * np.eye(4) for c in (-50.0, 50.0, 1e3)]
    offset.append(random_density(rng) - 1e3 * np.eye(4))
    # what the search projects: a state less a step times a gradient, whose
    # product is not Hermitian to round-off and reaches 1e9 at the default
    # count level (a gradient norm near 2**13)
    non_hermitian = [
        random_density(rng) + 1j * size * random_hermitian(rng)
        for size in (1e-16, 1e-12, 1e-8, 1e-5, 1e-3)
    ]
    scaled = [scale * random_hermitian(rng) for scale in (1e3, 1e5, 1e7, 1e9) for _ in range(3)]
    for m in physical + tied + hermitian + offset + non_hermitian + scaled:
        rho = tomography._project_to_states(m)
        assert np.array_equal(rho, reference_projection(m))
        assert min_eigenvalue(rho) >= -1e-15
        assert abs(rho.trace() - 1.0) <= 1e-12
    for m in physical:
        np.testing.assert_allclose(tomography._project_to_states(m), m, atol=1e-12)


def test_mle_cost_and_gradient_match_a_per_setting_sum():
    # The cost is sum((mu - n)**2 / (2 mu)) and its gradient sum(N g_i P_i),
    # summed here setting by setting from each setting's own projector; the
    # second state is orthogonal to the HH projector alone, so that one
    # probability sits at the floor.
    recs = simulate_counts(werner_phi_minus(1.0), SCHEDULE, SourceConfig(seed=3))
    searched = MaximumLikelihood().fit(recs)
    assert searched.path_ == "search"
    hh = SCHEDULE[0].projector()
    at_floor = (np.eye(4) - hh) / 3.0
    n_total = tomography._normalization(recs)
    proj = polarimetry._schedule_stack(recs.settings)
    cost, gradient = MaximumLikelihood()._cost_function(recs, proj, n_total)
    for rho, n_floored in ((searched.rho_, None), (at_floor, 1)):
        f_ref, grad_ref, floored = 0.0, np.zeros((4, 4), dtype=complex), 0
        for setting, count in zip(recs.settings, recs.counts.tolist()):
            projector = setting.projector()
            p = np.trace(projector @ rho).real
            floored += p < tomography._PROB_FLOOR
            mu = n_total * max(p, tomography._PROB_FLOOR) + recs.accidentals
            f_ref += (mu - count) ** 2 / (2.0 * mu)
            grad_ref += n_total * (mu * mu - count * count) / (2.0 * mu * mu) * projector
        if n_floored is not None:
            assert floored == n_floored
        f, mu = cost(rho)
        grad = gradient(mu)
        assert f == pytest.approx(f_ref, rel=1e-12, abs=0.0)
        assert np.linalg.norm(grad - grad_ref) <= 1e-12 * np.linalg.norm(grad_ref)


# ------------------------------------------------ schedule memo

def clear_schedule_memo():
    polarimetry._schedule_stack.cache_clear()
    tomography._reconstruction.cache_clear()
    tomography._block.cache_clear()


@pytest.mark.parametrize("settings",
                         [SCHEDULE, analysis.chsh_schedule(analysis.DEFAULT_ANGLES),
                          [AnalyzerSetting(label) for label in "HVDR"]],
                         ids=["tomographic", "angles", "one-photon"])
def test_memoized_stack_is_the_projector_stack_bit_for_bit(settings):
    clear_schedule_memo()
    key = tuple(settings)
    expected = polarimetry._projector_stack(list(settings)).tobytes()
    for _ in range(2):  # built, then read from the memo
        stack = polarimetry._schedule_stack(key)
        assert stack.tobytes() == expected
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0] = 0.0
    assert polarimetry._schedule_stack.cache_info().hits == 1


def test_memoized_stack_and_design_are_read_only():
    key = tuple(SCHEDULE)
    stack = polarimetry._schedule_stack(key)
    reconstruction = tomography._reconstruction(key)
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        reconstruction[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        reconstruction *= 2.0
    assert tomography._reconstruction(key).tobytes() == reconstruction.tobytes()


def fit_bits(recs):
    lin = linear_reconstruct(recs)
    mle = mle_reconstruct(recs)
    values, errors = bootstrap_errors(recs, mle.rho, n_replicas=4, seed=1)
    return (lin.matrix.tobytes(), lin.min_eigenvalue, mle.rho.tobytes(), mle.cost,
            mle.n_evaluations, mle.converged, mle.path, values, errors)


def test_a_second_fit_returns_the_first_fits_bits():
    # x = 1.0 searches, rho1 at seed 0 searches too, x = 0.801 stays linear
    paths = []
    for rho in (werner_phi_minus(1.0), fixtures.load("rho1"), werner_phi_minus(0.801)):
        recs = simulate_counts(rho, SCHEDULE, SourceConfig(seed=0))
        clear_schedule_memo()
        first = fit_bits(recs)
        assert fit_bits(recs) == first
        paths.append(first[6])
    assert paths == ["search", "search", "linear"]


def test_an_incomplete_schedule_raises_on_every_call():
    rho = werner_phi_minus(0.801)
    seeded = simulate_counts(rho, SCHEDULE, SourceConfig(seed=4))
    duplicated = take(seeded, [0, 1, 2, 3] + [4] * 12)
    for _ in range(2):  # a refusal is not memoized
        with pytest.raises(SingularSystemError):
            linear_reconstruct(duplicated)
        with pytest.raises(SingularSystemError):
            mle_reconstruct(duplicated)
        with pytest.raises(SingularSystemError):
            bootstrap_errors(duplicated, rho, n_replicas=3)
        est = MaximumLikelihood().fit(duplicated, seed_matrix=rho)
        assert est.path_ == "search"
        assert est.converged_


def test_records_with_array_angle_arms_fit_as_float_arms():
    # the D arms of the schedule measured as a 45-degree polarizer, written
    # as floats and as 0-d arrays
    def schedule(deg):
        return [AnalyzerSetting(deg if s.arm1 == "D" else s.arm1,
                                deg if s.arm2 == "D" else s.arm2) for s in SCHEDULE]

    recs = simulate_counts(werner_phi_minus(1.0), schedule(45.0), SourceConfig(seed=5))
    arrays = dataclasses.replace(recs, settings=schedule(np.array(45.0)))
    assert arrays.settings == recs.settings
    assert linear_reconstruct(arrays).matrix.tobytes() == linear_reconstruct(recs).matrix.tobytes()
    assert mle_reconstruct(arrays).rho.tobytes() == mle_reconstruct(recs).rho.tobytes()


# ------------------------------------------------------------ single qubit

def _single_records(counts, duration=1.0):
    return CountRun([AnalyzerSetting(label) for label in counts],
                    np.array(list(counts.values())), duration)


def test_single_qubit_reconstruct_example():
    rho = single_qubit_reconstruct(
        _single_records({"H": 500, "V": 500, "D": 750, "R": 500})
    )
    np.testing.assert_allclose(rho, [[0.5, 0.25], [0.25, 0.5]], atol=1e-12)


def test_single_qubit_reconstruct_circular():
    # pure |R>: P(H) = P(V) = P(D) = 1/2, P(R) = 1
    rho = single_qubit_reconstruct(
        _single_records({"H": 500, "V": 500, "D": 500, "R": 1000})
    )
    np.testing.assert_allclose(rho, [[0.5, 0.5j], [-0.5j, 0.5]], atol=1e-12)


def test_single_qubit_reconstruct_rescales_slight_excess():
    # sampling noise can push the Bloch vector slightly outside the sphere
    rho = single_qubit_reconstruct(
        _single_records({"H": 1010, "V": 990, "D": 2000, "R": 1000})
    )
    w = np.linalg.eigvalsh(rho)
    assert w.min() >= -1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def bloch_state(s):
    return 0.5 * (np.eye(2) + s[0] * SIGMA_X + s[1] * SIGMA_Y + s[2] * SIGMA_Z)


def stokes_reference(run):
    """The H/V/D/R Stokes formula of the single-photon reconstruction before
    it shared the two-photon linear inversion: the Bloch vector from the
    count ratios over the H + V flux, each count less its expected
    accidentals, rescaled onto the unit ball when it lies outside."""
    by_label = dict(zip((s.arm1 for s in run.settings), (run.counts - run.accidentals).tolist()))
    n = by_label["H"] + by_label["V"]
    s = np.array([2.0 * by_label["D"] / n - 1.0, 1.0 - 2.0 * by_label["R"] / n,
                  (by_label["H"] - by_label["V"]) / n])
    norm = float(np.linalg.norm(s))
    if norm > 1.0:
        s /= norm
    return bloch_state(s)


@pytest.mark.parametrize("duration", [100.0, 1.0])
def test_single_qubit_reconstruct_is_the_stokes_formula(duration):
    # the decoherence run over OPD 0 to 250 l0, Bloch vectors inside the ball
    # and outside it (projected, as the formula rescales them)
    element = decoherence.BirefringentElement
    spectrum = decoherence.DEFAULT_SPECTRUM
    outside = 0
    for ratio in range(0, 251, 10):
        for seed in range(50_000, 50_040):
            run = decoherence.simulate_single_photon_experiment(
                spectrum, element(ratio * spectrum.center_nm),
                SourceConfig(pair_rate=300.0, accidental_rate=1.0, duration=duration, seed=seed),
            )
            want = stokes_reference(run.records)
            np.testing.assert_allclose(run.rho, want, rtol=0.0, atol=1e-15)
            outside += bool(min_eigenvalue(want) < 1e-12)
    assert outside > 0


def test_single_qubit_reconstruct_takes_any_complete_schedule():
    # exact counts of a state with Bloch vector (0.2, -0.4, 0.6): H/V/A/L
    # gives the H/V/D/R state
    rho = bloch_state([0.2, -0.4, 0.6])
    cfg = SourceConfig(pair_rate=1000.0, accidental_rate=0.0, duration=1.0)
    runs = [simulate_counts(rho, [AnalyzerSetting(label) for label in labels], cfg, exact=True)
            for labels in ("HVDR", "HVAL")]
    assert runs[1].counts.tolist() == [800, 200, 400, 300]
    hvdr, hval = (single_qubit_reconstruct(run) for run in runs)
    np.testing.assert_allclose(hvdr, rho, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(hval, hvdr, rtol=0.0, atol=1e-15)


def test_single_qubit_reconstruct_error_paths():
    # a Bloch vector (1, 0, 0.5) 12 % outside the ball gives the pure state along it
    rho = single_qubit_reconstruct(
        _single_records({"H": 1500, "V": 500, "D": 2000, "R": 1000})
    )
    np.testing.assert_allclose(rho, bloch_state(np.array([1.0, 0.0, 0.5]) / np.sqrt(1.25)),
                               rtol=0.0, atol=1e-15)
    with pytest.raises(SingularSystemError):
        single_qubit_reconstruct(_single_records({"H": 1, "V": 1, "D": 1}))
    with pytest.raises(UnknownLabelError, match="^records do not contain the H/V normalization"):
        single_qubit_reconstruct(_single_records({"H": 1, "D": 1, "A": 1, "R": 1}))
    # a D count 2**61 times the flux: the projection is lost to round-off
    with pytest.raises(UnphysicalStateError, match="^the linear inversion lies too far outside"):
        single_qubit_reconstruct(_single_records({"H": 1, "V": 1, "D": 2**62, "R": 1}))
    bad = CountRun([AnalyzerSetting(label) for label in "HVD"] + [AnalyzerSetting("R", "H")],
                   np.ones(4, dtype=np.int64), 1.0)
    with pytest.raises(UnknownLabelError):
        single_qubit_reconstruct(bad)
    with pytest.raises(EmptyDataError):
        single_qubit_reconstruct(
            _single_records({"H": 0, "V": 0, "D": 0, "R": 0})
        )


# ---------------------------------------------------------------- bootstrap

def keep_counts(monkeypatch):
    """Make every bootstrap redraw return its mean, the observed count."""
    monkeypatch.setattr(
        polarimetry, "poisson_sample", lambda rng, mean: np.asarray(mean, dtype=int)
    )


def test_bootstrap_identity_resampler_gives_zero_spread(monkeypatch):
    recs = simulate_counts(
        werner_phi_minus(0.801), SCHEDULE, SourceConfig(seed=0)
    )
    keep_counts(monkeypatch)
    _, errs = bootstrap_errors(recs, werner_phi_minus(0.801), n_replicas=3)
    for key in ("x", "fidelity", "linear_entropy", "tangle", "chsh_s"):
        assert errs[key] == pytest.approx(0.0, abs=1e-12)


def test_bootstrap_replicas_keep_accidental_rate(monkeypatch):
    # Replicas are reconstructed on the stack, so the property is checked on
    # the reconstructed states: with the counts kept, every replica must be
    # the maximum-likelihood state of the original run, accidental rate
    # included, and not that of the same counts without accidentals.
    recs = simulate_counts(werner_phi_minus(0.801), SCHEDULE, SourceConfig(seed=0))
    replicas = []
    real = tomography.analysis.linear_entropy

    def spy(rho):
        replicas.append(rho[1:])  # the point comes first on the stack
        return real(rho)

    monkeypatch.setattr(tomography.analysis, "linear_entropy", spy)
    keep_counts(monkeypatch)
    bootstrap_errors(recs, werner_phi_minus(0.801), n_replicas=2)
    expected = mle_reconstruct(recs).rho
    no_accidentals = dataclasses.replace(recs, accidental_rate=0.0)
    assert not np.allclose(mle_reconstruct(no_accidentals).rho, expected, atol=1e-6)
    (stack,) = replicas
    assert len(stack) == 2
    for rho in stack:
        assert np.array_equal(rho, expected)


def test_bootstrap_errors_reasonable_scale():
    recs = simulate_counts(
        werner_phi_minus(0.801), SCHEDULE, SourceConfig(seed=0)
    )
    _, errs = bootstrap_errors(recs, werner_phi_minus(0.801), n_replicas=12, seed=1)
    assert 0.001 < errs["x"] < 0.05
    assert 0.001 < errs["fidelity"] < 0.05
    assert errs["tangle"] > 0
    # deterministic for a fixed seed
    _, again = bootstrap_errors(recs, werner_phi_minus(0.801), n_replicas=12, seed=1)
    assert errs == again
    assert bootstrap_errors(recs, werner_phi_minus(0.801), n_replicas=12, seed=2)[1] != errs


def test_bootstrap_counts_nonconverged_replicas(monkeypatch):
    recs = simulate_counts(
        pure_to_density(bell_state("phi-minus")), SCHEDULE, SourceConfig(seed=0)
    )
    keep_counts(monkeypatch)
    point = pure_to_density(bell_state("phi-minus"))
    assert bootstrap_errors(recs, point, n_replicas=2)[1]["nonconverged"] == 0
    monkeypatch.setattr(tomography, "_MAX_EVALS", 50)
    _, capped = bootstrap_errors(recs, point, n_replicas=3)
    assert type(capped["nonconverged"]) is int
    assert capped["nonconverged"] == 3


def test_bootstrap_needs_replicas(monkeypatch):
    recs = simulate_counts(
        werner_phi_minus(0.801), SCHEDULE, SourceConfig(seed=0)
    )
    with pytest.raises(OutOfRangeError):
        bootstrap_errors(recs, werner_phi_minus(0.801), n_replicas=1)
    # a count too large to draw is refused before any count is drawn
    monkeypatch.setattr(polarimetry, "poisson_sample", lambda *a: pytest.fail("drew counts"))
    with pytest.raises(OutOfRangeError):
        bootstrap_errors(recs, werner_phi_minus(0.801), n_replicas=tomography._MAX_REPLICAS + 1)


def test_bootstrap_names_the_replica_without_flux(monkeypatch):
    recs = simulate_counts(werner_phi_minus(0.801), SCHEDULE, SourceConfig(seed=0))

    def second_replica_empty(rng, mean):
        counts = np.array(mean, dtype=int)
        counts[1, :4] = 0
        return counts

    monkeypatch.setattr(polarimetry, "poisson_sample", second_replica_empty)
    with pytest.raises(EmptyDataError, match=(
        r"^bootstrap at seed 7: replica 2 of 3: normalization block counts sum to 0, "
        r"which does not exceed their expected accidentals 400$"
    )):
        bootstrap_errors(recs, werner_phi_minus(0.801), n_replicas=3, seed=7)
    # an observed block without flux is reported as the data's, not a replica's
    empty = dataclasses.replace(recs, counts=np.where(np.arange(16) < 4, 0, recs.counts))
    with pytest.raises(EmptyDataError, match="^normalization block counts sum to 0,"):
        bootstrap_errors(empty, werner_phi_minus(0.801), n_replicas=3, seed=7)


@pytest.mark.parametrize("n_replicas", [3.0, True, "3", None])
def test_bootstrap_refuses_a_replica_count_that_is_not_an_integer(n_replicas):
    recs = simulate_counts(
        werner_phi_minus(0.801), SCHEDULE, SourceConfig(seed=0)
    )
    with pytest.raises(OutOfRangeError):
        bootstrap_errors(recs, werner_phi_minus(0.801), n_replicas=n_replicas)
