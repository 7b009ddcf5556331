import dataclasses

import numpy as np
import pytest

from wernerlab import fixtures, polarimetry, tomography
from wernerlab.analysis import fidelity
from wernerlab.errors import (
    EmptyDataError,
    OutOfRangeError,
    SingularSystemError,
    UnknownLabelError,
    UnphysicalStateError,
)
from wernerlab.polarimetry import (
    AnalyzerSetting,
    CoincidenceRecord,
    SourceConfig,
    born_probability,
    simulate_counts,
    tomographic_settings,
)
from wernerlab.qlinalg import min_eigenvalue
from wernerlab.states import bell_state, pure_to_density, werner_phi_minus
from wernerlab.tomography import (
    LinearInversion,
    MaximumLikelihood,
    bootstrap_errors,
    linear_reconstruct,
    mle_reconstruct,
    single_qubit_reconstruct,
)

from conftest import random_density

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
    probs = est.predict(SCHEDULE)
    expected = [born_probability(rho, s) for s in SCHEDULE]
    np.testing.assert_allclose(probs, expected, atol=1e-5)


def test_linear_inversion_wrong_record_count():
    rho = werner_phi_minus(0.5)
    recs = exact_records(rho)
    with pytest.raises(SingularSystemError):
        LinearInversion().fit(recs[:15])
    with pytest.raises(SingularSystemError):
        LinearInversion().fit([])


def test_linear_inversion_missing_normalization_block():
    # replace the HH/HV/VV/VH block with repeated diagonal settings
    recs = exact_records(werner_phi_minus(0.5))
    broken = [
        CoincidenceRecord(AnalyzerSetting("D", "D"), r.duration, r.count) for r in recs
    ]
    with pytest.raises((EmptyDataError, SingularSystemError)):
        LinearInversion().fit(broken)


def test_linear_inversion_duplicate_settings_singular():
    recs = exact_records(werner_phi_minus(0.5))
    dup = list(recs[:4]) + [recs[4]] * 12
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
    assert all(r.accidentals == 1e4 for r in recs)
    est = LinearInversion().fit(recs)
    np.testing.assert_allclose(est.matrix_, rho, atol=2e-6)
    assert est.n_total_ == pytest.approx(1e6, abs=2.0)
    # the same counts read as pure pair counts come back as a mixed state
    bare = [CoincidenceRecord(r.setting, r.duration, r.count) for r in recs]
    assert fidelity(LinearInversion().fit(bare).matrix_, rho) < 0.99


def test_normalization_block_below_accidentals_is_empty():
    recs = exact_records(werner_phi_minus(0.5))
    recs = [dataclasses.replace(r, accidental_rate=1e7) for r in recs]
    with pytest.raises(EmptyDataError):
        LinearInversion().fit(recs)


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
    probs = est.predict(SCHEDULE)
    assert np.all(probs >= -1e-12)
    assert probs.shape == (16,)


def test_mle_count_scaling_invariance():
    """Scaling every count (and the duration) leaves the estimate unchanged.

    The records keep their accidental rate, so the expected accidentals
    scale with the counts.
    """
    rho = werner_phi_minus(0.801)
    recs = simulate_counts(rho, SCHEDULE, SourceConfig(seed=5))
    scaled = [
        dataclasses.replace(r, duration=10 * r.duration, count=10 * r.count) for r in recs
    ]
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
def test_mle_max_evals_is_a_hard_cap(max_evals):
    recs = simulate_counts(
        pure_to_density(bell_state("phi-minus")), SCHEDULE, SourceConfig(seed=0)
    )
    est = MaximumLikelihood(max_evals=max_evals).fit(recs)
    assert est.path_ == "search"
    assert est.n_evaluations_ <= max_evals
    # 50 evaluations stop the search early; 2000 let it converge
    assert est.converged_ == (est.n_evaluations_ < max_evals) == (max_evals == 2000)


@pytest.mark.parametrize("max_evals", [0, -5])
def test_mle_rejects_a_budget_below_one_evaluation(max_evals):
    recs = simulate_counts(
        pure_to_density(bell_state("phi-minus")), SCHEDULE, SourceConfig(seed=0)
    )
    with pytest.raises(OutOfRangeError):
        MaximumLikelihood(max_evals=max_evals).fit(recs)
    with pytest.raises(OutOfRangeError):
        mle_reconstruct(recs, max_evals=max_evals)


def test_mle_collapsed_step_is_not_convergence(monkeypatch):
    # An uphill gradient fails the quadratic bound at every step until
    # backtracking has cut the step to nothing; the cost then stops falling
    # at a state that is not stationary.
    cost_function = MaximumLikelihood._cost_function

    def uphill(self, records, proj, n_total):
        cost = cost_function(self, records, proj, n_total)

        def flipped(rho):
            f, grad = cost(rho)
            return f, -grad

        return flipped

    monkeypatch.setattr(MaximumLikelihood, "_cost_function", uphill)
    recs = simulate_counts(
        pure_to_density(bell_state("phi-minus")), SCHEDULE, SourceConfig(seed=0)
    )
    est = MaximumLikelihood(max_evals=500).fit(recs)
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
    duplicated = list(seeded[:4]) + [seeded[4]] * 12
    for recs in (seeded[:12], all_36, duplicated):
        with pytest.raises(SingularSystemError):
            mle_reconstruct(recs)
        est = MaximumLikelihood().fit(recs, seed_matrix=rho)
        assert est.path_ == "search"
        assert est.converged_
        assert est.n_evaluations_ > est.iterations_ > 0
        assert min_eigenvalue(est.rho_) >= -1e-9


def test_predict_matches_trace_loop():
    recs = simulate_counts(
        pure_to_density(bell_state("phi-minus")), SCHEDULE, SourceConfig(seed=0)
    )
    linear = LinearInversion().fit(recs)
    search = MaximumLikelihood().fit(recs)
    for est, rho in ((linear, linear.matrix_), (search, search.rho_)):
        loop = [np.trace(rho @ s.projector()).real for s in SCHEDULE]
        np.testing.assert_allclose(est.predict(SCHEDULE), loop, rtol=0.0, atol=1e-15)


# ------------------------------------------------------------ single qubit

def _single_records(counts, duration=1.0):
    return [
        CoincidenceRecord(AnalyzerSetting(label), duration, c)
        for label, c in counts.items()
    ]


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


def test_single_qubit_reconstruct_error_paths():
    with pytest.raises(UnphysicalStateError):
        single_qubit_reconstruct(
            _single_records({"H": 1500, "V": 500, "D": 2000, "R": 1000})
        )
    with pytest.raises(UnknownLabelError):
        single_qubit_reconstruct(_single_records({"H": 1, "V": 1, "D": 1}))
    bad = _single_records({"H": 1, "V": 1, "D": 1})
    bad.append(CoincidenceRecord(AnalyzerSetting("R", "H"), 1.0, 1))
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
    errs = bootstrap_errors(recs, n_replicas=3)
    for key in ("x", "fidelity", "linear_entropy", "tangle", "chsh_s"):
        assert errs[key] == pytest.approx(0.0, abs=1e-12)


def test_bootstrap_replicas_keep_accidental_rate(monkeypatch):
    # Replicas are reconstructed on the stack, so the property is checked on
    # the reconstructed states: with the counts kept, every replica must be
    # the maximum-likelihood state of the original records, accidental rate
    # included, and not that of the same counts without accidentals.
    recs = simulate_counts(werner_phi_minus(0.801), SCHEDULE, SourceConfig(seed=0))
    replicas = []
    real = tomography.analysis.linear_entropy

    def spy(rho):
        replicas.append(rho)
        return real(rho)

    monkeypatch.setattr(tomography.analysis, "linear_entropy", spy)
    keep_counts(monkeypatch)
    bootstrap_errors(recs, n_replicas=2)
    expected = mle_reconstruct(recs).rho
    no_accidentals = [dataclasses.replace(r, accidental_rate=0.0) for r in recs]
    assert not np.allclose(mle_reconstruct(no_accidentals).rho, expected, atol=1e-6)
    (stack,) = replicas
    assert len(stack) == 2
    for rho in stack:
        assert np.array_equal(rho, expected)


def test_bootstrap_errors_reasonable_scale():
    recs = simulate_counts(
        werner_phi_minus(0.801), SCHEDULE, SourceConfig(seed=0)
    )
    errs = bootstrap_errors(recs, n_replicas=12, seed=1)
    assert 0.001 < errs["x"] < 0.05
    assert 0.001 < errs["fidelity"] < 0.05
    assert errs["tangle"] > 0
    # deterministic for a fixed seed
    again = bootstrap_errors(recs, n_replicas=12, seed=1)
    assert errs == again
    assert bootstrap_errors(recs, n_replicas=12, seed=2) != errs


def test_bootstrap_counts_nonconverged_replicas(monkeypatch):
    recs = simulate_counts(
        pure_to_density(bell_state("phi-minus")), SCHEDULE, SourceConfig(seed=0)
    )
    keep_counts(monkeypatch)
    assert bootstrap_errors(recs, n_replicas=2)["nonconverged"] == 0
    real = tomography.mle_reconstruct
    monkeypatch.setattr(
        tomography, "mle_reconstruct", lambda records: real(records, max_evals=50)
    )
    capped = bootstrap_errors(recs, n_replicas=3)
    assert type(capped["nonconverged"]) is int
    assert capped["nonconverged"] == 3


def test_bootstrap_needs_replicas():
    recs = simulate_counts(
        werner_phi_minus(0.801), SCHEDULE, SourceConfig(seed=0)
    )
    with pytest.raises(OutOfRangeError):
        bootstrap_errors(recs, n_replicas=1)


@pytest.mark.parametrize("n_replicas", [3.0, True, "3", None])
def test_bootstrap_refuses_a_replica_count_that_is_not_an_integer(n_replicas):
    recs = simulate_counts(
        werner_phi_minus(0.801), SCHEDULE, SourceConfig(seed=0)
    )
    with pytest.raises(OutOfRangeError):
        bootstrap_errors(recs, n_replicas=n_replicas)
