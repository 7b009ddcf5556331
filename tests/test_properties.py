"""Property tests of the numerical core on Ginibre-random states.

Each example draws a seed and a rank; the state is ``G G^dag / tr`` with
``G`` a complex Gaussian ``4 x rank`` matrix, so ranks below 4 give boundary
states with exact zero eigenvalues.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wernerlab.analysis import ChshAngles, chsh_value, concurrence, fidelity
from wernerlab.polarimetry import SourceConfig, simulate_counts, tomographic_settings
from wernerlab.qlinalg import herm_eig
from wernerlab.tomography import MaximumLikelihood, linear_reconstruct, mle_reconstruct

from conftest import random_density, random_hermitian

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

seeds = st.integers(0, 2**32 - 1)
ranks = st.integers(1, 4)
angles = st.floats(-180.0, 180.0, allow_nan=False)


def ginibre_state(seed, rank):
    return random_density(np.random.default_rng(seed), rank=rank)


@PROPERTY
@given(seeds, st.integers(1, 5))
def test_herm_eig_properties(seed, dim):
    h = random_hermitian(np.random.default_rng(seed), dim)
    w, v = herm_eig(h)
    assert np.all(np.diff(w) <= 0.0)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)
    np.testing.assert_allclose((v * w) @ v.conj().T, h, atol=1e-12)
    for k in range(dim):
        col = v[:, k]
        lead = col[np.abs(col) > 1e-12][0]
        assert abs(lead.imag) < 1e-12 and lead.real > 0.0


@PROPERTY
@given(seeds, ranks)
def test_herm_eig_of_states_is_a_spectrum(seed, rank):
    w, _ = herm_eig(ginibre_state(seed, rank))
    assert abs(w.sum() - 1.0) < 1e-12
    assert w[-1] > -1e-12
    assert np.count_nonzero(w > 1e-9) == rank


@settings(PROPERTY, max_examples=8)
@given(seeds, ranks)
def test_mle_output_is_a_density_matrix(seed, rank):
    # The factor parametrization makes every candidate a density matrix, so
    # the property holds for any evaluation budget; a small one keeps the
    # slow boundary-state searches short.
    rho = ginibre_state(seed, rank)
    records = simulate_counts(rho, tomographic_settings(), SourceConfig(seed=seed))
    out = mle_reconstruct(records, max_evals=2000).rho
    np.testing.assert_allclose(out, out.conj().T, atol=1e-15)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out).min() > -1e-12


@settings(PROPERTY, max_examples=20)
@given(seeds, ranks)
def test_mle_returns_a_physical_linear_inversion(seed, rank):
    records = simulate_counts(
        ginibre_state(seed, rank), tomographic_settings(), SourceConfig(seed=seed)
    )
    linear = linear_reconstruct(records)
    est = MaximumLikelihood(max_evals=2000).fit(records)
    if linear.min_eigenvalue >= 0.0:
        assert est.path_ == "linear"
        assert np.array_equal(est.rho_, linear.matrix)
    else:
        assert est.path_ == "search"


@PROPERTY
@given(seeds, ranks)
def test_concurrence_in_unit_interval(seed, rank):
    c = concurrence(ginibre_state(seed, rank))
    assert 0.0 <= c <= 1.0 + 1e-12


@PROPERTY
@given(seeds, ranks, angles, angles, angles, angles)
def test_chsh_obeys_tsirelson_bound(seed, rank, t1, t1p, t2, t2p):
    s = chsh_value(ginibre_state(seed, rank), ChshAngles(t1, t1p, t2, t2p))
    assert abs(s) <= 2.0 * np.sqrt(2.0) + 1e-12


@PROPERTY
@given(seeds, ranks, seeds, ranks)
def test_fidelity_symmetric_and_at_most_one(seed_a, rank_a, seed_b, rank_b):
    a = ginibre_state(seed_a, rank_a)
    b = ginibre_state(seed_b, rank_b)
    f_ab = fidelity(a, b)
    f_ba = fidelity(b, a)
    assert 0.0 <= f_ab <= 1.0
    assert abs(f_ab - f_ba) < 1e-9
