"""A stack of states gives, bit for bit, what its states give one at a time.

The numerical core takes ``(..., 4, 4)`` stacks, and a single matrix is a
batch of one on the same code, so these tests compare each stacked call with
a loop of single calls.  The bootstrap is compared with the per-replica loop
it replaced, kept here as the reference.
"""

from dataclasses import replace

import numpy as np
import pytest

from wernerlab import analysis, polarimetry, tomography
from wernerlab.polarimetry import SourceConfig, simulate_counts, tomographic_settings
from wernerlab.qlinalg import herm_eig, min_eigenvalue, psd_sqrt
from wernerlab.states import werner_phi_minus

from conftest import random_density

SCHEDULE = tomographic_settings()


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
        redrawn = [
            replace(r, count=polarimetry.poisson_sample(rng, float(r.count)))
            for r in records
        ]
        result = tomography.mle_reconstruct(redrawn)
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
    got = tomography.bootstrap_errors(records, n_replicas=n_replicas, seed=17)
    want = reference_bootstrap(records, n_replicas, seed=17)
    assert got.keys() == want.keys()
    assert got["nonconverged"] == want["nonconverged"]
    assert got["x"] == want["x"]
    assert got["chsh_s"] == want["chsh_s"]
    for key in ("fidelity", "linear_entropy", "tangle"):
        assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0)
