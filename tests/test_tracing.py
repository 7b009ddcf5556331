"""The benchmark's tracer still finds every name it patches.

``perfbench/tracing.py`` resolves its targets when a ``Tracer`` is built and
reads fitted attributes after each traced ``fit``; a renamed function,
method or attribute fails here instead of only in a benchmark run.
"""

import importlib.util
from pathlib import Path

import wernerlab
import wernerlab.cli  # noqa: F401  (the tracer patches cli.main)
from wernerlab import polarimetry, tomography
from wernerlab.states import werner_phi_minus

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_and_counts_the_traced_names():
    tracing = load_tracing()
    records = polarimetry.simulate_counts(
        werner_phi_minus(1.0), polarimetry.tomographic_settings(),
        polarimetry.SourceConfig(seed=0),
    )
    tracer = tracing.Tracer(wernerlab)
    tracer.install(0)
    try:
        linear = tomography.linear_reconstruct(records)
        tomography.mle_reconstruct(records, seed_matrix=linear.matrix)
        tomography.bootstrap_errors(records, werner_phi_minus(1.0), n_replicas=2)
    finally:
        tracer.uninstall()
    assert tracer.calls["tomography.linear"] == 1
    # one direct fit, and one search for each replica: at x = 1.0 both
    # replicas' linear inversions are unphysical
    assert tracer.calls["tomography.mle"] == 3
    assert tracer.counters["tomography.mle.evals"] >= 1
    # the bootstrap redraws every count of both replicas in one call
    assert tracer.calls["polarimetry.poisson_sample"] == 1
    assert tracer.counters["tomography.bootstrap.replicas"] == 2
    assert not hasattr(tomography.MaximumLikelihood.fit, "__wrapped__")
