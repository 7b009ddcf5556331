import dataclasses

import numpy as np
import pytest


def random_density(rng, dim=4, rank=None):
    """Draw a random density matrix (Ginibre construction), full rank unless
    ``rank`` is given."""
    shape = (dim, rank or dim)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def take(run, index):
    """The run of the settings of ``run`` at ``index``, a slice or a list of
    positions, in that order."""
    positions = np.arange(len(run))[index]
    return dataclasses.replace(run, settings=[run.settings[i] for i in positions],
                               counts=run.counts[positions])


def same_run(a, b) -> bool:
    """Whether two runs hold the same settings, count bits, duration and
    accidental rate."""
    return (a.settings == b.settings and a.counts.shape == b.counts.shape
            and a.counts.tobytes() == b.counts.tobytes()
            and (a.duration, a.accidental_rate) == (b.duration, b.accidental_rate))
