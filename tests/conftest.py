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
