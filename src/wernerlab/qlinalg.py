"""Small dense Hermitian linear algebra used throughout the package.

Everything here targets the 2x2 and 4x4 complex matrices of two-photon
polarization work; the checks, ``herm_eig``, ``psd_sqrt`` and
``min_eigenvalue`` also take ``(..., n, n)`` stacks of them.
Eigendecompositions come from ``np.linalg.eigh`` with a fixed ordering and
eigenvector phase convention on top.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonHermitianError, NotPSDError

_HERMITICITY_TOL = 1e-8  # largest allowed entry of m - m.conj().T
_PSD_CLAMP = 1e-9  # eigenvalues above -_PSD_CLAMP of a PSD matrix count as zero
_PHASE_EPS = 1e-12


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with complex dtype."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def check_square(m: np.ndarray) -> np.ndarray:
    """Return ``m`` as a complex array of shape ``(..., n, n)``."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NonHermitianError(f"expected a square matrix, got shape {m.shape}")
    return m


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _scalar(v: np.ndarray):
    """A Python float for one matrix, the array of values for a stack."""
    return float(v) if np.ndim(v) == 0 else v


def check_hermitian(m: np.ndarray) -> np.ndarray:
    """Return ``m`` (one matrix or a stack) as a complex array, raising if an
    entry is not finite or a matrix is not Hermitian."""
    m = check_square(m)
    dev = float(np.abs(m - _adjoint(m)).max())
    # A NaN or infinite entry, and only such an entry, makes ``dev`` NaN or
    # infinite (an infinite one also makes numpy warn of an invalid value).
    if not math.isfinite(dev):
        raise NonHermitianError("matrix has a non-finite entry")
    if dev > _HERMITICITY_TOL:
        raise NonHermitianError(f"matrix deviates from Hermiticity by {dev:.3e}")
    return m


def herm_eig(m: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    ``(..., n, n)`` stack, by ``np.linalg.eigh``.

    Returns ``(w, v)`` with eigenvalues ``w`` sorted in descending order and
    orthonormal eigenvectors in the columns of ``v``.  Each eigenvector is
    phase-fixed so its first component of non-negligible magnitude is real
    and positive, which makes repeated runs bit-identical.  For degenerate
    eigenvalues any orthonormal basis of the eigenspace may be returned.
    A stack gives the same values as its matrices one at a time.
    """
    w, v = np.linalg.eigh(check_hermitian(m))
    w, v = w[..., ::-1], v[..., ::-1]
    # Each column's first entry of non-negligible magnitude, gathered from
    # the stack seen as (k, n, n); cheaper than take_along_axis on one matrix.
    n = w.shape[-1]
    first = np.argmax(np.abs(v) > _PHASE_EPS, axis=-2).reshape(-1, n)
    cols = v.reshape(-1, n, n)
    ref = cols[np.arange(len(cols))[:, None], first, np.arange(n)].reshape(w.shape)
    return w, v * (ref.conj() / np.abs(ref))[..., None, :]


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix, or
    of each matrix of a stack.

    Eigenvalues in ``[-1e-9, 0)`` are treated as exact zeros; anything more
    negative raises :class:`NotPSDError`.
    """
    w, v = herm_eig(m)
    lowest = w[..., -1].min()
    if lowest < -_PSD_CLAMP:
        raise NotPSDError(f"matrix has eigenvalue {lowest:.3e} below -{_PSD_CLAMP:.1e}")
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _adjoint(v)
    return 0.5 * (root + _adjoint(root))


def min_eigenvalue(m: np.ndarray):
    """Smallest eigenvalue of a Hermitian matrix, or the array of them for a
    stack."""
    return _scalar(herm_eig(m)[0][..., -1])
