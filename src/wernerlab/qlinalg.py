"""Small dense Hermitian linear algebra used throughout the package.

Everything here targets the 2x2 and 4x4 complex matrices of two-photon
polarization work.  Eigendecompositions come from ``np.linalg.eigh`` with a
fixed ordering and eigenvector phase convention on top.
"""

from __future__ import annotations

import numpy as np

from .errors import NonHermitianError, NotPSDError

_HERMITICITY_TOL = 1e-8  # largest allowed entry of m - m.conj().T
_PSD_CLAMP = 1e-9  # eigenvalues above -_PSD_CLAMP of a PSD matrix count as zero
_PHASE_EPS = 1e-12


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with complex dtype."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def check_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonHermitianError(f"expected a square matrix, got shape {m.shape}")
    return m


def check_hermitian(m: np.ndarray) -> np.ndarray:
    """Return ``m`` as a complex array, raising if it is not Hermitian."""
    m = check_square(m)
    dev = float(np.abs(m - m.conj().T).max())
    if dev > _HERMITICITY_TOL:
        raise NonHermitianError(f"matrix deviates from Hermiticity by {dev:.3e}")
    return m


def herm_eig(m: np.ndarray):
    """Eigendecomposition of a Hermitian matrix by ``np.linalg.eigh``.

    Returns ``(w, v)`` with eigenvalues ``w`` sorted in descending order and
    orthonormal eigenvectors in the columns of ``v``.  Each eigenvector is
    phase-fixed so its first component of non-negligible magnitude is real
    and positive, which makes repeated runs bit-identical.  For degenerate
    eigenvalues any orthonormal basis of the eigenspace may be returned.
    """
    w, v = np.linalg.eigh(check_hermitian(m))
    w, v = w[::-1], v[:, ::-1]
    ref = v[np.argmax(np.abs(v) > _PHASE_EPS, axis=0), np.arange(v.shape[1])]
    return w, v * (ref.conj() / np.abs(ref))


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in ``[-1e-9, 0)`` are treated as exact zeros; anything more
    negative raises :class:`NotPSDError`.
    """
    w, v = herm_eig(m)
    if w.min() < -_PSD_CLAMP:
        raise NotPSDError(f"matrix has eigenvalue {w.min():.3e} below -{_PSD_CLAMP:.1e}")
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    w, _ = herm_eig(m)
    return float(w[-1])
