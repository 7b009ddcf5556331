"""Small dense Hermitian linear algebra used throughout the package.

Everything here targets the 2x2 and 4x4 complex matrices of two-photon
polarization work; the checks, ``kron``, ``herm_eig``, ``psd_sqrt`` and
``min_eigenvalue`` also take ``(..., n, n)`` stacks of them.
Eigendecompositions come from LAPACK through numpy's own gufunc, with
LAPACK's eigenvector phases.

``_eigh`` and ``_eigvalsh`` are the calls that ``np.linalg.eigh`` and
``np.linalg.eigvalsh`` make for complex128 input,
``_umath_linalg.eigh_lo(m, signature="D->dD")`` and
``_umath_linalg.eigvalsh_lo(m, signature="D->d")``, without the per-call
bookkeeping around them, so they give numpy's bits on every kernel.  They
take finite input only, which each caller guarantees: a non-finite entry is
refused before them, and a LAPACK failure on finite input gives NaNs with
numpy's invalid-value RuntimeWarning instead of a ``LinAlgError``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NonHermitianError, NotPSDError

_HERMITICITY_TOL = 1e-8  # largest allowed entry of m - m.conj().T
_PSD_CLAMP = 1e-9  # eigenvalues above -_PSD_CLAMP of a PSD matrix count as zero


def _eigh(m: np.ndarray):
    """``np.linalg.eigh(m)`` of a finite complex128 matrix or stack:
    ascending eigenvalues and the eigenvectors in columns."""
    return _umath_linalg.eigh_lo(m, signature="D->dD")


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(m)`` of a finite complex128 matrix or stack:
    ascending eigenvalues."""
    return _umath_linalg.eigvalsh_lo(m, signature="D->d")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, or of each pair of matrices of two
    ``(..., m, n)`` and ``(..., p, q)`` stacks, with complex dtype.

    One broadcast multiply, the one ``np.kron`` performs after its any-rank
    bookkeeping, so each entry is the same single product and each matrix
    of the result equals ``np.kron``'s of its pair bit for bit.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], m * p, n * q)


def check_square(m: np.ndarray) -> np.ndarray:
    """Return ``m`` as a complex array of shape ``(..., n, n)``, raising if it
    is not square or holds no entry (a 0x0 matrix or an empty stack)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise NonHermitianError(f"expected a square matrix with entries, got shape {m.shape}")
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
    ``(..., n, n)`` stack, by ``np.linalg.eigh``'s LAPACK call (``_eigh``).

    Returns ``(w, v)`` with eigenvalues ``w`` sorted in descending order and
    orthonormal eigenvectors in the columns of ``v``, with the phases LAPACK
    gives them.  For degenerate eigenvalues any orthonormal basis of the
    eigenspace may be returned.  A stack gives the same values as its
    matrices one at a time.
    """
    w, v = _eigh(check_hermitian(m))
    return w[..., ::-1], v[..., ::-1]


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
    root = (v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ _adjoint(v)
    return 0.5 * (root + _adjoint(root))


def min_eigenvalue(m: np.ndarray):
    """Smallest eigenvalue of a Hermitian matrix, or the array of them for a
    stack: bit for bit :func:`herm_eig`'s last, read from the same ``_eigh``
    call without the reversal."""
    return _scalar(_eigh(check_hermitian(m))[0][..., 0])
