"""Two-photon polarization states: Bell states, Werner families, and the
two-crystal source model that interpolates between them."""

from __future__ import annotations

import numpy as np

from .decoherence import dephase
from .errors import (
    NonHermitianError,
    NotPSDError,
    OutOfRangeError,
    UnknownLabelError,
)
from .polarimetry import _is_finite_real
from .qlinalg import _HERMITICITY_TOL, _PSD_CLAMP, check_hermitian, min_eigenvalue

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)

#: Two-photon computational basis order used across the package and in JSON.
BASIS_LABELS = ("HH", "HV", "VH", "VV")

BELL_KINDS = ("phi-plus", "phi-minus", "psi-plus", "psi-minus")

_BELL_AMPLITUDES = {
    "phi-plus": np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),
    "phi-minus": np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0),
    "psi-plus": np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0),
    "psi-minus": np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0),
}


def bell_state(kind: str) -> np.ndarray:
    """Amplitudes of a Bell state in the (HH, HV, VH, VV) basis."""
    try:
        return _BELL_AMPLITUDES[kind].astype(complex).copy()
    except KeyError:
        raise UnknownLabelError(
            f"unknown Bell state {kind!r}; expected one of {', '.join(BELL_KINDS)}"
        ) from None


def pure_to_density(psi: np.ndarray) -> np.ndarray:
    """Projector onto a normalized pure state."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        raise OutOfRangeError(f"pure state norm is {norm:.12f}, expected 1")
    return np.outer(psi, psi.conj())


def werner_singlet(f: float) -> np.ndarray:
    """Werner state with singlet fraction ``f``:
    ``(1-f)/3 * I + (4f-1)/3 * |psi-><psi-|``."""
    f = float(f)
    if not 0.0 <= f <= 1.0:
        raise OutOfRangeError(f"singlet fraction {f} outside [0, 1]")
    proj = pure_to_density(bell_state("psi-minus"))
    return (1.0 - f) / 3.0 * np.eye(4, dtype=complex) + (4.0 * f - 1.0) / 3.0 * proj


def werner_phi_minus(x: float) -> np.ndarray:
    """Werner-form mixture ``x * |phi-><phi-| + (1-x)/4 * I``.

    The mixing parameter may run down to -1/3, the positivity limit.
    """
    x = float(x)
    if not -1.0 / 3.0 - 1e-12 <= x <= 1.0 + 1e-12:
        raise OutOfRangeError(f"mixing parameter {x} outside [-1/3, 1]")
    proj = pure_to_density(bell_state("phi-minus"))
    return x * proj + (1.0 - x) / 4.0 * np.eye(4, dtype=complex)


def mix(rho_a: np.ndarray, rho_b: np.ndarray, p: float) -> np.ndarray:
    """Classical mixture ``p * rho_a + (1 - p) * rho_b``."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise OutOfRangeError(f"mixing probability {p} outside [0, 1]")
    rho_a = np.asarray(rho_a, dtype=complex)
    rho_b = np.asarray(rho_b, dtype=complex)
    if rho_a.shape != rho_b.shape:
        raise OutOfRangeError("cannot mix states of different dimension")
    return p * rho_a + (1.0 - p) * rho_b


def source_state(mix_x: float) -> np.ndarray:
    """State emitted by the two-crystal source at mixing weight ``mix_x``.

    One crystal pair produces ``|phi->``; the other produces ``|VV>`` whose
    photons are completely dephased along the diagonal axes, leaving the
    maximally mixed state.  The result equals ``werner_phi_minus(mix_x)``.
    """
    entangled = pure_to_density(bell_state("phi-minus"))
    vv = np.zeros((4, 4), dtype=complex)
    vv[3, 3] = 1.0
    scrambled = dephase(vv, (0.0, 0.0), "DA")
    return mix(entangled, scrambled, mix_x)


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, positive semidefinite.

    Returns the matrix as a complex array; raises ``NonHermitianError``,
    ``OutOfRangeError`` (trace) or ``NotPSDError``.
    """
    rho = check_hermitian(rho)
    if rho.ndim != 2:
        raise NonHermitianError(f"expected one matrix, got shape {rho.shape}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > _HERMITICITY_TOL:
        raise OutOfRangeError(f"trace is {tr.real:.10f}, expected 1")
    lowest = min_eigenvalue(rho)
    if lowest < -_PSD_CLAMP:
        raise NotPSDError(f"state has eigenvalue {lowest:.3e}")
    return rho


def density_matrix_to_json(rho: np.ndarray) -> dict:
    """JSON-ready form of a two-photon density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise NonHermitianError(f"expected a 4x4 state, got shape {rho.shape}")
    return {
        "basis": list(BASIS_LABELS),
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho],
    }


def density_matrix_from_json(doc: dict) -> np.ndarray:
    """Parse the JSON form produced by :func:`density_matrix_to_json`.

    A wrong basis or shape raises ``UnknownLabelError``; an entry that is not
    ``[re, im]`` of two finite numbers raises ``ValueError``.
    """
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise UnknownLabelError("density-matrix document must contain a 'matrix' key")
    basis = doc.get("basis", list(BASIS_LABELS))
    if not isinstance(basis, (list, tuple)) or list(basis) != list(BASIS_LABELS):
        raise UnknownLabelError(f"unsupported basis order {basis!r}")
    mat = doc["matrix"]
    if not isinstance(mat, list) or len(mat) != 4 or any(
        not isinstance(row, list) or len(row) != 4 for row in mat
    ):
        raise UnknownLabelError("matrix must be 4x4 with [re, im] entries")
    out = np.empty((4, 4), dtype=complex)
    for i, row in enumerate(mat):
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2 or not all(
                _is_finite_real(x) for x in entry
            ):
                raise ValueError(f"matrix entry {entry!r} is not [re, im] of finite numbers")
            re, im = entry
            out[i, j] = complex(float(re), float(im))
    return out
