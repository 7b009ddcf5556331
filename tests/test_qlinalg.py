import numpy as np
import pytest

from wernerlab.errors import NonHermitianError, NotPSDError
from wernerlab import analysis, qlinalg
from wernerlab.qlinalg import (
    check_hermitian,
    check_square,
    herm_eig,
    kron,
    min_eigenvalue,
    psd_sqrt,
)

from conftest import random_density, random_hermitian


def test_kron_matches_numpy(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_allclose(kron(a, b), np.kron(a, b), atol=1e-14)


def test_kron_basis_ordering():
    # |0><0| (x) |1><1| occupies the second diagonal slot: ordering is
    # first-factor-major, matching the HH, HV, VH, VV label convention.
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    out = kron(p0, p1)
    assert out.shape == (4, 4)
    np.testing.assert_allclose(np.diag(out).real, [0, 1, 0, 0], atol=1e-15)


def test_check_square_rejects_bad_shapes():
    with pytest.raises(NonHermitianError):
        check_square(np.zeros((2, 3)))
    with pytest.raises(NonHermitianError):
        check_square(np.zeros(4))


def test_check_hermitian_accepts_and_rejects():
    h = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, -3.0]])
    out = check_hermitian(h)
    np.testing.assert_allclose(out, out.conj().T, atol=1e-15)
    with pytest.raises(NonHermitianError):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_matches_numpy_on_random_matrices(rng):
    """Eigenvalues and reconstruction agree with numpy.linalg.eigh."""
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        h = random_hermitian(rng, dim)
        w, v = herm_eig(h)
        w_ref = np.sort(np.linalg.eigvalsh(h))[::-1]
        np.testing.assert_allclose(w, w_ref, atol=1e-10 * max(1.0, np.abs(h).max()))
        # eigenvector equations and completeness
        np.testing.assert_allclose(h @ v, v @ np.diag(w), atol=1e-9)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-10)
        np.testing.assert_allclose((v * w) @ v.conj().T, h, atol=1e-9)


def test_herm_eig_sorted_descending(rng):
    h = random_hermitian(rng, 4)
    w, _ = herm_eig(h)
    assert np.all(np.diff(w) <= 1e-12)


def test_herm_eig_deterministic(rng):
    h = random_hermitian(rng, 4)
    w1, v1 = herm_eig(h)
    w2, v2 = herm_eig(h.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_herm_eig_phase_convention(rng):
    # first nonzero component of every eigenvector is real and positive
    for _ in range(20):
        h = random_hermitian(rng, 4)
        _, v = herm_eig(h)
        for k in range(4):
            col = v[:, k]
            lead = col[np.abs(col) > 1e-8][0]
            assert abs(lead.imag) < 1e-12
            assert lead.real > 0


def test_herm_eig_degenerate_spectrum():
    w, v = herm_eig(np.eye(4, dtype=complex))
    np.testing.assert_allclose(w, np.ones(4), atol=1e-14)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-12)

    proj = np.zeros((4, 4), dtype=complex)
    proj[0, 0] = proj[1, 1] = 1.0
    w, v = herm_eig(proj)
    np.testing.assert_allclose(w, [1, 1, 0, 0], atol=1e-14)
    np.testing.assert_allclose((v * w) @ v.conj().T, proj, atol=1e-12)


def test_herm_eig_real_diagonal_input():
    w, _ = herm_eig(np.diag([3.0, -1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(w, [3.0, 2.0, -1.0], atol=1e-15)


def test_psd_sqrt_squares_back(rng):
    for _ in range(10):
        rho = random_density(rng, 4)
        root = psd_sqrt(rho)
        np.testing.assert_allclose(root @ root, rho, atol=1e-10)
        np.testing.assert_allclose(root, root.conj().T, atol=1e-12)


def test_psd_sqrt_clamps_roundoff_negatives():
    eps = 1e-12
    m = np.diag([1.0, -eps]).astype(complex)
    root = psd_sqrt(m)
    assert np.all(np.isfinite(root))
    np.testing.assert_allclose(root[0, 0], 1.0, atol=1e-10)


def test_psd_sqrt_rejects_genuinely_negative():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -1e-3]).astype(complex))


def test_min_eigenvalue():
    assert min_eigenvalue(np.diag([1.0, -2.0, 0.5]).astype(complex)) == pytest.approx(-2.0)


def test_tolerance_defaults():
    assert qlinalg._HERMITICITY_TOL == 1e-8
    assert qlinalg._PSD_CLAMP == 1e-9
    check_hermitian(np.array([[0.0, 1.0], [1.0 + 5e-9, 0.0]]))
    with pytest.raises(NonHermitianError):
        check_hermitian(np.array([[0.0, 1.0], [1.0 + 5e-8, 0.0]]))
    psd_sqrt(np.diag([1.0, -5e-10]).astype(complex))
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -5e-9]).astype(complex))


def _nan_matrix():
    return np.full((4, 4), np.nan)


def _inf_entry():
    m = np.eye(4) / 4.0
    m[1, 2] = m[2, 1] = np.inf
    return m


def _nan_imaginary_part():
    m = (np.eye(4) / 4.0).astype(complex)
    m[3, 3] = complex(0.25, np.nan)
    return m


# inf - inf in the Hermiticity check makes numpy warn before the refusal
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [_nan_matrix, _inf_entry, _nan_imaginary_part])
@pytest.mark.parametrize(
    "func",
    [
        check_hermitian,
        herm_eig,
        lambda m: analysis.fidelity(m, np.eye(4) / 4.0),
        lambda m: analysis.fidelity(np.eye(4) / 4.0, m),
        analysis.fit_werner,
        analysis.linear_entropy,
        analysis.chsh_value,
    ],
    ids=["check_hermitian", "herm_eig", "fidelity", "fidelity-second",
         "fit_werner", "linear_entropy", "chsh_value"],
)
def test_non_finite_entries_are_refused(func, bad):
    with pytest.raises(NonHermitianError, match="non-finite"):
        func(bad())
    with pytest.raises(NonHermitianError, match="non-finite"):
        func(np.stack([np.eye(4) / 4.0, bad()]))
