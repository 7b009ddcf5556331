import json

import numpy as np
import pytest

from wernerlab.errors import (
    NonHermitianError,
    NotPSDError,
    OutOfRangeError,
    UnknownLabelError,
)
from wernerlab.states import (
    BASIS_LABELS,
    BELL_KINDS,
    SIGMA_X,
    bell_state,
    check_density_matrix,
    density_matrix_from_json,
    density_matrix_to_json,
    mix,
    pure_to_density,
    source_state,
    werner_phi_minus,
    werner_singlet,
)

from conftest import random_density

RT2 = np.sqrt(2.0)


def test_basis_label_order():
    assert BASIS_LABELS == ("HH", "HV", "VH", "VV")


def test_bell_state_amplitudes():
    np.testing.assert_allclose(bell_state("phi-plus"), [1 / RT2, 0, 0, 1 / RT2], atol=1e-15)
    np.testing.assert_allclose(bell_state("phi-minus"), [1 / RT2, 0, 0, -1 / RT2], atol=1e-15)
    np.testing.assert_allclose(bell_state("psi-plus"), [0, 1 / RT2, 1 / RT2, 0], atol=1e-15)
    np.testing.assert_allclose(bell_state("psi-minus"), [0, 1 / RT2, -1 / RT2, 0], atol=1e-15)


def test_bell_states_orthonormal():
    vecs = [bell_state(kind) for kind in BELL_KINDS]
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)


def test_bell_state_unknown_kind():
    with pytest.raises(UnknownLabelError):
        bell_state("sigma-plus")


def test_pure_to_density_is_projector():
    rho = pure_to_density(bell_state("phi-minus"))
    np.testing.assert_allclose(rho, rho @ rho, atol=1e-14)
    assert np.trace(rho).real == pytest.approx(1.0)
    with pytest.raises(OutOfRangeError):
        pure_to_density(np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("x", [-1 / 3, 0.0, 0.25, 0.405, 0.801, 1.0])
def test_werner_phi_minus_spectrum(x):
    """Eigenvalues are (1+3x)/4 once and (1-x)/4 three times."""
    w = np.sort(np.linalg.eigvalsh(werner_phi_minus(x)))[::-1]
    expected = np.sort([(1 + 3 * x) / 4] + [(1 - x) / 4] * 3)[::-1]
    np.testing.assert_allclose(w, expected, atol=1e-12)


def test_werner_phi_minus_limits():
    np.testing.assert_allclose(werner_phi_minus(0.0), np.eye(4) / 4, atol=1e-15)
    np.testing.assert_allclose(
        werner_phi_minus(1.0), pure_to_density(bell_state("phi-minus")), atol=1e-15
    )
    with pytest.raises(OutOfRangeError):
        werner_phi_minus(1.0001)
    with pytest.raises(OutOfRangeError):
        werner_phi_minus(-0.34)


@pytest.mark.parametrize("f", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_werner_singlet_spectrum(f):
    w = np.sort(np.linalg.eigvalsh(werner_singlet(f)))[::-1]
    expected = np.sort([f] + [(1 - f) / 3] * 3)[::-1]
    np.testing.assert_allclose(w, expected, atol=1e-12)
    check_density_matrix(werner_singlet(f))


def test_werner_singlet_range():
    with pytest.raises(OutOfRangeError):
        werner_singlet(-0.01)
    with pytest.raises(OutOfRangeError):
        werner_singlet(1.01)


def test_werner_families_related_by_sigma_x():
    """sigma_x on one arm maps the phi-minus family onto the singlet family
    with fidelity parameter f = (3x + 1) / 4."""
    u = np.kron(SIGMA_X, np.eye(2, dtype=complex))
    for x in np.linspace(0.0, 1.0, 11):
        rotated = u @ werner_phi_minus(x) @ u.conj().T
        np.testing.assert_allclose(rotated, werner_singlet((3 * x + 1) / 4), atol=1e-12)


def test_mix_is_convex(rng):
    a = random_density(rng)
    b = random_density(rng)
    np.testing.assert_allclose(mix(a, b, 1.0), a, atol=1e-15)
    np.testing.assert_allclose(mix(a, b, 0.0), b, atol=1e-15)
    np.testing.assert_allclose(mix(a, b, 0.3), 0.3 * a + 0.7 * b, atol=1e-15)
    with pytest.raises(OutOfRangeError):
        mix(a, b, 1.2)
    with pytest.raises(OutOfRangeError):
        mix(a, np.eye(2) / 2, 0.5)


def test_source_state_reproduces_werner_family():
    # mixing the phi-minus projector with a fully dephased |VV> (diagonal
    # basis) reproduces the one-parameter family exactly
    for x in (0.0, 0.3, 0.801, 1.0):
        np.testing.assert_allclose(source_state(x), werner_phi_minus(x), atol=1e-12)


def test_check_density_matrix_rejects_bad_inputs():
    with pytest.raises(NonHermitianError):
        check_density_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(OutOfRangeError):
        check_density_matrix(np.eye(4))  # trace 4
    with pytest.raises(NotPSDError):
        check_density_matrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(NonHermitianError):  # one state, not a stack
        check_density_matrix(np.stack([np.eye(4) / 4.0] * 2))


def test_density_matrix_json_roundtrip(rng):
    rho = random_density(rng)
    doc = density_matrix_to_json(rho)
    assert list(doc["basis"]) == list(BASIS_LABELS)
    text = json.dumps(doc)
    back = density_matrix_from_json(json.loads(text))
    np.testing.assert_allclose(back, rho, atol=1e-15)


def test_density_matrix_json_rejects_malformed():
    rho = random_density(np.random.default_rng(0), 4)
    doc = density_matrix_to_json(rho)
    bad = dict(doc)
    bad["matrix"] = doc["matrix"][:3]
    with pytest.raises(UnknownLabelError):
        density_matrix_from_json(bad)
    with pytest.raises(UnknownLabelError):
        density_matrix_from_json({"basis": list(BASIS_LABELS)})
    swapped = dict(doc)
    swapped["basis"] = ["VV", "VH", "HV", "HH"]
    with pytest.raises(UnknownLabelError):
        density_matrix_from_json(swapped)
    for matrix in (5, None, [1, 0, 0, 0]):
        with pytest.raises(UnknownLabelError):
            density_matrix_from_json({**doc, "matrix": matrix})
    with pytest.raises(UnknownLabelError):
        density_matrix_from_json({**doc, "basis": None})
    for entry in (None, 1.0, [1.0], [float("nan"), 0.0], [0.0, float("inf")], ["1", "0"],
                  [10**400, 0]):
        with pytest.raises(ValueError):
            density_matrix_from_json({**doc, "matrix": [[entry] * 4] * 4})
