import numpy as np
import pytest

from wernerlab.decoherence import (
    DEFAULT_SPECTRUM,
    BirefringentElement,
    Spectrum,
    curve_to_csv,
    decoherence_curve,
    dephase,
    gamma,
    gamma_from_density,
    simulate_single_photon_experiment,
)
from wernerlab.errors import (
    DegenerateDiagonalError,
    NonHermitianError,
    OutOfRangeError,
    UnknownLabelError,
)
from wernerlab.polarimetry import SourceConfig
from wernerlab.states import bell_state, pure_to_density

from conftest import random_density

LAM0 = 702.2
FWHM = 4.62


def numeric_gamma(spectrum, opd_nm, n=20001):
    """Trapezoid quadrature of the coherence integral.

    A top-hat distribution in inverse wavelength (width fwhm / center^2)
    carries a phase 2*pi*L/lambda across the band; the visibility is its
    normalized average.
    """
    u0 = 1.0 / spectrum.center_nm
    du = spectrum.fwhm_nm / spectrum.center_nm**2
    u = np.linspace(u0 - du / 2, u0 + du / 2, n)
    phase = np.exp(2j * np.pi * opd_nm * u)
    step = u[1] - u[0]
    return step * (phase[0] / 2 + phase[1:-1].sum() + phase[-1] / 2) / du


def test_spectrum_defaults_and_validation():
    assert DEFAULT_SPECTRUM == Spectrum(LAM0, FWHM)
    for bad_center in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(OutOfRangeError):
            Spectrum(bad_center, FWHM)
    for bad_width in (-0.1, float("nan"), float("inf")):
        with pytest.raises(OutOfRangeError):
            Spectrum(LAM0, bad_width)
    # a zero-width band is the monochromatic limit and stays coherent
    mono = Spectrum(LAM0, 0.0)
    assert abs(gamma(mono, BirefringentElement(500 * LAM0))) == pytest.approx(1.0)
    with pytest.raises(OutOfRangeError):
        BirefringentElement(float("inf"))


def test_gamma_zero_path_difference():
    assert gamma(DEFAULT_SPECTRUM, BirefringentElement(0.0)) == pytest.approx(1.0)


def test_gamma_anchor_values():
    g153 = gamma(DEFAULT_SPECTRUM, BirefringentElement(153 * LAM0))
    assert abs(g153) == pytest.approx(0.0065920584291184, abs=1e-12)
    # envelope vanishes where the band accumulates one full cycle of spread
    first_zero = LAM0 / FWHM  # about 151.99 center wavelengths
    g_zero = gamma(DEFAULT_SPECTRUM, BirefringentElement(first_zero * LAM0))
    assert abs(g_zero) < 1e-12


def test_gamma_modulus_and_phase_structure():
    for ratio in (0.5, 10.0, 100.0, 200.0):
        L = ratio * LAM0
        g = gamma(DEFAULT_SPECTRUM, BirefringentElement(L))
        # carrier phase advances as 2*pi*L/lambda0
        expected_phase = np.exp(2j * np.pi * L / LAM0)
        envelope = g / expected_phase
        assert abs(envelope.imag) < 1e-12
        assert abs(g) <= 1.0 + 1e-12


def test_gamma_small_argument_series():
    # the sinc evaluation switches to a series near zero; check continuity
    spectrum = DEFAULT_SPECTRUM
    for L in (1e-6, 1e-3, 0.1, 1.0):
        g = gamma(spectrum, BirefringentElement(L))
        z = np.pi * L * FWHM / LAM0**2
        assert abs(g) == pytest.approx(abs(np.sinc(z / np.pi)), abs=1e-13)


def test_gamma_matches_numeric_quadrature():
    grid = np.linspace(0.0, 250.0, 50)
    for ratio in grid:
        L = ratio * LAM0
        g = gamma(DEFAULT_SPECTRUM, BirefringentElement(L))
        ref = numeric_gamma(DEFAULT_SPECTRUM, L)
        assert abs(g - ref) < 1e-6


def test_gamma_sidelobe_peak():
    # the first revival of the envelope beyond the zero
    ratios = np.arange(152.0, 304.0, 0.01)
    mags = np.array(
        [abs(gamma(DEFAULT_SPECTRUM, BirefringentElement(r * LAM0))) for r in ratios]
    )
    k = mags.argmax()
    assert mags[k] == pytest.approx(0.21723, abs=1e-4)
    assert ratios[k] == pytest.approx(217.39, abs=0.05)


# ------------------------------------------------------------- the channel

def test_dephase_single_identity_and_full():
    rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
    np.testing.assert_allclose(dephase(rho, (1.0,)), rho, atol=1e-15)
    full = dephase(rho, (0.0,))
    np.testing.assert_allclose(full, np.diag([0.7, 0.3]), atol=1e-15)


def test_dephase_single_scales_coherence():
    rho = np.array([[0.6, 0.3j], [-0.3j, 0.4]], dtype=complex)
    g = 0.5 * np.exp(0.7j)
    out = dephase(rho, (g,))
    assert out[0, 1] == pytest.approx(0.3j * g)
    assert out[1, 0] == pytest.approx(np.conj(0.3j * g))
    np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-15)
    with pytest.raises(OutOfRangeError):
        dephase(rho, (1.5,))


def test_dephase_composition():
    rho = np.array([[0.6, 0.3j], [-0.3j, 0.4]], dtype=complex)
    ga, gb = 0.8 * np.exp(0.2j), 0.6 * np.exp(-1.1j)
    once = dephase(dephase(rho, (ga,)), (gb,))
    np.testing.assert_allclose(once, dephase(rho, (ga * gb,)), atol=1e-15)


def test_dephase_diagonal_basis():
    # |V><V| is an equal superposition in the diagonal basis, so complete
    # dephasing there leaves the maximally mixed state
    rho_v = np.diag([0.0, 1.0]).astype(complex)
    np.testing.assert_allclose(dephase(rho_v, (0.0,), basis="DA"), np.eye(2) / 2, atol=1e-15)
    with pytest.raises(UnknownLabelError):
        dephase(rho_v, (0.5,), basis="RL")


def test_dephase_two_photon_bell_coherence():
    rho = pure_to_density(bell_state("phi-minus"))
    g1, g2 = 0.9, 0.7
    out = dephase(rho, (g1, g2))
    assert out[0, 3] == pytest.approx(rho[0, 3] * g1 * g2)
    np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-15)


def test_dephase_two_photon_vv_diagonal_basis():
    rho_vv = np.zeros((4, 4), dtype=complex)
    rho_vv[3, 3] = 1.0
    out = dephase(rho_vv, (0.0, 0.0), basis="DA")
    np.testing.assert_allclose(out, np.eye(4) / 4, atol=1e-15)


@pytest.mark.parametrize("basis", ["HV", "DA"])
@pytest.mark.parametrize("photons", [1, 2])
def test_dephase_rotates_scales_and_rotates_back_bit_for_bit(rng, photons, basis):
    """Each photon's axis matrix and coherence matrix, combined by the
    Kronecker product, in the channel's steps: rotate into the elements'
    axes, scale entrywise, rotate back."""
    axes = {"HV": np.eye(2, dtype=complex),
            "DA": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)}[basis]
    for _ in range(20):
        rho = random_density(rng, dim=2**photons)
        gammas = tuple(rng.uniform() * np.exp(2j * np.pi * rng.uniform()) for _ in range(photons))
        u, scaling = axes, np.array([[1.0, gammas[0]], [np.conj(gammas[0]), 1.0]])
        for g in gammas[1:]:
            u = np.kron(u, axes)
            scaling = np.kron(scaling, np.array([[1.0, g], [np.conj(g), 1.0]]))
        expected = u @ ((u.conj().T @ rho @ u) * scaling) @ u.conj().T
        assert dephase(rho, gammas, basis).tobytes() == expected.tobytes()
        # gammas as a list or an array give the same bits
        assert dephase(rho, list(gammas), basis).tobytes() == expected.tobytes()
        assert dephase(rho, np.array(gammas), basis).tobytes() == expected.tobytes()


@pytest.mark.parametrize("call, error", [
    (lambda rho2, rho4: dephase(rho2, (float("nan"),)), OutOfRangeError),
    (lambda rho2, rho4: dephase(rho2, (complex(0.5, float("nan")),)), OutOfRangeError),
    (lambda rho2, rho4: dephase(rho2, (float("inf"),)), OutOfRangeError),
    (lambda rho2, rho4: dephase(rho4, (0.5, float("nan"))), OutOfRangeError),
    (lambda rho2, rho4: dephase(rho2, ()), OutOfRangeError),
    (lambda rho2, rho4: dephase(rho2, 0.5), OutOfRangeError),
    (lambda rho2, rho4: dephase(rho4, (0.5, 0.5, 0.5)), OutOfRangeError),
    (lambda rho2, rho4: dephase(rho4, [[0.5], [0.5]]), OutOfRangeError),
    (lambda rho2, rho4: dephase(rho4, (0.5,)), NonHermitianError),
    (lambda rho2, rho4: dephase(rho2, (0.5, 0.5)), NonHermitianError),
    (lambda rho2, rho4: dephase(np.eye(8) / 8, (0.5, 0.5)), NonHermitianError),
    (lambda rho2, rho4: dephase(rho4, (0.5, 0.5), basis=("HV", "DA")), UnknownLabelError),
    (lambda rho2, rho4: dephase(rho4, (0.5, 0.5), basis=("HV",)), UnknownLabelError),
    (lambda rho2, rho4: dephase(rho4, (0.5, 0.5), basis=("HV", "DA", "XX")), UnknownLabelError),
    (lambda rho2, rho4: dephase(rho4, (0.5, 0.5), basis=()), UnknownLabelError),
    (lambda rho2, rho4: dephase(rho4, (0.5, 0.5), basis=None), UnknownLabelError),
    (lambda rho2, rho4: dephase(rho2, (0.5,), basis="hv"), UnknownLabelError),
    (lambda rho2, rho4: dephase(rho2, (0.5,), basis=np.array(["HV"])), UnknownLabelError),
    (lambda rho2, rho4: dephase(rho4, (0.5, 0.5), basis=np.array(["HV", "DA"])),
     UnknownLabelError),
], ids=["nan", "nan-imag", "inf", "two-photon-nan", "no-gamma", "scalar-gamma",
        "three-gammas", "gamma-matrix", "one-gamma-4x4", "two-gammas-2x2", "8x8",
        "label-pair", "one-label-tuple", "three-labels", "no-label", "none", "lower-case",
        "label-array", "label-pair-array"])
def test_the_channel_refuses_a_nan_gamma_a_gamma_count_a_shape_and_a_basis_it_does_not_model(
        call, error):
    rho2 = np.array([[0.6, 0.3j], [-0.3j, 0.4]], dtype=complex)
    rho4 = pure_to_density(bell_state("phi-minus"))
    with pytest.raises(error):
        call(rho2, rho4)
    # |gamma| at the tolerance still passes
    dephase(rho4, (0.9, 1.0 + 1e-12), "DA")
    dephase(rho2, (1.0 + 1e-12,))


def test_gamma_from_density_roundtrip(rng):
    g = 0.42 * np.exp(1.3j)
    rho = np.array([[0.55, 0.25 - 0.1j], [0.25 + 0.1j, 0.45]], dtype=complex)
    out = dephase(rho, (g,))
    est = gamma_from_density(out) / gamma_from_density(rho)
    assert est == pytest.approx(g, abs=1e-12)


def test_gamma_from_density_degenerate():
    with pytest.raises(DegenerateDiagonalError):
        gamma_from_density(np.diag([1.0, 0.0]).astype(complex))


def test_gamma_from_density_refuses_a_two_photon_state():
    with pytest.raises(NonHermitianError, match=r"expected a 2x2 state, got shape \(4, 4\)"):
        gamma_from_density(np.eye(4) / 4)


# ---------------------------------------------------------------- the curve

def test_decoherence_curve_layout_and_anchors():
    grid = np.arange(0.0, 300.0 + 1e-9, 1.0)
    curve = decoherence_curve(DEFAULT_SPECTRUM, grid)
    assert curve.shape == (301, 2)
    np.testing.assert_allclose(curve[:, 0], grid, atol=1e-12)
    assert curve[0, 1] == pytest.approx(1.0)
    assert curve[152, 1] == pytest.approx(5.696058297229364e-05, abs=1e-12)
    assert curve[153, 1] == pytest.approx(0.0065920584291184, abs=1e-12)


def test_decoherence_curve_rejects_bad_grids():
    for grid in ([], [[0.0, 1.0]], [0.0, float("nan")], [float("inf")]):
        with pytest.raises(OutOfRangeError):
            decoherence_curve(DEFAULT_SPECTRUM, grid)


def test_curve_to_csv_format():
    curve = decoherence_curve(DEFAULT_SPECTRUM, np.array([0.0, 153.0]))
    text = curve_to_csv(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "opd_over_lambda0,gamma_abs"
    assert lines[1] == "0,1"
    assert lines[2] == "153,0.00659205843"


# ----------------------------------------------------- one-photon pipeline

def test_single_photon_run_exact_recovers_gamma():
    # integer counts quantize probabilities at 0.5/flux, so the noise-free
    # check needs a flux that pushes quantization well below the tolerance
    cfg = SourceConfig(pair_rate=1e10, accidental_rate=0.0, duration=1.0, seed=0)
    for ratio in (0.0, 40.0, 151.0, 200.0):
        element = BirefringentElement(ratio * LAM0)
        run = simulate_single_photon_experiment(DEFAULT_SPECTRUM, element, cfg, exact=True)
        expected = abs(gamma(DEFAULT_SPECTRUM, element))
        assert run.gamma_abs == pytest.approx(expected, abs=1e-9)
        assert run.rho.shape == (2, 2)
        assert len(run.records) == 4
        assert all(s.arm2 is None for s in run.records.settings)


def test_single_photon_run_subtracts_accidental_floor():
    cfg = SourceConfig(pair_rate=300.0, accidental_rate=1.0, duration=100.0, seed=0)
    run = simulate_single_photon_experiment(
        DEFAULT_SPECTRUM, BirefringentElement(0.0), cfg, exact=True
    )
    assert run.gamma_abs == pytest.approx(1.0, abs=1e-9)


def test_single_photon_run_noisy_statistics():
    cfg = SourceConfig(pair_rate=30000.0, accidental_rate=0.0, duration=1.0, seed=3)
    element = BirefringentElement(40.0 * LAM0)
    run = simulate_single_photon_experiment(DEFAULT_SPECTRUM, element, cfg)
    expected = abs(gamma(DEFAULT_SPECTRUM, element))
    # ~30000 counts per setting: a few-sigma window is a few parts in 1e2
    assert run.gamma_abs == pytest.approx(expected, abs=0.05)
    again = simulate_single_photon_experiment(DEFAULT_SPECTRUM, element, cfg)
    assert run.gamma_abs == again.gamma_abs


def test_single_photon_gamma_bias_at_the_envelope_peak_and_zero():
    """Seeded |gamma| bias of the single-photon run, 2,000 seeds (10,000 to
    11,999) a case at 300 pairs/s and 1 accidental/s, against the exact
    |gamma|.  Windows, declared before the run, near 5 standard errors:

    - OPD 0 (|gamma| = 1): -0.0060 in [-0.0075, -0.0045] at 100 s a setting,
      and -0.057 in [-0.065, -0.048] at 1 s; a Bloch vector outside the ball
      is projected back onto it, so an estimate never exceeds 1;
    - the first zero of the envelope, l0 / dl = 152 l0 (|gamma| = 5.7e-5):
      +0.0124 in [0.0115, 0.0135] at 100 s and +0.126 in [0.118, 0.134] at
      1 s, the Rayleigh mean sigma * sqrt(pi / 2) of the noise on the
      coherence;
    - no run is refused, at 1 s as at 100 s.
    """
    windows = {(0.0, 100.0): (-0.0075, -0.0045), (0.0, 1.0): (-0.065, -0.048),
               (152.0, 100.0): (0.0115, 0.0135), (152.0, 1.0): (0.118, 0.134)}
    for (ratio, duration), (low, high) in windows.items():
        element = BirefringentElement(ratio * LAM0)
        estimates = [
            simulate_single_photon_experiment(
                DEFAULT_SPECTRUM, element,
                SourceConfig(pair_rate=300.0, accidental_rate=1.0, duration=duration, seed=seed),
            ).gamma_abs
            for seed in range(10_000, 12_000)
        ]
        bias = np.mean(estimates) - abs(gamma(DEFAULT_SPECTRUM, element))
        assert low <= bias <= high, (ratio, duration, bias)
        assert max(estimates) <= 1.0 + 1e-12
