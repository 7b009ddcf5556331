import numpy as np
import pytest

from wernerlab import analysis
from wernerlab.analysis import (
    DEFAULT_ANGLES,
    ChshAngles,
    angles_for_target,
    chsh_from_counts,
    chsh_schedule,
    chsh_value,
    concurrence,
    fidelity,
    fit_werner,
    linear_entropy,
    tangle,
)
from wernerlab.errors import NotPSDError, OutOfRangeError, UnknownLabelError
from wernerlab.polarimetry import SourceConfig, simulate_counts
from wernerlab.states import (
    BELL_KINDS,
    bell_state,
    local_unitary,
    pure_to_density,
    werner_phi_minus,
    werner_singlet,
)

from conftest import random_density

RT8 = 2.0 * np.sqrt(2.0)


# ---------------------------------------------------------------- fidelity

def test_fidelity_pure_states_is_overlap(rng):
    psi = bell_state("phi-minus")
    phi = bell_state("psi-plus")
    assert fidelity(pure_to_density(psi), pure_to_density(phi)) == pytest.approx(0.0, abs=1e-12)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    overlap = abs(np.vdot(psi, v)) ** 2
    assert fidelity(pure_to_density(psi), pure_to_density(v)) == pytest.approx(overlap, abs=1e-10)


def test_fidelity_self_and_symmetry(rng):
    a = random_density(rng)
    b = random_density(rng)
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-10)
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)
    assert 0.0 <= fidelity(a, b) <= 1.0


def test_fidelity_against_closed_form():
    target = pure_to_density(bell_state("phi-minus"))
    for x in np.linspace(0.0, 1.0, 21):
        assert fidelity(werner_phi_minus(x), target) == pytest.approx((1 + 3 * x) / 4, abs=1e-10)


def test_fidelity_commuting_case(rng):
    # diagonal states: F = (sum_i sqrt(p_i q_i))^2
    p = rng.uniform(0.1, 1.0, size=4)
    q = rng.uniform(0.1, 1.0, size=4)
    p /= p.sum()
    q /= q.sum()
    expected = np.sum(np.sqrt(p * q)) ** 2
    assert fidelity(np.diag(p).astype(complex), np.diag(q).astype(complex)) == pytest.approx(
        expected, abs=1e-12
    )


# ----------------------------------------------------- mixedness and tangle

def test_linear_entropy_anchors():
    assert linear_entropy(pure_to_density(bell_state("phi-plus"))) == pytest.approx(0.0, abs=1e-12)
    assert linear_entropy(np.eye(4, dtype=complex) / 4) == pytest.approx(1.0)
    for x in np.linspace(0.0, 1.0, 11):
        assert linear_entropy(werner_phi_minus(x)) == pytest.approx(1 - x * x, abs=1e-12)


def test_concurrence_werner_closed_form():
    for x in np.linspace(0.0, 1.0, 21):
        expected = max(0.0, (3 * x - 1) / 2)
        assert concurrence(werner_phi_minus(x)) == pytest.approx(expected, abs=1e-9)
        assert tangle(werner_phi_minus(x)) == pytest.approx(expected**2, abs=1e-9)


def test_concurrence_bell_states_maximal():
    for kind in BELL_KINDS:
        assert concurrence(pure_to_density(bell_state(kind))) == pytest.approx(1.0, abs=1e-9)


def test_concurrence_separable_zero():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |HH><HH|
    assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)
    assert concurrence(np.eye(4, dtype=complex) / 4) == pytest.approx(0.0, abs=1e-12)


def test_singlet_concurrence_threshold():
    for f in np.arange(0.0, 1.0 + 1e-9, 0.05):
        expected = max(0.0, 2 * f - 1)
        assert concurrence(werner_singlet(f)) == pytest.approx(expected, abs=1e-9)


# ------------------------------------------------------------- werner fits

def test_fit_werner_recovers_parameter():
    for x in (-1.0 / 3.0, 0.0, 0.1, 0.405, 0.801, 1.0):
        fit = fit_werner(werner_phi_minus(x))
        assert fit.x == pytest.approx(x, abs=1e-4)
        # near the x = 1 boundary the fidelity is linear in the offset, so
        # the search tolerance of 1e-5 in x shows up directly here
        assert fit.fidelity == pytest.approx(1.0, abs=2e-5)
        assert fit.target == "phi-minus"


def test_fit_werner_other_targets():
    rho = local_unitary(
        werner_phi_minus(0.64),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.eye(2, dtype=complex),
    )
    fit = fit_werner(rho, target="psi-minus")
    assert fit.x == pytest.approx(0.64, abs=1e-4)
    assert fit.fidelity == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(UnknownLabelError):
        fit_werner(rho, target="octet")


@pytest.mark.parametrize("target", BELL_KINDS)
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_fit_werner_fidelity_is_maximum(rng, rank, target):
    """No grid value of x should beat the reported optimum.

    Below full rank the optimum sits at or near an end of the interval, where
    the fidelity is steep in x, so the search tolerance of 1e-5 in x shows up
    in the fidelity (worst gap seen on 300 such states: 2.1e-6).
    """
    rho = random_density(rng, rank=rank)
    fit = fit_werner(rho, target=target)
    proj = pure_to_density(bell_state(target))
    slack = 1e-7 if rank == 4 else 1e-5
    for x in np.linspace(-1 / 3, 1.0, 200):
        assert fidelity(rho, x * proj + (1 - x) / 4 * np.eye(4)) <= fit.fidelity + slack


def test_fit_werner_makes_at_most_30_fidelity_evaluations(monkeypatch, rng):
    calls = []

    def counted(a, b):
        calls.append(1)
        return fidelity(a, b)

    monkeypatch.setattr(analysis, "fidelity", counted)
    for rho in (random_density(rng), werner_phi_minus(1.0)):
        calls.clear()
        fit_werner(rho)
        assert 0 < len(calls) <= 30


def test_fit_werner_rejects_unphysical():
    with pytest.raises(NotPSDError):
        fit_werner(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


# -------------------------------------------------------------------- CHSH

def test_chsh_value_linear_in_x():
    for x in np.linspace(0.0, 1.0, 21):
        assert chsh_value(werner_phi_minus(x)) == pytest.approx(RT8 * x, abs=1e-9)


def test_chsh_optimal_angles_per_bell_state():
    for kind in BELL_KINDS:
        rho = pure_to_density(bell_state(kind))
        assert chsh_value(rho, angles_for_target(kind)) == pytest.approx(RT8, abs=1e-9)
    with pytest.raises(UnknownLabelError):
        angles_for_target("w-state")


def test_default_angles():
    assert DEFAULT_ANGLES == ChshAngles(-22.5, 22.5, 0.0, 45.0)
    assert DEFAULT_ANGLES.as_tuple() == (-22.5, 22.5, 0.0, 45.0)


def test_chsh_classical_boundary():
    f_star = (2 + 3 * np.sqrt(2)) / 8
    s = chsh_value(werner_singlet(f_star), angles_for_target("psi-minus"))
    assert s == pytest.approx(2.0, abs=1e-9)


def test_chsh_schedule_layout():
    sched = chsh_schedule(DEFAULT_ANGLES)
    assert len(sched) == 16
    a, ap, b, bp = DEFAULT_ANGLES.as_tuple()
    # each quadruple measures (a, b), (a+90, b+90), (a+90, b), (a, b+90)
    first = sched[:4]
    assert [(s.arm1, s.arm2) for s in first] == [
        (a, b), (a + 90, b + 90), (a + 90, b), (a, b + 90)
    ]
    pair_heads = [(sched[4 * k].arm1, sched[4 * k].arm2) for k in range(4)]
    assert pair_heads == [(a, b), (ap, b), (a, bp), (ap, bp)]


@pytest.mark.parametrize("accidental_rate", [0.0, 100.0])
def test_chsh_from_counts_matches_exact_value(accidental_rate):
    rho = werner_phi_minus(0.801)
    sched = chsh_schedule(DEFAULT_ANGLES)
    cfg = SourceConfig(pair_rate=30000.0, accidental_rate=accidental_rate,
                       duration=100.0, seed=0)
    recs = simulate_counts(rho, sched, cfg, exact=True)
    est = chsh_from_counts(recs)
    assert est.s == pytest.approx(chsh_value(rho), abs=1e-4)
    assert len(est.correlations) == 4
    assert est.sigma > 0


def test_chsh_sigma_equal_counts():
    """With all 16 counts equal to c, each holding a expected accidentals,
    the propagated error is sqrt(c)/(c - a): 1/sqrt(c) without accidentals."""
    from wernerlab.polarimetry import AnalyzerSetting, CoincidenceRecord

    c = 400
    sched = chsh_schedule(DEFAULT_ANGLES)
    for accidental_rate in (0.0, 1.0):
        a = 100.0 * accidental_rate
        recs = [CoincidenceRecord(s, 100.0, c, accidental_rate) for s in sched]
        est = chsh_from_counts(recs)
        assert est.s == pytest.approx(0.0, abs=1e-12)
        assert est.sigma == pytest.approx(np.sqrt(c) / (c - a), rel=1e-12)


def test_chsh_from_counts_needs_16_records():
    sched = chsh_schedule(DEFAULT_ANGLES)
    recs = simulate_counts(werner_phi_minus(0.5), sched, SourceConfig(seed=0))
    with pytest.raises(OutOfRangeError):
        chsh_from_counts(recs[:12])
