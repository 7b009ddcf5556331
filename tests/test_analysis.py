import re
from dataclasses import replace

import numpy as np
import pytest

from wernerlab import analysis, polarimetry, tomography
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
    state_metrics,
    tangle,
)
from wernerlab.errors import NonHermitianError, NotPSDError, OutOfRangeError, UnknownLabelError
from wernerlab.polarimetry import (
    AnalyzerSetting,
    SourceConfig,
    simulate_counts,
    tomographic_settings,
)
from wernerlab.qlinalg import kron
from wernerlab.states import (
    BELL_KINDS,
    SIGMA_X,
    bell_state,
    pure_to_density,
    werner_phi_minus,
    werner_singlet,
)

from conftest import random_density, take

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


W = werner_phi_minus(0.8)


@pytest.mark.parametrize("metric", [
    lambda: fidelity(W * 1e200, W * 1e300),
    lambda: concurrence(W * 1e200),
    # one overflowing state of a stack
    lambda: fidelity(np.array([W, W * 1e200]), np.array([W, W * 1e300])),
], ids=["fidelity", "concurrence", "stack"])
def test_a_metric_whose_inner_matrix_overflows_raises(metric):
    # numpy warns of the overflow, which the suite would raise as an error
    with np.errstate(all="ignore"), pytest.raises(NotPSDError, match="non-finite spectrum"):
        metric()


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 2, 2)])
@pytest.mark.parametrize("metric", [linear_entropy, tangle, chsh_value, fit_werner, state_metrics],
                         ids=lambda f: f.__name__)
def test_a_two_photon_metric_refuses_a_matrix_that_is_not_4x4(metric, shape):
    rho = np.broadcast_to(np.eye(shape[-1], dtype=complex) / shape[-1], shape)
    with pytest.raises(NonHermitianError, match=re.escape(f"expected a 4x4 state, got shape {shape}")):
        metric(rho)


@pytest.mark.parametrize("a, b", [((2, 2), (4, 4)), ((4, 4), (2, 2)), ((3, 4, 4), (3, 2, 2))],
                         ids=["2x2-4x4", "4x4-2x2", "stacks"])
def test_fidelity_refuses_states_of_two_sizes(a, b):
    states = [np.broadcast_to(np.eye(s[-1], dtype=complex) / s[-1], s) for s in (a, b)]
    with pytest.raises(NonHermitianError, match=re.escape(f"shapes {a} and {b}")):
        fidelity(*states)


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
    u = np.kron(SIGMA_X, np.eye(2, dtype=complex))
    rho = u @ werner_phi_minus(0.64) @ u.conj().T
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
    the fidelity is steep in x; the search evaluates an end its bracket still
    reaches, so an optimum on an end is found exactly (worst gap seen on 300
    such states: 1.6e-15, and 2.4e-6 with the golden section before it,
    whose tolerance of 1e-5 in x showed up in the fidelity there).
    """
    rho = random_density(rng, rank=rank)
    fit = fit_werner(rho, target=target)
    proj = pure_to_density(bell_state(target))
    slack = 1e-7 if rank == 4 else 1e-5
    for x in np.linspace(-1 / 3, 1.0, 200):
        assert fidelity(rho, x * proj + (1 - x) / 4 * np.eye(4)) <= fit.fidelity + slack
    # the fit evaluates the symmetric form F(sigma(x), rho) on one root of rho
    sigma = fit.x * proj + (1 - fit.x) / 4 * np.eye(4)
    assert fit.fidelity == pytest.approx(fidelity(rho, sigma), abs=1e-13)


def test_fit_werner_makes_at_most_30_fidelity_evaluations(monkeypatch, rng):
    """Each fidelity evaluation is one call of the spectrum kernel, and the
    whole fit takes one square root of the state, also for a stack."""
    calls = {"_root_spectrum": 0, "psd_sqrt": 0}

    def counted(name):
        original = getattr(analysis, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(analysis, name, counted(name))
    stack = np.array([random_density(rng, rank=r) for r in (1, 2, 3, 4)])
    for rho in (random_density(rng), werner_phi_minus(1.0), stack):
        calls.update({name: 0 for name in calls})
        fit_werner(rho)
        assert 0 < calls["_root_spectrum"] <= 30
        assert calls["psd_sqrt"] == 1


def count_fidelity_evaluations(monkeypatch):
    """Record the number of states of each call of the fit's spectrum kernel."""
    rows = []
    original = analysis._fidelity

    def counted(m):
        rows.append(len(m))
        return original(m)

    monkeypatch.setattr(analysis, "_fidelity", counted)
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_a_bootstrap_stack_takes_at_most_15_fidelity_evaluations(monkeypatch, seed):
    """The point and 20 replicas at x = 0.801, scored in one stack as the
    bootstrap scores them, are fitted in at most 15 stacked evaluations."""
    run = simulate_counts(werner_phi_minus(0.801), tomographic_settings(),
                          SourceConfig(seed=seed))
    point = tomography.mle_reconstruct(run).rho
    rows = count_fidelity_evaluations(monkeypatch)
    tomography.bootstrap_errors(run, point, n_replicas=20, seed=100 + seed)
    assert rows[0] == 21
    assert len(rows) <= 15


def test_a_full_rank_state_takes_at_most_20_fidelity_evaluations(monkeypatch, rng):
    rows = count_fidelity_evaluations(monkeypatch)
    for target in BELL_KINDS:
        for _ in range(10):
            rows.clear()
            fit_werner(random_density(rng), target=target)
            assert 0 < len(rows) <= 20


def golden_reference(f, lo=-1.0 / 3.0, hi=1.0, tol=1e-12):
    """A scalar golden section for the maximum of ``f`` on ``[lo, hi]``, run
    until the bracket is ``tol`` wide; returns its midpoint and ``f`` there."""
    g = (5.0**0.5 - 1.0) / 2.0
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)


def reference_states():
    rng = np.random.default_rng(31337)
    for rank in (1, 2, 3, 4):
        for target in BELL_KINDS:
            for _ in range(2):
                yield f"rank-{rank}", random_density(rng, rank=rank), target
    for x in (0.0, 0.405, 0.801, 1.0):
        for seed in range(3):
            run = simulate_counts(werner_phi_minus(x), tomographic_settings(),
                                  SourceConfig(seed=seed))
            yield f"mle-{x}", tomography.mle_reconstruct(run).rho, "phi-minus"


def test_fit_werner_finds_the_optimum_of_a_fine_golden_section():
    """The fit's x lies within 1e-5 of the optimum that a golden section run
    to 1e-12 finds on the same F(sigma(x), rho), and its fidelity is at most
    1e-6 below that optimum's."""
    for name, rho, target in reference_states():
        proj = pure_to_density(bell_state(target))
        x_ref, f_ref = golden_reference(
            lambda x: fidelity(x * proj + (1.0 - x) / 4.0 * np.eye(4), rho))
        fit = fit_werner(rho, target=target)
        assert abs(fit.x - x_ref) < 1e-5, (name, target, fit.x, x_ref)
        assert fit.fidelity >= f_ref - 1e-6, (name, target, fit.fidelity, f_ref)


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


def operator_sum_chsh(rho, angles):
    """S as the four traces of ``rho`` against the correlation operators
    ``(P(a) - P(a+90)) x (P(b) - P(b+90))``, built on this call."""
    t1, t1p, t2, t2p = angles.as_tuple()

    def analyzer(theta):
        return polarimetry.projector(theta) - polarimetry.projector(theta + 90.0)

    def corr(a, b):
        op = kron(analyzer(a), analyzer(b))
        return np.trace(rho @ op, axis1=-2, axis2=-1).real

    return corr(t1, t2) + corr(t1p, t2) + corr(t1, t2p) - corr(t1p, t2p)


def per_call_chsh(rho, angles):
    """S from the Born probabilities of the CHSH schedule, with its
    projector stack built on this call, one product per state."""
    stack = polarimetry._projector_stack(chsh_schedule(angles))
    p = np.matmul(stack, rho.reshape(*rho.shape[:-2], 16, 1)).real[..., 0]
    e = p[..., 0::4] + p[..., 1::4] - p[..., 2::4] - p[..., 3::4]
    return e[..., 0] + e[..., 1] + e[..., 2] - e[..., 3]


@pytest.mark.parametrize("angles", [*(angles_for_target(k) for k in BELL_KINDS),
                                    ChshAngles(3.0, 51.0, -17.5, 80.0)],
                         ids=[*BELL_KINDS, "custom"])
def test_chsh_value_is_the_per_call_operator_sum_bit_for_bit(rng, angles):
    # bit for bit against the schedule's stack built on the call, and within
    # round-off of the correlation-operator sum
    polarimetry._schedule_stack.cache_clear()
    singles = [random_density(rng, rank=r) for r in (1, 2, 4)] + [werner_phi_minus(0.801)]
    stack = np.array([random_density(rng) for _ in range(6)])
    for _ in range(2):  # built, then read from the memo
        for rho in (*singles, stack):
            got = np.asarray(chsh_value(rho, angles), dtype=float)
            assert got.tobytes() == np.asarray(per_call_chsh(rho, angles)).tobytes()
            assert np.max(np.abs(got - operator_sum_chsh(rho, angles))) <= 1e-14
    assert polarimetry._schedule_stack.cache_info().misses == 1


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


@pytest.mark.parametrize("angles", [*(angles_for_target(k) for k in BELL_KINDS),
                                    ChshAngles(3, 51, -17.5, 80)],
                         ids=[*BELL_KINDS, "custom"])
def test_exact_and_counted_chsh_read_one_schedule_in_one_order(rng, angles):
    # noise-free counts of 1e12 pairs a setting: the counted S is the exact S
    # up to each count's rounding to an integer
    config = SourceConfig(pair_rate=1e6, accidental_rate=0.0, duration=1e6)
    for rho in [random_density(rng, rank=r) for r in (1, 2, 3, 4)]:
        counts = simulate_counts(rho, chsh_schedule(angles), config, exact=True)
        assert abs(chsh_from_counts(counts).s - chsh_value(rho, angles)) <= 1e-10


def test_angles_are_held_as_floats():
    # a 0-d array or an int angle is the float angle, and hashes as one
    rho = werner_phi_minus(0.5)
    want = np.float64(chsh_value(rho, ChshAngles(1.0, 2.0, 3.0, 4.0))).tobytes()
    for angles in (ChshAngles(np.array(1.0), 2.0, 3.0, 4.0),
                   ChshAngles(1, np.float32(2.0), np.int64(3), np.array([4.0])[0])):
        assert all(type(a) is float for a in angles.as_tuple())
        assert angles == ChshAngles(1.0, 2.0, 3.0, 4.0)
        assert np.float64(chsh_value(rho, angles)).tobytes() == want


def test_chsh_sigma_equal_counts():
    """With all 16 counts equal to c, each holding a expected accidentals,
    the propagated error is sqrt(c)/(c - a): 1/sqrt(c) without accidentals."""
    c = 400
    sched = chsh_schedule(DEFAULT_ANGLES)
    for accidental_rate in (0.0, 1.0):
        a = 100.0 * accidental_rate
        recs = polarimetry.CountRun(sched, np.full(16, c), 100.0, accidental_rate)
        est = chsh_from_counts(recs)
        assert est.s == pytest.approx(0.0, abs=1e-12)
        assert est.sigma == pytest.approx(np.sqrt(c) / (c - a), rel=1e-12)


def test_chsh_from_counts_needs_16_records():
    sched = chsh_schedule(DEFAULT_ANGLES)
    recs = simulate_counts(werner_phi_minus(0.5), sched, SourceConfig(seed=0))
    with pytest.raises(OutOfRangeError):
        chsh_from_counts(take(recs, slice(12)))


ANGLE_SETS = [*(angles_for_target(k) for k in BELL_KINDS), ChshAngles(3, 51, -17.5, 80)]
ANGLE_IDS = [*BELL_KINDS, "custom"]


def not_a_chsh_run(kind):
    """A run of 16 settings that are not the CHSH schedule of their own angles."""
    rho, config = werner_phi_minus(0.801), SourceConfig(seed=0)
    if kind == "tomography":
        return simulate_counts(rho, tomographic_settings(), config)
    if kind == "labels":
        # the run at angles (0, 45, 0, 45), with every arm named by its label
        label = {0.0: "H", 90.0: "V", 45.0: "D", 135.0: "A"}
        run = simulate_counts(rho, chsh_schedule(ChshAngles(0, 45, 0, 45)), config)
        return replace(run, settings=[AnalyzerSetting(label[s.arm1], label[s.arm2])
                                      for s in run.settings])
    run = simulate_counts(rho, chsh_schedule(DEFAULT_ANGLES), config)
    if kind == "swapped":  # quadruples 2 and 3
        return take(run, [*range(4), *range(8, 12), *range(4, 8), *range(12, 16)])
    settings = list(run.settings)
    settings[5] = replace(settings[5], arm2=settings[5].arm2 + 1.0)
    return replace(run, settings=settings)


@pytest.mark.parametrize("kind", ["tomography", "swapped", "moved", "labels"])
def test_chsh_from_counts_refuses_records_that_are_not_a_chsh_run(kind):
    records = not_a_chsh_run(kind)
    with pytest.raises(UnknownLabelError):
        chsh_from_counts(records)
    # the schedule is checked before any count is read
    with pytest.raises(UnknownLabelError):
        chsh_from_counts(replace(records, counts=np.zeros(16, dtype=np.int64)))


@pytest.mark.parametrize("angles", ANGLE_SETS, ids=ANGLE_IDS)
def test_chsh_from_counts_reports_the_angles_of_its_run(angles):
    records = simulate_counts(werner_phi_minus(0.801), chsh_schedule(angles), SourceConfig())
    assert chsh_from_counts(records).angles == angles


def test_a_signed_zero_angle_is_held_as_zero():
    # equal angle sets share one memoized schedule, so -0.0 must not reach a
    # setting that a counts file writes: the file would depend on call order
    angles = ChshAngles(-0.0, 45, np.float64(-0.0), 45)
    assert all(np.copysign(1.0, a) == 1.0 for a in angles.as_tuple())
    rho, config = werner_phi_minus(0.8), SourceConfig()
    records = simulate_counts(rho, chsh_schedule(angles), config)
    doc = polarimetry.records_to_json(records)["records"][0]
    assert np.copysign(1.0, doc["arm1"]["deg"]) == np.copysign(1.0, doc["arm2"]["deg"]) == 1.0


def test_chsh_schedule_is_built_once_per_angle_set():
    angles = ChshAngles(3, 51, -17.5, 80)
    assert chsh_schedule(angles) is chsh_schedule(ChshAngles(*angles.as_tuple()))
    assert isinstance(chsh_schedule(angles), tuple)
    rho = werner_phi_minus(0.801)
    for angles in ANGLE_SETS:
        chsh_value(rho, angles)
    misses = chsh_schedule.cache_info().misses
    for _ in range(3):
        for angles in ANGLE_SETS:
            chsh_value(rho, angles)
    assert chsh_schedule.cache_info().misses == misses
