import json

import numpy as np
import pytest

from wernerlab import fixtures, polarimetry, tomography
from wernerlab.analysis import (
    DEFAULT_ANGLES,
    ChshAngles,
    angles_for_target,
    chsh_from_counts,
    chsh_schedule,
)
from wernerlab.errors import EmptyDataError, OutOfRangeError, UnknownLabelError
from wernerlab.polarimetry import (
    POLARIZATION_LABELS,
    AnalyzerSetting,
    CountRun,
    SourceConfig,
    _born_probabilities,
    jones_vector,
    poisson_sample,
    projector,
    records_from_json,
    records_to_json,
    simulate_counts,
    tomographic_settings,
)
from wernerlab.states import BELL_KINDS, bell_state, pure_to_density, werner_phi_minus

from conftest import random_density, same_run, take

RT2 = np.sqrt(2.0)

# the fixed 16-setting schedule, in acquisition order
SCHEDULE = [
    ("H", "H"), ("H", "V"), ("V", "V"), ("V", "H"),
    ("R", "H"), ("R", "V"), ("D", "V"), ("D", "H"),
    ("D", "R"), ("D", "D"), ("R", "D"), ("H", "D"),
    ("V", "D"), ("V", "L"), ("H", "L"), ("R", "L"),
]


def test_jones_vectors():
    np.testing.assert_allclose(jones_vector("H"), [1, 0], atol=1e-15)
    np.testing.assert_allclose(jones_vector("V"), [0, 1], atol=1e-15)
    np.testing.assert_allclose(jones_vector("D"), [1 / RT2, 1 / RT2], atol=1e-15)
    np.testing.assert_allclose(jones_vector("A"), [1 / RT2, -1 / RT2], atol=1e-15)
    np.testing.assert_allclose(jones_vector("R"), [1 / RT2, -1j / RT2], atol=1e-15)
    np.testing.assert_allclose(jones_vector("L"), [1 / RT2, 1j / RT2], atol=1e-15)
    assert set(POLARIZATION_LABELS) == {"H", "V", "D", "A", "R", "L"}


def test_jones_vector_accepts_angles():
    np.testing.assert_allclose(jones_vector(0.0), [1, 0], atol=1e-15)
    np.testing.assert_allclose(jones_vector(90.0), [0, 1], atol=1e-12)
    np.testing.assert_allclose(jones_vector(45.0), [1 / RT2, 1 / RT2], atol=1e-15)
    with pytest.raises(UnknownLabelError):
        jones_vector("Q")
    with pytest.raises(OutOfRangeError):
        jones_vector(float("nan"))


def test_projector_right_circular():
    # P_R = (I - sigma_y) / 2
    np.testing.assert_allclose(
        projector("R"), 0.5 * np.array([[1.0, 1j], [-1j, 1.0]]), atol=1e-15
    )


def test_projectors_are_projectors():
    for label in POLARIZATION_LABELS:
        p = projector(label)
        np.testing.assert_allclose(p, p @ p, atol=1e-15)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-15)
        assert np.trace(p).real == pytest.approx(1.0)


def test_analyzer_setting_projector_structure():
    s = AnalyzerSetting("D", "V")
    np.testing.assert_allclose(s.projector(), np.kron(projector("D"), projector("V")), atol=1e-15)
    single = AnalyzerSetting("R")
    assert single.arm2 is None
    np.testing.assert_allclose(single.projector(), projector("R"), atol=1e-15)


def test_analyzer_setting_holds_angles_as_floats():
    for arm in (np.array(30.0), np.float32(30.0), np.int64(30), 30):
        setting = AnalyzerSetting(arm, "H")
        assert type(setting.arm1) is float and setting.arm2 == "H"
        assert setting == AnalyzerSetting(30.0, "H")
        assert hash(setting) == hash(AnalyzerSetting(30.0, "H"))
        assert setting.projector().tobytes() == AnalyzerSetting(30.0, "H").projector().tobytes()
    labels = AnalyzerSetting(np.str_("D"), "R")
    assert isinstance(labels.arm1, str) and labels.arm2 == "R"
    assert AnalyzerSetting(np.array(45.0)).arm2 is None


def _mixed_schedules():
    """Seeded random two-photon schedules of labels and angles."""
    rng = np.random.default_rng(19)
    arms = list(POLARIZATION_LABELS) + [0.0, 22.5, -45.0, 90.0]

    def arm():
        return arms[rng.integers(len(arms))] if rng.random() < 0.6 else rng.uniform(-180, 180)

    return [[AnalyzerSetting(arm(), arm()) for _ in range(16)] for _ in range(8)]


def _outer(arm):
    v = jones_vector(arm)
    return np.outer(v, v.conj())


@pytest.mark.parametrize(
    "settings",
    [tomographic_settings()]
    + [chsh_schedule(angles_for_target(kind)) for kind in BELL_KINDS]
    + _mixed_schedules()
    + [[AnalyzerSetting(arm) for arm in POLARIZATION_LABELS],
       [AnalyzerSetting(arm) for arm in (0.0, 22.5, -45.0, 90.0, 137.3, -11.25)],
       [AnalyzerSetting(arm) for arm in "HVDR"]],
    ids=["tomographic"] + [f"chsh-{kind}" for kind in BELL_KINDS]
    + [f"mixed-{i}" for i in range(8)]
    + ["one-photon-labels", "one-photon-angles", "one-photon-hvdr"],
)
def test_projector_stack_rows_equal_numpy_kron_bit_for_bit(settings):
    # np.outer and np.kron are the reference; a one-photon row is the outer
    # product alone, and so is the one-arm projector
    stack = polarimetry._projector_stack(settings)
    expected = np.array([(_outer(s.arm1) if s.arm2 is None
                          else np.kron(_outer(s.arm1), _outer(s.arm2))).T.ravel()
                         for s in settings])
    assert stack.dtype == expected.dtype
    assert stack.tobytes() == expected.tobytes()
    for s in settings:
        assert projector(s.arm1).tobytes() == _outer(s.arm1).tobytes()


def test_born_probability_bell_examples():
    rho = pure_to_density(bell_state("phi-minus"))
    pairs = [AnalyzerSetting(a, b) for a, b in ("HH", "HV", "DD", "DA")]
    p_hh, p_hv, p_dd, p_da = _born_probabilities(rho, pairs)
    assert p_hh == pytest.approx(0.5)
    assert p_hv == pytest.approx(0.0, abs=1e-15)
    assert p_dd == pytest.approx(0.0, abs=1e-15)
    assert p_da == pytest.approx(0.5)
    # polarizer at 45 degrees on |H>
    rho_h = np.array([[1, 0], [0, 0]], dtype=complex)
    assert _born_probabilities(rho_h, [AnalyzerSetting(45.0)])[0] == pytest.approx(0.5)
    assert _born_probabilities(rho_h, [AnalyzerSetting(30.0)])[0] == pytest.approx(0.75)


def test_born_probability_shape_checks():
    rho4 = np.eye(4, dtype=complex) / 4
    rho2 = np.eye(2, dtype=complex) / 2
    with pytest.raises(UnknownLabelError):
        _born_probabilities(rho4, [AnalyzerSetting("H")])
    with pytest.raises(UnknownLabelError):
        _born_probabilities(rho2, [AnalyzerSetting("H", "V")])


def test_basis_completeness_on_random_state(rng):
    rho = random_density(rng)
    total = sum(
        _born_probabilities(rho, [AnalyzerSetting(a, b)])[0]
        for a in ("H", "V")
        for b in ("H", "V")
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_tomographic_settings_schedule():
    settings = tomographic_settings()
    assert len(settings) == 16
    assert [(s.arm1, s.arm2) for s in settings] == SCHEDULE
    assert tomography._block(tuple(settings)).tolist() == [0, 1, 2, 3]


def test_source_config_validation():
    cfg = SourceConfig()
    assert cfg.pair_rate == 300.0
    assert cfg.accidental_rate == 1.0
    assert cfg.duration == 100.0
    with pytest.raises(OutOfRangeError):
        SourceConfig(pair_rate=-1.0)
    with pytest.raises(OutOfRangeError):
        SourceConfig(duration=0.0)
    with pytest.raises(OutOfRangeError):
        SourceConfig(accidental_rate=-0.5)
    for bad in (float("inf"), float("nan")):
        for field in ("pair_rate", "accidental_rate", "duration"):
            with pytest.raises(OutOfRangeError):
                SourceConfig(**{field: bad})


def test_poisson_sample_statistics():
    rng = np.random.default_rng(7)
    assert poisson_sample(rng, 0.0) == 0
    for mean in (4.0, 30.0, 2500.0):
        draws = np.array([poisson_sample(rng, mean) for _ in range(4000)])
        assert abs(draws.mean() - mean) < 4 * np.sqrt(mean / 4000)
        assert abs(draws.var() / mean - 1.0) < 0.15
    with pytest.raises(OutOfRangeError):
        poisson_sample(rng, -1.0)


def test_poisson_sample_deterministic():
    a = [poisson_sample(np.random.default_rng(11), 100.0) for _ in range(5)]
    b = [poisson_sample(np.random.default_rng(11), 100.0) for _ in range(5)]
    assert a == b


def test_simulate_counts_exact_mode():
    rho = werner_phi_minus(0.801)
    cfg = SourceConfig(pair_rate=300.0, accidental_rate=1.0, duration=100.0, seed=0)
    recs = simulate_counts(rho, tomographic_settings(), cfg, exact=True)
    assert len(recs) == 16
    flux = 300.0 * 100.0
    for setting, count in zip(recs.settings, recs.counts.tolist()):
        p = _born_probabilities(rho, [setting])[0]
        assert count == round(flux * p + 1.0 * 100.0)
    assert recs.duration == 100.0


def test_simulate_counts_deterministic():
    rho = werner_phi_minus(0.5)
    cfg = SourceConfig(seed=3)
    a = simulate_counts(rho, tomographic_settings(), cfg)
    b = simulate_counts(rho, tomographic_settings(), cfg)
    assert a.counts.tolist() == b.counts.tolist()
    c = simulate_counts(rho, tomographic_settings(), SourceConfig(seed=4))
    assert a.counts.tolist() != c.counts.tolist()


def test_simulate_counts_scales_with_duration():
    rho = werner_phi_minus(0.0)
    long = simulate_counts(rho, tomographic_settings(), SourceConfig(duration=400.0, seed=0), exact=True)
    short = simulate_counts(rho, tomographic_settings(), SourceConfig(duration=100.0, seed=0), exact=True)
    assert sum(long.counts.tolist()) == 4 * sum(short.counts.tolist())


def _reference_counts(rho, settings, config, exact):
    """The per-setting Born rule: ``N tr(rho P) + floor`` for each setting,
    rounded, or drawn with one scalar Poisson draw per setting."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    flux = config.pair_rate * config.duration
    floor = config.accidental_rate * config.duration
    counts = []
    for s in settings:
        mean = flux * np.trace(rho @ s.projector()).real + floor
        counts.append(int(round(mean)) if exact else poisson_sample(rng, mean))
    return counts


def _two_photon_states():
    rng = np.random.default_rng(20240817)
    states = [pytest.param(werner_phi_minus(x), id=f"werner-{x}") for x in (0.0, 0.405, 0.801, 1.0)]
    states += [pytest.param(fixtures.load(name), id=name) for name in fixtures.FIXTURE_NAMES]
    states += [
        pytest.param(random_density(rng, rank=r), id=f"ginibre-rank-{r}") for r in (1, 2, 3, 4)
    ]
    return states


def _reduced(rho):
    """The one-photon state of the first arm."""
    return np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("rho", _two_photon_states())
def test_simulate_counts_equals_the_per_setting_born_rule(rho, exact):
    # one projector-stack product and one Poisson draw per schedule give the
    # counts of one trace and one draw per setting, bit for bit
    schedules = [
        (rho, tomographic_settings()),
        (rho, chsh_schedule(DEFAULT_ANGLES)),
        (_reduced(rho), [AnalyzerSetting(label) for label in "HVDR"]),
    ]
    for seed in range(10):
        config = SourceConfig(seed=seed)
        for state, settings in schedules:
            records = simulate_counts(state, settings, config, exact=exact)
            assert list(records.settings) == list(settings)
            counts = records.counts.tolist()
            assert all(type(c) is int for c in counts)
            assert counts == _reference_counts(state, settings, config, exact)


def test_simulate_counts_empty_and_mixed_schedules():
    rho = werner_phi_minus(0.801)
    for state, exact in ((rho, False), (rho, True), (_reduced(rho), False)):
        empty = simulate_counts(state, [], SourceConfig(), exact=exact)
        assert empty.settings == () and empty.counts.shape == (0,)
    mixed = tomographic_settings()[:4] + [AnalyzerSetting("H")]
    with pytest.raises(UnknownLabelError):
        simulate_counts(rho, mixed, SourceConfig())
    with pytest.raises(UnknownLabelError):
        simulate_counts(_reduced(rho), mixed[::-1], SourceConfig())


def _chsh_run(counts):
    """A counted CHSH run at t1 = t2 = 0, whose first quadruple is HH, VV, VH, HV."""
    return CountRun(chsh_schedule(ChshAngles(0.0, 45.0, 0.0, 45.0)), np.array(counts), 100.0)


def test_correlation_from_counts():
    run = _chsh_run([854, 854, 146, 146] * 4)
    assert [(s.arm1, s.arm2) for s in run.settings[:4]] == [(0.0, 0.0), (90.0, 90.0),
                                                            (90.0, 0.0), (0.0, 90.0)]
    # (854 + 854 - 146 - 146) / 2000
    assert chsh_from_counts(run).correlations[0] == pytest.approx(0.708)


def test_correlation_error_paths():
    run = _chsh_run([0] * 4 + [854, 854, 146, 146] * 3)
    with pytest.raises(EmptyDataError):
        chsh_from_counts(run)
    with pytest.raises(OutOfRangeError):
        chsh_from_counts(take(run, slice(3)))


def test_records_json_roundtrip():
    rho = werner_phi_minus(0.801)
    recs = simulate_counts(rho, tomographic_settings(), SourceConfig(seed=1))
    doc = records_to_json(recs)
    assert doc["duration_s"] == 100.0
    assert doc["accidentals_per_s"] == 1.0
    back = records_from_json(json.loads(json.dumps(doc)))
    assert [(s.arm1, s.arm2) for s in back.settings] == [(s.arm1, s.arm2) for s in recs.settings]
    assert back.counts.tolist() == recs.counts.tolist()
    assert same_run(back, recs)  # including the accidental rate


def test_records_json_accidentals_field():
    recs = CountRun([AnalyzerSetting("H", "V")], [3], 10.0)
    assert "accidentals_per_s" not in records_to_json(recs)
    doc = {"duration_s": 10.0, "records": [{"arm1": "H", "arm2": "V", "count": 3}]}
    assert records_from_json(doc).accidental_rate == 0.0
    for bad in (-1.0, float("nan"), float("inf"), True, "1", None):
        with pytest.raises(ValueError):
            records_from_json({**doc, "accidentals_per_s": bad})


def test_records_json_numeric_arm():
    recs = CountRun([AnalyzerSetting(22.5)], [42], 10.0)
    doc = records_to_json(recs)
    back = records_from_json(doc)
    assert back.settings[0].arm1 == pytest.approx(22.5)
    assert back.settings[0].arm2 is None


def test_records_json_rejects_malformed():
    good = {"duration_s": 10.0, "records": [{"arm1": "H", "arm2": "V", "count": 3}]}
    records_from_json(good)

    with pytest.raises(ValueError):
        records_from_json({"records": [{"arm1": "H", "arm2": "V", "count": 3}]})
    with pytest.raises(ValueError):
        records_from_json({"duration_s": 10.0, "records": [{"arm1": "H", "arm2": "V"}]})
    for bad_count in (-1, 2.5, True, 2**63):
        doc = {"duration_s": 10.0, "records": [{"arm1": "H", "arm2": "V", "count": bad_count}]}
        with pytest.raises(ValueError):
            records_from_json(doc)
    with pytest.raises(EmptyDataError):
        records_from_json({"duration_s": 10.0, "records": []})
    with pytest.raises(OutOfRangeError):
        records_from_json({"duration_s": -1.0, "records": [{"arm1": "H", "arm2": "V", "count": 3}]})
    for bad_duration in (None, float("nan"), float("inf"), True, "10", 10**400):
        with pytest.raises(ValueError):
            records_from_json({**good, "duration_s": bad_duration})
    with pytest.raises(ValueError):
        records_from_json(
            {"duration_s": 10.0, "records": [{"arm1": ["H"], "arm2": "V", "count": 3}]}
        )
    for bad_records in (None, 5, "HV"):
        with pytest.raises(ValueError):
            records_from_json({**good, "records": bad_records})
    for bad_arm in (None, {"deg": None}, {"deg": "22.5"}, {"deg": float("nan")}):
        with pytest.raises(ValueError):
            records_from_json(
                {"duration_s": 10.0, "records": [{"arm1": bad_arm, "arm2": "V", "count": 3}]}
            )


# ------------------------------------------------ simulation reads the schedule memo

def reference_counts(rho, settings, config):
    """The counts of ``simulate_counts``, drawn from the schedule's projector
    stack built on this call."""
    p = (polarimetry._projector_stack(settings).reshape(-1, rho.size) @ rho.ravel()).real
    flux = config.pair_rate * config.duration
    means = flux * np.clip(p, 0.0, 1.0) + config.accidental_rate * config.duration
    return np.random.Generator(np.random.PCG64(config.seed)).poisson(means).astype(np.int64)


def test_simulation_builds_one_stack_per_schedule_and_draws_its_bits(rng):
    polarimetry._schedule_stack.cache_clear()
    cases = [
        (werner_phi_minus(0.801), tomographic_settings()),
        (werner_phi_minus(0.801), chsh_schedule(ChshAngles(3, 51, -17.5, 80))),
        (random_density(rng, 2), [AnalyzerSetting(label) for label in "HVDR"]),
    ]
    for seed in range(3):
        for rho, settings in cases:
            config = SourceConfig(seed=seed)
            run = simulate_counts(rho, list(settings), config)
            assert run.counts.tobytes() == reference_counts(rho, settings, config).tobytes()
            assert run.settings == tuple(settings)
    assert polarimetry._schedule_stack.cache_info().misses == len(cases)
    assert polarimetry._schedule_stack.cache_info().hits == 2 * len(cases)


def test_a_caller_that_mutates_its_schedule_changes_no_memo_and_no_later_draw():
    rho, config = werner_phi_minus(0.801), SourceConfig(seed=4)
    settings = tomographic_settings()
    first = simulate_counts(rho, settings, config)
    settings[0] = AnalyzerSetting("D", "A")
    settings.reverse()
    assert first.settings == tuple(tomographic_settings())
    stack = polarimetry._schedule_stack(tuple(tomographic_settings()))
    assert stack.tobytes() == polarimetry._projector_stack(tomographic_settings()).tobytes()
    again = simulate_counts(rho, tomographic_settings(), config)
    assert again.counts.tobytes() == first.counts.tobytes()
    mutated = simulate_counts(rho, settings, config)
    assert mutated.counts.tobytes() == reference_counts(rho, settings, config).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 0] = 0.0
