"""End-to-end acceptance checks for the whole package.

Each test prints one PASS/FAIL line per sub-check (run with ``-s`` to see
them all) and asserts on the collected results at the end, so a single
failing sub-check never hides the status of its neighbours.
"""

import numpy as np

from wernerlab import fixtures
from wernerlab.analysis import (
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
from wernerlab.cli import main as cli_main
from wernerlab.decoherence import (
    DEFAULT_SPECTRUM,
    BirefringentElement,
    gamma,
    simulate_single_photon_experiment,
)
from wernerlab.polarimetry import SourceConfig, simulate_counts, tomographic_settings
from wernerlab.qlinalg import min_eigenvalue
from wernerlab.states import werner_phi_minus, werner_singlet
from wernerlab.tomography import linear_reconstruct, mle_reconstruct

LAM0 = DEFAULT_SPECTRUM.center_nm
RT8 = 2.0 * np.sqrt(2.0)
SCHEDULE = tomographic_settings()


def check(results, label, ok, detail=""):
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    if not ok:
        results.append(label)


def finish(results):
    assert not results, f"failed sub-checks: {', '.join(results)}"


def _within(value, center, tol):
    return abs(value - center) <= tol


def test_acceptance_01_reference_sample_one():
    """Fitted mixing parameter and derived metrics of the first bundled sample."""
    failures = []
    rho = fixtures.load("rho1")
    fit = fit_werner(rho)
    check(failures, "1a fitted x = 0.801 +/- 0.010",
          _within(fit.x, 0.801, 0.010), f"x = {fit.x:.6f}")
    check(failures, "1b fit fidelity = 0.932 +/- 0.010",
          _within(fit.fidelity, 0.932, 0.010), f"F = {fit.fidelity:.6f}")
    p = linear_entropy(rho)
    check(failures, "1c linear entropy = 0.46 +/- 0.03",
          _within(p, 0.46, 0.03), f"P = {p:.6f}")
    t = tangle(rho)
    check(failures, "1d tangle = 0.35 +/- 0.02",
          _within(t, 0.35, 0.02), f"T = {t:.6f}")
    finish(failures)


def test_acceptance_02_reference_sample_two():
    """Fitted mixing parameter and derived metrics of the second bundled sample."""
    failures = []
    rho = fixtures.load("rho2")
    fit = fit_werner(rho)
    check(failures, "2a fitted x = 0.405 +/- 0.010",
          _within(fit.x, 0.405, 0.010), f"x = {fit.x:.6f}")
    check(failures, "2b fit fidelity = 0.982 +/- 0.010",
          _within(fit.fidelity, 0.982, 0.010), f"F = {fit.fidelity:.6f}")
    p = linear_entropy(rho)
    check(failures, "2c linear entropy = 0.83 +/- 0.03",
          _within(p, 0.83, 0.03), f"P = {p:.6f}")
    t = tangle(rho)
    check(failures, "2d tangle = 0.01 +/- 0.015",
          _within(t, 0.01, 0.015), f"T = {t:.6f}")
    finish(failures)


def test_acceptance_03_chsh_values_of_werner_mixtures():
    """CHSH statistic of the one-parameter mixture family at optimal angles."""
    failures = []
    s1 = chsh_value(werner_phi_minus(0.801))
    check(failures, "3a S(x=0.801) = 2.266 +/- 0.002",
          _within(s1, 2.266, 0.002), f"S = {s1:.6f}")
    s2 = chsh_value(werner_phi_minus(0.405))
    check(failures, "3b S(x=0.405) = 1.146 +/- 0.002",
          _within(s2, 1.146, 0.002), f"S = {s2:.6f}")
    grid = np.arange(0.0, 1.0 + 1e-12, 0.05)
    worst = max(abs(chsh_value(werner_phi_minus(x)) - RT8 * x) for x in grid)
    check(failures, "3c |S| = 2*sqrt(2)*x within 1e-9 on the 0.05 grid",
          worst <= 1e-9, f"worst deviation {worst:.3e}")
    finish(failures)


def test_acceptance_04_singlet_fraction_thresholds():
    """Classical boundaries of the singlet-fraction family."""
    failures = []
    f_star = (2.0 + 3.0 * np.sqrt(2.0)) / 8.0
    s = chsh_value(werner_singlet(f_star), angles_for_target("psi-minus"))
    check(failures, "4a S = 2.000 +/- 0.002 at f = (2+3*sqrt(2))/8",
          _within(s, 2.000, 0.002), f"S = {s:.6f}")
    grid = np.arange(0.0, 0.5 + 1e-12, 0.01)
    worst = max(concurrence(werner_singlet(f)) for f in grid)
    check(failures, "4b concurrence = 0 for all f <= 0.5 on the 0.01 grid",
          worst == 0.0, f"max concurrence {worst:.3e}")
    finish(failures)


def test_acceptance_05_tomography_pipeline_fidelity():
    """Simulated counts -> MLE reconstruction recovers the source state.

    Twenty seeded runs per mixing parameter at 300 pairs/s for 100 s per
    setting with a 1/s accidental floor.  The reconstruction must be PSD in
    every run and reach fidelity 0.99 to the source in at least 19 of 20.
    """
    failures = []
    for x in (0.0, 0.405, 0.801, 1.0):
        truth = werner_phi_minus(x)
        good = 0
        psd = 0
        worst_fid = 1.0
        for seed in range(20):
            cfg = SourceConfig(pair_rate=300.0, accidental_rate=1.0,
                               duration=100.0, seed=seed)
            recs = simulate_counts(truth, SCHEDULE, cfg)
            result = mle_reconstruct(recs)
            if min_eigenvalue(result.rho) >= -1e-9:
                psd += 1
            f = fidelity(result.rho, truth)
            worst_fid = min(worst_fid, f)
            if f >= 0.99:
                good += 1
        check(failures, f"5 x={x}: fidelity >= 0.99 in >= 19/20 runs",
              good >= 19, f"{good}/20, worst fidelity {worst_fid:.5f}")
        check(failures, f"5 x={x}: reconstruction PSD in 20/20 runs",
              psd == 20, f"{psd}/20")
    finish(failures)


def test_acceptance_06_mle_repairs_unphysical_inversions():
    """Linear inversion goes unphysical on noisy data; MLE always repairs it.

    Counts are drawn from the first bundled sample (fitted x = 0.801), whose
    smallest eigenvalue sits at the physical boundary, at the same source
    statistics as above.
    """
    failures = []
    rho = fixtures.load("rho1")
    negative_runs = []
    for seed in range(100):
        cfg = SourceConfig(pair_rate=300.0, accidental_rate=1.0,
                           duration=100.0, seed=seed)
        recs = simulate_counts(rho, SCHEDULE, cfg)
        if linear_reconstruct(recs).min_eigenvalue < 0:
            negative_runs.append(recs)
    check(failures, "6a linear inversion unphysical in >= 10/100 runs",
          len(negative_runs) >= 10, f"{len(negative_runs)}/100")
    repaired = sum(
        1
        for recs in negative_runs
        if min_eigenvalue(mle_reconstruct(recs).rho) >= -1e-9
    )
    check(failures, "6b MLE repairs every unphysical run",
          repaired == len(negative_runs), f"{repaired}/{len(negative_runs)}")
    finish(failures)


def test_acceptance_07_decoherence_curve():
    """Visibility envelope of the rectangular spectrum and its measurement."""
    failures = []

    ratios = np.arange(150.0, 154.0, 0.001)
    mags = np.array(
        [abs(gamma(DEFAULT_SPECTRUM, BirefringentElement(r * LAM0))) for r in ratios]
    )
    first_zero = ratios[mags.argmin()]
    check(failures, "7a first |gamma| zero at L/lambda0 = 152.0 +/- 0.5",
          _within(first_zero, 152.0, 0.5), f"zero at {first_zero:.3f}")

    g153 = abs(gamma(DEFAULT_SPECTRUM, BirefringentElement(153.0 * LAM0)))
    check(failures, "7b |gamma(153 lambda0)| <= 0.01", g153 <= 0.01, f"{g153:.6f}")

    grid = np.linspace(0.0, 250.0, 50)
    u0 = 1.0 / DEFAULT_SPECTRUM.center_nm
    du = DEFAULT_SPECTRUM.fwhm_nm / DEFAULT_SPECTRUM.center_nm**2
    u = np.linspace(u0 - du / 2.0, u0 + du / 2.0, 20001)
    step = u[1] - u[0]
    worst = 0.0
    for ratio in grid:
        opd = ratio * LAM0
        phase = np.exp(2j * np.pi * opd * u)
        ref = step * (phase[0] / 2 + phase[1:-1].sum() + phase[-1] / 2) / du
        worst = max(worst, abs(gamma(DEFAULT_SPECTRUM, BirefringentElement(opd)) - ref))
    check(failures, "7c matches independent quadrature within 1e-6 on 50 points",
          worst < 1e-6, f"worst deviation {worst:.3e}")

    cfg = SourceConfig(pair_rate=1e10, accidental_rate=0.0, duration=1.0, seed=0)
    worst = 0.0
    for ratio in grid:
        element = BirefringentElement(ratio * LAM0)
        run = simulate_single_photon_experiment(DEFAULT_SPECTRUM, element, cfg, exact=True)
        worst = max(worst, abs(run.gamma_abs - abs(gamma(DEFAULT_SPECTRUM, element))))
    check(failures, "7d noise-free measurement recovers |gamma| within 1e-9",
          worst <= 1e-9, f"worst deviation {worst:.3e}")
    finish(failures)


def test_acceptance_08_chsh_count_statistics():
    """Seeded CHSH trials against their propagated standard error.

    Accidentals are off here: the maximal-violation comparison is against
    ideal pair-count statistics.
    """
    failures = []
    sched = chsh_schedule(angles_for_target("phi-minus"))
    bell = werner_phi_minus(1.0)
    hits = 0
    for seed in range(50):
        cfg = SourceConfig(pair_rate=300.0, accidental_rate=0.0,
                           duration=100.0, seed=seed)
        est = chsh_from_counts(simulate_counts(bell, sched, cfg))
        if abs(est.s - RT8) <= 3.0 * est.sigma:
            hits += 1
    check(failures, "8a maximal state within 3 sigma of 2*sqrt(2) in >= 47/50",
          hits >= 47, f"{hits}/50")

    weak = werner_phi_minus(0.405)
    excess = 0
    for seed in range(50):
        cfg = SourceConfig(pair_rate=300.0, accidental_rate=0.0,
                           duration=100.0, seed=seed)
        est = chsh_from_counts(simulate_counts(weak, sched, cfg))
        if abs(est.s) - 2.0 > 3.0 * est.sigma:
            excess += 1
    check(failures, "8b x=0.405 never beats 2 by more than 3 sigma",
          excess == 0, f"{excess}/50 runs in excess")
    finish(failures)


def test_acceptance_09_byte_identical_reruns(tmp_path):
    """Identical seeds give byte-identical counts and metrics files."""
    failures = []
    state = tmp_path / "state.json"
    assert cli_main(["gen-state", "werner-phi-minus", "0.801", "--out", str(state)]) == 0

    counts = []
    for tag in ("a", "b"):
        out = tmp_path / f"counts_{tag}.json"
        assert cli_main(["simulate", str(state), "--seed", "3", "--out", str(out)]) == 0
        counts.append(out.read_bytes())
    check(failures, "9a counts files byte-identical across reruns",
          counts[0] == counts[1])

    rho_out = tmp_path / "rho.json"
    assert cli_main(["reconstruct", str(tmp_path / "counts_a.json"),
                     "--method", "mle", "--out", str(rho_out)]) == 0
    metrics = []
    for tag in ("a", "b"):
        out = tmp_path / f"metrics_{tag}.json"
        assert cli_main(["metrics", str(rho_out),
                         "--counts", str(tmp_path / "counts_a.json"),
                         "--bootstrap", "6", "--seed", "0",
                         "--out", str(out)]) == 0
        metrics.append(out.read_bytes())
    check(failures, "9b metrics files byte-identical across reruns",
          metrics[0] == metrics[1])
    finish(failures)
