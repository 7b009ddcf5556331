import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from wernerlab import __version__, decoherence, polarimetry
from wernerlab.cli import build_parser, main
from wernerlab.states import density_matrix_from_json, density_matrix_to_json, werner_phi_minus

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(argv):
    return main([str(a) for a in argv])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_defaults_are_the_source_and_spectrum_defaults():
    source = polarimetry.SourceConfig()
    spectrum = decoherence.DEFAULT_SPECTRUM
    counting = {"rate": source.pair_rate, "accidentals": source.accidental_rate,
                "duration": source.duration, "seed": source.seed}
    parser = build_parser()
    for argv in (["simulate", "s.json", "--out", "o.json"],
                 ["pipeline", "--mix", "1", "--out-dir", "d"]):
        args = vars(parser.parse_args(argv))
        assert {k: args[k] for k in counting} == counting
    args = vars(parser.parse_args(["decohere-curve", "--out", "c.csv"]))
    assert (args["lambda0"], args["fwhm"]) == (spectrum.center_nm, spectrum.fwhm_nm)


def test_gen_state_werner(tmp_path):
    out = tmp_path / "state.json"
    assert run(["gen-state", "werner-phi-minus", "0.801", "--out", out]) == 0
    rho = density_matrix_from_json(read_json(out))
    np.testing.assert_allclose(rho, werner_phi_minus(0.801), atol=1e-12)
    manifest = read_json(tmp_path / "state.json.manifest.json")
    assert manifest["tool"] == "wernerlab"
    assert str(out) in manifest["outputs"]


def test_gen_state_bell_and_bad_value(tmp_path):
    out = tmp_path / "bell.json"
    assert run(["gen-state", "bell", "phi-minus", "--out", out]) == 0
    assert run(["gen-state", "bell", "eta-plus", "--out", tmp_path / "x.json"]) == 2
    assert run(["gen-state", "werner-phi-minus", "1.5", "--out", tmp_path / "y.json"]) == 2
    # failed commands must not leave partial output behind
    assert not (tmp_path / "x.json").exists()
    assert not (tmp_path / "y.json").exists()


def test_simulate_reconstruct_metrics_chain(tmp_path, capsys):
    state = tmp_path / "state.json"
    counts = tmp_path / "counts.json"
    rho_out = tmp_path / "rho.json"
    metrics = tmp_path / "metrics.json"

    assert run(["gen-state", "werner-phi-minus", "0.801", "--out", state]) == 0
    assert run(["simulate", state, "--schedule", "tomo", "--seed", 0, "--out", counts]) == 0
    doc = read_json(counts)
    assert doc["duration_s"] == 100.0
    assert len(doc["records"]) == 16

    assert run(["reconstruct", counts, "--method", "mle", "--out", rho_out]) == 0
    report = read_json(tmp_path / "rho.json.report.json")
    assert report["method"] == "mle"
    assert report["converged"] is True
    assert report["cost"] >= 0.0

    assert run(["metrics", rho_out, "--out", metrics]) == 0
    m = read_json(metrics)
    assert m["x"] == pytest.approx(0.801, abs=0.05)
    assert m["x_err"] is None
    assert m["chsh"]["S"] == pytest.approx(2.266, abs=0.15)
    assert m["chsh"]["sigma"] is None
    capsys.readouterr()


def test_reconstruct_linear_warns_when_unphysical(tmp_path, capsys):
    state = tmp_path / "state.json"
    counts = tmp_path / "counts.json"
    out = tmp_path / "rho.json"
    assert run(["gen-state", "bell", "phi-minus", "--out", state]) == 0
    assert run(["simulate", state, "--seed", 0, "--out", counts]) == 0
    capsys.readouterr()
    assert run(["reconstruct", counts, "--method", "linear", "--out", out]) == 0
    err = capsys.readouterr().err
    assert "negative" in err.lower()
    report = read_json(tmp_path / "rho.json.report.json")
    assert report["min_eigenvalue"] < 0
    assert report["cost"] is None


def test_reports_name_the_path_and_bootstrap_failures(tmp_path):
    state = tmp_path / "state.json"
    counts = tmp_path / "counts.json"
    assert run(["gen-state", "werner-phi-minus", "0.801", "--out", state]) == 0
    assert run(["simulate", state, "--seed", 0, "--out", counts]) == 0
    reports = {}
    for method in ("mle", "linear"):
        out = tmp_path / f"{method}.json"
        assert run(["reconstruct", counts, "--method", method, "--out", out]) == 0
        reports[method] = read_json(tmp_path / f"{method}.json.report.json")
    assert reports["mle"].keys() == reports["linear"].keys()
    assert (reports["mle"]["path"], reports["mle"]["n_evaluations"]) == ("linear", 1)
    assert (reports["linear"]["path"], reports["linear"]["n_evaluations"]) == ("linear", 0)

    out_dir = tmp_path / "run"
    assert run(["pipeline", "--mix", "1.0", "--seed", 0, "--out-dir", out_dir]) == 0
    report = read_json(out_dir / "rho_mle.report.json")
    assert report["path"] == "search"
    assert report["n_evaluations"] > report["iterations"] > 0
    assert read_json(out_dir / "metrics.json")["bootstrap_nonconverged"] is None

    metrics = tmp_path / "metrics.json"
    assert run(["metrics", tmp_path / "mle.json", "--counts", counts,
                "--bootstrap", 3, "--out", metrics]) == 0
    assert read_json(metrics)["bootstrap_nonconverged"] == 0


def test_metrics_bootstrap_errors(tmp_path):
    state = tmp_path / "state.json"
    counts = tmp_path / "counts.json"
    metrics = tmp_path / "metrics.json"
    assert run(["gen-state", "werner-phi-minus", "0.801", "--out", state]) == 0
    assert run(["simulate", state, "--seed", 0, "--out", counts]) == 0
    assert run(["reconstruct", counts, "--method", "mle", "--out", tmp_path / "rho.json"]) == 0
    assert (
        run(["metrics", tmp_path / "rho.json", "--counts", counts,
             "--bootstrap", 8, "--seed", 0, "--out", metrics]) == 0
    )
    m = read_json(metrics)
    assert m["x_err"] > 0
    assert m["chsh"]["sigma"] > 0


def test_chsh_from_state_and_counts(tmp_path):
    state = tmp_path / "state.json"
    counts = tmp_path / "counts.json"
    assert run(["gen-state", "werner-phi-minus", "0.801", "--out", state]) == 0

    out1 = tmp_path / "s_state.json"
    assert run(["chsh", "--state", state, "--out", out1]) == 0
    assert read_json(out1)["S"] == pytest.approx(2.2655701269216975, abs=1e-9)

    assert run(["simulate", state, "--schedule", "chsh", "--seed", 2, "--out", counts]) == 0
    out2 = tmp_path / "s_counts.json"
    assert run(["chsh", "--counts", counts, "--out", out2]) == 0
    doc = read_json(out2)
    assert doc["S"] == pytest.approx(2.266, abs=0.1)
    assert doc["sigma"] > 0

    # exactly one input source must be given
    assert run(["chsh", "--state", state, "--counts", counts, "--out", tmp_path / "z.json"]) == 2
    assert run(["chsh", "--out", tmp_path / "z.json"]) == 2


def test_fit_werner_on_bundled_fixture(tmp_path):
    from importlib import resources

    src = resources.files("wernerlab.fixtures") / "rho1.json"
    out = tmp_path / "fit.json"
    assert run(["fit-werner", str(src), "--out", out]) == 0
    doc = read_json(out)
    assert doc["x"] == pytest.approx(0.800825, abs=1e-4)
    assert doc["target"] == "phi-minus"


def test_decohere_curve_csv(tmp_path):
    out = tmp_path / "curve.csv"
    assert run(["decohere-curve", "--grid", "0:300:1", "--out", out]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "opd_over_lambda0,gamma_abs"
    assert len(lines) == 302
    assert run(["decohere-curve", "--grid", "0:300", "--out", tmp_path / "bad.csv"]) == 2
    assert run(["decohere-curve", "--grid", "5:1:1", "--out", tmp_path / "bad.csv"]) == 2


def test_pipeline_outputs(tmp_path):
    out_dir = tmp_path / "run"
    assert run(["pipeline", "--mix", "0.405", "--seed", 1, "--out-dir", out_dir]) == 0
    for name in ("state.json", "counts.json", "rho_mle.json", "metrics.json",
                 "rho_mle.report.json", "pipeline.manifest.json"):
        assert (out_dir / name).exists(), name
    m = read_json(out_dir / "metrics.json")
    assert m["x"] == pytest.approx(0.405, abs=0.05)


def test_reconstruct_of_pipeline_counts_matches_pipeline(tmp_path):
    """The counts file carries the accidental rate the pipeline modelled."""
    out_dir = tmp_path / "run"
    assert run(["pipeline", "--mix", "1.0", "--seed", 2, "--out-dir", out_dir]) == 0
    assert read_json(out_dir / "counts.json")["accidentals_per_s"] == 1.0
    rho_out = tmp_path / "rho.json"
    assert run(["reconstruct", out_dir / "counts.json", "--out", rho_out]) == 0
    assert rho_out.read_bytes() == (out_dir / "rho_mle.json").read_bytes()


def test_exit_codes_for_bad_inputs(tmp_path):
    missing = tmp_path / "nope.json"
    assert run(["fit-werner", missing, "--out", tmp_path / "o.json"]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["fit-werner", bad, "--out", tmp_path / "o.json"]) == 2

    floor = tmp_path / "floor.json"
    floor.write_text(json.dumps({"duration_s": 10.0, "accidentals_per_s": -1.0,
                                 "records": [{"arm1": "H", "arm2": "V", "count": 3}]}))
    assert run(["reconstruct", floor, "--out", tmp_path / "o.json"]) == 2

    for bad_duration in (None, float("nan")):
        duration = tmp_path / "duration.json"
        duration.write_text(json.dumps({"duration_s": bad_duration,
                                        "records": [{"arm1": "H", "arm2": "V", "count": 3}]}))
        assert run(["reconstruct", duration, "--out", tmp_path / "o.json"]) == 2

    for bad_records in (None, 5):
        records = tmp_path / "records.json"
        records.write_text(json.dumps({"duration_s": 10.0, "records": bad_records}))
        assert run(["reconstruct", records, "--out", tmp_path / "o.json"]) == 2

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"duration_s": 10.0, "records": []}))
    assert run(["reconstruct", empty, "--out", tmp_path / "o.json"]) == 3

    state = tmp_path / "state.json"
    assert run(["gen-state", "werner-phi-minus", "0.801", "--out", state]) == 0
    tomo_counts = tmp_path / "tomo_counts.json"
    assert run(["simulate", state, "--seed", 0, "--out", tomo_counts]) == 0
    good = read_json(state)
    bad_states = [{**good, "matrix": m} for m in (5, None, [1, 0, 0, 0])]
    bad_states += [{**good, "matrix": [[e] * 4] * 4} for e in (None, 1, float("nan"))]
    bad_states.append({**good, "basis": None})
    for bad_state in bad_states:
        broken = tmp_path / "broken_state.json"
        broken.write_text(json.dumps(bad_state))
        assert run(["fit-werner", broken, "--out", tmp_path / "o.json"]) == 2
    assert run(["simulate", state, "--rate", "inf", "--exact", "--out", tmp_path / "o.json"]) == 2
    # non-finite CHSH angles, nan or a degree that overflows a float
    assert run(["simulate", state, "--angles", "nan,0,0,0", "--out", tmp_path / "o.json"]) == 2
    assert run(["pipeline", "--mix", 0.8, "--angles", "1e400,0,0,0",
                "--out-dir", tmp_path / "p"]) == 2
    # bootstrap replicas resample counts, so --bootstrap needs --counts
    for n_boot in (5, -2):
        assert run(["metrics", state, "--bootstrap", n_boot, "--out", tmp_path / "o.json"]) == 2
    # a bootstrap too large to draw is refused, not attempted
    assert run(["metrics", state, "--counts", tomo_counts, "--bootstrap", 10**10,
                "--out", tmp_path / "o.json"]) == 2
    assert run(["pipeline", "--mix", 0.8, "--bootstrap", 10**11,
                "--out-dir", tmp_path / "p"]) == 2
    assert not (tmp_path / "p").exists()
    # a grid too long to allocate, or whose point count overflows
    for bad_grid in ("0:inf:1", "0:1e15:1", "0:1e300:1e-300"):
        assert run(["decohere-curve", "--grid", bad_grid, "--out", tmp_path / "o.json"]) == 2
    for bad_spectrum in (["--fwhm", "nan"], ["--fwhm", "inf"], ["--lambda0", "nan"]):
        assert run(["decohere-curve", *bad_spectrum, "--out", tmp_path / "o.json"]) == 2

    # chsh --counts takes only records in the order chsh_schedule gives
    assert run(["chsh", "--counts", tomo_counts, "--out", tmp_path / "o.json"]) == 2
    # the schedule is checked before the counts: zero counts cannot turn a
    # file that is not a CHSH run into a numerical failure (exit 3)
    zeros = tmp_path / "zeros.json"
    zeros.write_text(json.dumps({"duration_s": 10,
                                 "records": [{"arm1": "H", "arm2": "V", "count": 0}] * 16}))
    assert run(["chsh", "--counts", zeros, "--out", tmp_path / "o.json"]) == 2
    chsh_counts = tmp_path / "chsh_counts.json"
    assert run(["simulate", state, "--schedule", "chsh", "--seed", 2,
                "--out", chsh_counts]) == 0
    assert run(["chsh", "--counts", chsh_counts, "--out", tmp_path / "s.json"]) == 0
    doc = read_json(chsh_counts)
    doc["records"][5]["arm2"]["deg"] += 1.0
    chsh_counts.write_text(json.dumps(doc))
    assert run(["chsh", "--counts", chsh_counts, "--out", tmp_path / "o.json"]) == 2
    assert not (tmp_path / "o.json").exists()


def test_non_finite_angles_are_refused_before_any_computation(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(polarimetry, "simulate_counts", lambda *a, **k: pytest.fail("simulated"))
    assert run(["pipeline", "--mix", 0.8, "--angles", "1e400,0,0,0",
                "--out-dir", tmp_path / "p"]) == 2
    assert capsys.readouterr().err == (
        "wernerlab: error: --angles needs finite degrees, got '1e400,0,0,0'\n"
    )


def test_counts_without_normalization_block_are_bad_input(tmp_path, capsys):
    """A CHSH counts file cannot be normalized: the wrong schedule, exit 2."""
    state = tmp_path / "state.json"
    chsh_counts = tmp_path / "chsh_counts.json"
    assert run(["gen-state", "werner-phi-minus", "0.801", "--out", state]) == 0
    assert run(["simulate", state, "--schedule", "chsh", "--out", chsh_counts]) == 0
    capsys.readouterr()
    message = ("wernerlab: error: records do not contain the HH/HV/VV/VH "
               "normalization block\n")
    assert run(["reconstruct", chsh_counts, "--out", tmp_path / "rho.json"]) == 2
    assert capsys.readouterr().err == message
    assert run(["metrics", state, "--counts", chsh_counts, "--bootstrap", 5,
                "--out", tmp_path / "m.json"]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "rho.json").exists()
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("record, error", [
    ({"arm1": "H", "arm2": "V", "count": float("nan")},
     "count must be a non-negative integer that int64 holds, got nan"),
    ({"arm1": "H", "arm2": "V", "count": 2**63},
     f"count must be a non-negative integer that int64 holds, got {2**63}"),
    ({"arm1": "H", "arm2": "V"}, "malformed count record {'arm1': 'H', 'arm2': 'V'}"),
    ({"arm1": {"deg": "22.5"}, "arm2": "V", "count": 5}, "deg must be a finite number, got '22.5'"),
    ({"arm1": "Q", "arm2": "V", "count": 5},
     "unknown polarization 'Q'; expected one of H, V, D, A, R, L or an angle in degrees"),
    ({"arm1": {"deg": float("inf")}, "arm2": "V", "count": 5},
     "deg must be a finite number, got inf"),
    ({"arm1": {"rad": 1.0}, "arm2": "V", "count": 5}, "malformed analyzer arm {'rad': 1.0}"),
], ids=["nan", "above-int64", "no-count", "deg-string", "unknown-label", "deg-inf", "rad"])
def test_reconstruct_names_the_bad_record_of_a_counts_file(tmp_path, capsys, record, error):
    state, counts = tmp_path / "state.json", tmp_path / "counts.json"
    assert run(["gen-state", "werner-phi-minus", "0.8", "--out", state]) == 0
    assert run(["simulate", state, "--out", counts]) == 0
    doc = read_json(counts)
    doc["records"][9] = record
    counts.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["reconstruct", counts, "--out", tmp_path / "rho.json"]) == 2
    assert capsys.readouterr().err == f"wernerlab: error: record 10 of 16: {error}\n"
    assert not (tmp_path / "rho.json").exists()


@pytest.mark.parametrize("method", ["linear", "mle"])
def test_reconstruct_refuses_a_one_photon_counts_file(tmp_path, capsys, method):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"duration_s": 1.0, "records": [
        {"arm1": label, "arm2": None, "count": 500} for label in "HVDR"]}))
    assert run(["reconstruct", counts, "--method", method, "--out", tmp_path / "rho.json"]) == 2
    assert capsys.readouterr().err == (
        "wernerlab: error: two-photon tomography takes two analyzer arms a setting\n")
    assert not (tmp_path / "rho.json").exists()


@pytest.mark.parametrize("count, block, code", [(10**11, None, 0), (2**62, 1, 3)],
                         ids=["searched", "refused"])
def test_reconstruct_of_a_huge_count_exits_without_a_traceback(tmp_path, capsys, count,
                                                               block, code):
    state, counts = tmp_path / "state.json", tmp_path / "counts.json"
    assert run(["gen-state", "werner-phi-minus", "0.8", "--out", state]) == 0
    assert run(["simulate", state, "--out", counts]) == 0
    doc = read_json(counts)
    if block is not None:  # a flux of 4 pairs, without accidentals
        del doc["accidentals_per_s"]
        for i, record in enumerate(doc["records"]):
            record["count"] = block if i < 4 else 1000
    doc["records"][5]["count"] = count
    counts.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["reconstruct", counts, "--out", tmp_path / "rho.json"]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("wernerlab: numerical failure: the search's starting matrix")
        assert err.count("\n") == 1
    else:
        assert err == ""
        report = read_json(tmp_path / "rho.json.report.json")
        assert report["path"] == "search" and np.isfinite(report["cost"])


def test_metrics_counts_need_a_bootstrap(tmp_path, capsys):
    """Only the bootstrap reads ``--counts``: without one the command is bad
    input, refused before any file is read or written.  Neither input file
    exists here, so a read would fail with another message."""
    message = "wernerlab: error: --counts is read only by --bootstrap, which resamples them\n"
    for n_boot in ([], ["--bootstrap", 0]):
        assert run(["metrics", tmp_path / "state.json", "--counts", tmp_path / "counts.json",
                    *n_boot, "--out", tmp_path / "m.json"]) == 2
        assert capsys.readouterr().err == message
    assert list(tmp_path.iterdir()) == []


def test_search_that_stops_at_its_start_writes_its_report(tmp_path):
    """Noise-free counts of a pure state invert to an eigenvalue of -4e-16,
    so the search runs and stops at once; its report is written, with
    ``converged`` a JSON bool."""
    state, counts = tmp_path / "state.json", tmp_path / "counts.json"
    assert run(["gen-state", "werner-phi-minus", "1.0", "--out", state]) == 0
    assert run(["simulate", state, "--exact", "--out", counts]) == 0
    assert run(["reconstruct", counts, "--out", tmp_path / "rho.json"]) == 0
    report = read_json(tmp_path / "rho.json.report.json")
    assert report["path"] == "search"
    assert type(report["converged"]) is bool


def test_chsh_counts_refuse_angles(tmp_path, capsys):
    """Counts carry their own angles, so ``chsh --counts --angles`` is bad
    input, refused before the counts file (which does not exist) is read;
    ``--state`` keeps ``--angles``."""
    assert run(["chsh", "--counts", tmp_path / "counts.json", "--angles", "0,45,22.5,67.5",
                "--out", tmp_path / "s.json"]) == 2
    assert capsys.readouterr().err == (
        "wernerlab: error: chsh --counts reads the angles of its counts and takes no --angles\n"
    )
    assert list(tmp_path.iterdir()) == []
    state = tmp_path / "state.json"
    assert run(["gen-state", "werner-phi-minus", "0.801", "--out", state]) == 0
    assert run(["chsh", "--state", state, "--angles", "0,45,22.5,67.5",
                "--out", tmp_path / "s.json"]) == 0
    assert read_json(tmp_path / "s.json")["angles_deg"] == [0.0, 45.0, 22.5, 67.5]


def test_chsh_counts_refuse_target(tmp_path, capsys):
    """``chsh --counts --target`` is refused like ``--angles``, so a counts
    manifest records no target; ``--state`` still records its resolved
    default ``--target phi-minus``."""
    assert run(["chsh", "--counts", tmp_path / "counts.json", "--target", "psi-plus",
                "--out", tmp_path / "s.json"]) == 2
    assert capsys.readouterr().err == (
        "wernerlab: error: chsh --counts reads the angles of its counts and takes no --target\n"
    )
    assert list(tmp_path.iterdir()) == []
    state, counts = tmp_path / "state.json", tmp_path / "counts.json"
    assert run(["gen-state", "werner-phi-minus", "0.801", "--out", state]) == 0
    assert run(["simulate", state, "--schedule", "chsh", "--out", counts]) == 0
    assert run(["chsh", "--counts", counts, "--out", tmp_path / "c.json"]) == 0
    assert "--target" not in read_json(tmp_path / "c.json.manifest.json")["argv"]
    assert run(["chsh", "--state", state, "--out", tmp_path / "s.json"]) == 0
    argv = read_json(tmp_path / "s.json.manifest.json")["argv"]
    assert argv[argv.index("--target") + 1] == "phi-minus"


POINT_FIELDS =("x", "fidelity", "linear_entropy", "tangle")


def point_values(path):
    """The point estimate's fields of a metrics file, as written."""
    doc = read_json(path)
    return {**{key: repr(doc[key]) for key in POINT_FIELDS}, "S": repr(doc["chsh"]["S"])}


def test_bootstrap_writes_the_point_values_of_a_run_without_it(tmp_path):
    """With a bootstrap the point is scored on the stack with the replicas;
    it must be written exactly as a run without a bootstrap writes it."""
    state = tmp_path / "state.json"
    counts = tmp_path / "counts.json"
    assert run(["gen-state", "werner-phi-minus", "0.801", "--out", state]) == 0
    assert run(["simulate", state, "--seed", 3, "--out", counts]) == 0
    assert run(["metrics", state, "--out", tmp_path / "plain.json"]) == 0
    assert run(["metrics", state, "--counts", counts, "--bootstrap", 8,
                "--out", tmp_path / "boot.json"]) == 0
    assert read_json(tmp_path / "boot.json")["x_err"] > 0
    assert point_values(tmp_path / "boot.json") == point_values(tmp_path / "plain.json")

    for n_boot in (0, 20):
        out_dir = tmp_path / f"run{n_boot}"
        assert run(["pipeline", "--mix", 0.801, "--seed", 4, "--bootstrap", n_boot,
                    "--out-dir", out_dir]) == 0
    assert (tmp_path / "run0" / "rho_mle.json").read_bytes() == (
        tmp_path / "run20" / "rho_mle.json").read_bytes()
    assert point_values(tmp_path / "run20" / "metrics.json") == point_values(
        tmp_path / "run0" / "metrics.json")


def test_failed_pipeline_writes_nothing(tmp_path):
    out_dir = tmp_path / "p"
    assert run(["pipeline", "--mix", 0.8, "--duration", 1e-300, "--out-dir", out_dir]) == 3
    assert not out_dir.exists()
    assert run(["pipeline", "--mix", "nan", "--out-dir", out_dir]) == 2
    assert not out_dir.exists()


def test_bootstrap_replica_without_flux_is_named(tmp_path, capsys):
    # At 2 pairs per setting a resampled normalization block can be all
    # zeros while the observed one is not; the failure names the replica.
    argv = ["pipeline", "--mix", 0.8, "--rate", 0.2, "--duration", 10,
            "--accidentals", 0, "--seed", 0]
    assert run(argv + ["--out-dir", tmp_path / "plain"]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "boot"
    assert run(argv + ["--bootstrap", 20, "--out-dir", out_dir]) == 3
    assert capsys.readouterr().err == (
        "wernerlab: numerical failure: bootstrap at seed 0: replica 9 of 20: "
        "normalization block counts sum to 0, which does not exceed their "
        "expected accidentals 0\n"
    )
    assert not out_dir.exists()


def test_byte_identical_reruns(tmp_path):
    state = tmp_path / "state.json"
    run(["gen-state", "werner-phi-minus", "0.801", "--out", state])
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert run(["simulate", state, "--seed", 7, "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()


# One run per subcommand: (argv, inputs, outputs) with paths relative to the
# test directory; the manifest is ``<outputs[0]>.manifest.json`` except for
# the pipeline's ``pipeline.manifest.json``.
REPLAY_CASES = {
    "gen-state": (["gen-state", "werner-phi-minus", "0.801", "--out", "w.json"],
                  [], ["w.json"]),
    "simulate-tomo": (["simulate", "state.json", "--seed", 3, "--out", "c.json"],
                      ["state.json"], ["c.json"]),
    "simulate-chsh": (["simulate", "state.json", "--schedule", "chsh", "--exact",
                       "--accidentals", 0, "--out", "c.json"],
                      ["state.json"], ["c.json"]),
    "reconstruct-mle": (["reconstruct", "counts.json", "--strict", "--out", "r.json"],
                        ["counts.json"], ["r.json", "r.json.report.json"]),
    "reconstruct-linear": (["reconstruct", "counts.json", "--method", "linear",
                            "--out", "r.json", "--report", "lin.json"],
                           ["counts.json"], ["r.json", "lin.json"]),
    "metrics": (["metrics", "state.json", "--target", "psi-minus", "--out", "m.json"],
                ["state.json"], ["m.json"]),
    "metrics-bootstrap": (["metrics", "state.json", "--counts", "counts.json",
                           "--bootstrap", 3, "--seed", 5, "--out", "m.json"],
                          ["state.json", "counts.json"], ["m.json"]),
    "chsh-state": (["chsh", "--state", "state.json", "--angles", "0,45,22.5,67.5",
                    "--out", "s.json"],
                   ["state.json"], ["s.json"]),
    "chsh-counts": (["chsh", "--counts", "chsh_counts.json", "--out", "s.json"],
                    ["chsh_counts.json"], ["s.json"]),
    "fit-werner": (["fit-werner", "state.json", "--out", "f.json"],
                   ["state.json"], ["f.json"]),
    "decohere-curve": (["decohere-curve", "--fwhm", 9, "--grid", "0:40:0.5",
                        "--out", "curve.csv"],
                       [], ["curve.csv"]),
    "pipeline": (["pipeline", "--mix", 0.801, "--bootstrap", 2, "--seed", 4,
                  "--out-dir", "run"],
                 [], ["run/state.json", "run/counts.json", "run/rho_mle.json",
                      "run/metrics.json", "run/rho_mle.report.json"]),
}


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_manifest_argv_replays_the_run(tmp_path, monkeypatch, case):
    """Rerunning a manifest's ``argv[1:]`` rewrites its outputs byte for byte."""
    monkeypatch.chdir(tmp_path)
    assert run(["gen-state", "werner-phi-minus", "0.801", "--out", "state.json"]) == 0
    assert run(["simulate", "state.json", "--seed", 1, "--out", "counts.json"]) == 0
    assert run(["simulate", "state.json", "--schedule", "chsh", "--seed", 2,
                "--out", "chsh_counts.json"]) == 0
    argv, inputs, outputs = REPLAY_CASES[case]
    assert run(argv) == 0
    manifest_path = ("run/pipeline.manifest.json" if argv[0] == "pipeline"
                     else f"{outputs[0]}.manifest.json")
    manifest = read_json(manifest_path)
    assert manifest["argv"][:2] == ["wernerlab", argv[0]]
    assert manifest["command"] == argv[0]
    assert (manifest["inputs"], manifest["outputs"]) == (inputs, outputs)

    first = {path: (tmp_path / path).read_bytes() for path in outputs}
    for path in [*outputs, manifest_path]:
        (tmp_path / path).unlink()
    assert main(manifest["argv"][1:]) == 0
    assert {path: (tmp_path / path).read_bytes() for path in outputs} == first
    assert read_json(manifest_path) == manifest


def write_inputs():
    """state.json, counts.json and chsh_counts.json in the working directory."""
    assert run(["gen-state", "werner-phi-minus", "0.801", "--out", "state.json"]) == 0
    assert run(["simulate", "state.json", "--seed", 1, "--out", "counts.json"]) == 0
    assert run(["simulate", "state.json", "--schedule", "chsh", "--seed", 2,
                "--out", "chsh_counts.json"]) == 0


def subcommands():
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return sorted(action.choices)


@pytest.mark.parametrize("command", subcommands())
def test_a_run_leaves_exactly_its_manifest_files(tmp_path, monkeypatch, command):
    """Each REPLAY_CASES run of a subcommand, in an empty directory, leaves
    there its manifest's outputs and the manifest, and no other file."""
    monkeypatch.chdir(tmp_path)
    write_inputs()
    cases = [argv for argv, _, _ in REPLAY_CASES.values() if argv[0] == command]
    assert cases, f"REPLAY_CASES has no run of {command}"
    for i, argv in enumerate(cases):
        run_dir = tmp_path / f"run{i}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        inputs = {"state.json", "counts.json", "chsh_counts.json"}
        assert run([f"../{a}" if a in inputs else a for a in argv]) == 0
        files = sorted(p.relative_to(run_dir).as_posix()
                       for p in run_dir.rglob("*") if p.is_file())
        manifests = [f for f in files if f.endswith("manifest.json")]
        assert len(manifests) == 1
        assert files == sorted(read_json(manifests[0])["outputs"] + manifests)


def test_a_failed_write_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs()
    before = sorted(os.listdir())
    argv = ["reconstruct", "counts.json", "--out", "r.json", "--report", "nodir/r.json"]
    assert run(argv) == 2
    assert sorted(os.listdir()) == before


@pytest.mark.parametrize("report", ["a.json", "./a.json", "a.json.manifest.json",
                                    "a.json.tmp", "d"])
def test_a_path_named_twice_or_a_directory_is_refused_before_writing(
        tmp_path, monkeypatch, capsys, report):
    monkeypatch.chdir(tmp_path)
    write_inputs()
    (tmp_path / "d").mkdir()
    before = sorted(os.listdir())
    capsys.readouterr()
    assert run(["reconstruct", "counts.json", "--out", "a.json", "--report", report]) == 2
    assert sorted(os.listdir()) == before
    assert sorted(os.listdir("d")) == []
    err = capsys.readouterr().err
    assert ("is a directory" if report == "d" else "two of this run's files name") in err


@pytest.mark.parametrize("argv", [
    ["reconstruct", "counts.json", "--out", "counts.json"],
    ["reconstruct", "counts.json", "--out", "r.json", "--report", "./counts.json"],
    ["metrics", "state.json", "--counts", "counts.json", "--bootstrap", 5,
     "--out", "counts.json"],
    ["simulate", "state.json", "--out", "state.json"],
], ids=["out", "report", "second-input", "simulate"])
def test_an_output_that_names_an_input_is_refused_before_writing(
        tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_inputs()
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir()}
    capsys.readouterr()
    assert run(argv) == 2
    # the input keeps its bytes, and no output, manifest or .tmp file exists
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir()} == before
    assert "is an input of this run" in capsys.readouterr().err


# The commands rerun in one process: the schedule memos carry state from one
# command to the next.  The counts are of x = 1.0, so the search runs.
RERUN = {
    "simulate-chsh": ["simulate", "state.json", "--schedule", "chsh",
                      "--angles", "3,51,-17.5,80", "--out", "chsh.json"],
    "simulate-tomo": ["simulate", "state.json", "--seed", "3", "--out", "tomo.json"],
    "reconstruct": ["reconstruct", "counts.json", "--report", "report.json", "--out", "rho.json"],
    "pipeline": ["pipeline", "--mix", "0.801", "--bootstrap", "5", "--out-dir", "run"],
}


def written(directory, inputs):
    """Every file under ``directory`` but the inputs, by relative path."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file() and p.name not in inputs}


def test_commands_rerun_in_one_process_write_what_a_fresh_process_writes(tmp_path, monkeypatch):
    counts = polarimetry.simulate_counts(werner_phi_minus(1.0), polarimetry.tomographic_settings(),
                                         polarimetry.SourceConfig(seed=5))
    inputs = {"state.json": json.dumps(density_matrix_to_json(werner_phi_minus(0.801))),
              "counts.json": json.dumps(polarimetry.records_to_json(counts))}

    def workdir(*parts):
        directory = tmp_path.joinpath(*parts)
        directory.mkdir(parents=True)
        for name, text in inputs.items():
            (directory / name).write_text(text)
        return directory

    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    fresh = {}
    for name, argv in RERUN.items():
        directory = workdir("fresh", name)
        subprocess.run([sys.executable, "-m", "wernerlab", *argv], cwd=directory, check=True,
                       capture_output=True, env=dict(os.environ, PYTHONPATH=path))
        fresh[name] = written(directory, inputs)
        assert fresh[name]
    assert json.loads(fresh["reconstruct"]["report.json"])["path"] == "search"
    for round_ in (1, 2):
        for name, argv in RERUN.items():
            directory = workdir(f"run-{round_}", name)
            monkeypatch.chdir(directory)
            assert run(argv) == 0
            assert written(directory, inputs) == fresh[name], (name, round_)
