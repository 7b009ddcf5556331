import json

import numpy as np
import pytest

from wernerlab import __version__
from wernerlab.cli import main
from wernerlab.states import density_matrix_from_json, werner_phi_minus


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

    assert run(["metrics", rho_out, "--counts", counts, "--out", metrics]) == 0
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
    good = read_json(state)
    bad_states = [{**good, "matrix": m} for m in (5, None, [1, 0, 0, 0])]
    bad_states += [{**good, "matrix": [[e] * 4] * 4} for e in (None, 1, float("nan"))]
    bad_states.append({**good, "basis": None})
    for bad_state in bad_states:
        broken = tmp_path / "broken_state.json"
        broken.write_text(json.dumps(bad_state))
        assert run(["fit-werner", broken, "--out", tmp_path / "o.json"]) == 2
    assert run(["simulate", state, "--rate", "inf", "--exact", "--out", tmp_path / "o.json"]) == 2
    # bootstrap replicas resample counts, so --bootstrap needs --counts
    for n_boot in (5, -2):
        assert run(["metrics", state, "--bootstrap", n_boot, "--out", tmp_path / "o.json"]) == 2
    assert run(["decohere-curve", "--grid", "0:inf:1", "--out", tmp_path / "o.json"]) == 2
    for bad_spectrum in (["--fwhm", "nan"], ["--fwhm", "inf"], ["--lambda0", "nan"]):
        assert run(["decohere-curve", *bad_spectrum, "--out", tmp_path / "o.json"]) == 2

    # chsh --counts takes only records in the order chsh_schedule gives
    tomo_counts = tmp_path / "tomo_counts.json"
    assert run(["simulate", state, "--seed", 0, "--out", tomo_counts]) == 0
    assert run(["chsh", "--counts", tomo_counts, "--out", tmp_path / "o.json"]) == 2
    chsh_counts = tmp_path / "chsh_counts.json"
    assert run(["simulate", state, "--schedule", "chsh", "--seed", 2,
                "--out", chsh_counts]) == 0
    assert run(["chsh", "--counts", chsh_counts, "--out", tmp_path / "s.json"]) == 0
    doc = read_json(chsh_counts)
    doc["records"][5]["arm2"]["deg"] += 1.0
    chsh_counts.write_text(json.dumps(doc))
    assert run(["chsh", "--counts", chsh_counts, "--out", tmp_path / "o.json"]) == 2
    assert not (tmp_path / "o.json").exists()


def test_failed_pipeline_writes_nothing(tmp_path):
    out_dir = tmp_path / "p"
    assert run(["pipeline", "--mix", 0.8, "--duration", 1e-300, "--out-dir", out_dir]) == 3
    assert not out_dir.exists()
    assert run(["pipeline", "--mix", "nan", "--out-dir", out_dir]) == 2
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
