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

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"duration_s": 10.0, "records": []}))
    assert run(["reconstruct", empty, "--out", tmp_path / "o.json"]) == 3
    assert not (tmp_path / "o.json").exists()


def test_byte_identical_reruns(tmp_path):
    state = tmp_path / "state.json"
    run(["gen-state", "werner-phi-minus", "0.801", "--out", state])
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert run(["simulate", state, "--seed", 7, "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()
