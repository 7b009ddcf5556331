"""The output-comparison script's verdict on fixed documents.

``bench/outputs.py`` passes two run directories whose files differ at most in
the values of float leaves, and fails any other difference, grouped by
command, file and key path; the maximum-likelihood fits and the
single-photon measurements it writes are files like the others, and it
counts each side's searches.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from wernerlab import decoherence
from wernerlab.cli import build_parser
from wernerlab.polarimetry import SourceConfig, simulate_counts, tomographic_settings
from wernerlab.states import BELL_KINDS, werner_phi_minus
from wernerlab.tomography import MaximumLikelihood

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def outputs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # for its import of bench/pairs.py
    spec = importlib.util.spec_from_file_location("bench_outputs", BENCH / "outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = {"x": 0.801, "x_err": 0.0123, "chsh": {"S": 2.0, "sigma": 0.0095,
                                                 "angles_deg": [-22.5, 22.5, 0.0, 45.0]},
           "bootstrap_nonconverged": 0}


def write_tree(root: Path, files: dict) -> Path:
    for name, doc in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc, indent=2) + "\n")
    return root


def with_leaf(doc, keys, value):
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return doc


def compare(outputs, tmp_path, parent: dict, change: dict) -> dict:
    return outputs.compare(write_tree(tmp_path / "parent", parent),
                           write_tree(tmp_path / "change", change))


def test_float_values_are_counted_by_leaf_and_pass(outputs, tmp_path):
    parent = {f"pipeline/run{i}/metrics.json": METRICS for i in range(3)}
    parent["pipeline/run0/state.json"] = {"matrix": [[[0.5, 0.0], [0.25, -0.0]]]}
    change = dict(parent)
    # exactly representable: 2 + 2**-51 and 2 - 2**-52
    change["pipeline/run1/metrics.json"] = with_leaf(METRICS, ["chsh", "S"], 2.0 + 2.0**-51)
    change["pipeline/run2/metrics.json"] = with_leaf(
        with_leaf(METRICS, ["chsh", "S"], 2.0 - 2.0**-52), ["x"], math.nextafter(0.801, 1.0))
    change["pipeline/run0/state.json"] = {"matrix": [[[0.5, 1e-17], [0.25, 3e-17]]]}
    report = compare(outputs, tmp_path, parent, change)
    assert (report["files"], report["identical"]) == (4, 1)
    assert report["other"] == []
    leaves = report["leaves"]
    assert set(leaves) == {"pipeline/metrics.json chsh.S", "pipeline/metrics.json x",
                           "pipeline/state.json matrix[][][]"}
    # chsh.S rises in one run and falls in the other
    assert leaves["pipeline/metrics.json chsh.S"] == [2, 2.0**-51, 2.0**-52]
    assert leaves["pipeline/metrics.json x"][0] == 1
    assert leaves["pipeline/metrics.json x"][2] == 0.0
    # two entries of one file count as one run, at the larger rise
    assert leaves["pipeline/state.json matrix[][][]"] == [1, 3e-17, 0.0]


@pytest.mark.parametrize("change", [
    with_leaf(METRICS, ["x_err"], None),                   # null against a float
    with_leaf(METRICS, ["x"], 1),                          # an int against a float
    with_leaf(METRICS, ["bootstrap_nonconverged"], False),  # a bool against an int
    with_leaf(METRICS, ["chsh", "angles_deg"], [-22.5, 22.5, 0.0]),  # a length
    with_leaf(METRICS, ["chsh", "method"], "exact"),       # a key
    {"x_err": 0.0123, **METRICS},                          # the key order
    json.dumps(METRICS),                                   # the same values, other text
    "not json",
], ids=["null", "int-for-float", "bool", "length", "key", "key-order",
        "text", "not-json"])
def test_any_other_difference_fails(outputs, tmp_path, change):
    report = compare(outputs, tmp_path, {"metrics/a/metrics.json": METRICS},
                     {"metrics/a/metrics.json": change})
    assert report["identical"] == 0
    assert (report["leaves"], report["integers"]) == ({}, {})
    assert len(report["other"]) == 1
    assert report["other"][0].startswith("metrics/metrics.json")
    assert ": in 1 run, first metrics/a/metrics.json: " in report["other"][0]


def test_an_integer_difference_fails_with_its_rise_and_fall(outputs, tmp_path):
    parent = {f"metrics/{r}/metrics.json": METRICS for r in "abc"}
    change = {"metrics/a/metrics.json": with_leaf(METRICS, ["bootstrap_nonconverged"], 3),
              "metrics/b/metrics.json": METRICS,
              "metrics/c/metrics.json": with_leaf(METRICS, ["bootstrap_nonconverged"], -2)}
    report = compare(outputs, tmp_path, parent, change)
    assert (report["identical"], report["leaves"], report["other"]) == (1, {}, [])
    assert report["integers"] == {"metrics/metrics.json bootstrap_nonconverged": [2, 3, 2]}
    _, rise, fall = report["integers"]["metrics/metrics.json bootstrap_nonconverged"]
    assert (type(rise), type(fall)) == (int, int)


def test_a_string_difference_and_a_missing_file_fail(outputs, tmp_path):
    manifest = {"argv": ["wernerlab", "chsh", "--target", "phi-minus"]}
    name = "chsh/a/chsh.json.manifest.json"
    report = compare(outputs, tmp_path, {name: manifest, "chsh/a/chsh.json": {"S": 2.0}},
                     {name: with_leaf(manifest, ["argv", 3], "psi-plus")})
    assert report["other"] == [
        "chsh/chsh.json: in 1 run, first chsh/a/chsh.json: only in the parent",
        "chsh/chsh.json.manifest.json argv[]: in 1 run, first "
        "chsh/a/chsh.json.manifest.json: 'phi-minus' and 'psi-plus'",
    ]
    assert report["leaves"] == {}


def fit(path="search", evals=200, **fields):
    """A fit file as the fit set writes it."""
    return {"path": path, "rho": [[[0.25, 0.0]] * 4] * 4, "cost": 7.25, "n_evaluations": evals,
            "iterations": 40, "converged": True, "history": [9.5, 7.5, 7.25], **fields}


FITS = {"searches/x=1.0-s0-default/fit.json": fit(),
        "searches/x=1.0-s0-source/fit.json": fit(evals=100),
        "searches/x=1.0-s1-default/fit.json": fit("linear", 1, iterations=0, history=[])}


def test_the_same_fits_pass_and_their_searches_are_counted(outputs, tmp_path):
    report = compare(outputs, tmp_path, FITS, FITS)
    assert (report["files"], report["identical"]) == (3, 3)
    assert (report["leaves"], report["other"]) == ({}, [])
    assert report["searches"] == [(2, 150.0), (2, 150.0)]


def test_a_moved_rho_or_cost_is_counted_by_fit_under_its_leaf(outputs, tmp_path):
    change = dict(FITS)
    name0, name1, _ = FITS
    change[name0] = with_leaf(with_leaf(FITS[name0], ["rho", 0, 1, 1], 2.0**-60),
                              ["history", 2], 7.25 + 2.0**-50)
    change[name1] = with_leaf(with_leaf(FITS[name1], ["cost"], 7.25 - 2.0**-50),
                              ["rho", 3, 3, 0], 0.25 - 2.0**-55)
    report = compare(outputs, tmp_path, FITS, change)
    assert (report["identical"], report["other"]) == (1, [])
    assert report["leaves"] == {
        "searches/fit.json rho[][][]": [2, 2.0**-60, 2.0**-55],
        "searches/fit.json cost": [1, 0.0, 2.0**-50],
        "searches/fit.json history[]": [1, 2.0**-50, 0.0],
    }


@pytest.mark.parametrize("run, field, value, searches", [
    ("s0-source", "n_evaluations", 101, (2, 150.5)),
    ("s0-default", "converged", False, (2, 150.0)),
    ("s1-default", "path", "search", (3, 301 / 3)),
], ids=["n_evaluations", "converged", "path"])
def test_a_changed_count_flag_or_path_of_a_fit_fails(outputs, tmp_path, run, field, value,
                                                     searches):
    name = f"searches/x=1.0-{run}/fit.json"
    report = compare(outputs, tmp_path, FITS, {**FITS, name: with_leaf(FITS[name], [field], value)})
    if field == "n_evaluations":
        assert (report["integers"], report["other"]) == (
            {"searches/fit.json n_evaluations": [1, 1, 0]}, [])
    else:
        assert report["integers"] == {}
        assert report["other"] == [f"searches/fit.json {field}: in 1 run, first {name}: "
                                   f"{FITS[name][field]!r} and {value!r}"]
    assert report["searches"] == [(2, 150.0), searches]


def test_shorter_searches_read_as_a_few_grouped_lines_and_a_moved_path_stands_out(
        outputs, tmp_path, capsys):
    """Searches that stop earlier move their counts and the length of their
    history in every run; each leaf is one line with its run count, the
    counts with their largest rise and fall, and a moved path is a line of
    its own."""
    parent = {f"searches/x=1.0-s{seed}-default/fit.json": fit(evals=200 + seed)
              for seed in range(50)}
    change = {name: with_leaf(with_leaf(with_leaf(doc, ["n_evaluations"], 150 + 2 * seed),
                                        ["iterations"], 30), ["history"], [9.5, 7.25])
              for seed, (name, doc) in enumerate(parent.items())}
    moved = "searches/x=1.0-s7-default/fit.json"
    change[moved] = with_leaf(change[moved], ["path"], "linear")
    report = compare(outputs, tmp_path, parent, change)
    assert report["integers"] == {"searches/fit.json n_evaluations": [50, 0, 50],
                                  "searches/fit.json iterations": [50, 0, 10]}
    assert report["other"] == [
        "searches/fit.json history: in 50 runs, first "
        "searches/x=1.0-s0-default/fit.json: lengths 3 and 2",
        f"searches/fit.json path: in 1 run, first {moved}: 'search' and 'linear'",
    ]
    outputs.print_report(report)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert lines[3] == ("  DIFFERS integer searches/fit.json iterations: differs in 50 runs,"
                        " rises by at most 0 and falls by at most 10")


def test_a_missing_fit_fails(outputs, tmp_path):
    change = {name: doc for name, doc in FITS.items() if "-s0-source" not in name}
    report = compare(outputs, tmp_path, FITS, change)
    assert report["other"] == [
        "searches/fit.json: in 1 run, first searches/x=1.0-s0-source/fit.json: only in the parent"]
    assert report["searches"] == [(2, 150.0), (1, 200.0)]


def test_a_side_without_a_search_counts_none(outputs, tmp_path, capsys):
    linear = {"searches/x=1.0-s1-default/fit.json": FITS["searches/x=1.0-s1-default/fit.json"]}
    report = compare(outputs, tmp_path, linear, {})
    assert report["searches"] == [(0, 0.0), (0, 0.0)]
    outputs.print_report(report)
    assert capsys.readouterr().out.splitlines()[1:3] == [
        "parent: 0 searches, 0 evaluations a search", "change: 0 searches, 0 evaluations a search"]


def test_the_fit_set(outputs):
    runs = outputs.fits()
    assert len(runs) == 1500
    # each source's seeds in turn, each seed from the three starts
    assert runs == [(source, seed, start)
                    for source in ("x=1.0", "rho1", "x=0.95", "rho2", "x=1.0-a0")
                    for seed in range(100) for start in ("default", "linear", "source")]


def test_a_source_named_a0_is_fitted_without_accidentals(outputs, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outputs.write_fit("x=1.0-a0", 2, "default")
    doc = json.loads((tmp_path / "searches" / "x=1.0-a0-s2-default" / "fit.json").read_text())
    run = simulate_counts(werner_phi_minus(1.0), tomographic_settings(),
                          SourceConfig(accidental_rate=0.0, seed=2))
    assert run.accidental_rate == 0.0
    est = MaximumLikelihood().fit(run)
    assert (doc["path"], doc["cost"], doc["n_evaluations"], doc["history"]) \
        == ("search", est.cost_, est.n_evaluations_, est.cost_history_)


def test_the_photon_set(outputs):
    runs = outputs.photons()
    assert len(runs) == 45
    # each path difference's seeds in turn, seed 0 without and with exact:
    # an exact run draws nothing, so its seed does not reach its output
    assert runs == [(path, seed, exact) for path in (0, 40, 100, 152, 200)
                    for seed in range(8) for exact in (False, True) if seed == 0 or not exact]


@pytest.mark.parametrize("exact", [False, True])
def test_a_photon_run_writes_the_measurement_of_its_path_seed_and_exact(
        outputs, tmp_path, monkeypatch, exact):
    monkeypatch.chdir(tmp_path)
    outputs.write_photon(40, 3, exact)
    name = "L40-s3-exact" if exact else "L40-s3"
    doc = json.loads((tmp_path / "photon" / name / "run.json").read_text())
    spectrum = decoherence.DEFAULT_SPECTRUM
    run = decoherence.simulate_single_photon_experiment(
        spectrum, decoherence.BirefringentElement(40 * spectrum.center_nm),
        SourceConfig(seed=3), exact=exact)
    assert list(doc) == ["rho", "gamma_abs", "counts"]
    assert doc["rho"] == [[[z.real, z.imag] for z in row] for row in run.rho.tolist()]
    assert doc["gamma_abs"] == run.gamma_abs
    assert doc["counts"] == run.records.counts.tolist()
    assert len(doc["counts"]) == 4


def test_the_command_set(outputs):
    argvs = outputs.commands()
    pipelines = [a for a in argvs if a[0] == "pipeline"]
    assert len(pipelines) == 32
    assert {(a[2], a[4]) for a in pipelines} == {
        (x, str(s)) for x in ("0.0", "0.405", "0.801", "1.0") for s in range(8)}
    assert all(a[5:7] == ["--bootstrap", "20"] for a in pipelines)
    # metrics and the exact CHSH after the pipelines whose states they read
    rest = argvs[32:96]
    assert len(rest) == 64
    assert {a[0] for a in rest} == {"metrics", "chsh"}
    assert {a[a.index("--target") + 1] for a in rest} == set(BELL_KINDS)
    out = [a[a.index("--out") + 1] for a in argvs if "--out" in a]
    assert len(set(out)) == len(out)


def test_the_command_set_runs_every_subcommand(outputs):
    argvs = outputs.commands()
    subcommands = build_parser()._subparsers._group_actions[0].choices
    assert {a[0] for a in argvs} == set(subcommands)
    # every counts file that simulate writes is read: CHSH runs by chsh --counts,
    # tomography runs by both reconstruction methods
    simulated = [a[a.index("--out") + 1] for a in argvs if a[0] == "simulate"]
    assert len(simulated) == 72
    chsh = {a[2] for a in argvs if a[:2] == ["chsh", "--counts"]}
    methods = {(a[1], a[3]) for a in argvs if a[0] == "reconstruct"}
    for path in simulated:
        if "-chsh-" in path:
            assert path in chsh
        else:
            assert {(path, "linear"), (path, "mle")} <= methods
    assert {"3,51,-17.5,80", "--exact"} <= {x for a in argvs if a[0] == "simulate" for x in a}
    # runs without accidentals on the tomography and the phi-minus CHSH schedules
    no_floor = [a for a in argvs if a[0] == "simulate" and "--accidentals" in a]
    assert len(no_floor) == 8
    assert all(a[a.index("--accidentals") + 1] == "0" for a in no_floor)
    # the fixtures' runs at seeds 0-7, read from their copies in the run directory
    fixtures = [a for a in argvs if a[0] == "simulate" and a[1].startswith("fixtures/")]
    assert {(a[1], a[a.index("--seed") + 1]) for a in fixtures} == {
        (f"fixtures/{name}.json", str(seed)) for name in ("rho1", "rho2") for seed in range(8)}
    assert len(fixtures) == 16


def test_a_failed_command_is_reported_and_the_rest_still_run(outputs, monkeypatch, tmp_path):
    monkeypatch.setattr(outputs, "commands", lambda: [
        ["gen-state", "bell", "eta-plus", "--out", "bad/state.json"],
        ["gen-state", "bell", "phi-minus", "--out", "good/state.json"],
    ])
    monkeypatch.setattr(outputs, "fits", lambda: [("x=2.0", 0, "default"), ("x=1.0", 3, "source")])
    monkeypatch.setattr(outputs, "photons", lambda: [(math.inf, 0, False), (100, 1, True)])
    failed = outputs.run_commands(BENCH.parent / "src", tmp_path)
    assert failed[0] == "wernerlab gen-state bell eta-plus --out bad/state.json: 2"
    assert failed[1].startswith("fit x=2.0 seed 0 from default: Traceback")
    assert "OutOfRangeError" in failed[1]
    assert failed[2].startswith("single photon L=inf seed 0 exact=False: Traceback")
    assert "OutOfRangeError" in failed[2]
    assert len(failed) == 3
    assert (tmp_path / "good" / "state.json").is_file()
    doc = json.loads((tmp_path / "searches" / "x=1.0-s3-source" / "fit.json").read_text())
    assert list(doc) == ["path", "rho", "cost", "n_evaluations", "iterations", "converged",
                         "history"]
    assert doc["path"] == "search"
    assert len(doc["rho"]) == 4
    doc = json.loads((tmp_path / "photon" / "L100-s1-exact" / "run.json").read_text())
    assert list(doc) == ["rho", "gamma_abs", "counts"]


def test_main_exits_2_on_a_revision_that_names_no_commit(outputs, monkeypatch, capsys):
    monkeypatch.setattr(outputs.pairs, "names_commit", lambda rev: False)
    assert outputs.main(["--parent", "no-such-rev"]) == 2
    assert "names no commit" in capsys.readouterr().err


@pytest.mark.parametrize("change, status", [(fit(evals=200), 0), (fit(evals=180), 1)],
                         ids=["same", "integer"])
def test_main_runs_the_change_alone_under_the_coretype_and_exits_1_on_an_integer(
        outputs, monkeypatch, tmp_path, capsys, change, status):
    runs = []

    def run_commands(src, workdir, coretype=None):
        runs.append((src.parent.name, coretype))
        doc = fit() if src.parent.name == "tree" else change
        write_tree(workdir, {"searches/x=1.0-s0-default/fit.json": doc})
        return []

    monkeypatch.setattr(outputs.pairs, "names_commit", lambda rev: True)
    monkeypatch.setattr(outputs.pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(outputs, "run_commands", run_commands)
    assert outputs.main(["--parent", "HEAD", "--coretype", "Haswell"]) == status
    assert runs == [("tree", None), (outputs.ROOT.name, "Haswell")]
    assert capsys.readouterr().out.startswith(f"{1 - status} of 1 files byte-identical")
