"""The output-comparison script's verdict on fixed documents.

``bench/outputs.py`` passes two run directories whose files differ at most in
the values of float leaves, and fails any other difference; the
maximum-likelihood fits it writes are files like the others, and it counts
each side's searches.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from wernerlab.cli import build_parser
from wernerlab.states import BELL_KINDS

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
    with_leaf(METRICS, ["bootstrap_nonconverged"], 1),     # an int
    with_leaf(METRICS, ["x_err"], None),                   # null against a float
    with_leaf(METRICS, ["x"], 1),                          # an int against a float
    with_leaf(METRICS, ["bootstrap_nonconverged"], False),  # a bool against an int
    with_leaf(METRICS, ["chsh", "angles_deg"], [-22.5, 22.5, 0.0]),  # a length
    with_leaf(METRICS, ["chsh", "method"], "exact"),       # a key
    {"x_err": 0.0123, **METRICS},                          # the key order
    json.dumps(METRICS),                                   # the same values, other text
    "not json",
], ids=["int", "null", "int-for-float", "bool", "length", "key", "key-order",
        "text", "not-json"])
def test_any_other_difference_fails(outputs, tmp_path, change):
    report = compare(outputs, tmp_path, {"metrics/a/metrics.json": METRICS},
                     {"metrics/a/metrics.json": change})
    assert report["identical"] == 0
    assert len(report["other"]) == 1
    assert report["other"][0].startswith("metrics/a/metrics.json: ")


def test_a_string_difference_and_a_missing_file_fail(outputs, tmp_path):
    manifest = {"argv": ["wernerlab", "chsh", "--target", "phi-minus"]}
    name = "chsh/a/chsh.json.manifest.json"
    report = compare(outputs, tmp_path, {name: manifest, "chsh/a/chsh.json": {"S": 2.0}},
                     {name: with_leaf(manifest, ["argv", 3], "psi-plus")})
    assert report["other"] == [
        "chsh/a/chsh.json: only in the parent",
        "chsh/a/chsh.json.manifest.json: argv[]: 'phi-minus' and 'psi-plus'",
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
    assert len(report["other"]) == 1
    assert report["other"][0].startswith(f"{name}: {field}: ")
    assert report["searches"] == [(2, 150.0), searches]


def test_a_missing_fit_fails(outputs, tmp_path):
    change = {name: doc for name, doc in FITS.items() if "-s0-source" not in name}
    report = compare(outputs, tmp_path, FITS, change)
    assert report["other"] == ["searches/x=1.0-s0-source/fit.json: only in the parent"]
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
    assert len(runs) == 1200
    # each source's seeds in turn, each seed from the three starts
    assert runs == [(source, seed, start) for source in ("x=1.0", "rho1", "x=0.95", "rho2")
                    for seed in range(100) for start in ("default", "linear", "source")]


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
    failed = outputs.run_commands(BENCH.parent / "src", tmp_path)
    assert failed[0] == "wernerlab gen-state bell eta-plus --out bad/state.json: 2"
    assert failed[1].startswith("fit x=2.0 seed 0 from default: Traceback")
    assert "OutOfRangeError" in failed[1]
    assert len(failed) == 2
    assert (tmp_path / "good" / "state.json").is_file()
    doc = json.loads((tmp_path / "searches" / "x=1.0-s3-source" / "fit.json").read_text())
    assert list(doc) == ["path", "rho", "cost", "n_evaluations", "iterations", "converged",
                         "history"]
    assert doc["path"] == "search"
    assert len(doc["rho"]) == 4


def test_main_exits_2_on_a_revision_that_names_no_commit(outputs, monkeypatch, capsys):
    monkeypatch.setattr(outputs.pairs, "names_commit", lambda rev: False)
    assert outputs.main(["--parent", "no-such-rev"]) == 2
    assert "names no commit" in capsys.readouterr().err
