"""The paired-run script's summary on fixed numbers.

``bench/pairs.py`` judges a change by the pair rule: the change's wins over
the parent, ties counting for neither, the median gap against the parent's
interquartile range, and each median's relative change against its bound.
"""

import importlib.util
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"


def load_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


END_TO_END = [
    {"name": "throughput_per_s", "unit": "units/s", "better": "higher", "bound": 0.25},
    {"name": "latency_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def results(series):
    """Result lines as ``perfbench/run.py`` prints them, one per pair."""
    n = len(next(iter(series.values())))
    return [
        {"failed": 0, "attempted": 10,
         "metrics": {name: {"value": values[i], "unit": "-"} for name, values in series.items()}}
        for i in range(n)
    ]


def test_summary_applies_the_pair_rule_and_the_bounds():
    parent = results({"throughput_per_s": [10.0, 12.0, 11.0, 13.0],
                      "latency_ms.p50": [20.0, 20.0, 20.0, 20.0],
                      "peak_rss_mb": [40.0, 40.0, 40.0, 40.0]})
    change = results({"throughput_per_s": [14.0, 11.0, 15.0, 16.0],
                      "latency_ms.p50": [30.0, 20.0, 26.0, 24.0],
                      "peak_rss_mb": [45.0, 45.0, 45.0, 45.0]})
    rows = {row["name"]: row for row in load_pairs().summarize(parent, change, END_TO_END)}

    tput = rows["throughput_per_s"]
    assert tput["parent"] == (10.75, 11.5, 12.25)
    assert tput["change"] == (13.25, 14.5, 15.25)
    assert (tput["wins"], tput["pairs"]) == (3, 4)
    assert tput["gap_exceeds_parent_iqr"]  # 3.0 against 1.5
    assert tput["relative_worse"] == pytest.approx(-3.0 / 11.5)
    assert tput["within_bound"]

    # a tie wins for neither side; a change of exactly the bound is within it
    latency = rows["latency_ms.p50"]
    assert latency["wins"] == 0
    assert latency["change"][1] == 25.0
    assert latency["relative_worse"] == 0.25
    assert latency["within_bound"]

    rss = rows["peak_rss_mb"]
    assert rss["relative_worse"] == pytest.approx(0.125)
    assert not rss["within_bound"]
    assert rss["gap_exceeds_parent_iqr"]  # 5.0 against a zero spread


def test_a_gap_inside_the_parent_spread_is_not_a_gain():
    parent = results({"throughput_per_s": [10.0, 14.0, 10.0, 14.0]})
    change = results({"throughput_per_s": [11.0, 15.0, 11.0, 15.0]})
    (row,) = load_pairs().summarize(parent, change, END_TO_END[:1])
    assert row["wins"] == 4
    assert not row["gap_exceeds_parent_iqr"]  # 1.0 against 4.0


def with_failures(lines, failed):
    return [{**line, "failed": f} for line, f in zip(lines, failed)]


def test_exit_status_applies_the_bounds_and_the_failed_share():
    pairs = load_pairs()
    parent = results({"throughput_per_s": [10.0, 12.0, 11.0, 13.0],
                      "peak_rss_mb": [40.0, 40.0, 40.0, 40.0]})
    within = results({"throughput_per_s": [14.0, 11.0, 15.0, 16.0],
                      "peak_rss_mb": [44.0, 44.0, 44.0, 44.0]})
    beyond = results({"throughput_per_s": [14.0, 11.0, 15.0, 16.0],
                      "peak_rss_mb": [45.0, 45.0, 45.0, 45.0]})
    specs = [END_TO_END[0], END_TO_END[2]]

    def status(parent, change):
        return pairs.exit_status(pairs.summarize(parent, change, specs), parent, change)

    assert status(parent, within) == 0
    assert status(parent, beyond) == 1  # peak RSS +12.5 % against a 10 % bound
    # 1 of 40 units failed on the parent's side
    parent = with_failures(parent, [1, 0, 0, 0])
    assert status(parent, with_failures(within, [0, 0, 1, 0])) == 0  # the same share
    assert status(parent, with_failures(within, [0, 1, 1, 0])) == 1  # 2 of 40
    assert status(parent, within) == 0  # a smaller share
    # the shares are compared, not the counts: 2 of 80 is 1 of 40
    wider = [{**line, "attempted": 20} for line in with_failures(within, [1, 0, 1, 0])]
    assert status(parent, wider) == 0


def test_median_attempted_units():
    pairs = load_pairs()
    runs = [{**line, "attempted": n}
            for line, n in zip(results({"throughput_per_s": [1.0] * 4}), [9000, 19000, 8000, 12000])]
    assert pairs.median_attempted(runs) == 10500.0
    assert pairs.median_attempted(runs[:3]) == 9000


def test_main_exits_1_on_a_metric_beyond_its_bound(monkeypatch, capsys):
    pairs = load_pairs()
    rss = {"parent": 40.0, "change": 50.0}

    def run_once(tree, workload, seed):
        side = "change" if tree == pairs.ROOT else "parent"
        values = {"throughput_per_s": 10.0 + seed % 2, "latency_ms.p50": 20.0,
                  "setup_s": 0.5, "peak_rss_mb": rss[side]}
        return {"failed": 0, "attempted": 10 if side == "parent" else 20 + seed,
                "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}

    monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.setattr(pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(pairs, "names_commit", lambda rev: True)
    monkeypatch.setattr(pairs, "benchmark_differs", lambda rev: "")
    argv = ["--parent", "HEAD", "--workload", "tomo-interior", "--pairs", "2", "--seed", "1"]
    assert pairs.main(argv) == 1
    out = capsys.readouterr().out
    assert "bound 10%: BEYOND" in out
    assert out.endswith("median attempted units per run: parent 10, change 21.5\n")
    rss["change"] = 40.0
    assert pairs.main(argv) == 0
    assert "BEYOND" not in capsys.readouterr().out
