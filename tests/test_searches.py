"""The fit-comparison script's verdict on fixed dumps.

``bench/searches.py`` passes two sides whose fits agree in every field, and
counts, field by field, the fits in which they differ.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def searches(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # for its import of bench/pairs.py
    spec = importlib.util.spec_from_file_location("bench_searches", BENCH / "searches.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fit(seed, start, path="search", evals=200, **fields):
    doc = {"source": "x=1.0", "seed": seed, "start": start, "path": path,
           "rho": "00" * 256, "cost": 7.25, "n_evaluations": evals, "iterations": 40,
           "converged": True, "history": [9.5, 7.5, 7.25]}
    return {**doc, **fields}


def dump():
    """A side of three fits, as the child writes it and the script reads it
    back: two searches and a linear path."""
    fits = [fit(0, "default"), fit(0, "source", evals=100),
            fit(1, "default", path="linear", evals=1, iterations=0, history=[])]
    return json.loads(json.dumps(fits))


def test_the_same_fits_pass(searches):
    report = searches.compare(dump(), dump())
    assert report["differing"] == dict.fromkeys(searches.FIELDS, 0)
    assert report["other"] == []
    assert report["fits"] == 3
    assert report["searches"] == (2, 2)
    assert report["mean_evaluations"] == (150.0, 150.0)
    assert not searches.differs(report)


def test_each_differing_field_is_counted_by_fit(searches):
    change = dump()
    change[0]["rho"] = "01" + "00" * 255
    change[0]["history"] = [9.5, 7.5, 7.250000000000001]
    change[1]["cost"] = 7.250000000000001
    change[1]["rho"] = "00" * 255 + "80"
    change[1]["n_evaluations"] = 101
    change[2]["converged"] = False
    report = searches.compare(dump(), change)
    assert report["differing"] == {"path": 0, "rho": 2, "cost": 1, "n_evaluations": 1,
                                   "iterations": 0, "converged": 1, "history": 1}
    assert report["other"] == []
    assert report["mean_evaluations"] == (150.0, 150.5)
    assert searches.differs(report)


def test_a_fit_that_takes_another_path_differs(searches):
    change = dump()
    change[2].update(path="search", n_evaluations=50)
    report = searches.compare(dump(), change)
    assert report["differing"]["path"] == 1
    assert report["searches"] == (2, 3)
    assert searches.differs(report)


@pytest.mark.parametrize("change", [dump()[:2], dump()[::-1]], ids=["missing", "reordered"])
def test_sides_of_other_runs_differ_without_a_field_compared(searches, change):
    report = searches.compare(dump(), change)
    assert report["differing"] == dict.fromkeys(searches.FIELDS, 0)
    assert len(report["other"]) == 1
    assert searches.differs(report)


def test_a_side_without_a_search_has_no_mean(searches):
    linear = [fit(1, "default", path="linear", evals=1)]
    report = searches.compare(linear, linear)
    assert (report["searches"], report["mean_evaluations"]) == ((0, 0), (0.0, 0.0))
