"""Compare the maximum-likelihood fits of a fixed set of runs, parent against working tree.

Usage, from the root of a checkout:

    python3 bench/searches.py --parent HEAD

It exports ``--parent`` with ``git archive`` to a temporary directory, as
``bench/pairs.py`` does, and fits the same 1,200 count runs on the parent's
``src/`` and on the working tree's, one child process per side: the source
states x = 1.0 and x = 0.95 (``werner_phi_minus``) and the ``rho1`` and
``rho2`` fixtures, simulated on the tomography schedule at ``SourceConfig``'s
defaults at seeds 0-99, each fitted by ``MaximumLikelihood`` from three
starts: the default one, the linear inversion's matrix and the source state.
About half of them search (549 at the time of writing); the rest return
their physical linear inversion.  The children inherit the environment, so
``OPENBLAS_CORETYPE`` set for this script selects both sides' BLAS kernel.

It prints, for each compared field (``path``, the bytes of ``rho``,
``cost``, ``n_evaluations``, ``iterations``, ``converged`` and the cost
history), the number of fits in which it differs, and each side's number of
searches and mean evaluations a search.  It exits 1 on any difference, 0
when every field of every fit is the same, and 2 when the revision names no
commit or a side's fits cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pairs  # bench/pairs.py, beside this script

ROOT = pairs.ROOT
SOURCES = ("x=1.0", "rho1", "x=0.95", "rho2")
SEEDS = range(100)
STARTS = ("default", "linear", "source")
FIELDS = ("path", "rho", "cost", "n_evaluations", "iterations", "converged", "history")

# Imports this script from the directory argv[1] and the package from the
# directory argv[2], and writes the fits as JSON to the file argv[3].
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import searches
import wernerlab
if not wernerlab.__file__.startswith(sys.argv[2]):
    sys.exit(f"wernerlab imported from {wernerlab.__file__}, not {sys.argv[2]}")
with open(sys.argv[3], "w") as out:
    json.dump(searches.fits(), out)
"""


def fits() -> list[dict]:
    """Every fit of the set, in a fixed order, as a JSON-ready dict: the
    run's ``source``, ``seed`` and ``start``, and the fit's fields, with
    ``rho`` as the hex of its bytes."""
    from wernerlab import fixtures, tomography
    from wernerlab.polarimetry import SourceConfig, simulate_counts, tomographic_settings
    from wernerlab.states import werner_phi_minus

    states = {"x=1.0": werner_phi_minus(1.0), "rho1": fixtures.load("rho1"),
              "x=0.95": werner_phi_minus(0.95), "rho2": fixtures.load("rho2")}
    schedule = tomographic_settings()
    out = []
    for source in SOURCES:
        for seed in SEEDS:
            run = simulate_counts(states[source], schedule, SourceConfig(seed=seed))
            linear = tomography.linear_reconstruct(run).matrix
            for start, seed_matrix in zip(STARTS, (None, linear, states[source])):
                est = tomography.MaximumLikelihood().fit(run, seed_matrix=seed_matrix)
                out.append({
                    "source": source, "seed": seed, "start": start,
                    "path": est.path_, "rho": est.rho_.tobytes().hex(), "cost": est.cost_,
                    "n_evaluations": est.n_evaluations_, "iterations": est.iterations_,
                    "converged": est.converged_, "history": est.cost_history_,
                })
    return out


def run_fits(src: Path, out: Path) -> list[dict]:
    """The fits of the package in ``src``, made in a child process."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", CHILD, str(Path(__file__).parent), str(src), str(out)],
                   env=env, check=True, capture_output=True, text=True)
    return json.loads(out.read_text())


def searched(side: list[dict]) -> tuple[int, float]:
    """A side's number of searches and its mean evaluations a search (0.0
    without a search)."""
    evals = [fit["n_evaluations"] for fit in side if fit["path"] == "search"]
    return len(evals), (sum(evals) / len(evals) if evals else 0.0)


def compare(parent: list[dict], change: list[dict]) -> dict:
    """Compare two sides' fits, run by run.  Returns the number of
    ``fits``, ``differing``, which maps each field to the number of fits in
    which it differs, ``searches`` and ``mean_evaluations`` as ``(parent,
    change)``, and ``other``: the runs that are not the same on both sides,
    which leave the fields uncompared."""
    report = {"fits": len(parent), "differing": dict.fromkeys(FIELDS, 0), "other": []}
    runs = [[(f["source"], f["seed"], f["start"]) for f in side] for side in (parent, change)]
    if runs[0] != runs[1]:
        report["other"].append(f"the parent fits {len(parent)} runs and the change "
                               f"{len(change)}, not the same runs in the same order")
    else:
        for a, b in zip(parent, change):
            for name in FIELDS:
                report["differing"][name] += a[name] != b[name]
    (report["searches"], report["mean_evaluations"]) = zip(searched(parent), searched(change))
    return report


def print_report(report: dict) -> None:
    print(f"{report['fits']} fits")
    for name, count in report["differing"].items():
        print(f"  {name}: differs in {count} fits")
    for side, searches, mean in zip(("parent", "change"), report["searches"],
                                    report["mean_evaluations"]):
        print(f"{side}: {searches} searches, {mean:.4g} evaluations a search")
    for line in report["other"]:
        print(f"  DIFFERS {line}")


def differs(report: dict) -> bool:
    return bool(report["other"]) or any(report["differing"].values())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare MLE fits, parent against working tree.")
    p.add_argument("--parent", required=True, help="git revision of the parent")
    args = p.parse_args(argv)
    if not pairs.names_commit(args.parent):
        print(f"bench/searches.py: {args.parent!r} names no commit", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="wernerlab-searches-") as tmp:
        tmp = Path(tmp)
        pairs.export(args.parent, tmp)
        sides = {}
        for side, src in (("parent", tmp / "tree" / "src"), ("change", ROOT / "src")):
            try:
                sides[side] = run_fits(src, tmp / f"{side}.json")
            except subprocess.CalledProcessError as exc:
                print(f"bench/searches.py: the {side}'s fits did not run:\n{exc.stderr}",
                      file=sys.stderr)
                return 2
    report = compare(sides["parent"], sides["change"])
    print_report(report)
    return int(differs(report))


if __name__ == "__main__":
    sys.exit(main())
