"""Run alternating benchmark pairs of a parent commit against the working tree.

Usage, from the root of a checkout:

    python3 bench/pairs.py --parent HEAD~1 --workload cli-bootstrap --pairs 10 --seed 1501

It exports ``--parent`` with ``git archive`` to a temporary directory and
runs ``perfbench/run.py`` (tracing off) there and in the working tree, for
the ``run_seconds`` that ``BENCHMARK.json`` sets.  Pair ``i`` runs both
sides at seed ``--seed + i - 1``; the parent runs first in odd pairs and
the change first in even ones.  Both sides must run the same benchmark, so
a ``perfbench/`` or ``BENCHMARK.json`` that differs between the parent and
the working tree is refused.

It prints every run, then for each end-to-end metric of ``BENCHMARK.json``
each side's median and quartiles, the pairs the change won (ties count for
neither), whether the gap between the medians exceeds the parent's
interquartile range, and the relative change of the median against the
metric's bound (positive is worse).  Under the summary it prints each
side's median number of attempted units per run: the harness keeps a record
per unit, so a ``peak_rss_mb`` rise that follows a rise in units is not a
change in what a unit allocates.  It exits 1 when a metric's median
change is beyond its bound or the change failed a larger share of units
than the parent, 0 otherwise, so a script can apply the pipeline's rule.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SAME_ON_BOTH_SIDES = ("perfbench", "BENCHMARK.json")


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True)


def names_commit(rev: str) -> bool:
    return not subprocess.run(["git", "rev-parse", "--verify", "--quiet", rev + "^{commit}"],
                              cwd=ROOT, capture_output=True).returncode


def benchmark_differs(rev: str) -> str:
    """What of the benchmark differs between ``rev`` and the working tree
    (tracked changes and untracked files), or an empty string."""
    changed = git("diff", "--name-only", rev, "--", *SAME_ON_BOTH_SIDES).stdout.decode()
    untracked = git("ls-files", "--others", "--exclude-standard", "--",
                    *SAME_ON_BOTH_SIDES).stdout.decode()
    return changed + untracked


def export(rev: str, dest: Path) -> None:
    archive = dest / "parent.tar"
    archive.write_bytes(git("archive", "--format=tar", rev).stdout)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The result line of one untraced benchmark run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric from the paired result lines (pair
    ``i`` is ``parent[i]`` against ``change[i]``): each side's quartiles,
    the change's wins, whether the median gap exceeds the parent's
    interquartile range, and the relative change of the median, signed so
    that positive is worse, against the metric's bound."""
    rows = []
    for spec in end_to_end:
        name, sign = spec["name"], (1.0 if spec["better"] == "lower" else -1.0)
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pq, cq = quartiles(p), quartiles(c)
        worse = sign * (cq[1] - pq[1]) / pq[1]
        rows.append({
            "name": name,
            "unit": spec["unit"],
            "parent": pq,
            "change": cq,
            "wins": sum(sign * (b - a) < 0.0 for a, b in zip(p, c)),
            "pairs": len(p),
            "gap_exceeds_parent_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
            "relative_worse": worse,
            "bound": spec["bound"],
            "within_bound": worse <= spec["bound"],
        })
    return rows


def exit_status(rows: list[dict], parent: list[dict], change: list[dict]) -> int:
    """1 if a summary row is beyond its bound or the change failed a larger
    share of its attempted units than the parent, else 0."""
    p_failed, p_attempted = (sum(r[k] for r in parent) for k in ("failed", "attempted"))
    c_failed, c_attempted = (sum(r[k] for r in change) for k in ("failed", "attempted"))
    # the shares compared without dividing, so no side needs an attempted unit
    more_failed = c_failed * p_attempted > p_failed * c_attempted
    return int(more_failed or not all(row["within_bound"] for row in rows))


def median_attempted(results: list[dict]) -> float:
    """The median number of units a side attempted per run."""
    return statistics.median(r["attempted"] for r in results)


def print_summary(rows: list[dict]) -> None:
    for row in rows:
        (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
        print(f"{row['name']} [{row['unit']}]")
        print(f"  parent  median {pm:.6g}  quartiles [{p1:.6g}, {p3:.6g}]")
        print(f"  change  median {cm:.6g}  quartiles [{c1:.6g}, {c3:.6g}]")
        print(f"  change wins {row['wins']} of {row['pairs']} pairs; median gap "
              f"{'exceeds' if row['gap_exceeds_parent_iqr'] else 'does not exceed'} "
              f"the parent's interquartile range")
        print(f"  relative change {row['relative_worse']:+.2%} (positive is worse), "
              f"bound {row['bound']:.0%}: {'within' if row['within_bound'] else 'BEYOND'}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Paired benchmark runs, parent against working tree.")
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in BENCHMARK["workloads"]])
    p.add_argument("--pairs", type=int, default=10, help="number of pairs (at least 2)")
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs needs at least 2 pairs for quartiles")
    if not names_commit(args.parent):
        print(f"bench/pairs.py: {args.parent!r} names no commit", file=sys.stderr)
        return 2
    differs = benchmark_differs(args.parent)
    if differs:
        print(f"bench/pairs.py: the benchmark differs from {args.parent}:\n{differs}",
              file=sys.stderr)
        return 2

    parent, change = [], []
    with tempfile.TemporaryDirectory(prefix="wernerlab-pairs-") as tmp:
        export(args.parent, Path(tmp))
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], args.workload, seed)
                (parent if side == "parent" else change).append(result)
                values = "  ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items())
                print(f"pair {i + 1} seed {seed} {side:6s} {values}  "
                      f"failed {result['failed']}/{result['attempted']}", flush=True)
    for side, results in (("parent", parent), ("change", change)):
        print(f"{side} failed units: {sum(r['failed'] for r in results)} of "
              f"{sum(r['attempted'] for r in results)}")
    rows = summarize(parent, change, BENCHMARK["end_to_end"])
    print_summary(rows)
    print(f"median attempted units per run: parent {median_attempted(parent):.6g}, "
          f"change {median_attempted(change):.6g}")
    return exit_status(rows, parent, change)


if __name__ == "__main__":
    sys.exit(main())
