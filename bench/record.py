"""Record one point of the benchmark trajectory as ``BENCH_<n>.json``.

Usage, from the root of a clean checkout:

    python3 bench/record.py --n 6

It runs ``perfbench/run.py`` (tracing off) on each of the four workloads at
the fixed seeds, one run after another, each for the ``run_seconds`` that
``BENCHMARK.json`` sets, and writes ``BENCH_<n>.json`` at the repository
root.  For every workload the file holds the median and quartiles
(and the values of every run) of each gated metric and the failed units
against those attempted; it also records the Python and numpy versions,
``nproc``, the commit measured and the ``src/wernerlab/*.py`` line count.
The commit names what was measured only when ``src/``, ``perfbench/`` and
``BENCHMARK.json`` (which sets the run length) match it, so uncommitted
changes there are refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tomo-interior", "tomo-boundary", "cli-bootstrap", "chsh-decohere")
SEEDS = (1001, 1002, 1003, 1004, 1005)
COMMITTED = ("src", "perfbench", "BENCHMARK.json")  # must match the commit recorded
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int) -> tuple[dict, dict]:
    """(metadata, result line) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    meta = next(line for line in lines if line.startswith("# meta "))
    return json.loads(meta[len("# meta "):]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Write BENCH_<n>.json from benchmark runs.")
    p.add_argument("--n", type=int, required=True, help="number in the file name")
    args = p.parse_args(argv)
    dirty = subprocess.run(["git", "status", "--porcelain", "--", *COMMITTED],
                           cwd=ROOT, capture_output=True, text=True, check=True).stdout
    if dirty:
        print(f"bench/record.py: uncommitted changes:\n{dirty}", file=sys.stderr)
        return 2

    workloads = {}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed) for seed in SEEDS]
        meta = runs[0][0]
        results = [result for _, result in runs]
        workloads[workload] = {
            "failed_units": sum(r["failed"] for r in results),
            "attempted_units": sum(r["attempted"] for r in results),
            "metrics": {
                name: {"unit": entry["unit"],
                       **spread([r["metrics"][name]["value"] for r in results])}
                for name, entry in results[0]["metrics"].items()
            },
        }
    doc = {
        "commit": meta["git_commit"],
        "python": meta["python"],
        "numpy": meta["numpy"],
        "nproc": meta["nproc"],
        "src_lines": meta["src_lines"],
        "seconds": SECONDS,
        "seeds": list(SEEDS),
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
