"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload for about a second and checks that the last output line
carries every end-to-end metric of BENCHMARK.json with its unit, that a
traced run carries every per-layer metric, and that the workload seed alone
fixes the generated inputs.  It is not collected by pytest (the repository's
tests stay fast); it takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_benchmark(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, spec: list, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, (label, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 2, label
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (label, got, want)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), (label, name, m)


def check_seeds(names) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    out = ROOT / ".perfbench_out" / "smoke"
    try:
        for name in names:
            a, b, c = (workloads.build(name, seed, out) for seed in (1, 1, 2))
            # Unit 0 is the warm-up, whose inputs no seed changes.
            assert a.inputs(0) == c.inputs(0), name
            first = [a.inputs(i) for i in range(1, 6)]
            assert first == [b.inputs(i) for i in range(1, 6)], name
            assert all(x != y for x, y in zip(first, [c.inputs(i) for i in range(1, 6)])), name
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    check_seeds(names)
    for name in names:
        check_metrics(run_benchmark(name, 0), spec["end_to_end"], name)
        print(f"ok  {name} end-to-end")
    check_metrics(run_benchmark("tomo-interior", 1), spec["per_layer"], "trace")
    print("ok  tomo-interior per-layer")
    print("ok  seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
