"""Benchmark of wernerlab: four seeded closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tomo-interior --seed 1 --seconds 25 --trace 0

One client in one process runs units back to back for ``--seconds`` seconds;
the next unit starts when the previous one ends.  Every unit's output is
checked.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit and sample count, and the run's metadata.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced blocks of units and reports the per-layer metrics of the
traced ones, per unit, plus the tracing overhead; it writes the raw spans of
the first traced units to ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in the set-up probes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("tomo-interior", "tomo-boundary", "cli-bootstrap", "chsh-decohere")
SETUP_REPEATS = 3
P90_MIN_UNITS = 100

# Gated metrics, in the order of BENCHMARK.json.
END_TO_END = ("throughput_per_s", "latency_ms.p50", "setup_s", "peak_rss_mb")
# Per-layer metrics of the traced units: span self time (ms) or call count per
# unit, counters per unit, and ratios.
SPAN_MS = (
    ("qlinalg.herm_eig.ms", "qlinalg.herm_eig"),
    ("analysis.fit_werner.ms", "analysis.fit_werner"),
    ("analysis.fidelity.ms", "analysis.fidelity"),
    ("analysis.tangle.ms", "analysis.tangle"),
    ("analysis.chsh_value.ms", "analysis.chsh_value"),
    ("tomography.mle.ms", "tomography.mle"),
    ("tomography.linear.ms", "tomography.linear"),
    ("tomography.bootstrap.ms", "tomography.bootstrap"),
    ("polarimetry.simulate_counts.ms", "polarimetry.simulate_counts"),
    ("polarimetry.poisson_sample.ms", "polarimetry.poisson_sample"),
    ("decoherence.decoherence_curve.ms", "decoherence.decoherence_curve"),
    ("decoherence.single_photon.ms", "decoherence.single_photon"),
    ("states.json.ms", "states.json"),
    ("cli.self_ms", "cli"),
)
SPAN_CALLS = (
    ("qlinalg.herm_eig.calls", "qlinalg.herm_eig"),
    ("analysis.fit_werner.calls", "analysis.fit_werner"),
    ("tomography.mle.calls", "tomography.mle"),
    ("tomography.linear.calls", "tomography.linear"),
    ("polarimetry.poisson_draws", "polarimetry.poisson_sample"),
    ("decoherence.gamma.calls", "decoherence.gamma"),
)
COUNTERS = (
    ("tomography.mle.evals", "evals/unit"),
    ("tomography.mle.nonconverged", "fits/unit"),
    ("tomography.bootstrap.replicas", "replicas/unit"),
    ("cli.bytes_written", "bytes/unit"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark of wernerlab.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="workload seed")
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measured loop in seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 reports per-layer metrics from traced units")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(workload: str, seed: int, out_dir: Path):
    """Import wernerlab, load fixtures, build the schedules and run the
    warm-up unit 0.  Returns (workload, warm-up result, seconds at the
    reference speed)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import wernerlab

    if not Path(wernerlab.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported wernerlab from {wernerlab.__file__}, not from {SRC}")
    import calibrate  # imports numpy, so only after wernerlab's import is timed
    import workloads

    with calibrate.SpeedMeter() as meter:
        out_dir.mkdir(parents=True, exist_ok=True)
        wl = workloads.build(workload, seed, out_dir)
        warm = wl.run(0)
        end = time.perf_counter()
        # A few samples after the end, so the scale of a short set-up rests
        # on more than the samples taken during it.
        for _ in range(3):
            meter.sample()
    return wl, warm, meter.scaled(start, end)


def probe_setup(args) -> dict:
    """Set up once in a fresh interpreter; returns its set-up time and the
    digest of its warm-up output."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "loadavg_start": list(os.getloadavg()),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "wernerlab").glob("*.py"))),
    }


def measure(wl, seconds: float, tracer, meter):
    """Run units 1, 2, ... for ``seconds``; returns the per-unit record.

    ``meter`` (a running calibrate.SpeedMeter, or None in a traced run)
    interrupts the loop every quarter second to time its kernel; that time
    is taken out of the units it falls in.
    """
    spans = []  # (start, end, traced) of each unit
    problems, accurate = [], 0
    i = 1
    start = time.perf_counter()
    while True:
        traced = tracer is not None and (i // wl.period) % 2 == 1
        if traced:
            tracer.install(i)
        t0 = time.perf_counter()
        try:
            result, error = wl.run(i), None
        except Exception as exc:  # a unit that raises is a failed unit
            result, error = None, exc
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
            tracer.counters["cli.bytes_written"] += wl.bytes_written()
        spans.append((t0, t1, traced))
        if error is not None:
            unit_problems, ok = ["".join(traceback.format_exception_only(error)).strip()], False
        else:
            unit_problems, ok = wl.check(i, result)
        if unit_problems:
            problems.append((i, unit_problems))
        accurate += ok
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    plain = [(a, b) for a, b, traced in spans if not traced]
    own = meter.own_time if meter else (lambda a, b: b - a)
    return {
        "units": i - 1,
        "latencies": [own(a, b) for a, b in plain],
        "scaled_latencies": [meter.scaled(a, b) for a, b in plain] if meter else [],
        "traced_latencies": [b - a for a, b, traced in spans if traced],
        "problems": problems,
        "accurate": accurate,
    }


def end_to_end(rec, setup_times) -> dict:
    lat, raw = rec["scaled_latencies"], rec["latencies"]
    n = rec["units"]
    metrics = {
        "throughput_per_s": (n / math.fsum(lat), "units/s", n),
        "latency_ms.p50": (statistics.median(lat) * 1e3, "ms", n),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    if n >= P90_MIN_UNITS:
        metrics["latency_ms.p90"] = (statistics.quantiles(lat, n=10)[8] * 1e3, "ms", n)
    metrics["accurate_share"] = (rec["accurate"] / n, "ratio", n)
    # The same two timings before scaling to the reference speed.
    metrics["raw.throughput_per_s"] = (n / math.fsum(raw), "units/s", n)
    metrics["raw.latency_ms.p50"] = (statistics.median(raw) * 1e3, "ms", n)
    return metrics


def per_layer(rec, tracer) -> dict:
    n = max(len(rec["traced_latencies"]), 1)
    metrics = {}
    for name, span in SPAN_MS:
        metrics[name] = (tracer.self_s[span] * 1e3 / n, "ms/unit", n)
    for name, span in SPAN_CALLS:
        metrics[name] = (tracer.calls[span] / n, "calls/unit", n)
    for name, unit in COUNTERS:
        metrics[name] = (tracer.counters[name] / n, unit, n)
    fits = tracer.calls["tomography.mle"]
    metrics["tomography.mle.evals_per_fit"] = (
        tracer.counters["tomography.mle.evals"] / fits if fits else 0.0, "evals/fit", fits)
    inversions = tracer.calls["tomography.linear"]
    metrics["tomography.linear_physical_share"] = (
        tracer.counters["tomography.linear.physical"] / inversions if inversions else 0.0,
        "ratio", inversions)
    plain, traced = rec["latencies"], rec["traced_latencies"]
    overhead = (statistics.fmean(traced) / statistics.fmean(plain) - 1.0
                if plain and traced else 0.0)
    metrics["trace.overhead_share"] = (overhead, "ratio", len(traced))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wernerlab" / "__init__.py").is_file():
        print(f"perfbench: no wernerlab sources under {SRC}", file=sys.stderr)
        return 2
    run_dir = OUT / f"run-{os.getpid()}"
    try:
        if args.setup_only:
            wl, _warm, setup_s = set_up(args.workload, args.seed, run_dir)
            print(json.dumps({"setup_s": setup_s, "digest": wl.digest()}))
            return 0
        meta = metadata()
        wl, warm, setup_s = set_up(args.workload, args.seed, run_dir)
        digest = wl.digest()
        probes = [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
        import numpy
        import tracing
        import wernerlab

        meta["numpy"] = numpy.__version__
        warm_problems, _ = wl.check(0, warm)
        # The warm-up inputs do not depend on the seed, so every set-up
        # reran the same unit in its own interpreter: its files must match.
        if any(p["digest"] != digest for p in probes):
            warm_problems.append("warm-up output differs between set-up processes")
        tracer = tracing.Tracer(wernerlab) if args.trace else None
        if tracer is not None:
            rec = measure(wl, args.seconds, tracer, None)
        else:
            import calibrate

            with calibrate.SpeedMeter() as meter:
                rec = measure(wl, args.seconds, None, meter)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    setup_times = [setup_s] + [p["setup_s"] for p in probes]
    problems = ([(0, warm_problems)] if warm_problems else []) + rec["problems"]
    attempted = 1 + rec["units"]  # the warm-up unit and the measured units
    failed = len(problems)
    for where, what in problems[:5]:
        print(f"perfbench: unit {where} failed: {'; '.join(what)}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(rec, tracer)
        gated = list(metrics)
    else:
        metrics = end_to_end(rec, setup_times)
        gated = list(END_TO_END)
    metrics["failed_share"] = (failed / attempted, "ratio", attempted)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit:12s} n={n}")
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"meta": meta, "spans": tracer.spans_doc()}) + "\n")
        print(f"# spans written to {spans_path.relative_to(ROOT)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in gated},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
