"""Compare the files that fixed commands and fits write, parent against working tree.

Usage, from the root of a checkout:

    python3 bench/outputs.py --parent HEAD

It exports ``--parent`` with ``git archive`` to a temporary directory and
runs the same ``wernerlab`` commands on the parent's ``src/`` and on the
working tree's, each side in its own empty directory with the same relative
paths, so that the manifests compare too.  One process per side runs every
subcommand, in this order:

- 32 ``pipeline --bootstrap 20`` runs (``--mix`` 0, 0.405, 0.801 and 1.0
  at seeds 0-7);
- ``metrics`` and ``chsh --state`` at each target's optimal angles, on the
  source state and on the maximum-likelihood state of each seed-0 run;
- ``gen-state`` of the four Bell states and of both Werner kinds at each
  ``--mix`` value;
- ``fit-werner`` at each target, on the same states as ``metrics``;
- ``simulate`` on the source state of each seed-0 run: the tomography
  schedule, and the CHSH schedule at each target's angles and at
  ``--angles 3,51,-17.5,80``, each with and without ``--exact``; and the
  tomography schedule and the ``phi-minus`` CHSH schedule with
  ``--accidentals 0``, whose counts files have no ``accidentals_per_s``;
- ``simulate`` of the ``rho1`` and ``rho2`` fixtures at seeds 0-7, read from
  a copy of each side's fixture file placed at ``fixtures/<name>.json`` in
  its run directory, so the manifests compare: the counts behind
  ``tomo-boundary``'s ``rho1`` trials, whose linear inversion is often
  unphysical, so the maximum-likelihood search runs;
- ``chsh --counts`` on every CHSH counts file;
- ``reconstruct --method linear`` and ``--method mle`` on every tomography
  counts file, the pipelines' included;
- ``decohere-curve`` with its defaults and with ``--fwhm 9 --grid
  0:40:0.5``.

After the commands the same process fits 1,200 count runs through
``MaximumLikelihood().fit``: the source states x = 1.0 and x = 0.95
(``werner_phi_minus``) and the ``rho1`` and ``rho2`` fixtures, simulated on
the tomography schedule at ``SourceConfig``'s defaults at seeds 0-99, each
fitted from three starts: the default one, the linear inversion's matrix and
the source state.  About half of them search (549 at the time of writing);
the rest return their physical linear inversion.  The ``linear`` start gives
the default start's fit bit for bit, since both start from the same
inversion; it is kept because it is the call the tomography workloads make
(``mle_reconstruct(run, seed_matrix=linear.matrix)``).  Each fit is written
to ``searches/<source>-s<seed>-<start>/fit.json``: its ``path``, ``rho`` as
the ``[re, im]`` matrix of ``states.density_matrix_to_json``, ``cost``,
``n_evaluations``, ``iterations``, ``converged`` and the cost ``history``.
Each side's process inherits the environment, so ``OPENBLAS_CORETYPE`` set
for this script selects both sides' BLAS kernel.

It prints how many files are byte-identical, then each side's number of
searches and mean evaluations a search, and, for every JSON leaf that
differs, named by command, file name and key path (list indices written
``[]``; the fits' files are named ``searches/fit.json``), the number of runs
in which it differs, its largest rise and its largest fall (the working
tree's value less the parent's, and the parent's less the working tree's),
so a one-sided bound can be read from it.  It exits 1 when anything other
than a float's value differs: a file on one side only, a differing file that
is not JSON, a changed key, length, string, integer, boolean or null, or a
command or fit that fails on either side, with a nonzero exit status or an
exception (the others still run).  A fit is an output file like any other:
one whose floats move while its path, counts and flag stay the same exits
0, with its moves printed and its file counted as not byte-identical.  It
exits 0 otherwise, and 2 when the revision names no commit or a side's
process cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import pairs  # bench/pairs.py, beside this script

ROOT = pairs.ROOT
MIXES = ("0.0", "0.405", "0.801", "1.0")
SEEDS = range(8)
TARGETS = ("phi-plus", "phi-minus", "psi-plus", "psi-minus")
FIXTURES = ("rho1", "rho2")
CUSTOM_ANGLES = "3,51,-17.5,80"

SOURCES = ("x=1.0", "rho1", "x=0.95", "rho2")
FIT_SEEDS = range(100)
STARTS = ("default", "linear", "source")

# Imports the package, which must come from the directory argv[1], and this
# script from the directory argv[2], and prints, as its last line, the JSON
# list that run_side returns on the [argvs, fits] read as JSON from stdin.
DRIVER = """
import json, sys
import wernerlab
if not wernerlab.__file__.startswith(sys.argv[1]):
    sys.exit(f"wernerlab imported from {wernerlab.__file__}, not {sys.argv[1]}")
sys.path.append(sys.argv[2])
import outputs
print(json.dumps(outputs.run_side(*json.load(sys.stdin))))
"""


def commands() -> list[list[str]]:
    """The argvs, in the order they run, with paths relative to the run directory."""
    argvs = [["pipeline", "--mix", x, "--seed", str(seed), "--bootstrap", "20",
              "--out-dir", f"pipeline/x{x}-s{seed}"] for x in MIXES for seed in SEEDS]
    for x in MIXES:
        for state in ("state", "rho_mle"):
            path = f"pipeline/x{x}-s0/{state}.json"
            for target in TARGETS:
                run = f"x{x}-{state}-{target}"
                argvs.append(["metrics", path, "--target", target,
                              "--out", f"metrics/{run}/metrics.json"])
                argvs.append(["chsh", "--state", path, "--target", target,
                              "--out", f"chsh/{run}/chsh.json"])
    kinds = [("bell", t) for t in TARGETS]
    kinds += [(kind, x) for kind in ("werner-singlet", "werner-phi-minus") for x in MIXES]
    argvs += [["gen-state", kind, value, "--out", f"gen-state/{kind}-{value}/state.json"]
              for kind, value in kinds]
    argvs += [["fit-werner", f"pipeline/x{x}-s0/{state}.json", "--target", target,
               "--out", f"fit-werner/x{x}-{state}-{target}/fit.json"]
              for x in MIXES for state in ("state", "rho_mle") for target in TARGETS]
    # the directory of each counts file, a tomography run's or a CHSH run's
    tomo, chsh = [f"pipeline/x{x}-s{seed}" for x in MIXES for seed in SEEDS], []
    schedules = [("tomo", [])]
    schedules += [(f"chsh-{t}", ["--schedule", "chsh", "--target", t]) for t in TARGETS]
    schedules += [("chsh-custom", ["--schedule", "chsh", "--angles", CUSTOM_ANGLES])]
    for x in MIXES:
        for name, options in schedules:
            variants = [([], ""), (["--exact"], "-exact")]
            if name in ("tomo", "chsh-phi-minus"):
                variants.append((["--accidentals", "0"], "-no-accidentals"))
            for extra, suffix in variants:
                run = f"simulate/x{x}-{name}{suffix}"
                argvs.append(["simulate", f"pipeline/x{x}-s0/state.json", *options, *extra,
                              "--out", f"{run}/counts.json"])
                (chsh if name.startswith("chsh") else tomo).append(run)
    for name in FIXTURES:
        for seed in SEEDS:
            run = f"simulate/{name}-s{seed}"
            argvs.append(["simulate", f"fixtures/{name}.json", "--seed", str(seed),
                          "--out", f"{run}/counts.json"])
            tomo.append(run)
    argvs += [["chsh", "--counts", f"{run}/counts.json",
               "--out", f"chsh-counts/{run.replace('/', '-')}/chsh.json"] for run in chsh]
    argvs += [["reconstruct", f"{run}/counts.json", "--method", method,
               "--out", f"reconstruct/{method}-{run.replace('/', '-')}/rho.json"]
              for run in tomo for method in ("linear", "mle")]
    argvs += [["decohere-curve", "--out", "decohere-curve/default/curve.csv"],
              ["decohere-curve", "--fwhm", "9", "--grid", "0:40:0.5",
               "--out", "decohere-curve/fwhm9/curve.csv"]]
    return argvs


def fits() -> list[tuple[str, int, str]]:
    """The ``(source, seed, start)`` of every fit, in the order they run."""
    return [(source, seed, start) for source in SOURCES for seed in FIT_SEEDS for start in STARTS]


def write_fit(source: str, seed: int, start: str) -> None:
    """Fit one run of :func:`fits` and write ``searches/<source>-s<seed>-<start>/fit.json``."""
    from wernerlab import fixtures, states, tomography
    from wernerlab.polarimetry import SourceConfig, simulate_counts, tomographic_settings

    if source.startswith("x="):
        state = states.werner_phi_minus(float(source[2:]))
    else:
        state = fixtures.load(source)
    run = simulate_counts(state, tomographic_settings(), SourceConfig(seed=seed))
    linear = tomography.linear_reconstruct(run).matrix
    seed_matrix = {"default": None, "linear": linear, "source": state}[start]
    est = tomography.MaximumLikelihood().fit(run, seed_matrix=seed_matrix)
    doc = {"path": est.path_, "rho": states.density_matrix_to_json(est.rho_)["matrix"],
           "cost": est.cost_, "n_evaluations": est.n_evaluations_,
           "iterations": est.iterations_, "converged": est.converged_,
           "history": est.cost_history_}
    out = Path(f"searches/{source}-s{seed}-{start}/fit.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")


def run_side(argvs: list, runs: list) -> list[str]:
    """Run each argv through ``wernerlab.cli.main``, then each fit of
    ``runs``, in the working directory; returns the commands and fits that
    failed, each with its exit status or traceback.  A failure does not stop
    the others."""
    from wernerlab.cli import main

    failed = []
    for argv in argvs:
        try:
            status = main(argv)
        except Exception:
            status = traceback.format_exc().strip()
        if status:
            failed.append(f"wernerlab {' '.join(argv)}: {status}")
    for source, seed, start in runs:
        try:
            write_fit(source, seed, start)
        except Exception:
            failed.append(f"fit {source} seed {seed} from {start}: "
                          f"{traceback.format_exc().strip()}")
    return failed


def run_commands(src: Path, workdir: Path) -> list[str]:
    """Run :func:`commands`, then :func:`fits`, in ``workdir`` on the package
    in ``src``, in one child process, with that package's fixture files
    copied into ``workdir/fixtures``; returns what :func:`run_side` returns."""
    argvs = commands()
    (workdir / "fixtures").mkdir(parents=True, exist_ok=True)
    for name in FIXTURES:
        shutil.copyfile(src / "wernerlab" / "fixtures" / f"{name}.json",
                        workdir / "fixtures" / f"{name}.json")
    for argv in argvs:
        if "--out" in argv:
            (workdir / argv[argv.index("--out") + 1]).parent.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", DRIVER, str(src), str(Path(__file__).parent)],
                          input=json.dumps([argvs, fits()]), cwd=workdir, env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def searched(root: Path) -> tuple[int, float]:
    """A run directory's number of searches and its mean evaluations a search
    (0.0 without a search)."""
    docs = [json.loads(path.read_bytes()) for path in root.glob("searches/*/fit.json")]
    evals = [doc["n_evaluations"] for doc in docs if doc["path"] == "search"]
    return len(evals), (sum(evals) / len(evals) if evals else 0.0)


def leaf_differences(a, b, path: str = "") -> tuple[list, list]:
    """The differences of two parsed JSON documents: ``(floats, other)``, with
    ``floats`` the ``(path, b - a)`` of each float leaf whose value differs
    and ``other`` a description of every other difference."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return [], [f"{path or '.'}: keys {list(a)} and {list(b)}"]
        children = [(a[k], b[k], f"{path}.{k}" if path else k) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [], [f"{path}: lengths {len(a)} and {len(b)}"]
        children = [(x, y, f"{path}[]") for x, y in zip(a, b)]
    elif type(a) is float and type(b) is float:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return [], []
        return [(path, b - a)], []
    elif type(a) is type(b) and a == b:
        return [], []
    else:
        return [], [f"{path or '.'}: {a!r} and {b!r}"]
    floats, other = [], []
    for x, y, child in children:
        f, o = leaf_differences(x, y, child)
        floats += f
        other += o
    return floats, other


def compare(parent: Path, change: Path) -> dict:
    """Compare every file under two run directories.  Returns the number of
    ``files`` and of ``identical`` ones, ``searches``, the :func:`searched`
    of the parent and of the change, ``leaves``, which maps each differing
    float leaf ``"<command>/<file name> <key path>"`` to ``[runs, largest
    rise, largest fall]``, each 0.0 where the leaf never moves that way, and
    the ``other`` differences."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (parent, change) for p in root.rglob("*") if p.is_file()})
    identical, leaves, other = 0, {}, []
    for name in names:
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            other.append(f"{name}: only in the {'parent' if a.is_file() else 'change'}")
            continue
        text_a, text_b = a.read_bytes(), b.read_bytes()
        if text_a == text_b:
            identical += 1
            continue
        try:
            doc_a, doc_b = json.loads(text_a), json.loads(text_b)
        except ValueError:
            other.append(f"{name}: differs and is not JSON")
            continue
        floats, others = leaf_differences(doc_a, doc_b)
        other += [f"{name}: {o}" for o in others]
        if not (floats or others):
            other.append(f"{name}: the same values written differently")
        parts = name.split("/")
        moved = {}
        for path, diff in floats:
            rise, fall = moved.get(path, (0.0, 0.0))
            moved[path] = (max(rise, diff), max(fall, -diff))
        for path, (rise, fall) in moved.items():
            entry = leaves.setdefault(f"{parts[0]}/{parts[-1]} {path}", [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] = max(entry[1], rise)
            entry[2] = max(entry[2], fall)
    return {"files": len(names), "identical": identical,
            "searches": [searched(parent), searched(change)], "leaves": leaves, "other": other}


def print_report(report: dict) -> None:
    print(f"{report['identical']} of {report['files']} files byte-identical")
    for side, (searches, mean) in zip(("parent", "change"), report["searches"]):
        print(f"{side}: {searches} searches, {mean:.4g} evaluations a search")
    for key, (runs, rise, fall) in sorted(report["leaves"].items()):
        print(f"  float {key}: differs in {runs} runs, rises by at most {rise:.3g}"
              f" and falls by at most {fall:.3g}")
    for line in report["other"]:
        print(f"  DIFFERS {line}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare command outputs, parent against working tree.")
    p.add_argument("--parent", required=True, help="git revision of the parent")
    args = p.parse_args(argv)
    if not pairs.names_commit(args.parent):
        print(f"bench/outputs.py: {args.parent!r} names no commit", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="wernerlab-outputs-") as tmp:
        tmp = Path(tmp)
        pairs.export(args.parent, tmp)
        failed = []
        for side, src in (("parent", tmp / "tree" / "src"), ("change", ROOT / "src")):
            try:
                failed += [f"failed on the {side}: {cmd}" for cmd in run_commands(src, tmp / side)]
            except subprocess.CalledProcessError as exc:
                print(f"bench/outputs.py: the {side}'s process did not run:\n{exc.stderr}",
                      file=sys.stderr)
                return 2
        report = compare(tmp / "parent", tmp / "change")
        report["other"] += failed
    print_report(report)
    return int(bool(report["other"]))


if __name__ == "__main__":
    sys.exit(main())
