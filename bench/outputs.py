"""Compare the files that fixed commands, fits and measurements write, parent
against working tree.

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

After the commands the same process fits 1,500 count runs through
``MaximumLikelihood().fit``: the source states x = 1.0 and x = 0.95
(``werner_phi_minus``) and the ``rho1`` and ``rho2`` fixtures, simulated on
the tomography schedule at ``SourceConfig``'s defaults, and x = 1.0 without
accidentals (source ``x=1.0-a0``), whose searches accept their first step
nearest to the search's opening step, so a change to the opening moves
their bits first.  Each source is simulated at seeds 0-99 and each run
fitted from three starts: the default one, the linear inversion's matrix
and the source state.  Over half of them search (849 at the time of
writing, 300 of them without accidentals); the rest return their physical
linear inversion.  The ``linear`` start gives
the default start's fit bit for bit, since both start from the same
inversion; it is kept because it is the call the tomography workloads make
(``mle_reconstruct(run, seed_matrix=linear.matrix)``).  Each fit is written
to ``searches/<source>-s<seed>-<start>/fit.json``: its ``path``, ``rho`` as
the ``[re, im]`` matrix of ``states.density_matrix_to_json``, ``cost``,
``n_evaluations``, ``iterations``, ``converged`` and the cost ``history``.

Last, the same process runs 45 single-photon decoherence measurements
(``decoherence.simulate_single_photon_experiment``, which no command
reaches) on ``DEFAULT_SPECTRUM`` at path differences of 0, 40, 100, 152 and
200 center wavelengths, at ``SourceConfig``'s defaults: seeds 0-7 drawn, and
seed 0 with ``exact``, which draws nothing, so the seed does not reach its
output.  Each is written to ``photon/L<path>-s<seed>[-exact]/run.json``: its
reconstructed ``rho`` as the ``[re, im]`` 2x2 matrix, ``gamma_abs`` and the
H, V, D and R ``counts``.  With the commands' 1,006 files and the 1,500 fits
that makes 2,551 files a side.

Each side's process inherits the environment, so ``OPENBLAS_CORETYPE`` set
for this script selects both sides' BLAS kernel.  ``--coretype KERNEL`` sets
``OPENBLAS_CORETYPE=KERNEL`` in the working tree's child alone: run against
the working tree's own commit, it measures how far each float moves across
two BLAS kernels.  OpenBLAS falls back to the kernel it detects for a name it
does not know, so check the name on the machine first.

It prints how many files are byte-identical, then each side's number of
searches and mean evaluations a search, and then every leaf that differs,
grouped by command, file name and key path (list indices written ``[]``;
the fits' files are named ``searches/fit.json``).  A float or integer leaf
gives the number of runs in which it differs, its largest rise and its
largest fall (the working tree's value less the parent's, and the parent's
less the working tree's), so a one-sided bound can be read from it.  Any
other difference gives its number of runs and the first run's file with
what differs there.  It exits 1 when anything other than a float's value
differs: a file on one side only, a differing file that is not JSON, a
changed key, length, string, integer, boolean or null, or a command, fit or
measurement that fails on either side, with a nonzero exit status or an
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

SOURCES = ("x=1.0", "rho1", "x=0.95", "rho2", "x=1.0-a0")  # "-a0": without accidentals
FIT_SEEDS = range(100)
STARTS = ("default", "linear", "source")
PHOTON_PATHS = (0, 40, 100, 152, 200)  # in center wavelengths

# Imports the package, which must come from the directory argv[1], and this
# script from the directory argv[2], and prints, as its last line, the JSON
# list that run_side returns on the [argvs, fits, photons] read as JSON from stdin.
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

    name = source.removesuffix("-a0")
    if name.startswith("x="):
        state = states.werner_phi_minus(float(name[2:]))
    else:
        state = fixtures.load(name)
    accidentals = {} if name == source else {"accidental_rate": 0.0}
    run = simulate_counts(state, tomographic_settings(), SourceConfig(seed=seed, **accidentals))
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


def photons() -> list[tuple[int, int, bool]]:
    """The ``(path difference in center wavelengths, seed, exact)`` of every
    single-photon run, in the order they run: ``exact`` at seed 0 alone,
    since an exact run's seed does not reach its output."""
    return [(path, seed, exact) for path in PHOTON_PATHS for seed in SEEDS
            for exact in (False, True) if seed == 0 or not exact]


def write_photon(path: int, seed: int, exact: bool) -> None:
    """Run one measurement of :func:`photons` and write
    ``photon/L<path>-s<seed>[-exact]/run.json``."""
    from wernerlab import decoherence
    from wernerlab.polarimetry import SourceConfig

    spectrum = decoherence.DEFAULT_SPECTRUM
    element = decoherence.BirefringentElement(path * spectrum.center_nm)
    run = decoherence.simulate_single_photon_experiment(
        spectrum, element, SourceConfig(seed=seed), exact=exact)
    doc = {"rho": [[[z.real, z.imag] for z in row] for row in run.rho.tolist()],
           "gamma_abs": run.gamma_abs, "counts": run.records.counts.tolist()}
    out = Path(f"photon/L{path}-s{seed}{'-exact' if exact else ''}/run.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")


def run_side(argvs: list, runs: list, photon_runs: list) -> list[str]:
    """Run each argv through ``wernerlab.cli.main``, then each fit of
    ``runs``, then each single-photon measurement of ``photon_runs``, in the
    working directory; returns the commands, fits and measurements that
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
    for path, seed, exact in photon_runs:
        try:
            write_photon(path, seed, exact)
        except Exception:
            failed.append(f"single photon L={path} seed {seed} exact={exact}: "
                          f"{traceback.format_exc().strip()}")
    return failed


def run_commands(src: Path, workdir: Path, coretype: str | None = None) -> list[str]:
    """Run :func:`commands`, :func:`fits` and :func:`photons` in ``workdir``
    on the package in ``src``, in one child process, with that package's
    fixture files copied into ``workdir/fixtures`` and, given a
    ``coretype``, ``OPENBLAS_CORETYPE`` set to it in the child's
    environment; returns what :func:`run_side` returns."""
    argvs = commands()
    (workdir / "fixtures").mkdir(parents=True, exist_ok=True)
    for name in FIXTURES:
        shutil.copyfile(src / "wernerlab" / "fixtures" / f"{name}.json",
                        workdir / "fixtures" / f"{name}.json")
    for argv in argvs:
        if "--out" in argv:
            (workdir / argv[argv.index("--out") + 1]).parent.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run([sys.executable, "-c", DRIVER, str(src), str(Path(__file__).parent)],
                          input=json.dumps([argvs, fits(), photons()]), cwd=workdir, env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def searched(root: Path) -> tuple[int, float]:
    """A run directory's number of searches and its mean evaluations a search
    (0.0 without a search)."""
    docs = [json.loads(path.read_bytes()) for path in root.glob("searches/*/fit.json")]
    evals = [doc["n_evaluations"] for doc in docs if doc["path"] == "search"]
    return len(evals), (sum(evals) / len(evals) if evals else 0.0)


def leaf_differences(a, b, path: str = "") -> tuple[list, list]:
    """The differences of two parsed JSON documents: ``(numbers, other)``,
    with ``numbers`` the ``(path, b - a)`` of each float or integer leaf
    whose value differs (an int difference for an integer leaf) and
    ``other`` the ``(path, description)`` of every other difference."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return [], [(path, f"keys {list(a)} and {list(b)}")]
        children = [(a[k], b[k], f"{path}.{k}" if path else k) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [], [(path, f"lengths {len(a)} and {len(b)}")]
        children = [(x, y, f"{path}[]") for x, y in zip(a, b)]
    elif type(a) is float and type(b) is float:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return [], []
        return [(path, b - a)], []
    elif type(a) is type(b) and a == b:
        return [], []
    elif type(a) is int and type(b) is int:
        return [(path, b - a)], []
    else:
        return [], [(path, f"{a!r} and {b!r}")]
    numbers, other = [], []
    for x, y, child in children:
        n, o = leaf_differences(x, y, child)
        numbers += n
        other += o
    return numbers, other


def compare(parent: Path, change: Path) -> dict:
    """Compare every file under two run directories.  Returns the number of
    ``files`` and of ``identical`` ones, ``searches``, the :func:`searched`
    of the parent and of the change, ``leaves`` and ``integers``, which map
    each differing float or integer leaf ``"<command>/<file name> <key
    path>"`` to ``[runs, largest rise, largest fall]``, each 0 where the
    leaf never moves that way, and ``other``, one line for each group of
    other differences under the same name: its number of runs and the first
    run's file with what differs there."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (parent, change) for p in root.rglob("*") if p.is_file()})
    identical, leaves, integers, groups = 0, {}, {}, {}
    for name in names:
        parts = name.split("/")
        group = f"{parts[0]}/{parts[-1]}"
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            others = [("", f"only in the {'parent' if a.is_file() else 'change'}")]
            numbers = []
        elif (text_a := a.read_bytes()) == (text_b := b.read_bytes()):
            identical += 1
            continue
        else:
            try:
                numbers, others = leaf_differences(json.loads(text_a), json.loads(text_b))
            except ValueError:
                numbers, others = [], [("", "differs and is not JSON")]
            if not (numbers or others):
                others = [("", "the same values written differently")]
        moved = {}
        for path, diff in numbers:
            zero = type(diff)(0)
            rise, fall = moved.get(path, (zero, zero))
            moved[path] = (max(rise, diff), max(fall, -diff))
        for path, (rise, fall) in moved.items():
            kind = leaves if type(rise) is float else integers
            entry = kind.setdefault(f"{group} {path}", [0, type(rise)(0), type(rise)(0)])
            entry[0] += 1
            entry[1] = max(entry[1], rise)
            entry[2] = max(entry[2], fall)
        firsts = {}
        for path, what in others:
            firsts.setdefault(f"{group} {path}" if path else group, what)
        for key, what in firsts.items():
            groups.setdefault(key, [0, f"{name}: {what}"])[0] += 1
    other = [f"{key}: in {runs(n)}, first {first}" for key, (n, first) in groups.items()]
    return {"files": len(names), "identical": identical,
            "searches": [searched(parent), searched(change)], "leaves": leaves,
            "integers": integers, "other": other}


def runs(n: int) -> str:
    return f"{n} run{'s' * (n != 1)}"


def print_report(report: dict) -> None:
    print(f"{report['identical']} of {report['files']} files byte-identical")
    for side, (searches, mean) in zip(("parent", "change"), report["searches"]):
        print(f"{side}: {searches} searches, {mean:.4g} evaluations a search")
    for key, (n, rise, fall) in sorted(report["leaves"].items()):
        print(f"  float {key}: differs in {runs(n)}, rises by at most {rise:.3g}"
              f" and falls by at most {fall:.3g}")
    for key, (n, rise, fall) in sorted(report["integers"].items()):
        print(f"  DIFFERS integer {key}: differs in {runs(n)}, rises by at most {rise}"
              f" and falls by at most {fall}")
    for line in report["other"]:
        print(f"  DIFFERS {line}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare command outputs, parent against working tree.")
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--coretype", metavar="KERNEL",
                   help="OPENBLAS_CORETYPE of the working tree's side alone")
    args = p.parse_args(argv)
    if not pairs.names_commit(args.parent):
        print(f"bench/outputs.py: {args.parent!r} names no commit", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="wernerlab-outputs-") as tmp:
        tmp = Path(tmp)
        pairs.export(args.parent, tmp)
        failed = []
        sides = (("parent", tmp / "tree" / "src", None), ("change", ROOT / "src", args.coretype))
        for side, src, coretype in sides:
            try:
                failed += [f"failed on the {side}: {cmd}"
                           for cmd in run_commands(src, tmp / side, coretype)]
            except subprocess.CalledProcessError as exc:
                print(f"bench/outputs.py: the {side}'s process did not run:\n{exc.stderr}",
                      file=sys.stderr)
                return 2
        report = compare(tmp / "parent", tmp / "change")
        report["other"] += failed
    print_report(report)
    return int(bool(report["integers"] or report["other"]))


if __name__ == "__main__":
    sys.exit(main())
