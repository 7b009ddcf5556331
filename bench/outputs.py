"""Compare the files that a fixed set of commands writes, parent against working tree.

Usage, from the root of a checkout:

    python3 bench/outputs.py --parent HEAD

It exports ``--parent`` with ``git archive`` to a temporary directory and
runs the same ``wernerlab`` commands on the parent's ``src/`` and on the
working tree's, each side in its own empty directory with the same relative
paths, so that the manifests compare too.  The commands are 32 ``pipeline
--bootstrap 20`` runs (``--mix`` 0, 0.405, 0.801 and 1.0 at seeds 0-7), then
``metrics`` and ``chsh --state`` at each target's optimal angles, on the
source state and on the maximum-likelihood state of each seed-0 pipeline
run.  One process per side runs them all.

It prints how many files are byte-identical and, for every JSON leaf that
differs, named by command, file name and key path (list indices written
``[]``), the number of runs in which it differs and the largest absolute
difference.  It exits 1 when anything other than a float's value differs:
a file on one side only, a differing file that is not JSON, or a changed
key, length, string, integer, boolean or null.  It exits 0 otherwise, and 2
when the revision names no commit or a command fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pairs  # bench/pairs.py, beside this script

ROOT = pairs.ROOT
MIXES = ("0.0", "0.405", "0.801", "1.0")
SEEDS = range(8)
TARGETS = ("phi-plus", "phi-minus", "psi-plus", "psi-minus")

# Runs each argv of the JSON list argv[1] through wernerlab.cli.main, with
# the package imported from the directory argv[2].
DRIVER = """
import json, sys
import wernerlab
from wernerlab.cli import main
if not wernerlab.__file__.startswith(sys.argv[2]):
    sys.exit(f"wernerlab imported from {wernerlab.__file__}, not {sys.argv[2]}")
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit("failed: wernerlab " + " ".join(argv))
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
    return argvs


def run_commands(src: Path, workdir: Path) -> None:
    """Run :func:`commands` in ``workdir`` on the package in ``src``."""
    argvs = commands()
    for argv in argvs:
        if "--out" in argv:
            (workdir / argv[argv.index("--out") + 1]).parent.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", DRIVER, json.dumps(argvs), str(src)],
                   cwd=workdir, env=env, check=True, capture_output=True, text=True)


def leaf_differences(a, b, path: str = "") -> tuple[list, list]:
    """The differences of two parsed JSON documents: ``(floats, other)``, with
    ``floats`` the ``(path, |a - b|)`` of each float leaf whose value differs
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
        return [(path, abs(a - b))], []
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
    ``files`` and of ``identical`` ones, ``leaves``, which maps each differing
    float leaf ``"<command>/<file name> <key path>"`` to ``[runs, largest
    absolute difference]``, and the ``other`` differences."""
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
        largest = {}
        for path, diff in floats:
            largest[path] = max(largest.get(path, 0.0), diff)
        for path, diff in largest.items():
            entry = leaves.setdefault(f"{parts[0]}/{parts[-1]} {path}", [0, 0.0])
            entry[0] += 1
            entry[1] = max(entry[1], diff)
    return {"files": len(names), "identical": identical, "leaves": leaves, "other": other}


def print_report(report: dict) -> None:
    print(f"{report['identical']} of {report['files']} files byte-identical")
    for key, (runs, diff) in sorted(report["leaves"].items()):
        print(f"  float {key}: differs in {runs} runs, by at most {diff:.3g}")
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
        for side, src in (("parent", tmp / "tree" / "src"), ("change", ROOT / "src")):
            try:
                run_commands(src, tmp / side)
            except subprocess.CalledProcessError as exc:
                print(f"bench/outputs.py: the {side}'s commands failed:\n{exc.stderr}",
                      file=sys.stderr)
                return 2
        report = compare(tmp / "parent", tmp / "change")
    print_report(report)
    return int(bool(report["other"]))


if __name__ == "__main__":
    sys.exit(main())
