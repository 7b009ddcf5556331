"""Command line front end.

Every command computes its outputs and returns them; :func:`main` writes
them, all or none, with a ``<output>.manifest.json`` next to the first one
containing the fully resolved argument vector; running ``argv[1:]`` again
rewrites the same outputs byte for byte.  Exit codes: 0 on success, 2 for
input or parameter errors, 3 for numerical failures (singular systems, empty
data, non-convergence under ``--strict``, a search start whose projection
onto the states is lost to round-off).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, analysis, decoherence, polarimetry, states, tomography
from .errors import (
    DegenerateDiagonalError,
    EmptyDataError,
    SingularSystemError,
    UnphysicalStateError,
    WernerlabError,
)
from .qlinalg import min_eigenvalue


class _StrictFailure(WernerlabError):
    """Raised when --strict is set and the reconstruction did not converge."""


_NUMERICAL_ERRORS = (
    _StrictFailure,
    SingularSystemError,
    EmptyDataError,
    UnphysicalStateError,
    DegenerateDiagonalError,
)
_INPUT_ERRORS = (WernerlabError, ValueError, KeyError, OSError)
_MAX_GRID_POINTS = 10**6  # largest decohere-curve grid, about 20 MB of CSV


def _write_files(files: list, inputs: list) -> None:
    """Write a run's ``(path, JSON document or text)`` pairs all or none, each to
    ``<path>.tmp`` renamed into place once all are; a path named twice, a
    directory or one of the run's ``inputs`` raises first."""
    names = [os.path.realpath(path + end) for path, _ in files for end in ("", ".tmp")]
    read = {os.path.realpath(path) for path in inputs}
    for name in names:
        if os.path.isdir(name):
            raise IsADirectoryError(f"{name} is a directory")
        if names.count(name) > 1:
            raise ValueError(f"two of this run's files name {name}")
        if name in read:
            raise ValueError(f"{name} is an input of this run and is not overwritten")
    staged = []
    try:
        for path, body in files:
            with open(f"{path}.tmp", "w") as fh:
                staged.append(fh.name)
                fh.write(body if isinstance(body, str) else json.dumps(body, indent=2) + "\n")
    except BaseException:
        for tmp in staged:
            os.remove(tmp)
        raise
    for path, _ in files:
        os.replace(f"{path}.tmp", path)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _manifest(args, inputs: list, outputs: list) -> dict:
    """The manifest of a run, with the argv that reruns it derived from
    ``args`` and its subcommand's parser."""
    argv = ["wernerlab", args.command]
    for action in args.parser._actions:
        value = getattr(args, action.dest, None)
        if value is None or value is False:
            continue
        if not action.option_strings:
            argv.append(str(value))
        elif value is True:
            argv.append(action.option_strings[0])
        else:
            flag = action.option_strings[0]
            text = _fmt(value) if isinstance(value, float) else str(value)
            # argparse reads a separate value that starts with '-' as an option
            argv += [f"{flag}={text}"] if text.startswith("-") else [flag, text]
    return {
        "tool": "wernerlab",
        "version": __version__,
        "command": args.command,
        "argv": argv,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
    }


def _load_state(path: str) -> np.ndarray:
    rho = states.density_matrix_from_json(_read_json(path))
    return states.check_density_matrix(rho)


def _parse_angles(text: str) -> analysis.ChshAngles:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--angles needs four comma-separated degrees, got {text!r}")
    degrees = [float(p) for p in parts]
    if not np.all(np.isfinite(degrees)):
        raise ValueError(f"--angles needs finite degrees, got {text!r}")
    return analysis.ChshAngles(*degrees)


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not np.all(np.isfinite([start, stop, step])):
        raise ValueError(f"--grid needs finite start, stop and step, got {text!r}")
    if step <= 0.0 or stop < start:
        raise ValueError(f"--grid must satisfy stop >= start and step > 0, got {text!r}")
    n = np.floor((stop - start) / step + 1e-9) + 1
    if not n <= _MAX_GRID_POINTS:  # also refuses an infinite count
        raise ValueError(f"--grid has {n:,.0f} points, more than {_MAX_GRID_POINTS:,}")
    return start + step * np.arange(int(n))


def _angles_arg(args) -> analysis.ChshAngles:
    """Resolve ``--angles`` (default: the optimum for ``--target``) and store
    the resolved degrees on ``args`` for the manifest."""
    if args.angles is not None:
        angles = _parse_angles(args.angles)
    else:
        angles = analysis.angles_for_target(args.target)
    args.angles = ",".join(_fmt(a) for a in angles.as_tuple())
    return angles


def _source_config(args) -> polarimetry.SourceConfig:
    return polarimetry.SourceConfig(
        pair_rate=args.rate,
        accidental_rate=args.accidentals,
        duration=args.duration,
        seed=args.seed,
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def _mle(records, strict: bool) -> tuple[np.ndarray, dict]:
    """Maximum-likelihood state and its report; exit 3 under ``strict`` if
    the search did not converge."""
    result = tomography.mle_reconstruct(records)
    if strict and not result.converged:
        raise _StrictFailure(
            "maximum-likelihood search did not converge within the evaluation budget"
        )
    return result.rho, {
        "method": "mle",
        "min_eigenvalue": min_eigenvalue(result.rho),
        "cost": result.cost,
        "iterations": result.iterations,
        "converged": result.converged,
        "path": result.path,
        "n_evaluations": result.n_evaluations,
    }


# ---------------------------------------------------------------- commands
# Each returns ``(inputs, outputs)``: the files it read, and the ``(path,
# JSON document or CSV text)`` pairs to write, in the manifest's order.


def _cmd_gen_state(args) -> tuple[list, list]:
    if args.kind == "bell":
        rho = states.pure_to_density(states.bell_state(args.value))
    elif args.kind == "werner-singlet":
        rho = states.werner_singlet(float(args.value))
    elif args.kind == "werner-phi-minus":
        rho = states.werner_phi_minus(float(args.value))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown state kind {args.kind!r}")
    return [], [(args.out, states.density_matrix_to_json(rho))]


def _cmd_simulate(args) -> tuple[list, list]:
    rho = _load_state(args.state)
    angles = _angles_arg(args)
    if args.schedule == "tomo":
        settings = polarimetry.tomographic_settings()
    else:
        settings = analysis.chsh_schedule(angles)
    config = _source_config(args)
    records = polarimetry.simulate_counts(rho, settings, config, exact=args.exact)
    return [args.state], [(args.out, polarimetry.records_to_json(records))]


def _cmd_reconstruct(args) -> tuple[list, list]:
    records = polarimetry.records_from_json(_read_json(args.counts))
    args.report = args.report or f"{args.out}.report.json"
    if args.method == "linear":
        result = tomography.linear_reconstruct(records)
        rho = result.matrix
        report = {
            "method": "linear",
            "min_eigenvalue": result.min_eigenvalue,
            "cost": None,
            "iterations": 0,
            "converged": True,
            "path": "linear",
            "n_evaluations": 0,
        }
        if result.min_eigenvalue < 0.0:
            print(
                f"wernerlab: warning: linear reconstruction has negative "
                f"eigenvalue {result.min_eigenvalue:.6f} (unphysical); "
                f"consider --method mle",
                file=sys.stderr,
            )
    else:
        rho, report = _mle(records, args.strict)
    return [args.counts], [(args.out, states.density_matrix_to_json(rho)), (args.report, report)]


def _metrics_doc(rho, target, angles, records, n_boot, seed):
    """Metrics of ``rho``; bootstrap errors need the counts ``records``, and
    then the bootstrap's one stacked pass scores ``rho`` with its replicas."""
    if records is not None and n_boot:
        values, errs = tomography.bootstrap_errors(
            records, rho, n_replicas=n_boot, seed=seed, target=target, angles=angles
        )
    else:
        values = analysis.state_metrics(rho, target, angles)
        errs = dict.fromkeys(("x", "chsh_s", "nonconverged"))
    return {
        "x": values["x"],
        "x_err": errs["x"],
        "fidelity": values["fidelity"],
        "linear_entropy": values["linear_entropy"],
        "tangle": values["tangle"],
        "chsh": {
            "S": values["chsh_s"],
            "sigma": errs["chsh_s"],
            "angles_deg": list(angles.as_tuple()),
        },
        "bootstrap_nonconverged": errs["nonconverged"],
    }


def _cmd_metrics(args) -> tuple[list, list]:
    if args.bootstrap and not args.counts:
        raise ValueError("--bootstrap resamples counts and needs --counts")
    if args.counts and not args.bootstrap:
        raise ValueError("--counts is read only by --bootstrap, which resamples them")
    rho = _load_state(args.state)
    angles = _angles_arg(args)
    inputs = [args.state]
    records = None
    if args.counts:
        records = polarimetry.records_from_json(_read_json(args.counts))
        inputs.append(args.counts)
    doc = _metrics_doc(rho, args.target, angles, records, args.bootstrap, args.seed)
    return inputs, [(args.out, doc)]


def _cmd_chsh(args) -> tuple[list, list]:
    if (args.counts is None) == (args.state is None):
        raise ValueError("chsh needs exactly one of --counts or --state")
    if args.counts is not None:
        if args.angles is not None:
            raise ValueError("chsh --counts reads the angles of its counts and takes no --angles")
        if args.target is not None:
            raise ValueError("chsh --counts reads the angles of its counts and takes no --target")
        records = polarimetry.records_from_json(_read_json(args.counts))
        estimate = analysis.chsh_from_counts(records)
        doc = {
            "S": estimate.s,
            "sigma": estimate.sigma,
            "angles_deg": list(estimate.angles.as_tuple()),
            "correlations": list(estimate.correlations),
        }
        return [args.counts], [(args.out, doc)]
    rho = _load_state(args.state)
    if args.target is None:
        args.target = "phi-minus"  # resolved here, so the manifest records it
    angles = _angles_arg(args)
    doc = {
        "S": analysis.chsh_value(rho, angles),
        "sigma": None,
        "angles_deg": list(angles.as_tuple()),
    }
    return [args.state], [(args.out, doc)]


def _cmd_fit_werner(args) -> tuple[list, list]:
    rho = _load_state(args.state)
    fit = analysis.fit_werner(rho, target=args.target)
    return [args.state], [(args.out, {"x": fit.x, "fidelity": fit.fidelity, "target": fit.target})]


def _cmd_decohere_curve(args) -> tuple[list, list]:
    spectrum = decoherence.Spectrum(center_nm=args.lambda0, fwhm_nm=args.fwhm)
    grid = _parse_grid(args.grid)
    curve = decoherence.decoherence_curve(spectrum, grid)
    return [], [(args.out, decoherence.curve_to_csv(curve))]


def _cmd_pipeline(args) -> tuple[list, list]:
    # every stage runs before the directory is made: a failed run leaves nothing
    angles = _angles_arg(args)
    rho = states.source_state(args.mix)
    records = polarimetry.simulate_counts(
        rho, polarimetry.tomographic_settings(), _source_config(args)
    )
    rho_mle, report = _mle(records, args.strict)
    metrics = _metrics_doc(rho_mle, args.target, angles, records, args.bootstrap, args.seed)

    os.makedirs(args.out_dir, exist_ok=True)
    return [], [(os.path.join(args.out_dir, name), doc) for name, doc in [
        ("state.json", states.density_matrix_to_json(rho)),
        ("counts.json", polarimetry.records_to_json(records)),
        ("rho_mle.json", states.density_matrix_to_json(rho_mle)),
        ("metrics.json", metrics),
        ("rho_mle.report.json", report),
    ]]


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wernerlab",
        description="Simulate and analyze two-photon Werner state experiments.",
    )
    parser.add_argument("--version", action="version", version=f"wernerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_counting(p):
        source = polarimetry.SourceConfig()
        p.add_argument("--rate", type=float, default=source.pair_rate,
                       help="true pair rate in 1/s (default %(default)s)")
        p.add_argument("--accidentals", type=float, default=source.accidental_rate,
                       help="accidental coincidence rate in 1/s (default %(default)s)")
        p.add_argument("--duration", type=float, default=source.duration,
                       help="integration time per setting in s (default %(default)s)")
        p.add_argument("--seed", type=int, default=source.seed,
                       help="RNG seed (default %(default)s)")

    p = sub.add_parser("gen-state", help="write a named two-photon state as JSON")
    p.add_argument("kind", choices=["bell", "werner-singlet", "werner-phi-minus"])
    p.add_argument("value", help="Bell kind (e.g. phi-minus) or mixing parameter")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_state)

    p = sub.add_parser("simulate", help="simulate coincidence counts for a state")
    p.add_argument("state", help="density-matrix JSON file")
    p.add_argument("--schedule", choices=["tomo", "chsh"], default="tomo")
    add_counting(p)
    p.add_argument("--target", choices=list(states.BELL_KINDS), default="phi-minus",
                   help="Bell state whose optimal CHSH angles to use")
    p.add_argument("--angles", default=None,
                   help="four comma-separated CHSH angles in degrees")
    p.add_argument("--exact", action="store_true",
                   help="write expected counts instead of Poisson draws")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct a state from counts")
    p.add_argument("counts", help="counts JSON file")
    p.add_argument("--method", choices=["linear", "mle"], default="mle")
    p.add_argument("--report", default=None,
                   help="report path (default: <out>.report.json)")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if the likelihood search does not converge")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("metrics", help="derived metrics of a two-photon state")
    p.add_argument("state", help="density-matrix JSON file")
    p.add_argument("--target", choices=list(states.BELL_KINDS), default="phi-minus")
    p.add_argument("--angles", default=None)
    p.add_argument("--counts", default=None,
                   help="counts JSON enabling bootstrap error bars")
    p.add_argument("--bootstrap", type=int, default=0, metavar="N",
                   help="number of bootstrap replicas (with --counts)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("chsh", help="CHSH statistic from counts or a state")
    p.add_argument("--counts", default=None)
    p.add_argument("--state", default=None)
    p.add_argument("--target", choices=list(states.BELL_KINDS), default=None,
                   help="with --state: Bell state whose optimal CHSH angles to use "
                        "(default phi-minus)")
    p.add_argument("--angles", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("fit-werner", help="closest Werner-form mixture of a state")
    p.add_argument("state")
    p.add_argument("--target", choices=list(states.BELL_KINDS), default="phi-minus")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_werner)

    p = sub.add_parser("decohere-curve", help="|gamma| versus optical path difference")
    p.add_argument("--lambda0", type=float, default=decoherence.DEFAULT_SPECTRUM.center_nm,
                   help="center wavelength in nm (default %(default)s)")
    p.add_argument("--fwhm", type=float, default=decoherence.DEFAULT_SPECTRUM.fwhm_nm,
                   help="spectral width in nm (default %(default)s)")
    p.add_argument("--grid", default="0:300:1",
                   help="path-difference grid start:stop:step in units of lambda0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decohere_curve)

    p = sub.add_parser("pipeline", help="source -> counts -> mle -> metrics in one run")
    p.add_argument("--mix", type=float, required=True,
                   help="source mixing weight of the entangled component")
    add_counting(p)
    p.add_argument("--target", choices=list(states.BELL_KINDS), default="phi-minus")
    p.add_argument("--angles", default=None)
    p.add_argument("--bootstrap", type=int, default=0, metavar="N")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_pipeline)

    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        inputs, outputs = args.func(args)
        paths = [path for path, _ in outputs]
        manifest = (os.path.join(args.out_dir, "pipeline.manifest.json")
                    if args.command == "pipeline" else f"{paths[0]}.manifest.json")
        _write_files([*outputs, (manifest, _manifest(args, inputs, paths))], inputs)
        return 0
    except _NUMERICAL_ERRORS as exc:
        print(f"wernerlab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"wernerlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
