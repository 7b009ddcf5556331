"""Command line front end.

Every command writes its primary output plus a ``<output>.manifest.json``
containing the fully resolved argument vector; running ``argv[1:]`` again
rewrites the same outputs byte for byte.  Exit codes: 0 on success, 2 for
input or parameter errors, 3 for numerical failures (singular systems, empty
data, non-convergence under ``--strict``).
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


def _write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_manifest(args, inputs: list, outputs: list, path: str | None = None) -> None:
    """Write the manifest of a run, with the argv that reruns it derived from
    ``args`` and its subcommand's parser (default path: next to ``outputs[0]``)."""
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
    doc = {
        "tool": "wernerlab",
        "version": __version__,
        "command": args.command,
        "argv": argv,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
    }
    _write_json(path or f"{outputs[0]}.manifest.json", doc)


def _load_state(path: str) -> np.ndarray:
    rho = states.density_matrix_from_json(_read_json(path))
    return states.check_density_matrix(rho)


def _parse_angles(text: str) -> analysis.ChshAngles:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--angles needs four comma-separated degrees, got {text!r}")
    return analysis.ChshAngles(*[float(p) for p in parts])


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not np.all(np.isfinite([start, stop, step])):
        raise ValueError(f"--grid needs finite start, stop and step, got {text!r}")
    if step <= 0.0 or stop < start:
        raise ValueError(f"--grid must satisfy stop >= start and step > 0, got {text!r}")
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


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


def _cmd_gen_state(args) -> int:
    if args.kind == "bell":
        rho = states.pure_to_density(states.bell_state(args.value))
    elif args.kind == "werner-singlet":
        rho = states.werner_singlet(float(args.value))
    elif args.kind == "werner-phi-minus":
        rho = states.werner_phi_minus(float(args.value))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown state kind {args.kind!r}")
    _write_json(args.out, states.density_matrix_to_json(rho))
    _write_manifest(args, [], [args.out])
    return 0


def _cmd_simulate(args) -> int:
    rho = _load_state(args.state)
    angles = _angles_arg(args)
    if args.schedule == "tomo":
        settings = polarimetry.tomographic_settings()
    else:
        settings = analysis.chsh_schedule(angles)
    config = _source_config(args)
    records = polarimetry.simulate_counts(rho, settings, config, exact=args.exact)
    _write_json(args.out, polarimetry.records_to_json(records))
    _write_manifest(args, [args.state], [args.out])
    return 0


def _cmd_reconstruct(args) -> int:
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
    _write_json(args.out, states.density_matrix_to_json(rho))
    _write_json(args.report, report)
    _write_manifest(args, [args.counts], [args.out, args.report])
    return 0


def _metrics_doc(rho, target, angles, records, n_boot, seed):
    """Metrics of ``rho``; bootstrap errors need the counts ``records``."""
    fit = analysis.fit_werner(rho, target=target)
    s_value = analysis.chsh_value(rho, angles)
    x_err = None
    sigma = None
    nonconverged = None
    if records is not None and n_boot:
        errs = tomography.bootstrap_errors(
            records, n_replicas=n_boot, seed=seed, target=target, angles=angles
        )
        x_err = errs["x"]
        sigma = errs["chsh_s"]
        nonconverged = errs["nonconverged"]
    return {
        "x": fit.x,
        "x_err": x_err,
        "fidelity": fit.fidelity,
        "linear_entropy": analysis.linear_entropy(rho),
        "tangle": analysis.tangle(rho),
        "chsh": {
            "S": s_value,
            "sigma": sigma,
            "angles_deg": list(angles.as_tuple()),
        },
        "bootstrap_nonconverged": nonconverged,
    }


def _cmd_metrics(args) -> int:
    if args.bootstrap and not args.counts:
        raise ValueError("--bootstrap resamples counts and needs --counts")
    rho = _load_state(args.state)
    angles = _angles_arg(args)
    inputs = [args.state]
    records = None
    if args.counts:
        records = polarimetry.records_from_json(_read_json(args.counts))
        inputs.append(args.counts)
    doc = _metrics_doc(rho, args.target, angles, records, args.bootstrap, args.seed)
    _write_json(args.out, doc)
    _write_manifest(args, inputs, [args.out])
    return 0


def _cmd_chsh(args) -> int:
    if (args.counts is None) == (args.state is None):
        raise ValueError("chsh needs exactly one of --counts or --state")
    if args.counts is not None:
        records = polarimetry.records_from_json(_read_json(args.counts))
        estimate = analysis.chsh_from_counts(records)
        arms = [records[0].setting.arm1, records[4].setting.arm1,
                records[0].setting.arm2, records[8].setting.arm2]
        if not all(isinstance(a, float) for a in arms):
            raise ValueError("CHSH counts need polarizer angles on both arms")
        if [r.setting for r in records] != analysis.chsh_schedule(analysis.ChshAngles(*arms)):
            raise ValueError("counts do not follow the CHSH schedule of their angles")
        doc = {
            "S": estimate.s,
            "sigma": estimate.sigma,
            "angles_deg": arms,
            "correlations": list(estimate.correlations),
        }
        inputs = [args.counts]
    else:
        rho = _load_state(args.state)
        angles = _angles_arg(args)
        doc = {
            "S": analysis.chsh_value(rho, angles),
            "sigma": None,
            "angles_deg": list(angles.as_tuple()),
        }
        inputs = [args.state]
    _write_json(args.out, doc)
    _write_manifest(args, inputs, [args.out])
    return 0


def _cmd_fit_werner(args) -> int:
    rho = _load_state(args.state)
    fit = analysis.fit_werner(rho, target=args.target)
    _write_json(args.out, {"x": fit.x, "fidelity": fit.fidelity, "target": fit.target})
    _write_manifest(args, [args.state], [args.out])
    return 0


def _cmd_decohere_curve(args) -> int:
    spectrum = decoherence.Spectrum(center_nm=args.lambda0, fwhm_nm=args.fwhm)
    grid = _parse_grid(args.grid)
    curve = decoherence.decoherence_curve(spectrum, grid)
    _write_text(args.out, decoherence.curve_to_csv(curve))
    _write_manifest(args, [], [args.out])
    return 0


def _cmd_pipeline(args) -> int:
    # every stage runs before the first file is written, so a failed run
    # leaves nothing behind
    angles = _angles_arg(args)
    rho = states.source_state(args.mix)
    records = polarimetry.simulate_counts(
        rho, polarimetry.tomographic_settings(), _source_config(args)
    )
    rho_mle, report = _mle(records, args.strict)
    metrics = _metrics_doc(rho_mle, args.target, angles, records, args.bootstrap, args.seed)

    paths = {
        name: os.path.join(args.out_dir, f"{name}.json")
        for name in ("state", "counts", "rho_mle", "metrics")
    }
    report_path = os.path.join(args.out_dir, "rho_mle.report.json")
    os.makedirs(args.out_dir, exist_ok=True)
    _write_json(paths["state"], states.density_matrix_to_json(rho))
    _write_json(paths["counts"], polarimetry.records_to_json(records))
    _write_json(paths["rho_mle"], states.density_matrix_to_json(rho_mle))
    _write_json(report_path, report)
    _write_json(paths["metrics"], metrics)
    _write_manifest(
        args, [], [*paths.values(), report_path],
        os.path.join(args.out_dir, "pipeline.manifest.json"),
    )
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wernerlab",
        description="Simulate and analyze two-photon Werner state experiments.",
    )
    parser.add_argument("--version", action="version", version=f"wernerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_counting(p):
        p.add_argument("--rate", type=float, default=300.0,
                       help="true pair rate in 1/s (default 300)")
        p.add_argument("--accidentals", type=float, default=1.0,
                       help="accidental coincidence rate in 1/s (default 1)")
        p.add_argument("--duration", type=float, default=100.0,
                       help="integration time per setting in s (default 100)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

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
    p.add_argument("--target", choices=list(states.BELL_KINDS), default="phi-minus")
    p.add_argument("--angles", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("fit-werner", help="closest Werner-form mixture of a state")
    p.add_argument("state")
    p.add_argument("--target", choices=list(states.BELL_KINDS), default="phi-minus")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_werner)

    p = sub.add_parser("decohere-curve", help="|gamma| versus optical path difference")
    p.add_argument("--lambda0", type=float, default=702.2,
                   help="center wavelength in nm (default 702.2)")
    p.add_argument("--fwhm", type=float, default=4.62,
                   help="spectral width in nm (default 4.62)")
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
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"wernerlab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"wernerlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
