"""Command line front end.

Every command writes its primary output plus a ``<output>.manifest.json``
containing the fully resolved argument vector, so any run can be repeated
byte-for-byte.  Exit codes: 0 on success, 2 for input or parameter errors,
3 for numerical failures (singular systems, empty data, non-convergence
under ``--strict``).
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

_INPUT_ERRORS = (
    ValueError,
    KeyError,
    OSError,
    json.JSONDecodeError,
)
_NUMERICAL_ERRORS = (
    SingularSystemError,
    EmptyDataError,
    UnphysicalStateError,
    DegenerateDiagonalError,
)


class _StrictFailure(WernerlabError):
    """Raised when --strict is set and the reconstruction did not converge."""


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


def _write_manifest(command: str, argv: list, inputs: list, outputs: list) -> None:
    doc = {
        "tool": "wernerlab",
        "version": __version__,
        "command": command,
        "argv": [str(a) for a in argv],
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
    }
    _write_json(f"{outputs[0]}.manifest.json", doc)


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
    if step <= 0.0 or stop < start:
        raise ValueError(f"--grid must satisfy stop >= start and step > 0, got {text!r}")
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


def _angles_arg(args) -> analysis.ChshAngles:
    if args.angles is not None:
        return _parse_angles(args.angles)
    return analysis.angles_for_target(args.target)


def _source_config(args) -> polarimetry.SourceConfig:
    return polarimetry.SourceConfig(
        pair_rate=args.rate,
        accidental_rate=args.accidentals,
        duration=args.duration,
        seed=args.seed,
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def _mle_report(result: tomography.MLEResult) -> dict:
    return {
        "method": "mle",
        "min_eigenvalue": min_eigenvalue(result.rho),
        "cost": result.cost,
        "iterations": result.iterations,
        "converged": result.converged,
    }


# ---------------------------------------------------------------- commands


def _cmd_gen_state(args) -> int:
    if args.kind == "bell":
        rho = states.pure_to_density(states.bell_state(args.value))
        value = args.value
    elif args.kind == "werner-singlet":
        value = float(args.value)
        rho = states.werner_singlet(value)
    elif args.kind == "werner-phi-minus":
        value = float(args.value)
        rho = states.werner_phi_minus(value)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown state kind {args.kind!r}")
    _write_json(args.out, states.density_matrix_to_json(rho))
    _write_manifest(
        "gen-state",
        ["wernerlab", "gen-state", args.kind, str(value), "--out", args.out],
        [],
        [args.out],
    )
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
    argv = [
        "wernerlab", "simulate", args.state,
        "--schedule", args.schedule,
        "--rate", _fmt(args.rate),
        "--accidentals", _fmt(args.accidentals),
        "--duration", _fmt(args.duration),
        "--seed", str(args.seed),
    ]
    if args.schedule == "chsh":
        argv += ["--angles", ",".join(_fmt(a) for a in angles.as_tuple())]
    if args.exact:
        argv.append("--exact")
    argv += ["--out", args.out]
    _write_manifest("simulate", argv, [args.state], [args.out])
    return 0


def _cmd_reconstruct(args) -> int:
    records = polarimetry.records_from_json(_read_json(args.counts))
    report_path = args.report or f"{args.out}.report.json"
    if args.method == "linear":
        result = tomography.linear_reconstruct(records)
        rho = result.matrix
        report = {
            "method": "linear",
            "min_eigenvalue": result.min_eigenvalue,
            "cost": None,
            "iterations": 0,
            "converged": True,
        }
        if result.min_eigenvalue < 0.0:
            print(
                f"wernerlab: warning: linear reconstruction has negative "
                f"eigenvalue {result.min_eigenvalue:.6f} (unphysical); "
                f"consider --method mle",
                file=sys.stderr,
            )
    else:
        result = tomography.mle_reconstruct(records)
        if args.strict and not result.converged:
            raise _StrictFailure(
                "maximum-likelihood search did not converge within the "
                "evaluation budget"
            )
        rho = result.rho
        report = _mle_report(result)
    _write_json(args.out, states.density_matrix_to_json(rho))
    _write_json(report_path, report)
    argv = ["wernerlab", "reconstruct", args.counts, "--method", args.method]
    if args.strict:
        argv.append("--strict")
    argv += ["--out", args.out, "--report", report_path]
    _write_manifest("reconstruct", argv, [args.counts], [args.out, report_path])
    return 0


def _metrics_doc(rho, target, angles, counts_path, n_boot, seed):
    fit = analysis.fit_werner(rho, target=target)
    s_value = analysis.chsh_value(rho, angles)
    x_err = None
    sigma = None
    if counts_path is not None and n_boot:
        records = polarimetry.records_from_json(_read_json(counts_path))
        errs = tomography.bootstrap_errors(
            records, n_replicas=n_boot, seed=seed, target=target, angles=angles
        )
        x_err = errs["x"]
        sigma = errs["chsh_s"]
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
    }


def _cmd_metrics(args) -> int:
    rho = _load_state(args.state)
    angles = _angles_arg(args)
    doc = _metrics_doc(rho, args.target, angles, args.counts, args.bootstrap, args.seed)
    _write_json(args.out, doc)
    argv = ["wernerlab", "metrics", args.state, "--target", args.target,
            "--angles", ",".join(_fmt(a) for a in angles.as_tuple())]
    inputs = [args.state]
    if args.counts:
        argv += ["--counts", args.counts, "--bootstrap", str(args.bootstrap),
                 "--seed", str(args.seed)]
        inputs.append(args.counts)
    argv += ["--out", args.out]
    _write_manifest("metrics", argv, inputs, [args.out])
    return 0


def _cmd_chsh(args) -> int:
    if (args.counts is None) == (args.state is None):
        raise ValueError("chsh needs exactly one of --counts or --state")
    if args.counts is not None:
        records = polarimetry.records_from_json(_read_json(args.counts))
        estimate = analysis.chsh_from_counts(records)
        arms = [records[0].setting.arm1, records[4].setting.arm1,
                records[0].setting.arm2, records[8].setting.arm2]
        angles_deg = (
            [float(a) for a in arms]
            if all(isinstance(a, (int, float)) for a in arms)
            else None
        )
        doc = {
            "S": estimate.s,
            "sigma": estimate.sigma,
            "angles_deg": angles_deg,
            "correlations": list(estimate.correlations),
        }
        inputs = [args.counts]
        argv = ["wernerlab", "chsh", "--counts", args.counts, "--out", args.out]
    else:
        rho = _load_state(args.state)
        angles = _angles_arg(args)
        doc = {
            "S": analysis.chsh_value(rho, angles),
            "sigma": None,
            "angles_deg": list(angles.as_tuple()),
        }
        inputs = [args.state]
        argv = ["wernerlab", "chsh", "--state", args.state,
                "--angles", ",".join(_fmt(a) for a in angles.as_tuple()),
                "--out", args.out]
    _write_json(args.out, doc)
    _write_manifest("chsh", argv, inputs, [args.out])
    return 0


def _cmd_fit_werner(args) -> int:
    rho = _load_state(args.state)
    fit = analysis.fit_werner(rho, target=args.target)
    _write_json(args.out, {"x": fit.x, "fidelity": fit.fidelity, "target": fit.target})
    _write_manifest(
        "fit-werner",
        ["wernerlab", "fit-werner", args.state, "--target", args.target,
         "--out", args.out],
        [args.state],
        [args.out],
    )
    return 0


def _cmd_decohere_curve(args) -> int:
    spectrum = decoherence.Spectrum(center_nm=args.lambda0, fwhm_nm=args.fwhm)
    grid = _parse_grid(args.grid)
    curve = decoherence.decoherence_curve(spectrum, grid)
    _write_text(args.out, decoherence.curve_to_csv(curve))
    _write_manifest(
        "decohere-curve",
        ["wernerlab", "decohere-curve", "--lambda0", _fmt(args.lambda0),
         "--fwhm", _fmt(args.fwhm), "--grid", args.grid, "--out", args.out],
        [],
        [args.out],
    )
    return 0


def _cmd_pipeline(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    angles = _angles_arg(args)
    paths = {
        name: os.path.join(args.out_dir, f"{name}.json")
        for name in ("state", "counts", "rho_mle", "metrics")
    }
    report_path = os.path.join(args.out_dir, "rho_mle.report.json")

    rho = states.source_state(args.mix)
    _write_json(paths["state"], states.density_matrix_to_json(rho))

    config = _source_config(args)
    records = polarimetry.simulate_counts(
        rho, polarimetry.tomographic_settings(), config
    )
    _write_json(paths["counts"], polarimetry.records_to_json(records))

    result = tomography.mle_reconstruct(records)
    if args.strict and not result.converged:
        raise _StrictFailure(
            "maximum-likelihood search did not converge within the evaluation budget"
        )
    _write_json(paths["rho_mle"], states.density_matrix_to_json(result.rho))
    _write_json(report_path, _mle_report(result))

    doc = _metrics_doc(
        result.rho, args.target, angles,
        paths["counts"] if args.bootstrap else None,
        args.bootstrap, args.seed,
    )
    _write_json(paths["metrics"], doc)

    argv = [
        "wernerlab", "pipeline",
        "--mix", _fmt(args.mix),
        "--rate", _fmt(args.rate),
        "--accidentals", _fmt(args.accidentals),
        "--duration", _fmt(args.duration),
        "--seed", str(args.seed),
        "--target", args.target,
        "--angles", ",".join(_fmt(a) for a in angles.as_tuple()),
        "--bootstrap", str(args.bootstrap),
    ]
    if args.strict:
        argv.append("--strict")
    argv += ["--out-dir", args.out_dir]
    doc = {
        "tool": "wernerlab",
        "version": __version__,
        "command": "pipeline",
        "argv": [str(a) for a in argv],
        "inputs": [],
        "outputs": list(paths.values()) + [report_path],
    }
    _write_json(os.path.join(args.out_dir, "pipeline.manifest.json"), doc)
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _StrictFailure as exc:
        print(f"wernerlab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except _NUMERICAL_ERRORS as exc:
        print(f"wernerlab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except WernerlabError as exc:
        print(f"wernerlab: error: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"wernerlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
