"""Command-line front end.

Subcommands:
    check      decide observer existence for a model file
    design     synthesize an observer from a model or a trajectory file
    collect    simulate a model and write a trajectory file
    simulate   run a plant/observer pair and report error statistics
    demo-paper replay the bundled reference example end to end

Exit codes: 0 success; 1 demonstration check failure; 2 no observer exists
(with a certificate on stdout); 4 I/O, format, or validation errors,
numerical failures (a trajectory that fails the excitation check among
them), and running out of memory.  All numeric output uses 12 significant
digits.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .datalog import (
    Uniform,
    build_blocks,
    collect,
    excitation_report,
    load_trajectory,
    render_trajectory,
    save_trajectory,
)
from .demo import run_demo
from .existcheck import exists_uio, format_report
from .numkit import DEFAULT_TOL, SCHUR_MARGIN, NumericalFailure, RankTolerance
from .plant import load_model
from .simlab import (
    check_error_recursion,
    convergence_stats,
    exact_observer_init,
    run,
    save_trace,
)
from .synth import (
    NoUio,
    SynthesisOptions,
    design_from_data,
    design_from_model,
    load_uio,
    save_uio,
    uio_to_dict,
)

__all__ = ["main", "main_entry", "build_parser", "CliError"]


class CliError(Exception):
    """Usage or validation problem surfaced to the user (exit code 4)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own codes; route everything through CliError
    # so the documented exit-code contract holds.
    def error(self, message):
        raise CliError(message)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _parse_pair(text: str, flag: str) -> Uniform:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise CliError(f"{flag} expects LO,HI, got {text!r}")
    try:
        return Uniform(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from exc


def _draws(args) -> dict:
    """The input, disturbance and initial-state draws of collect and simulate."""
    return {
        "input_policy": _parse_pair(args.u_range, "--u-range"),
        "disturbance_policy": _parse_pair(args.d_range, "--d-range"),
        "x0": _parse_pair(args.x0_range, "--x0-range"),
    }


def _parse_dims(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (3, 4):
        raise CliError(f"--dims expects n,m,p or n,m,p,r, got {text!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise CliError(f"--dims expects integers, got {text!r}") from exc
    if any(v < 0 for v in dims):
        raise CliError("--dims entries must be nonnegative")
    return dims


def _parse_poles(text: str) -> tuple[complex, ...]:
    poles = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = complex(token)
        except ValueError as exc:
            raise CliError(f"--poles: cannot parse {token!r}") from exc
        poles.append(value)
    if not poles:
        raise CliError("--poles: empty pole list")
    return tuple(poles)


def _fraction(text: str, low_open: bool) -> float:
    """A float in [0, 1), or in (0, 1) when ``low_open``; argparse names the flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects a number, got {text!r}") from None
    if not (0.0 < value < 1.0 if low_open else 0.0 <= value < 1.0):
        raise argparse.ArgumentTypeError(
            f"must lie in {'(' if low_open else '['}0, 1), got {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def _tolerance(args) -> RankTolerance:
    if args.tol_rank is None:
        return DEFAULT_TOL
    return RankTolerance(relative=args.tol_rank)


def _add_numeric_flags(sp, schur_margin: bool = True) -> None:
    """--tol-rank, and --schur-margin where a verdict reads it."""
    sp.add_argument("--tol-rank", type=lambda text: _fraction(text, True),
                    default=None, metavar="X",
                    help="relative rank tolerance in (0, 1) "
                         "(default: machine epsilon)")
    if schur_margin:
        sp.add_argument("--schur-margin",
                        type=lambda text: _fraction(text, False),
                        default=SCHUR_MARGIN, metavar="X",
                        help="stability margin on the unit circle, in [0, 1) "
                             f"(default {SCHUR_MARGIN:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uiokit",
        description="Design, check, and simulate unknown-input state observers.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sp = sub.add_parser("check",
                        help="decide whether an unknown-input observer exists")
    sp.add_argument("--from-model", required=True, metavar="PATH",
                    help="model JSON file")
    _add_numeric_flags(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("design",
                        help="synthesize an observer from a model or data")
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--from-model", metavar="PATH", help="model JSON file")
    src.add_argument("--from-data", metavar="PATH",
                     help="trajectory file with x, u, y columns")
    sp.add_argument("--dims", metavar="n,m,p[,r]",
                    help="declared dimensions, cross-checked against the data")
    sp.add_argument("--gain", choices=("riccati", "place"), default="riccati",
                    help="gain construction (default riccati)")
    sp.add_argument("--poles", metavar="P1,P2,...",
                    help="requested A_uio eigenvalues for --gain place")
    sp.add_argument("--out", metavar="PATH",
                    help="write the observer JSON here (default: stdout)")
    _add_numeric_flags(sp)
    sp.set_defaults(func=_cmd_design)

    sp = sub.add_parser("collect",
                        help="simulate a model and record a trajectory")
    sp.add_argument("--from-model", required=True, metavar="PATH")
    sp.add_argument("--T", type=int, required=True,
                    help="number of samples (at least 2)")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--u-range", default="-4,4", metavar="LO,HI",
                    help="uniform input range (default -4,4)")
    sp.add_argument("--d-range", default="-3,3", metavar="LO,HI",
                    help="uniform disturbance range (default -3,3)")
    sp.add_argument("--x0-range", default="-1,1", metavar="LO,HI",
                    help="uniform initial-state range (default -1,1)")
    sp.add_argument("--out", metavar="PATH",
                    help="trajectory file (default: stdout)")
    _add_numeric_flags(sp, schur_margin=False)
    sp.set_defaults(func=_cmd_collect)

    sp = sub.add_parser("simulate",
                        help="run a plant/observer pair and report errors")
    sp.add_argument("--from-model", required=True, metavar="PATH")
    sp.add_argument("--uio", required=True, metavar="PATH",
                    help="observer JSON file")
    sp.add_argument("--T", type=int, default=50)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--u-range", default="-1,1", metavar="LO,HI")
    sp.add_argument("--d-range", default="-1,1", metavar="LO,HI")
    sp.add_argument("--x0-range", default="-1,1", metavar="LO,HI")
    sp.add_argument("--exact-init", action="store_true",
                    help="start the observer so that e(0) = 0")
    sp.add_argument("--out", metavar="PATH",
                    help="write the extended trace file here")
    _add_numeric_flags(sp, schur_margin=False)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("demo-paper",
                        help="replay the bundled reference example end to end")
    sp.add_argument("--gain", choices=("place", "riccati"), default="place")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--T", type=int, default=12,
                    help="simulation horizon of the demonstration run")
    sp.add_argument("--out", metavar="PATH",
                    help="write the demonstration trace file here")
    sp.set_defaults(func=_cmd_demo)

    return parser


def _cmd_check(args) -> int:
    model = load_model(args.from_model, _tolerance(args))
    options = SynthesisOptions(tol=_tolerance(args),
                               schur_margin=args.schur_margin)
    report = exists_uio(model, options)
    print(format_report(report))
    return 0 if report.exists else 2


def _cmd_design(args) -> int:
    tol = _tolerance(args)
    poles = _parse_poles(args.poles) if args.poles is not None else None
    if args.gain == "place" and poles is None:
        raise CliError("--gain place requires --poles")
    options = SynthesisOptions(gain=args.gain, poles=poles, tol=tol,
                               schur_margin=args.schur_margin)
    if args.from_model is not None:
        model = load_model(args.from_model, tol)
        uio, diag = design_from_model(model, options)
    else:
        data = load_trajectory(args.from_data)
        dims = _parse_dims(args.dims) if args.dims is not None else None
        blocks = build_blocks(data, dims)
        excitation = excitation_report(blocks, tol)
        print(excitation.message)
        uio, diag = design_from_data(blocks, options)
    doc = uio_to_dict(uio, diag)
    eig_text = ", ".join(
        _fmt(ev.real) + (f"{ev.imag:+.12g}j" if ev.imag else "")
        for ev in diag.spectrum.eigenvalues
    )
    if args.out:
        save_uio(args.out, uio, diag)
        print(f"wrote observer to {args.out}")
        print(f"A_uio eigenvalues: {eig_text}")
        print(f"spectral radius: {_fmt(diag.spectrum.spectral_radius)}")
    else:
        print(json.dumps(doc, indent=2))
    return 0


def _cmd_collect(args) -> int:
    model = load_model(args.from_model, _tolerance(args))
    if args.T < 2:
        raise CliError("--T must be at least 2 (one window needs two samples)")
    data = collect(model, args.T, **_draws(args), seed=args.seed)
    excitation = excitation_report(build_blocks(data), _tolerance(args))
    if args.out:
        save_trajectory(args.out, data)
        print(f"wrote {data.T} samples to {args.out}")
        print(excitation.message)
    else:
        sys.stdout.write(render_trajectory(data))
        print(excitation.message, file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    tol = _tolerance(args)
    model = load_model(args.from_model, tol)
    uio = load_uio(args.uio)
    if args.T < 1:
        raise CliError("--T must be at least 1")
    trace = run(model, uio, args.T, **_draws(args), seed=args.seed)
    if args.exact_init:
        z0 = exact_observer_init(model, uio, trace.x[0], trace.u[0], trace.d[0])
        trace = run(
            model, uio, args.T,
            input_policy=trace.u, disturbance_policy=trace.d,
            x0=trace.x[0], z0=z0,
        )
    ok, residual = check_error_recursion(trace, uio)
    stats = convergence_stats(trace)
    print(f"final error norm: {_fmt(stats.final_error_norm)}")
    if stats.decay_rate is None:
        print("decay rate: undefined (error identically zero or horizon too short)")
    else:
        print(f"fitted log-decay rate: {_fmt(stats.decay_rate)}")
    if ok:
        print(f"error recursion check: ok (residual {_fmt(residual)})")
    else:
        print(
            "error recursion check: FAILED "
            f"(residual {_fmt(residual)}) — the supplied observer is not an "
            "acceptor for this model"
        )
    if args.out:
        save_trace(args.out, trace)
        print(f"wrote trace to {args.out}")
    return 0


def _cmd_demo(args) -> int:
    report = run_demo(gain=args.gain, seed=args.seed, T=args.T)
    print(report.render())
    if args.out:
        save_trace(args.out, report.trace)
        print(f"wrote demonstration trace to {args.out}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NoUio as exc:
        print(f"no observer exists — {exc.cause}: {exc.detail}")
        if exc.evidence:
            print(f"certificate: {exc.evidence}")
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (CliError, ValueError, OSError) as exc:
        # Every format and validation error of the library is a ValueError.
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory; shrink --T or the model", file=sys.stderr)
        return 4


def main_entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
