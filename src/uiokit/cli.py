"""Command-line front end.

Subcommands:
    check      decide observer existence for a model file
    design     synthesize an observer from a model or a trajectory file
    collect    simulate a model and write a trajectory file
    simulate   run a plant/observer pair and report error statistics
    demo-paper replay the bundled reference example end to end

Every flag that takes a value, other than a file path or a choice, has an
argparse ``type`` that returns the finished library value (a `Uniform`, a
`RankTolerance`, a tuple of dims or poles, a bounded integer) and makes the
library's own check, so a bad value is refused while the command line is
parsed, as ``error: argument --FLAG: <message>``.  A design request that
`SynthesisOptions` refuses exits 4 with the library's message.

Each subcommand imports the modules it runs, when it runs, and `main` maps
`NoUio` and `NumericalFailure` from `numkit`, so a call loads no module it
does not use: `collect`, say, loads numkit, plant and datalog only.

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
from .numkit import (DEFAULT_TOL, SCHUR_MARGIN, NoUio, NumericalFailure,
                     RankTolerance)

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


def _flag(parse):
    """The argparse ``type`` of a flag: ``parse`` turns the text into the
    library value, and its ValueError becomes argparse's
    ``argument --FLAG: <message>``.
    """
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _at_least(low: int):
    """A parser of integers no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value
    return parse


def _range(text: str):
    from .datalog import Uniform

    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expects LO,HI, got {text!r}")
    return Uniform(float(parts[0]), float(parts[1]))


def _dims(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) not in (3, 4):
        raise ValueError(f"expects n,m,p or n,m,p,r, got {text!r}")
    dims = tuple(int(p) for p in parts)
    if any(v < 0 for v in dims):
        raise ValueError(f"entries must be nonnegative, got {text!r}")
    return dims


def _poles(text: str) -> tuple[complex, ...]:
    poles = tuple(complex(token) for token in text.split(",") if token.strip())
    if not poles:
        raise ValueError("empty pole list")
    return poles


def _schur_margin(text: str) -> float:
    from .synth import SynthesisOptions

    return SynthesisOptions(schur_margin=float(text)).schur_margin


def _add_numeric_flags(sp, schur_margin: bool = True) -> None:
    """--tol-rank, and --schur-margin where a verdict reads it."""
    sp.add_argument("--tol-rank", dest="tol",
                    type=_flag(lambda text: RankTolerance(float(text))),
                    default=DEFAULT_TOL, metavar="X",
                    help="relative rank tolerance in (0, 1) "
                         "(default: machine epsilon)")
    if schur_margin:
        sp.add_argument(
            "--schur-margin", default=SCHUR_MARGIN, metavar="X",
            type=_flag(_schur_margin),
            help="stability margin on the unit circle, in [0, 1) "
                 f"(default {SCHUR_MARGIN:g})")


def _draws(args) -> dict:
    """The draws of collect and simulate, keyed as the library takes them."""
    return {key: getattr(args, key)
            for key in ("input_policy", "disturbance_policy", "x0", "seed")}


def _add_draw_flags(sp, u_range: str, d_range: str) -> None:
    """--seed and the input, disturbance and initial-state ranges of
    collect and simulate, stored under the keywords the library takes."""
    sp.add_argument("--seed", type=_flag(_at_least(0)), default=0)
    for flag, dest, default, what in (
            ("--u-range", "input_policy", u_range, "input"),
            ("--d-range", "disturbance_policy", d_range, "disturbance"),
            ("--x0-range", "x0", "-1,1", "initial-state")):
        sp.add_argument(flag, dest=dest, type=_flag(_range), default=default,
                        metavar="LO,HI",
                        help=f"uniform {what} range (default {default})")


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
    sp.add_argument("--dims", type=_flag(_dims), metavar="n,m,p[,r]",
                    help="declared dimensions, cross-checked against the data")
    sp.add_argument("--gain", choices=("riccati", "place"), default="riccati",
                    help="gain construction (default riccati)")
    sp.add_argument("--poles", type=_flag(_poles), metavar="P1,P2,...",
                    help="requested A_uio eigenvalues for --gain place")
    sp.add_argument("--out", metavar="PATH",
                    help="write the observer JSON here (default: stdout)")
    _add_numeric_flags(sp)
    sp.set_defaults(func=_cmd_design)

    sp = sub.add_parser("collect",
                        help="simulate a model and record a trajectory")
    sp.add_argument("--from-model", required=True, metavar="PATH")
    sp.add_argument("--T", type=_flag(_at_least(2)), required=True,
                    help="number of samples (at least 2)")
    _add_draw_flags(sp, "-4,4", "-3,3")
    sp.add_argument("--out", metavar="PATH",
                    help="trajectory file (default: stdout)")
    _add_numeric_flags(sp, schur_margin=False)
    sp.set_defaults(func=_cmd_collect)

    sp = sub.add_parser("simulate",
                        help="run a plant/observer pair and report errors")
    sp.add_argument("--from-model", required=True, metavar="PATH")
    sp.add_argument("--uio", required=True, metavar="PATH",
                    help="observer JSON file")
    sp.add_argument("--T", type=_flag(_at_least(1)), default=50)
    _add_draw_flags(sp, "-1,1", "-1,1")
    sp.add_argument("--exact-init", action="store_true",
                    help="start the observer so that e(0) = 0")
    sp.add_argument("--out", metavar="PATH",
                    help="write the extended trace file here")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("demo-paper",
                        help="replay the bundled reference example end to end")
    sp.add_argument("--gain", choices=("place", "riccati"), default="place")
    sp.add_argument("--seed", type=_flag(_at_least(0)), default=0)
    sp.add_argument("--T", type=_flag(_at_least(1)), default=12,
                    help="simulation horizon of the demonstration run")
    sp.add_argument("--out", metavar="PATH",
                    help="write the demonstration trace file here")
    sp.set_defaults(func=_cmd_demo)

    return parser


def _cmd_check(args) -> int:
    from .existcheck import exists_uio, format_report
    from .plant import load_model
    from .synth import SynthesisOptions

    model = load_model(args.from_model)
    options = SynthesisOptions(tol=args.tol, schur_margin=args.schur_margin)
    report = exists_uio(model, options)
    print(format_report(report))
    return 0 if report.exists else 2


def _print_no_uio(exc: NoUio) -> None:
    print(f"no observer exists — {exc.cause}: {exc.detail}")
    if exc.evidence:
        print(f"certificate: {exc.evidence}")


def _cmd_design(args) -> int:
    from .plant import load_model, save_uio, uio_to_dict
    from .synth import (VF_RANK_DEFICIENT, SynthesisOptions, design_from_data,
                        design_from_model)

    options = SynthesisOptions(gain=args.gain, poles=args.poles, tol=args.tol,
                               schur_margin=args.schur_margin)
    if args.from_model is not None:
        model = load_model(args.from_model)
        uio, diag = design_from_model(model, options)
    else:
        from .datalog import build_blocks, excitation_report, load_trajectory

        blocks = build_blocks(load_trajectory(args.from_data), args.dims)
        excitation = excitation_report(blocks, args.tol)
        print(excitation.message)
        try:
            uio, diag = design_from_data(blocks, options)
        except NoUio as exc:
            if blocks.r is not None or exc.cause != VF_RANK_DEFICIENT:
                raise
            # An exact trajectory has rank(Phi) <= n + 2m + 2r.  With r known
            # a larger rank is refused as inexact data (exit 4); without it
            # nothing bounds the rank, so say what r this rank would need.
            n, m, p = blocks.n, blocks.m, blocks.p
            rank_phi = 2 * (n + m + p) - exc.evidence["k"]
            _print_no_uio(exc)
            print(f"rank(Phi) = {rank_phi}: an exact trajectory of this rank "
                  f"needs r >= {max(0, -((n + 2 * m - rank_phi) // 2))} "
                  "disturbances.  r is not known (no d columns), so this "
                  "answer may come from a recording that is not exact "
                  "(printed to fewer digits, say); give r as the 4th --dims "
                  "entry to check.")
            return 2
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
    from .datalog import (build_blocks, collect, excitation_report,
                          render_trajectory, save_trajectory)
    from .plant import load_model

    model = load_model(args.from_model)
    data = collect(model, args.T, **_draws(args))
    excitation = excitation_report(build_blocks(data), args.tol)
    if args.out:
        save_trajectory(args.out, data)
        print(f"wrote {data.T} samples to {args.out}")
        print(excitation.message)
    else:
        sys.stdout.write(render_trajectory(data))
        print(excitation.message, file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    from .plant import load_model, load_uio
    from .simlab import (check_error_recursion, convergence_stats,
                         exact_observer_init, run, save_trace)

    model = load_model(args.from_model)
    uio = load_uio(args.uio)
    trace = run(model, uio, args.T, **_draws(args))
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
    from .demo import run_demo
    from .simlab import save_trace

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
        _print_no_uio(exc)
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
