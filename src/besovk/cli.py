"""Command-line front end.

Subcommands: norm, kcurve, interpnorm, verify, generate.  Outputs are
byte-stable for fixed inputs and seeds: JSON is emitted with indent=2
and round-trip float formatting, CSV uses repr() floats and '.' decimal
regardless of locale.  Exit codes: 0 success, 1 verification failure,
2 usage or data errors (a negative seed among them), 3 numeric
(including any ArithmeticError and a result past double range), budget
or out-of-memory errors.  `entrypoint` freezes the import heap, which lives
until exit, so no collection walks it; a closed stdout ends it by SIGPIPE.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import sys

from .coeffs import GENERATOR_KINDS, CoeffField, field_payload, generate, read_field
from .errors import BudgetError, DataError, NumericError, UsageError
from .grid import BesovIndex, GridSpec
from .interp import QuadratureSpec, interp_norm_report
from .kfunc import InterpQuery, default_t_grid, k_plan
from .norms import besov_lorentz_norm, besov_norm
from .verify import SUITES, run_suite

__all__ = ["main", "entrypoint", "build_parser"]


def _add_field_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", metavar="FILE", help="coefficient field JSON file")
    p.add_argument("--generate", metavar="KIND", choices=GENERATOR_KINDS,
                   help="generator kind: " + ", ".join(GENERATOR_KINDS))
    p.add_argument("--spec", metavar="J,n,m0,m1,...",
                   help="grid for --generate: layer count, dimension, layer sizes")
    p.add_argument("--seed", type=int, default=None, help="generator seed (default 0)")


def _add_index_args(p: argparse.ArgumentParser, couple: bool = True) -> None:
    p.add_argument("--s0", type=float, default=0.0)
    p.add_argument("--p0", type=float, default=2.0)
    p.add_argument("--q0", type=float, default=2.0)
    if couple:
        p.add_argument("--s1", type=float, default=None, help="defaults to --s0")
        p.add_argument("--p1", type=float, default=None, help="defaults to --p0")
        p.add_argument("--q1", type=float, default=None, help="defaults to --q0")


def _add_window_args(p: argparse.ArgumentParser, ppd: float) -> None:
    p.add_argument("--t-min-exp", type=float, default=-20.0)
    p.add_argument("--t-max-exp", type=float, default=20.0)
    p.add_argument("--points-per-decade", type=float, default=ppd)


def _add_out_args(p: argparse.ArgumentParser, formats: tuple[str, ...] = ()) -> None:
    p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])


def _parse_grid_spec(text: str) -> GridSpec:
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"--spec needs integers J,n,m0,m1,..., got {text!r}")
    if len(parts) < 3:
        raise UsageError("--spec needs at least J,n,m0")
    j_count, n = parts[0], parts[1]
    sizes = tuple(parts[2:])
    if len(sizes) != j_count:
        raise UsageError(
            f"--spec says J={j_count} but lists {len(sizes)} layer sizes")
    return GridSpec(n=n, J=j_count, layer_sizes=sizes)


def _load_field(args) -> CoeffField:
    if bool(args.input) == bool(args.generate):
        raise UsageError("give exactly one of --input and --generate")
    if args.input:
        for flag, value in (("--spec", args.spec), ("--seed", args.seed)):
            if value is not None:
                raise UsageError(f"{flag} is for --generate; --input reads its grid from the file")
        return read_field(args.input)
    if not args.spec:
        raise UsageError("--generate requires --spec J,n,m0,m1,...")
    return generate(_parse_grid_spec(args.spec), args.generate, args.seed or 0)


def _query(args) -> InterpQuery:
    idx0 = BesovIndex(args.s0, args.p0, args.q0)
    idx1 = BesovIndex(
        args.s0 if args.s1 is None else args.s1,
        args.p0 if args.p1 is None else args.p1,
        args.q0 if args.q1 is None else args.q1,
    )
    # kcurve and interpnorm both take --xi; interpnorm alone --theta and --r
    norm = {"theta": args.theta, "r": args.r} if hasattr(args, "theta") else {}
    return InterpQuery(idx0, idx1, xi=args.xi, **norm)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def cmd_norm(args) -> int:
    field = _load_field(args)
    idx = BesovIndex(args.s0, args.p0, args.q0)
    obj = {"besov_norm": besov_norm(field, idx)}
    if args.lorentz_r is not None:
        obj["besov_lorentz_norm"] = besov_lorentz_norm(
            field, args.s0, args.p0, args.q0, args.lorentz_r)
    _emit(_json_text(obj), args.out)
    return 0


def cmd_kcurve(args) -> int:
    field = _load_field(args)
    query = _query(args)
    ts = default_t_grid(args.t_min_exp, args.t_max_exp, args.points_per_decade)
    plan = k_plan(field, query, args.method)
    ks = plan.k(ts)
    if args.format == "json":
        obj = {
            "method": plan.label,
            "t": [float(x) for x in ts],
            "K": [float(x) for x in ks],
        }
        _emit(_json_text(obj), args.out)
    else:
        lines = ["t,K,method"]
        for t, k in zip(ts, ks):
            lines.append(f"{float(t)!r},{float(k)!r},{plan.label}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_interpnorm(args) -> int:
    field = _load_field(args)
    query = _query(args)
    quad = QuadratureSpec(args.points_per_decade, args.t_min_exp, args.t_max_exp)
    rep = interp_norm_report(field, query, method=args.method, quad=quad)
    obj = {
        "value": rep.value,
        "method": rep.method,
        "window": {
            "t_min_exp": rep.t_min_exp,
            "t_max_exp": rep.t_max_exp,
            "points": rep.n_points,
        },
        "tails": {
            "low": rep.tail_low,
            "high": rep.tail_high,
            "fraction": rep.tail_fraction,
        },
    }
    _emit(_json_text(obj), args.out)
    return 0


def cmd_verify(args) -> int:
    report = dict(run_suite(args.suite, seed=args.seed))
    # wall-clock varies run to run; CLI output stays byte-stable
    report.pop("elapsed_s", None)
    _emit(_json_text(report), args.out)
    return 0 if report["passed"] else 1


def cmd_generate(args) -> int:
    if args.input:
        raise UsageError("generate takes --generate, not --input")
    if not args.generate:
        raise UsageError("generate requires --generate KIND")
    _emit(_json_text(field_payload(_load_field(args))), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besovk",
        description="Truncated-grid Besov sequence norms, K functionals, "
                    "and real-interpolation norms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="Besov norm of a coefficient field")
    _add_field_args(p)
    _add_index_args(p, couple=False)
    p.add_argument("--lorentz-r", type=float, default=None,
                   help="also report the Besov-Lorentz norm with this inner exponent")
    _add_out_args(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("kcurve", help="K functional sampled on a log grid of t")
    _add_field_args(p)
    _add_index_args(p)
    p.add_argument("--xi", type=float, default=1.0)
    _add_window_args(p, ppd=2.0)
    p.add_argument("--method", choices=("formula", "oracle"), default="formula")
    _add_out_args(p, formats=("csv", "json"))
    p.set_defaults(func=cmd_kcurve)

    p = sub.add_parser("interpnorm", help="real-interpolation norm (theta, r)")
    _add_field_args(p)
    _add_index_args(p)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--xi", type=float, default=1.0)
    _add_window_args(p, ppd=8.0)
    p.add_argument("--method", choices=("formula", "oracle"), default="formula")
    _add_out_args(p)
    p.set_defaults(func=cmd_interpnorm)

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=None,
                   help="override the suite's default seed")
    _add_out_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="generate a coefficient field file")
    _add_field_args(p)
    _add_out_args(p)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetError, NumericError, ArithmeticError, MemoryError) as exc:
        # an ArithmeticError left in a numeric route, or an allocation the
        # machine refuses, is a failure, not a crash; a bare MemoryError has no text
        print(f"error: {str(exc) or repr(exc)}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    gc.freeze()
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
