"""Command line front end.

Exit codes: 0 everything verified, 1 a verification failed, 2 the
request itself was invalid.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import frobenius, oracle, pluecker, recursion, tau
from .config import (OUTPUT_FORMATS, VALID_ENGINES, RunConfig, build_config,
                     parse_config_file, parse_list)
from .checks import run_crosscheck
from .limits import DEFAULT_DART_CAP, admit
from .rational import rat_str
from .report import emit


def _count(p, args):
    """The count of a profile that `Profile.decided` leaves open, from the
    requested engine."""
    if args.engine == "oracle":
        return oracle.enumerate_rhm(p, args.dart_cap)
    if args.engine == "tr":
        return recursion.count_rhm(p, args.cache_dir)
    # Z truncated at the d darts: d >= N, as N divides d
    return tau.rhm_from_tau(tau.tau_Z(p.N, p.darts), p.g, p.degrees)


def _cmd_rhm(args):
    admit("dart_cap", args.dart_cap)
    p = oracle.Profile(args.N, args.genus,
                       parse_list("degrees", args.degrees))
    # the count the request decides is the same for every engine
    value = p.decided
    if value is None:
        value = _count(p, args)
    print(json.dumps({"N": p.N, "g": p.g, "degrees": list(p.degrees),
                      "rhm": value}))
    return 0


def _cmd_crosscheck(args):
    try:
        file_values = parse_config_file(args.config) if args.config else {}
    except OSError as exc:
        raise ValueError(str(exc)) from None
    overrides = {f.name: getattr(args, f.name)
                 for f in dataclasses.fields(RunConfig)}
    cfg = build_config(file_values, **overrides)
    report = run_crosscheck(cfg)
    sys.stdout.buffer.write(emit(report, cfg.out))
    return 0 if report.ok else 1


def _cmd_smatrix(args):
    admit("S-matrix m", args.m_max)
    out = {}
    for m in range(args.m_max + 1):
        rows = frobenius.s_matrix(args.N, m)
        out[str(m)] = [[rat_str(v) for v in row] for row in rows]
    print(json.dumps({"N": args.N, "S": out}, sort_keys=True))
    return 0


def _cmd_tau(args):
    if args.emit == "pluecker":
        rep = pluecker.pluecker_check(args.N, args.weight_cap)
        print(json.dumps({
            "N": args.N, "weight_cap": args.weight_cap,
            "relations_checked": rep.relations_checked,
            "relations_skipped": rep.relations_skipped,
            "violations": rep.violations,
        }, sort_keys=True))
        return 0 if rep.ok else 1
    tz = tau.tau_Z(args.N, args.weight_cap)
    series = tz.series if args.emit == "coefficients" else tz.log()
    data = {",".join(map(str, key)): lau.to_json()
            for key, lau in sorted(series.c.items())}
    print(json.dumps({"N": args.N, "weight_cap": args.weight_cap,
                      "emit": args.emit, "terms": data}, sort_keys=True))
    return 0


def _cmd_curve(args):
    rec = recursion.Recursion(args.N, 0, 3)
    values = {"N": args.N,
              "rhm01": [recursion.rhm01_from_curve(args.N, k)
                        for k in range(9)]}
    values["omega03_keys"] = [[recursion.key_text(key)]
                              for key in sorted(rec.omega(0, 3))]
    print(json.dumps(values, sort_keys=True))
    return 0


def _cmd_frobenius(args):
    N = args.N
    frame = frobenius.canonical_frame(N)
    mu, d = frobenius.mu_charge(N)
    et = frobenius.eta(N)
    data = {
        "N": N,
        "eta": [[rat_str(v) for v in row] for row in et.entries],
        "mu": [rat_str(v) for v in mu],
        "charge_d": rat_str(d),
        "c": [v.to_json() for v in frame.c],
        "u": [v.to_json() for v in frame.u],
        "delta_half": [v.to_json() for v in frame.delta_half],
        "psi": [[v.to_json() for v in row] for row in frame.psi],
        "S1": [[rat_str(v) for v in row]
               for row in frobenius.s_matrix(N, 1)],
    }
    print(json.dumps(data, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """An invalid command line is one stderr line and exit status 2; the
    subcommand parsers inherit this class."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="hypermaps",
        description="Exact rooted hypermap numbers, three independent "
                    "ways, plus the structures that tie them together.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rhm", help="one hypermap number, one engine")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--degrees", required=True,
                   help="comma separated positive face degrees")
    p.add_argument("--engine", choices=VALID_ENGINES, default="oracle")
    p.add_argument("--dart-cap", type=int, default=DEFAULT_DART_CAP)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_rhm)

    p = sub.add_parser("crosscheck", help="run the full verification grid")
    p.add_argument("--config", default=None,
                   help="flat key = value settings file")
    p.add_argument("--N", default=None, help="comma separated orders")
    p.add_argument("--g-max", dest="g_max", type=int, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--weight-cap", dest="weight_cap", type=int,
                   default=None)
    p.add_argument("--dart-cap", dest="dart_cap", type=int, default=None)
    p.add_argument("--engine", dest="engines", default=None,
                   help="comma separated subset of oracle,tr,tau")
    p.add_argument("--out", choices=OUTPUT_FORMATS, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility (must be >= 1); the "
                        "crosscheck runs sequentially and this changes "
                        "neither scheduling nor the report")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("smatrix", help="calibration matrices S_0..S_m")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m-max", dest="m_max", type=int, default=2)
    p.set_defaults(func=_cmd_smatrix)

    p = sub.add_parser("tau", help="partition function coefficients")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--weight-cap", dest="weight_cap", type=int, default=6)
    p.add_argument("--emit", choices=("coefficients", "log", "pluecker"),
                   default="coefficients")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("curve", help="spectral curve summary")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("frobenius", help="special point frame data")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("pluecker", help="bilinear relation window")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--weight-cap", dest="weight_cap", type=int, default=8)
    p.set_defaults(func=_cmd_tau, emit="pluecker")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage already; normalize others
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OverflowError as exc:
        # an ArithmeticError, but one that a request too large to hold
        # raises, not a verification that failed
        print(f"request too large: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
