"""Command line front end.

Exit codes: 0 everything verified, 1 a verification failed, 2 the
request itself was invalid.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import frobenius, oracle, pluecker, tau
from .config import build_config, parse_config_file
from .checks import run_crosscheck
from .rational import rat_str
from .recursion import Recursion, rhm01_from_curve
from .report import emit


def _parse_degrees(text):
    try:
        degrees = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValueError("degrees must be positive integers")
    if not degrees or any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive integers")
    return degrees


def _cmd_rhm(args):
    degrees = _parse_degrees(args.degrees)
    N, g = args.N, args.genus
    if N < 2 or g < 0:
        print("need N >= 2 and genus >= 0", file=sys.stderr)
        return 2
    try:
        if args.engine == "oracle":
            value = oracle.enumerate_rhm(oracle.Profile(N, g, degrees),
                                         args.dart_cap)
        elif args.engine == "tr":
            n = len(degrees)
            if 2 * g - 2 + n <= 0:
                print("use the oracle engine for unstable moments",
                      file=sys.stderr)
                return 2
            rec = Recursion(N, g, n, cache_dir=args.cache_dir)
            value = rec.rhm_from_tr(g, degrees)
        else:  # tau
            weight = sum(degrees)
            tz = tau.tau_Z(N, weight)
            value = tau.rhm_from_tau(tz, g, degrees)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(json.dumps({"N": N, "g": g, "degrees": list(degrees),
                      "rhm": value}))
    return 0


def _cmd_crosscheck(args):
    try:
        file_values = parse_config_file(args.config) if args.config else {}
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    overrides = {}
    if args.N:
        overrides["N"] = tuple(int(p) for p in args.N.split(","))
    for name in ("g_max", "n_max", "weight_cap", "dart_cap", "threads"):
        v = getattr(args, name)
        if v is not None:
            overrides[name] = v
    if args.engine:
        overrides["engines"] = tuple(args.engine.split(","))
    if args.out:
        overrides["out"] = args.out
    if args.cache_dir:
        overrides["cache_dir"] = args.cache_dir
    try:
        cfg = build_config(file_values, **overrides)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = run_crosscheck(cfg)
    sys.stdout.buffer.write(emit(report, cfg.out))
    return 0 if report.ok else 1


def _cmd_smatrix(args):
    if args.N < 2 or args.m_max < 0:
        print("need N >= 2 and m-max >= 0", file=sys.stderr)
        return 2
    out = {}
    for m in range(args.m_max + 1):
        rows = frobenius.s_matrix(args.N, m)
        out[str(m)] = [[rat_str(v) for v in row] for row in rows]
    print(json.dumps({"N": args.N, "S": out}, sort_keys=True))
    return 0


def _cmd_tau(args):
    if args.N < 2 or args.weight_cap < 1:
        print("need N >= 2 and a positive weight cap", file=sys.stderr)
        return 2
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
    if args.N < 2:
        print("need N >= 2", file=sys.stderr)
        return 2
    rec = Recursion(args.N, 0, 3, cache_dir=args.cache_dir)
    values = {"N": args.N,
              "rhm01": [rhm01_from_curve(args.N, k) for k in range(9)]}
    tensor = rec.omega(0, 3)
    values["omega03_keys"] = [
        [";".join(f"{a},{k}" for a, k in key)] for key in sorted(tensor)
    ]
    print(json.dumps(values, sort_keys=True))
    return 0


def _cmd_frobenius(args):
    if args.N < 2:
        print("need N >= 2", file=sys.stderr)
        return 2
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypermaps",
        description="Exact rooted hypermap numbers, three independent "
                    "ways, plus the structures that tie them together.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rhm", help="one hypermap number, one engine")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--degrees", required=True,
                   help="comma separated positive face degrees")
    p.add_argument("--engine", choices=("oracle", "tr", "tau"),
                   default="oracle")
    p.add_argument("--dart-cap", type=int, default=12)
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
    p.add_argument("--engine", default=None,
                   help="comma separated subset of oracle,tr,tau")
    p.add_argument("--out", choices=("json", "csv"), default=None)
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
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("frobenius", help="special point frame data")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("pluecker", help="bilinear relation window")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--weight-cap", dest="weight_cap", type=int, default=8)
    p.set_defaults(func=_cmd_pluecker_alias)

    return parser


def _cmd_pluecker_alias(args):
    args.emit = "pluecker"
    return _cmd_tau(args)


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
    except ArithmeticError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
