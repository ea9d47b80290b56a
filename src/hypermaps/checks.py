"""Cross-check orchestration: every verification the package can run,
funnelled into one report.

Every check reads the oracle's tables through `oracle.genus_table(N,
degrees, ...)`, called positionally (perfbench's tracer reads N and the
degrees from its arguments), and the oracle's memo serves each degree
multiset once per process.  The fixed self-checks always read their whole
sweeps, none past the oracle's default cap; the request's dart cap bounds
only the grid's reads, and a grid it would cut short is refused before
any check runs.  Each check is its own error unit: one that raises leaves
one error record, named after it, and the others still run.
"""
from __future__ import annotations

from . import frobenius, oracle, pluecker, tau
from .config import RunConfig
from .limits import admit
from .partitions import partitions
from .polar import ExactPolar
from .rational import Q, rat_str
from .recursion import (Recursion, admit_recursion, rhm01_from_curve,
                        rhm02_from_curve)
from .report import Report


def stable_profiles(N, g_max, n_max, weight_cap):
    """All (g, degrees) within the caps that `oracle.Profile` reads as
    stable and divisible by N; degrees as weakly decreasing tuples, by
    total degree, then partition, then genus."""
    out = []
    for total in range(1, weight_cap + 1):
        for degrees in partitions(total):
            if len(degrees) > n_max:
                continue
            for g in range(g_max + 1):
                p = oracle.Profile(N, g, degrees)
                if p.stable and p.divisible:
                    out.append((g, degrees))
    return out


def _check_smatrix_gates(report):
    for N in range(2, 7):
        s0 = frobenius.s_matrix(N, 0)
        ok = all(s0[a][b] == (1 if a == b else 0)
                 for a in range(N) for b in range(N))
        report.add("smatrix.s0_identity", {"N": N}, {}, ok)
    s1 = frobenius.s_matrix(2, 1)
    ok = s1 == ((Q(0), Q(0)), (Q(1), Q(0)))
    report.add("smatrix.n2_s1", {"N": 2},
               {"S1": [[rat_str(v) for v in row] for row in s1]}, ok)


def _check_frame(report):
    for N in range(2, 7):
        frame = frobenius.canonical_frame(N)
        ok = all(frobenius.x_at_polar(c) == u
                 for c, u in zip(frame.c, frame.u))
        report.add("frame.u_equals_x_of_c", {"N": N}, {}, ok)
        ok = all(entry for _, _, entry
                 in frobenius.psi_orthogonality_defect(N))
        report.add("frame.psi_orthogonality", {"N": N}, {}, ok)
        # branch normalization: x''(c_j) equals the square of the fixed
        # root of the Hessian
        ok = all(frobenius.x_at_polar(c, 2) == dh * dh
                 for c, dh in zip(frame.c, frame.delta_half))
        report.add("frame.delta_branch", {"N": N}, {}, ok)


RESIDUE_K_MAX = 8


def _check_residue_lemma(report):
    for N in range(2, 5):
        ok = True
        for alpha in range(1, N + 1):
            for k in range(RESIDUE_K_MAX + 1):
                if not all(frobenius.residue_lemma_column(N, alpha, k)):
                    ok = False
        report.add("frobenius.residue_lemma_sweep",
                   {"N": N, "k_max": RESIDUE_K_MAX}, {}, ok)


def _check_unstable(report):
    from math import factorial
    for N in (2, 3, 4):
        ok01 = True
        for k in range(9):
            lhs = frobenius.unstable01(N, k) * factorial(k + 1)
            if lhs != oracle.genus_table(N, (k + 1,)).get(0, 0):
                ok01 = False
        report.add("frobenius.unstable01_vs_oracle", {"N": N}, {}, ok01)
        ok02 = True
        for k1 in range(9):
            for k2 in range(k1, 9 - k1):
                lhs = (frobenius.unstable02(N, k1, k2)
                       * factorial(k1 + 1) * factorial(k2 + 1))
                if lhs != oracle.genus_table(N, (k1 + 1, k2 + 1)).get(0, 0):
                    ok02 = False
        report.add("frobenius.unstable02_vs_oracle", {"N": N}, {}, ok02)


def _noblack_table(table, black_faces):
    """The genus table with the black faces left out of the Euler count:
    2g' = 2g + black_faces, so g' = g + black_faces/2 or no map at all."""
    if black_faces % 2:
        return {}
    return {g + black_faces // 2: count for g, count in table.items()}


def _check_oracle_calibration(report):
    """The orientation convention is pinned by the closed form; the same
    sweep read with a deliberately wrong Euler accounting must fail."""
    good, bad_detected = True, False
    for N, d_cap in ((2, 12), (3, 9), (4, 8)):
        for k in range(d_cap):
            expect = oracle.rhm01_closed(N, k)
            if not oracle.Profile(N, 0, (k + 1,)).divisible and expect != 0:
                good = False
            table = oracle.genus_table(N, (k + 1,))
            if table.get(0, 0) != expect:
                good = False
            if _noblack_table(table, (k + 1) // N).get(0, 0) != expect:
                bad_detected = True
    report.add("oracle.calibration_closed_form", {}, {}, good)
    report.add("oracle.miscalibration_detected",
               {"variant": "noblack"}, {}, bad_detected)


def _three_way_for_N(N, cfg: RunConfig, profiles):
    """All engine comparisons for a single N over its profiles; returns
    the rows and the Recursion the tr engine used (None if it did not)."""
    rows = []
    rec = Recursion(N, cfg.g_max, cfg.n_max, cfg.cache_dir) \
        if "tr" in cfg.engines else None
    tz = tau.tau_Z(N, cfg.weight_cap) if "tau" in cfg.engines else None
    for g, degrees in profiles:
        values = {}
        if "oracle" in cfg.engines:
            values["oracle"] = oracle.genus_table(N, degrees,
                                                  cfg.dart_cap).get(g, 0)
        if rec is not None:
            values["tr"] = rec.rhm_from_tr(g, degrees)
        if tz is not None:
            values["tau"] = tau.rhm_from_tau(tz, g, degrees)
        rows.append((g, degrees, values, len(set(values.values())) == 1))
    return rows, rec


def _check_three_way(report, N, cfg, profiles, recursions):
    rows, recursions[N] = _three_way_for_N(N, cfg, profiles)
    sample = [{"g": g, "degrees": list(d),
               "values": {k: str(v) for k, v in vals.items()}}
              for g, d, vals, ok in rows if not ok]
    report.add("rhm.three_way", {"N": N, "profiles": len(rows)},
               {"disagreements": sample[:10]}, all(ok for *_, ok in rows))


def _check_pluecker(report, N_list, W):
    for N in N_list:
        rep = pluecker.pluecker_check(N, W)
        report.add("pluecker.window", {"N": N, "W": W},
                   {"checked": rep.relations_checked,
                    "skipped": rep.relations_skipped,
                    "violations": rep.violations[:5]},
                   rep.ok)


def _check_curve_identities(report, N_list, recursions):
    for N in N_list:
        # one that ran served a stable profile, so it reaches omega_{0,3}
        rec = recursions.get(N) or Recursion(N, 0, 3)
        curve = rec.curve
        frame = frobenius.canonical_frame(N)
        # x on the rescaled curve at the i-th ramification point equals
        # u^i scaled by (N-1)^(-1/N); a polar value q e(p/N) with no
        # radical part is q zeta^p in Q(zeta_N)
        ok = True
        for a_idx, u in enumerate(frame.u):
            scaled = u * ExactPolar(N, 1, e1=Q(-1, N))
            p = scaled.ang * N
            x_a = curve.x_series(a_idx, 1).coeff(0)
            if scaled.e1 or scaled.e2 or p.denominator != 1 \
                    or x_a != curve.ring.roots[int(p)] * scaled.q:
                ok = False
        report.add("curve.ram_values_match_frame", {"N": N}, {}, ok)
        bad = rec.zn_covariance_defects(0, 3)
        report.add("curve.zn_covariance", {"N": N, "g": 0, "n": 3},
                   {"violations": [list(map(list, k)) for k in bad[:5]]},
                   not bad)


def _check_unstable_curve(report, N_list):
    for N in N_list:
        ok = True
        for k in range(9):
            if rhm01_from_curve(N, k) != oracle.rhm01_closed(N, k):
                ok = False
        for k1 in range(4):
            for k2 in range(k1, 4):
                if not oracle.Profile(N, 0, (k1 + 1, k2 + 1)).divisible:
                    continue
                # one table per degree multiset serves both orders
                want = oracle.genus_table(N, (k1 + 1, k2 + 1)).get(0, 0)
                if rhm02_from_curve(N, k1, k2) != want \
                        or rhm02_from_curve(N, k2, k1) != want:
                    ok = False
        report.add("curve.unstable_shortcuts", {"N": N}, {}, ok)


def run_crosscheck(config: RunConfig) -> Report:
    grids = {N: stable_profiles(N, config.g_max, config.n_max,
                                config.weight_cap) for N in config.N}
    for N, profiles in grids.items():
        if not profiles:
            raise ValueError(
                f"no stable profile for N = {N} within g_max = "
                f"{config.g_max}, n_max = {config.n_max}, weight_cap = "
                f"{config.weight_cap}")
    # each engine admits the request here, before the report exists, by
    # the rules it serves a request by; the weight cap, tau_Z's bound,
    # was admitted with the config
    pluecker_N = [N for N in config.N if N in (2, 3)]
    pluecker_W = min(config.weight_cap, 8)
    if pluecker_N:
        admit("Pluecker window", pluecker_W)
    for N, profiles in grids.items():
        # the dart cap bounds only the grid's oracle reads, and a grid it
        # would cut short is refused rather than compared with one engine
        # less
        if "oracle" in config.engines:
            oracle.admit_table(N, max(sum(d) for _, d in profiles),
                               config.dart_cap)
        # without tr the curve identities build a Recursion(N, 0, 3)
        shape = (config.g_max, config.n_max) if "tr" in config.engines \
            else (0, 3)
        admit_recursion(N, *shape)
    report = Report(config.echo())
    recursions = {}
    units = [(_check_smatrix_gates, {}, ()), (_check_frame, {}, ()),
             (_check_residue_lemma, {}, ()), (_check_unstable, {}, ()),
             (_check_oracle_calibration, {}, ())]
    units += [(_check_three_way, {"N": N}, (N, config, grids[N], recursions))
              for N in config.N]
    units += [(_check_pluecker, {}, (pluecker_N, pluecker_W)),
              (_check_curve_identities, {}, (config.N, recursions)),
              (_check_unstable_curve, {}, (config.N,))]
    for check, inputs, args in units:
        try:
            check(report, *args)
        except Exception as exc:  # noqa: BLE001 - must become a record
            report.add_error(check.__name__.removeprefix("_check_"), inputs,
                             exc)
    return report
