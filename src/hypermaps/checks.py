"""Cross-check orchestration: every verification the package can run,
funnelled into one report."""
from __future__ import annotations

from . import frobenius, oracle, pluecker, tau
from .config import RunConfig
from .partitions import partitions
from .polar import ExactPolar
from .rational import Q, rat_str
from .recursion import Recursion, rhm01_from_curve, rhm02_from_curve
from .report import Report


def stable_profiles(N, g_max, n_max, weight_cap):
    """All (g, degrees) with 2g-2+n > 0, N | sum(degrees), within caps;
    degrees as weakly decreasing tuples."""
    out = []
    for total in range(1, weight_cap + 1):
        if total % N != 0:
            continue
        for degrees in partitions(total):
            n = len(degrees)
            if n > n_max:
                continue
            for g in range(g_max + 1):
                if 2 * g - 2 + n <= 0:
                    continue
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
        ok = True
        for c, dh in zip(frame.c, frame.delta_half):
            xs = c.inv().pow(3) * Q(2)
            if N != 2:
                xs = xs + c.pow(N - 3) * Q((N - 1) * (N - 2))
            if xs != dh * dh:
                ok = False
        report.add("frame.delta_branch", {"N": N}, {}, ok)


RESIDUE_K_MAX = 8


def _check_residue_lemma(report):
    for N in range(2, 5):
        ok = True
        for alpha in range(1, N + 1):
            for k in range(RESIDUE_K_MAX + 1):
                for a in range(k + 1):
                    if not frobenius.s_column_residue_check(N, alpha, a, k):
                        ok = False
        report.add("frobenius.residue_lemma_sweep",
                   {"N": N, "k_max": RESIDUE_K_MAX}, {}, ok)


def _check_unstable(report, dart_cap):
    from math import factorial
    for N in (2, 3, 4):
        ok01 = True
        for k in range(9):
            if k + 1 > dart_cap:
                break
            lhs = frobenius.unstable01(N, k) * factorial(k + 1)
            rhs = oracle.enumerate_rhm(oracle.Profile(N, 0, (k + 1,)),
                                       dart_cap)
            if lhs != rhs:
                ok01 = False
        report.add("frobenius.unstable01_vs_oracle", {"N": N}, {}, ok01)
        ok02 = True
        for k1 in range(9):
            for k2 in range(k1, 9 - k1):
                if k1 + k2 + 2 > dart_cap:
                    continue
                lhs = (frobenius.unstable02(N, k1, k2)
                       * factorial(k1 + 1) * factorial(k2 + 1))
                rhs = oracle.enumerate_rhm(
                    oracle.Profile(N, 0, (k1 + 1, k2 + 1)), dart_cap)
                if lhs != rhs:
                    ok02 = False
        report.add("frobenius.unstable02_vs_oracle", {"N": N}, {}, ok02)


def _noblack_table(table, black_faces):
    """The genus table with the black faces left out of the Euler count:
    2g' = 2g + black_faces, so g' = g + black_faces/2 or no map at all."""
    if black_faces % 2:
        return {}
    return {g + black_faces // 2: count for g, count in table.items()}


def _check_oracle_calibration(report, dart_cap):
    """The orientation convention is pinned by the closed form; the same
    sweep read with a deliberately wrong Euler accounting must fail."""
    good, bad_detected = True, False
    for N, d_cap in ((2, 12), (3, 9), (4, 8)):
        for k in range(min(dart_cap, d_cap)):
            if (k + 1) % N and oracle.rhm01_closed(N, k) != 0:
                good = False
            expect = oracle.rhm01_closed(N, k)
            # positional: perfbench's tracer reads N and degrees from args
            table = oracle.genus_table(N, (k + 1,), dart_cap)
            if table.get(0, 0) != expect:
                good = False
            if _noblack_table(table, (k + 1) // N).get(0, 0) != expect:
                bad_detected = True
    report.add("oracle.calibration_closed_form", {}, {}, good)
    report.add("oracle.miscalibration_detected",
               {"variant": "noblack"}, {}, bad_detected)


def _three_way_for_N(N, cfg: RunConfig):
    """All engine comparisons for a single N; returns the rows and the
    Recursion the tr engine used (None when it did not run)."""
    rows = []
    rec = Recursion(N, cfg.g_max, cfg.n_max, cfg.cache_dir) \
        if "tr" in cfg.engines else None
    tz = tau.tau_Z(N, cfg.weight_cap) if "tau" in cfg.engines else None
    for g, degrees in stable_profiles(N, cfg.g_max, cfg.n_max,
                                      cfg.weight_cap):
        values = {}
        if "oracle" in cfg.engines and sum(degrees) <= cfg.dart_cap:
            values["oracle"] = oracle.enumerate_rhm(
                oracle.Profile(N, g, degrees), cfg.dart_cap)
        if rec is not None:
            values["tr"] = rec.rhm_from_tr(g, degrees)
        if tz is not None:
            values["tau"] = tau.rhm_from_tau(tz, g, degrees)
        ok = len(set(values.values())) <= 1 and len(values) >= 1
        rows.append((g, degrees, values, ok))
    return rows, rec


def _check_pluecker(report, N_list, W):
    for N in N_list:
        rep = pluecker.pluecker_check(N, W)
        report.add("pluecker.window", {"N": N, "W": W},
                   {"checked": rep.relations_checked,
                    "skipped": rep.relations_skipped,
                    "violations": rep.violations[:5]},
                   rep.ok and rep.relations_checked > 0)


def _check_curve_identities(report, N_list, recursions, cache_dir):
    for N in N_list:
        rec = recursions.get(N)
        # omega_{0,3} has pole order 2
        if rec is None or rec.M < 2:
            rec = Recursion(N, 0, 3, cache_dir)
        curve = rec.curve
        frame = frobenius.canonical_frame(N)
        # x on the rescaled curve at the i-th ramification point equals
        # u^i scaled by (N-1)^(-1/N): both are (N/(N-1)) zeta^(-i), which
        # on the polar side is an exact angle statement
        ok = True
        for i, a in enumerate(curve.ram, start=1):
            xa = curve.x_at(a)
            expected = curve.zeta.pow(-i) * Q(N, N - 1)
            if xa != expected:
                ok = False
            scaled = frame.u[i - 1] * ExactPolar(N, 1, e1=Q(-1, N))
            if scaled != ExactPolar(N, Q(N, N - 1), ang=Q(-i, N)):
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
            for k2 in range(4):
                if (k1 + k2 + 2) % N:
                    continue
                want = oracle.enumerate_rhm(
                    oracle.Profile(N, 0, (k1 + 1, k2 + 1)))
                if rhm02_from_curve(N, k1, k2) != want:
                    ok = False
        report.add("curve.unstable_shortcuts", {"N": N}, {}, ok)


def run_crosscheck(config: RunConfig) -> Report:
    report = Report(config.echo())
    try:
        _check_smatrix_gates(report)
        _check_frame(report)
        _check_residue_lemma(report)
        _check_unstable(report, config.dart_cap)
        _check_oracle_calibration(report, config.dart_cap)
    except Exception as exc:  # noqa: BLE001 - must become a record
        report.add_error("frobenius.gates", {}, exc)

    recursions = {}
    for N in config.N:
        try:
            rows, rec = _three_way_for_N(N, config)
        except Exception as exc:  # noqa: BLE001
            report.add_error("rhm.three_way", {"N": N}, exc)
            continue
        recursions[N] = rec
        ok_all = all(ok for _, _, _, ok in rows)
        sample = [
            {"g": g, "degrees": list(d),
             "values": {k: str(v) for k, v in vals.items()}}
            for g, d, vals, ok in rows if not ok
        ]
        report.add("rhm.three_way",
                   {"N": N, "profiles": len(rows)},
                   {"disagreements": sample[:10]}, ok_all)

    try:
        _check_pluecker(report, [n for n in config.N if n in (2, 3)],
                        min(config.weight_cap, 8))
    except Exception as exc:  # noqa: BLE001
        report.add_error("pluecker.window", {}, exc)
    try:
        _check_curve_identities(report, config.N, recursions,
                                config.cache_dir)
        _check_unstable_curve(report, config.N)
    except Exception as exc:  # noqa: BLE001
        report.add_error("curve.identities", {}, exc)
    return report
