"""Acceptance gate: one test per criterion, one pass/fail line each.

Everything here is exact integer or exact rational equality; there are
no tolerances anywhere.
"""
import time
from math import factorial

import pytest

from exact_reference import polar_inv
from hypermaps import frobenius as F
from hypermaps import oracle as O
from hypermaps import tau as T
from hypermaps.checks import stable_profiles
from hypermaps.config import build_config
from hypermaps.checks import run_crosscheck
from hypermaps.pluecker import pluecker_check
from hypermaps.polar import ExactPolar
from hypermaps.rational import Q
from hypermaps.recursion import Curve, Recursion, deck_series, \
    rhm01_from_curve
from hypermaps.report import emit
from hypermaps.series import UniSeries

WEIGHT_CAP = {2: 10, 3: 9}


@pytest.fixture(scope="module")
def engines(wide_recursions):
    recs = wide_recursions
    taus = {N: T.tau_Z(N, WEIGHT_CAP[N]) for N in (2, 3)}
    return recs, taus


def _verdict(name, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_1_three_way_agreement(engines):
    recs, taus = engines
    t0 = time.time()
    ok = True
    for N in (2, 3):
        for g, degrees in stable_profiles(N, 2, 3, WEIGHT_CAP[N]):
            a = O.enumerate_rhm(O.Profile(N, g, degrees))
            b = recs[N].rhm_from_tr(g, degrees)
            c = T.rhm_from_tau(taus[N], g, degrees)
            if not a == b == c:
                ok = False
    elapsed = time.time() - t0
    _verdict(f"criterion 1: three-way agreement over the full stable "
             f"grid ({elapsed:.0f}s, limit 600s)", ok and elapsed <= 600)


def test_criterion_2_anchored_values(engines):
    recs, taus = engines
    anchors = [(2, 0, (2,), 1), (2, 0, (4,), 2), (2, 1, (4,), 1),
               (3, 0, (3,), 1), (3, 1, (3,), 1)]
    ok = True
    for N, g, degrees, value in anchors:
        if O.enumerate_rhm(O.Profile(N, g, degrees)) != value:
            ok = False
        if 2 * g - 2 + len(degrees) > 0:
            tr = recs[N].rhm_from_tr(g, degrees)
        else:
            tr = rhm01_from_curve(N, degrees[0] - 1)
        if tr != value:
            ok = False
        if T.rhm_from_tau(taus[N], g, degrees) != value:
            ok = False
    _verdict("criterion 2: anchored hypermap numbers", ok)


def test_criterion_3_smatrix_gates():
    ok = True
    for N in range(2, 7):
        s0 = F.s_matrix(N, 0)
        if any(s0[a][b] != (1 if a == b else 0)
               for a in range(N) for b in range(N)):
            ok = False
    s1 = F.s_matrix(2, 1)
    if not (s1[0][0] == 0 and s1[0][1] == 0
            and s1[1][0] == 1 and s1[1][1] == 0):
        ok = False
    _verdict("criterion 3: S-matrix gates (S0 = Id up to N=6; N=2 S1)", ok)


def test_criterion_4_residue_lemma_sweep():
    ok = all(F.s_column_residue_check(N, alpha, a, k)
             for N in (2, 3, 4)
             for alpha in range(1, N + 1)
             for k in range(9)
             for a in range(k + 1))
    _verdict("criterion 4: residue lemma sweep (N <= 4, 0 <= a <= k <= 8)",
             ok)


def test_criterion_5_unstable_lemmas():
    ok = True
    for N in (2, 3, 4):
        for k in range(9):
            lhs = F.unstable01(N, k) * factorial(k + 1)
            if lhs != O.enumerate_rhm(O.Profile(N, 0, (k + 1,))):
                ok = False
        for k1 in range(9):
            for k2 in range(9 - k1):
                lhs = (F.unstable02(N, k1, k2)
                       * factorial(k1 + 1) * factorial(k2 + 1))
                if lhs != O.enumerate_rhm(O.Profile(N, 0, (k1 + 1, k2 + 1))):
                    ok = False
    _verdict("criterion 5: unstable closed formulas vs enumeration", ok)


def test_criterion_6_kp_certification():
    t0 = time.time()
    ok = True
    for N in (2, 3):
        rep = pluecker_check(N, 8)
        if not (rep.ok and rep.relations_checked > 0):
            ok = False
    elapsed = time.time() - t0
    _verdict(f"criterion 6: Pluecker window |lambda| <= 8 "
             f"({elapsed:.0f}s, limit 120s)", ok and elapsed <= 120)


def test_criterion_7_geometry_identities(engines):
    recs, _ = engines
    ok = True
    for N in range(2, 7):
        frame = F.canonical_frame(N)
        if any(F.x_at_polar(c) != u for c, u in zip(frame.c, frame.u)):
            ok = False
        if not all(o for _, _, o in F.psi_orthogonality_defect(N)):
            ok = False
        for c, dh in zip(frame.c, frame.delta_half):
            xs = polar_inv(c).pow(3) * Q(2)
            if N != 2:
                xs = xs + c.pow(N - 3) * Q((N - 1) * (N - 2))
            if xs != dh * dh:
                ok = False
    for N in (2, 3, 4):
        rec = recs.get(N) or Recursion(N, 1, 2)
        for g, n in ((0, 3), (1, 1)):
            if rec.zn_covariance_defects(g, n):
                ok = False
    _verdict("criterion 7: geometry identities (u = x(c), Psi pairing, "
             "Hessian branch, Z_N covariance)", ok)


def test_criterion_8_property_suites(engines):
    recs, taus = engines
    ok = True
    # deck involution and x-invariance to working order
    for N in (2, 3):
        curve = Curve(N)
        for a_idx in range(N):
            s = deck_series(curve, a_idx, 14)
            t = UniSeries("t", curve.ring, {1: curve.ring.one}, 14)
            if not (s.compose(s) - t).is_zero():
                ok = False
            x_loc = curve.x_series(a_idx, 14)
            if not (x_loc.compose(s) - x_loc).is_zero():
                ok = False
    # weighted homogeneity of the tau truncation
    for N in (2, 3):
        wider = T.tau_Z(N, 6 + N)
        narrow = T.tau_Z(N, 6)
        for key, lau in narrow.series.c.items():
            if wider.series.coeff(key) != lau:
                ok = False
    # eps parity of log Z
    for N in (2, 3):
        for lau in taus[N].log().c.values():
            if any(e % 2 for e in lau.c):
                ok = False
    # determinism: byte-identical reports across thread budgets
    base = dict(N=(2,), g_max=1, weight_cap=6)
    r1 = emit(run_crosscheck(build_config({}, threads=1, **base)), "json")
    r2 = emit(run_crosscheck(build_config({}, threads=4, **base)), "json")
    if r1 != r2:
        ok = False
    _verdict("criterion 8: property suites (deck contracts, homogeneity, "
             "parity, determinism)", ok)
