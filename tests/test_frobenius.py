import hashlib
import json
from math import comb, factorial

import pytest

from hypermaps import checks
from hypermaps import frobenius as F
from hypermaps import oracle as O
from exact_reference import polar_inv, polar_neg
from hypermaps.polar import ExactPolar
from hypermaps.rational import Q, QZERO
from hypermaps.report import Report


def test_eta_n3():
    et = F.eta(3)
    assert et[1, 3] == 1 and et[3, 1] == 1
    assert et[2, 2] == Q(1, 2)
    assert et[1, 1] == 0 and et[1, 2] == 0


def test_mu_and_charge():
    mu, d = F.mu_charge(3)
    assert mu == [Q(1, 2), 0, Q(-1, 2)]
    assert d == 0
    mu2, d2 = F.mu_charge(2)
    assert mu2 == [Q(1, 2), Q(-1, 2)] and d2 == -1


def test_s_matrices_are_pinned():
    """Every S_m for N = 2..9 and m <= 7, entry by entry, against the
    values the per-case formulas gave."""
    table = {f"{N},{m}": [[str(v) for v in row] for row in F.s_matrix(N, m)]
             for N in range(2, 10) for m in range(8)}
    digest = hashlib.sha256(
        json.dumps(table, sort_keys=True).encode()).hexdigest()
    assert digest == ("f181e117cc0e962797e7aea241c93c832dde69f2"
                      "4f7ff0a246ee78b59be068f0")


def test_s0_is_identity():
    for N in range(2, 7):
        s0 = F.s_matrix(N, 0)
        for a in range(N):
            for b in range(N):
                assert s0[a][b] == (1 if a == b else 0)


def test_n2_s1_single_entry():
    s1 = F.s_matrix(2, 1)
    assert s1[0][0] == 0 and s1[0][1] == 0
    assert s1[1][0] == 1 and s1[1][1] == 0


def test_s_entry_example_n3():
    assert F.s_entry(3, 1, 2, 1) == 2


def test_tilde_xi_leading_terms():
    xi = F.tilde_xi(3, 3, 8)
    assert xi.coeff(0) == 1 and xi.coeff(3) == 2 and xi.coeff(6) == 4
    xi = F.tilde_xi(2, 1, 7)
    assert [xi.coeff(e) for e in (1, 3, 5)] == [1, 1, 1]
    assert [xi.coeff(e) for e in (0, 2, 4)] == [0, 0, 0]
    xi = F.tilde_xi(3, 2, 9)
    assert xi.coeff(2) == 2 and xi.coeff(5) == 4 and xi.coeff(8) == 8


RESIDUE_GRID = [(N, alpha, a, k)
                for N in range(2, 7)
                for alpha in range(1, N + 1)
                for k in range(-1, 11)
                for a in range(max(k, 0) + 3)]


def test_residue_lemma_grid():
    # both sides of the lemma, a > k (right side 0) included
    assert len(RESIDUE_GRID) == 1820
    for case in RESIDUE_GRID:
        assert F.s_column_residue_check(*case), case


def test_residue_lemma_short_order_raises(monkeypatch):
    """At one order below T = k + 2 the read [z^-1] is beyond the
    truncation of the form and raises instead of comparing a wrong
    left-hand side."""
    tilde_xi = F.tilde_xi
    monkeypatch.setattr(F, "tilde_xi",
                        lambda N, alpha, trunc: tilde_xi(N, alpha, trunc - 1))
    cases = [c for c in RESIDUE_GRID if c[2] == 0]
    assert len(cases) == 240
    for case in cases:
        with pytest.raises(ValueError):
            F.s_column_residue_check(*case)


SWEEP = [(N, alpha, k) for N in range(2, 5) for alpha in range(1, N + 1)
         for k in range(9)]


def test_residue_lemma_column_equals_per_case_checks():
    """The crosscheck's sweep reads every a <= k from one chain; each
    entry is the per-case check, and every one holds."""
    assert len(SWEEP) == 81
    for N, alpha, k in SWEEP:
        column = F.residue_lemma_column(N, alpha, k)
        assert column == tuple(F.s_column_residue_check(N, alpha, a, k)
                               for a in range(k + 1)), (N, alpha, k)
        assert all(column), (N, alpha, k)


def test_residue_lemma_column_short_order_raises(monkeypatch):
    tilde_xi = F.tilde_xi
    monkeypatch.setattr(F, "tilde_xi",
                        lambda N, alpha, trunc: tilde_xi(N, alpha, trunc - 1))
    for case in SWEEP:
        with pytest.raises(ValueError):
            F.residue_lemma_column(*case)


def test_psi_orthogonality():
    for N in range(2, 7):
        assert all(ok for _, _, ok in F.psi_orthogonality_defect(N))


def _psi_verdicts():
    report = Report({})
    checks._check_frame(report)
    return {r.inputs["N"]: r.verdict for r in report.records
            if r.check_id == "frame.psi_orthogonality"}


def test_psi_orthogonality_reads_the_frame(monkeypatch):
    """Multiplying Psi^i_2 by zeta^i leaves Psi^0_2 alone but breaks the
    pairing, and the check must see it through the frame's entries."""
    assert set(_psi_verdicts().values()) == {"pass"}
    psi_entry = F._psi_entry

    def perturbed(N, i, a):
        entry = psi_entry(N, i, a)
        return entry * ExactPolar(N, 1, ang=Q(i, N)) if a == 2 else entry

    monkeypatch.setattr(F, "_psi_entry", perturbed)
    assert _psi_verdicts() == {N: "fail" for N in range(2, 7)}


def test_psi_orthogonality_checks_every_frame_entry(monkeypatch):
    """A frame entry off the progression K_a e(i s_a) fails its pair even
    where the pairing would still hold."""
    frame = F.canonical_frame

    def negated_last_row(N):
        out = frame(N)
        psi = out.psi[:-1] + (tuple(polar_neg(e) for e in out.psi[-1]),)
        return F.CanonicalFrame(N, out.c, out.u, out.delta_half, psi)

    monkeypatch.setattr(F, "canonical_frame", negated_last_row)
    assert not any(ok for _, _, ok in F.psi_orthogonality_defect(3))


def test_frame_u_equals_x_of_c():
    for N in range(2, 7):
        frame = F.canonical_frame(N)
        for c, u in zip(frame.c, frame.u):
            assert F.x_at_polar(c) == u


def test_frame_delta_branch():
    """x''(c) = 2/c^3 + (N-1)(N-2) c^(N-3), written out here as the
    reference for `x_at_polar(c, 2)`, is the square of delta_half."""
    for N in range(2, 8):
        frame = F.canonical_frame(N)
        for c, dh in zip(frame.c, frame.delta_half):
            xs = polar_inv(c).pow(3) * Q(2)
            if N != 2:
                xs = xs + c.pow(N - 3) * Q((N - 1) * (N - 2))
            assert xs == dh * dh
            assert F.x_at_polar(c, 2) == xs


def test_curve_powers_are_binomial():
    """The powers of `curve_x` that the last S column and the curve
    shortcuts read are x^m = sum_j C(m, j) z^((N-1)m - Nj)."""
    for N in range(2, 6):
        for m in range(10):
            assert F.curve_x(N).pow(m).c == {
                (N - 1) * m - N * j: comb(m, j) for j in range(m + 1)}


def test_unstable01_examples():
    assert F.unstable01(2, 1) == Q(1, 2)
    assert F.unstable01(3, 2) == Q(1, 6)
    assert F.unstable01(2, 0) == 0


def test_unstable01_vs_oracle():
    for N in (2, 3, 4):
        for k in range(9):
            if k + 1 > 12:
                break
            lhs = F.unstable01(N, k) * factorial(k + 1)
            assert lhs == O.enumerate_rhm(O.Profile(N, 0, (k + 1,)))


def test_unstable02_examples():
    assert F.unstable02(2, 1, 1) == Q(1, 2)
    assert F.unstable02(2, 0, 0) == 1


def test_unstable02_symmetry():
    for N in (2, 3):
        for k1 in range(4):
            for k2 in range(4):
                assert F.unstable02(N, k1, k2) == F.unstable02(N, k2, k1)


def test_unstable02_vs_oracle():
    for N in (2, 3, 4):
        for k1 in range(5):
            for k2 in range(5):
                if k1 + k2 + 2 > 10:
                    continue
                lhs = F.unstable02(N, k1, k2) \
                    * factorial(k1 + 1) * factorial(k2 + 1)
                assert lhs == O.enumerate_rhm(
                    O.Profile(N, 0, (k1 + 1, k2 + 1))), (N, k1, k2)


def reference_unstable02(N: int, k1: int, k2: int):
    """unstable02 one pair at a time: the numerator window at total
    degree k1 + k2 + 1 built, divided by w1 + w2 and checked for this
    pair alone."""
    et = F.eta(N)
    deg = k1 + k2 + 1
    col = {n: [F.s_entry(N, n, a, 1) for a in range(1, N + 1)]
           for n in range(deg + 1)}
    h = {}
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            v = QZERO
            for a in range(1, N + 1):
                b = N + 1 - a
                v += et[a, b] * col[i][a - 1] * col[j][b - 1]
            h[i, j] = v
    h[0, 0] -= et[1, 1]
    q = {}
    for j in range(deg):
        for i in range(deg - j):
            q[i, j] = h[i + 1, j] - (q[i + 1, j - 1] if j >= 1 else QZERO)
    for (i, j), v in h.items():
        left = q.get((i - 1, j), QZERO)
        up = q.get((i, j - 1), QZERO)
        if left + up != v:
            raise ArithmeticError("numerator not divisible by w1+w2")
    return q[k1, k2]


def test_unstable02_equals_reference():
    pairs = [(N, k1, k2) for N in range(2, 6) for k1 in range(11)
             for k2 in range(11 - k1)]
    assert len(pairs) == 264
    for N, k1, k2 in pairs:
        assert F.unstable02(N, k1, k2) == \
            reference_unstable02(N, k1, k2), (N, k1, k2)


def test_unstable02_window_checks_divisibility(monkeypatch):
    """A numerator that w1 + w2 does not divide raises, however few of
    the window's entries are read."""
    s_entry = F.s_entry

    def perturbed(N, m, a, b):
        return s_entry(N, m, a, b) + (1 if (m, a) == (0, 2) else 0)

    monkeypatch.setattr(F, "s_entry", perturbed)
    with pytest.raises(ArithmeticError, match="not divisible"):
        F._unstable02_window.__wrapped__(2, 1)


def symplectic_defect(N: int, k: int):
    """Matrix of sum_m (-1)^m (S_m)^T eta S_{k-m} - delta_{k0} eta.

    That it vanishes is the eta-symplecticity of the calibration, a
    convention the package does not assert (the matrix is zero for
    N = 2..5, k = 0..4); only its shape is checked.
    """
    et = F.eta(N)
    out = []
    for a in range(1, N + 1):
        row = []
        for b in range(1, N + 1):
            total = QZERO
            for m in range(k + 1):
                for g in range(1, N + 1):
                    for d in range(1, N + 1):
                        v = et[g, d]
                        if v == 0:
                            continue
                        total += ((-1) ** m * F.s_entry(N, m, g, a) * v
                                  * F.s_entry(N, k - m, d, b))
            if k == 0:
                total -= et[a, b]
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


def test_symplectic_report_shape():
    # reported, not gated: the defect table exists and is square
    for N in (2, 3):
        for k in range(3):
            defect = symplectic_defect(N, k)
            assert len(defect) == N and all(len(r) == N for r in defect)


def test_exact_polar_normalization():
    v = ExactPolar(3, -2, e1=Q(4, 3), ang=Q(7, 3))
    assert v.q == 4 and v.e1 == Q(1, 3)
    assert v.ang == Q(1, 3) + Q(1, 2)
    assert v * polar_inv(v) == ExactPolar(3, 1)


def test_exact_polar_sum_guard():
    a = ExactPolar(3, 1, ang=Q(1, 3))
    b = ExactPolar(3, 1, ang=Q(1, 4))
    with pytest.raises(ValueError, match="leaves the exact polar class"):
        a + b
    assert a + polar_neg(a) == ExactPolar.zero(3)


def test_exact_polar_integer_powers_only():
    v = ExactPolar(3, -2, e1=Q(4, 3), e2=Q(1, 2), ang=Q(1, 6))
    acc = ExactPolar(3, 1)
    for k in range(1, 6):
        acc = acc * v
        assert v.pow(k) == acc
        assert v.pow(-k) == polar_inv(acc)
    assert v.pow(0) == ExactPolar(3, 1)
    with pytest.raises(ValueError, match="integer"):
        ExactPolar(3, 1).pow(Q(1, 2))
    with pytest.raises(ValueError, match="non-positive power of zero"):
        ExactPolar.zero(3).pow(0)
    assert ExactPolar.zero(3).pow(2) == ExactPolar.zero(3)
