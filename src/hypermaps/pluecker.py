"""Quadratic identities certifying the KP property of the coefficient
family A_lambda.

Partitions with at most L rows are encoded as L-element sets of
beta-numbers {lambda_i + L - i}.  A family of Schur coefficients comes
from a point of the Grassmannian iff for every (L-1)-set S and
(L+1)-set T

    sum_{j} (-1)^(j-1) (-1)^(#{s in S : s > t_j}) A_{S + t_j} A_{T - t_j} = 0,

with T sorted decreasingly and terms with t_j in S dropping out.  The
sign convention is pinned by the smallest instance

    A_{} A_{(2,2)} - A_{(1)} A_{(2,1)} + A_{(2)} A_{(1,1)} = 0.

Sets are ints whose set bits are their elements (``partitions.beta_mask``).
S is a window beta-set with one bit cleared and T one with one bit of
0..W+L-1 set; relations that would involve a coefficient of weight above
the window (other than the weights killed by the divisibility
constraint, which vanish at every weight) are skipped as unknowable
rather than assumed.  Violations come sorted by (S, T), S as an
increasing and T as a decreasing tuple.

An L-set B has weight sum(B) - L(L-1)/2, so pairs whose sums rule out
every term are never visited.  Each side is classified once, not per
pair: for S the positions t outside S whose side S + t survives
divisibility form two masks, LU_S (weight above the window, unknown)
and LN_S (in the window, A nonzero); RU_T and RN_T are the same for the
sides T - t.  A pair is skipped iff some term has an unknown side and a
side not known to be zero, i.e. LU_S & (RU_T | RN_T) or RU_T & LN_S is
nonzero; otherwise it is checked iff LN_S & RN_T, its nonzero terms, is
nonzero.

A checked relation is summed in integers.  Every term has
m_left + m_right = M = (sum(S) + sum(T) - 2c)/N, so with A_lambda =
row / (N^m m!) eps^(-m) (``tau.coefficient_row``) the relation is
sum sgn C(M, m_left) row_left row_right / (N^M M!) eps^(-M); only a
nonzero sum is turned back into an eps-polynomial for the report.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial

from .limits import admit
from .partitions import beta_mask, mask_partition, partitions_upto
from .rational import Q, need_order
from .series import EpsLaurent
from .tau import coefficient_row


@dataclass
class PlueckerReport:
    N: int
    W: int
    relations_checked: int = 0
    relations_skipped: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def pluecker_check(N: int, W: int) -> PlueckerReport:
    """Check every window relation, with L = W rows (every window
    partition fits); violations are recorded, not raised, and a window
    that checks no relation is refused with ValueError.

    With c = L(L-1)/2 the two sides of the term of t weigh
    sum(S) + t - c and sum(T) - t - c.  Unless N divides
    sum(S) + sum(T) - 2c no term survives the divisibility constraint,
    so such pairs are never visited; a side of weight > W is unknown.
    """
    need_order(N)
    admit("Pluecker window", W)
    L = W
    c = L * (L - 1) // 2
    report = PlueckerReport(N, W)
    betas = [beta_mask(lam, L) for lam in partitions_upto(W)]
    universe = range(W + L)

    known = {}

    def form(mask):
        """coefficient_row at the L-set whose elements are the set bits
        of mask: (m, integer row), or None where A is zero."""
        if mask not in known:
            known[mask] = coefficient_row(N, mask_partition(mask))
        return known[mask]

    def status(mask, total, ts, sign):
        """Masks of the t in ts whose side mask + sign * t, of weight
        total + sign * t - c, survives divisibility: unknown (weight
        > W) and known nonzero, with the forms of the latter."""
        unknown = nonzero = 0
        forms = {}
        for t in ts:
            w = total + sign * t - c
            if w % N:
                continue
            if w > W:
                unknown |= 1 << t
            else:
                f = form(mask ^ 1 << t)
                if f:
                    nonzero |= 1 << t
                    forms[t] = f
        return unknown, nonzero, forms

    s_candidates = sorted({b ^ 1 << x for b in betas for x in universe
                           if b >> x & 1})
    t_candidates = sorted({b | 1 << x for b in betas for x in universe
                           if not b >> x & 1})
    t_by_residue = [[] for _ in range(N)]
    for t_mask in t_candidates:
        t_sorted = tuple(x for x in reversed(universe) if t_mask >> x & 1)
        t_sum = sum(t_sorted)
        ru, rn, r_forms = status(t_mask, t_sum, t_sorted, -1)
        t_by_residue[t_sum % N].append(
            (ru | rn, ru, rn, t_mask, t_sum, t_sorted, r_forms))

    for s_mask in s_candidates:
        s_sorted = tuple(x for x in universe if s_mask >> x & 1)
        s_sum = sum(s_sorted)
        lu, ln, l_forms = status(
            s_mask, s_sum, [t for t in universe if not s_mask >> t & 1], 1)
        for rk, ru, rn, t_mask, t_sum, t_sorted, r_forms in \
                t_by_residue[(2 * c - s_sum) % N]:
            if lu & rk or ru & ln:
                report.relations_skipped += 1
                continue
            both = ln & rn
            if not both:
                continue
            # every term has m_left + m_right = M, so the relation is
            # sum sgn C(M, m_left) row_left row_right / (N^M M!) eps^-M
            M = (s_sum + t_sum - 2 * c) // N
            total = [0] * (N * M + 1)
            for j, t in enumerate(t_sorted):
                if not both >> t & 1:
                    continue
                m_left, left = l_forms[t]
                right = r_forms[t][1]
                k = comb(M, m_left)
                if (j + (s_mask >> (t + 1)).bit_count()) % 2:
                    k = -k
                for i, a in enumerate(left):
                    if a:
                        ka = k * a
                        for e, b in enumerate(right, i):
                            total[e] += ka * b
            report.relations_checked += 1
            if any(total):
                denom = N ** M * factorial(M)
                violation = EpsLaurent({e - M: Q(a, denom)
                                        for e, a in enumerate(total)})
                report.violations.append(
                    (s_sorted, t_sorted, violation.to_json()))
    if not report.relations_checked:
        raise ValueError(f"the Pluecker window N = {N}, W = {W} holds no "
                         f"checkable relation")
    report.violations.sort(key=lambda v: v[:2])
    return report
