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

We enumerate S as (L-1)-subsets of beta-sets of window partitions and T
as a window beta-set plus one extra universe element; relations that
would involve a coefficient of weight above the window (other than the
weights killed by the divisibility constraint, which vanish at every
weight) are skipped as unknowable rather than assumed.

Sets are carried as bitmasks with their sums.  An L-set B has weight
sum(B) - L(L-1)/2, so every pair is screened by divisibility and every
term by weight in integer arithmetic, and a coefficient is looked up only
for a side that lies in the window.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .partitions import partitions_upto
from .series import EpsLaurent
from .tau import coefficient_A


def beta_set(lam, L: int):
    """Beta-numbers of lam padded to L rows, as a sorted-descending tuple."""
    lam = tuple(lam)
    if len(lam) > L:
        raise ValueError(f"{lam} has more than {L} rows")
    padded = list(lam) + [0] * (L - len(lam))
    return tuple(padded[i] + (L - 1 - i) for i in range(L))


def partition_of(beta):
    """Partition recovered from a beta-number set."""
    b = sorted(beta, reverse=True)
    L = len(b)
    lam = tuple(b[i] - (L - 1 - i) for i in range(L))
    if any(p < 0 for p in lam) or any(
            lam[i] < lam[i + 1] for i in range(L - 1)):
        raise ValueError(f"{tuple(beta)} is not a set of beta-numbers")
    return tuple(p for p in lam if p > 0)


def _mask(beta) -> int:
    """The set of nonnegative integers beta as the set bits of an int."""
    return sum(1 << b for b in beta)


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
    partition fits); violations are recorded, not raised.

    With c = L(L-1)/2 the two sides of the term of t weigh
    sum(S) + t - c and sum(T) - t - c.  Unless N divides
    sum(S) + sum(T) - 2c no term survives the divisibility constraint,
    so such pairs are never visited; a side of weight > W is unknown.
    """
    if W < 4:
        raise ValueError(f"Pluecker window needs a weight cap >= 4, got {W}")
    L = W
    c = L * (L - 1) // 2
    report = PlueckerReport(N, W)
    betas = [frozenset(beta_set(lam, L)) for lam in partitions_upto(W)]
    universe = sorted({x for b in betas for x in b}
                      | set(range(W + L)))

    known = {}

    def value(mask):
        """A at the L-set whose elements are the set bits of mask."""
        a = known.get(mask)
        if a is None:
            bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
            a = known[mask] = coefficient_A(N, partition_of(bits))
        return a

    s_candidates = set()
    for b in betas:
        for s in combinations(sorted(b), L - 1):
            s_candidates.add(frozenset(s))
    t_candidates = set()
    for b in betas:
        for extra in universe:
            if extra not in b:
                t_candidates.add(b | {extra})
    # T grouped by sum(T) mod N, each group in set order, so that every
    # S meets its T in the same order as a scan of all pairs
    t_by_residue = [[] for _ in range(N)]
    for T in t_candidates:
        t_sorted = tuple(sorted(T, reverse=True))
        t_by_residue[sum(T) % N].append((_mask(T), sum(T), t_sorted))

    for S in s_candidates:
        s_mask, s_sum = _mask(S), sum(S)
        for t_mask, t_sum, t_sorted in t_by_residue[(2 * c - s_sum) % N]:
            terms = []
            unknown = False
            for j, t in enumerate(t_sorted):
                if s_mask >> t & 1:
                    continue
                w_left = s_sum + t - c
                if w_left % N:
                    continue
                w_right = t_sum - t - c
                a_left = value(s_mask | 1 << t) if w_left <= W else None
                a_right = value(t_mask ^ 1 << t) if w_right <= W else None
                if a_left is None or a_right is None:
                    # skip only when the term could actually contribute
                    if (a_left is None or a_left) and \
                       (a_right is None or a_right):
                        unknown = True
                        break
                    continue
                if not a_left or not a_right:
                    continue
                ins = (s_mask >> (t + 1)).bit_count()
                sgn = -1 if (j + ins) % 2 else 1
                terms.append((sgn, a_left, a_right))
            if unknown:
                report.relations_skipped += 1
                continue
            if not terms:
                continue
            total = EpsLaurent()
            for sgn, a, b in terms:
                prod = a * b
                total = total + (prod if sgn > 0 else -prod)
            report.relations_checked += 1
            if total:
                report.violations.append(
                    (tuple(sorted(S)), t_sorted, total.to_json()))
    return report
