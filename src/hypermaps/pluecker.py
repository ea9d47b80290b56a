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
    partition fits); violations are recorded, not raised."""
    if W < 4:
        raise ValueError(f"Pluecker window needs a weight cap >= 4, got {W}")
    L = W
    report = PlueckerReport(N, W)
    betas = [frozenset(beta_set(lam, L)) for lam in partitions_upto(W)]
    universe = sorted({x for b in betas for x in b}
                      | set(range(W + L)))

    _known = {}
    _missing = object()

    def known_value(bset):
        """A at the beta-set, or None when outside the window."""
        cached = _known.get(bset, _missing)
        if cached is not _missing:
            return cached
        lam = partition_of(bset)
        w = sum(lam)
        if w % N != 0:
            out = EpsLaurent()
        elif w > W:
            out = None
        else:
            out = coefficient_A(N, lam)
        _known[bset] = out
        return out

    s_candidates = set()
    for b in betas:
        for s in combinations(sorted(b), L - 1):
            s_candidates.add(frozenset(s))
    t_candidates = set()
    for b in betas:
        for extra in universe:
            if extra not in b:
                t_candidates.add(b | {extra})

    for S in s_candidates:
        for T in t_candidates:
            t_sorted = sorted(T, reverse=True)
            terms = []
            unknown = False
            for j, t in enumerate(t_sorted):
                if t in S:
                    continue
                left = S | {t}
                right = T - {t}
                a_left = known_value(left)
                a_right = known_value(right)
                if a_left is None or a_right is None:
                    # skip only when the term could actually contribute
                    if (a_left is None or a_left) and \
                       (a_right is None or a_right):
                        unknown = True
                        break
                    continue
                if not a_left or not a_right:
                    continue
                ins = sum(1 for s in S if s > t)
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
                    (tuple(sorted(S)), tuple(t_sorted), total.to_json()))
    return report
