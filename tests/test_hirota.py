"""The first KP equation on F = log Z (`hirota`), from the counts of the
tau engine, of Tutte's equation at N = 2 and of the oracle.  None of it
enters the crosscheck report."""
import pytest

from closed_forms import tutte_rhm
from hirota import kp1_defects
from hypermaps import oracle, tau

W = 12
# per N: the monomials of weight <= W with a nonzero term, and those
# at which 5 F_11^2 in place of 6 F_11^2 leaves a defect
MONOMIALS = {2: (34, 27), 3: (30, 21)}


@pytest.fixture(scope="module", params=[2, 3])
def tau_counts(request):
    N = request.param
    tz = tau.tau_Z(N, W)
    return N, lambda g, degrees: tau.rhm_from_tau(tz, g, degrees)


def test_tau_counts_satisfy_kp1(tau_counts):
    """Every monomial of weight <= 12 at N = 2 and 3."""
    N, count = tau_counts
    assert kp1_defects(N, W, count) == (MONOMIALS[N][0], [])


def test_a_wrong_coefficient_fails(tau_counts):
    """With 6 F_11^2 read as 5 F_11^2 the check fails: it reads the
    quadratic term, not only the linear ones."""
    N, count = tau_counts
    checked, defects = kp1_defects(N, W, count, coefficients=(1, 5, 3, -4))
    assert (checked, len({nu for nu, _, _ in defects})) == MONOMIALS[N]


def test_tutte_counts_satisfy_kp1():
    """Tutte's equation at N = 2, no code of the engines: every monomial
    whose terms have at most 16 darts and 8 faces."""
    assert kp1_defects(2, 16, tutte_rhm, max_faces=8) == (88, [])


def test_oracle_counts_satisfy_kp1():
    """The oracle at N = 3 within its default cap of 12 darts, where it
    reaches terms with 12 faces."""
    def count(g, degrees):
        return oracle.genus_table(3, degrees).get(g, 0)
    assert oracle.DEFAULT_DART_CAP == W
    assert kp1_defects(3, W, count) == (30, [])
