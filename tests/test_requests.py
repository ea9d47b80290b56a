"""Every count entry point rejects an invalid request with ValueError:
N < 2, g < 0, no degrees or a degree of 0 (oracle.Profile's rule)."""
from functools import partial

import pytest

from hypermaps import oracle, tau
from hypermaps.recursion import Recursion, rhm01_from_curve, rhm02_from_curve

REC = Recursion(2, 0, 3)
TZ = tau.tau_Z(2, 6)


def enumerate_rhm(N, g, degrees):
    return oracle.enumerate_rhm(oracle.Profile(N, g, degrees))


def rhm_from_tr(N, g, degrees):
    return Recursion(N, 0, 3).rhm_from_tr(g, degrees)


def rhm_from_tau(N, g, degrees):
    return tau.rhm_from_tau(tau.tau_Z(N, 6), g, degrees)


def osmh_from_tau(N, g, degrees):
    return tau.osmh_from_tau(tau.tau_Z(N, 6), g, degrees)


CASES = [
    ("genus_table-N1", oracle.genus_table, (1, (2,))),
    ("genus_table-empty", oracle.genus_table, (2, ())),
    ("genus_table-degree0", oracle.genus_table, (2, (0, 2))),
    ("enumerate_rhm-N1", enumerate_rhm, (1, 0, (2,))),
    ("enumerate_rhm-g-1", enumerate_rhm, (2, -1, (2,))),
    ("enumerate_rhm-empty", enumerate_rhm, (2, 0, ())),
    ("enumerate_rhm-degree0", enumerate_rhm, (2, 0, (0, 2))),
    # k is the degree minus one
    ("rhm01_closed-N1", oracle.rhm01_closed, (1, 0)),
    ("rhm01_closed-N0", oracle.rhm01_closed, (0, 3)),
    ("rhm01_closed-degree0", oracle.rhm01_closed, (2, -1)),
    ("rhm01_from_curve-N1", rhm01_from_curve, (1, 0)),
    ("rhm01_from_curve-degree0", rhm01_from_curve, (2, -1)),
    ("rhm02_from_curve-N1", rhm02_from_curve, (1, 0, 0)),
    ("rhm02_from_curve-degree0", rhm02_from_curve, (2, 1, -1)),
    # N < 2 is rejected where the Recursion or the truncation is built
    ("rhm_from_tr-N1", rhm_from_tr, (1, 0, (2, 1, 1))),
    ("rhm_from_tr-g-1", REC.rhm_from_tr, (-1, (2,))),
    ("rhm_from_tr-empty", REC.rhm_from_tr, (0, ())),
    ("rhm_from_tr-degree0", REC.rhm_from_tr, (0, (0, 1, 1))),
    ("rhm_from_tau-N1", rhm_from_tau, (1, 0, (2,))),
    ("rhm_from_tau-g-1", partial(tau.rhm_from_tau, TZ), (-1, (2,))),
    ("rhm_from_tau-empty", partial(tau.rhm_from_tau, TZ), (0, ())),
    ("rhm_from_tau-degree0", partial(tau.rhm_from_tau, TZ), (0, (0, 2))),
    ("osmh_from_tau-N1", osmh_from_tau, (1, 0, (2,))),
    ("osmh_from_tau-g-1", partial(tau.osmh_from_tau, TZ), (-1, (2,))),
    ("osmh_from_tau-empty", partial(tau.osmh_from_tau, TZ), (0, ())),
    ("osmh_from_tau-degree0", partial(tau.osmh_from_tau, TZ), (0, (0, 2))),
]


@pytest.mark.parametrize("fn, args",
                         [pytest.param(fn, args, id=name)
                          for name, fn, args in CASES])
def test_invalid_request_raises(fn, args):
    with pytest.raises(ValueError, match="^need "):
        fn(*args)
