"""What each workload asks of the package, and the seeded query stream.

Nothing here imports the package under test, so the generator can be
tested on its own.
"""
from __future__ import annotations

import random

# crosscheck_cold: the CLI's headline job, one fresh interpreter and one
# fresh empty tensor cache per request.  The grid is the largest that keeps
# one request near 30 s on two cores: N = 3 alone costs about 25 s of
# correlator construction, which g_max = 1, n_max = 1 keeps.
CROSSCHECK_ARGS = ("crosscheck", "--N", "2,3", "--g-max", "1", "--n-max",
                   "1", "--out", "json")
CROSSCHECK_THREADS = 2

# rhm_stream: one long-lived server answering count queries on this grid
STREAM_GRID = ((2, 10), (3, 9))     # (N, weight cap)
STREAM_G_MAX = 1
STREAM_N_MAX = 3
ORACLE_MAX_DARTS = 10
# copies of each grid point per engine in one round of the stream; with
# this mix the median query is a tr query and the 99th percentile an
# oracle one, each well inside its engine's latency class
ENGINE_WEIGHTS = (("tr", 6), ("tau", 3), ("oracle", 1))

# tau_deep: characters, tau and eps-series arithmetic, nothing of the
# number field or the recursion
TAU_N = 2
TAU_W = 12
TAU_G_MAX = 3
TAU_N_MAX = 4
PLUECKER_N = 2
PLUECKER_W = 9
# requests per run even when the machine is slow, so that every run's
# p50_ms is a median of three and its p99_ms the slowest of three
TAU_MIN_REQUESTS = 3

# cold starts measured per run for setup_s
SETUP_PROBES = 11


def point_key(N, g, degrees):
    return f"{N}:{g}:{','.join(map(str, degrees))}"


def query_deck(points):
    """One round of the stream: every (N, g, degrees) point once per unit
    of its engines' weights; oracle only up to ORACLE_MAX_DARTS darts."""
    deck = []
    for N, g, degrees in points:
        for engine, weight in ENGINE_WEIGHTS:
            if engine == "oracle" and sum(degrees) > ORACLE_MAX_DARTS:
                continue
            deck.extend([(N, g, tuple(degrees), engine)] * weight)
    return deck


def query_stream(points, seed):
    """Endless queries (N, g, degrees, engine): round after round of the
    deck, each round in an order drawn from the seed.  Whole rounds keep
    the engine mix, and so the latency percentiles, the same across seeds."""
    rng = random.Random(seed)
    deck = query_deck(sorted(points))
    while True:
        order = list(deck)
        rng.shuffle(order)
        yield from order
