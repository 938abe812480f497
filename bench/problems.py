"""The lattice problems the workloads run, shared with make_reference.py."""

import itertools

# name: (time extent T, spatial extents, mass)
LATTICES = {
    "criterion4": (2, [4], 1.0),       # acceptance criterion 4, 16 sites
    "criterion1": (4, [8], 0.5),       # acceptance criterion 1, 64 sites
    "dense": (6, [12, 16], 0.5),       # N = 2304
}
COUPLING = 0.1
# Acceptance criterion 4's test functions. They are part of the problem, not
# of a run: the eig_error_bound of a Gram estimate depends on them, so they
# stay fixed while the Monte Carlo seeds follow --seed.
TEST_FUNCTION_SEED = 2024


def phi4_obj(time_extent, extents, coupling=COUPLING):
    """Config form of -coupling * sum over sites of field^4."""
    times = [t for t in range(-time_extent, time_extent + 1) if t != 0]
    terms = [
        {"coefficient": -coupling, "factors": [{"site": [t, *x], "power": 4}]}
        for t in times
        for x in itertools.product(*[range(L) for L in extents])
    ]
    return {"terms": terms, "constant": 0}
