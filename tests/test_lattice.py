import dataclasses
import itertools

import numpy as np
import pytest

from rplattice import (
    Covariance,
    Lattice,
    Term,
    build_lattice,
    embed_plus,
    phi4,
    positive_support,
    reflect,
    restrict_plus,
)


def test_two_site_lattice():
    lat = build_lattice(1, [])
    assert lat.site_count == 2
    assert lat.theta_perm.tolist() == [1, 0]
    assert lat.plus_sites.tolist() == [1]
    assert lat.minus_sites.tolist() == [0]


@pytest.mark.parametrize(
    "time_extent, extents, count", [(2, [3], 12), (2, [4], 16), (1, [], 2), (3, [2, 2], 24)]
)
def test_site_counts(time_extent, extents, count):
    lat = build_lattice(time_extent, extents)
    assert lat.site_count == count
    assert lat.n_plus == count // 2


def test_ordering_is_lexicographic():
    lat = build_lattice(2, [2])
    expected = [
        (-2, 0), (-2, 1), (-1, 0), (-1, 1), (1, 0), (1, 1), (2, 0), (2, 1),
    ]
    assert [tuple(c) for c in lat.coords.tolist()] == expected
    for i, c in enumerate(lat.coords.tolist()):
        assert lat.index_of(c) == i


@pytest.mark.parametrize("time_extent, extents", [(1, []), (2, [1]), (2, [2, 3]), (3, [4, 1, 2])])
def test_grid_arrays_match_coordinate_loop(time_extent, extents):
    lat = build_lattice(time_extent, extents)
    times = [*range(-time_extent, 0), *range(1, time_extent + 1)]
    coords = [(t, *x) for t in times for x in itertools.product(*map(range, extents))]
    lookup = {c: i for i, c in enumerate(coords)}
    assert lat.coords.dtype == np.int64 and lat.coords.flags.c_contiguous
    assert lat.coords.tolist() == [list(c) for c in coords]
    assert lat.theta_perm.tolist() == [lookup[(-c[0], *c[1:])] for c in coords]
    assert lat.plus_sites.tolist() == [i for i, c in enumerate(coords) if c[0] > 0]
    assert lat.minus_sites.tolist() == [i for i, c in enumerate(coords) if c[0] < 0]
    assert lat.half_of.tolist() == [(i - len(coords) // 2 if c[0] > 0 else -1) for i, c in enumerate(coords)]
    assert [lat.index_of(c) for c in coords] == list(range(len(coords)))


ARRAYS = ("coords", "theta_perm", "plus_sites", "minus_sites", "half_of")


def test_lattice_is_a_value_of_its_shape():
    lat = build_lattice(2, [4])
    assert [f.name for f in dataclasses.fields(Lattice)] == ["time_extent", "spatial_extents"]
    assert lat == build_lattice(2.0, (4,)) == Lattice(2, [4])
    assert hash(lat) == hash(build_lattice(2, [4]))
    assert lat != build_lattice(2, [3]) and lat != build_lattice(3, [4])
    assert len({lat, build_lattice(2, [4]), build_lattice(1, [])}) == 2
    assert lat.time_extent == 2 and lat.spatial_extents == (4,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        lat.theta_perm = np.arange(lat.site_count)
    for name in ARRAYS:
        array = getattr(lat, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5
    assert lat.theta_perm[0] == 12
    grown = dataclasses.replace(lat, time_extent=3)
    assert grown == build_lattice(3, [4])
    for name in ARRAYS:
        assert np.array_equal(getattr(grown, name), getattr(build_lattice(3, [4]), name))
    with pytest.raises(ValueError):
        dataclasses.replace(lat, spatial_extents=(4, 0))


@pytest.mark.parametrize("bad", [0, -1])
def test_rejects_nonpositive_time_extent(bad):
    with pytest.raises(ValueError):
        build_lattice(bad, [])


def test_rejects_nonpositive_spatial_extent():
    with pytest.raises(ValueError):
        build_lattice(2, [4, 0])


def test_theta_is_fixed_point_free_involution():
    lat = build_lattice(3, [4, 2])
    theta = lat.theta_perm
    assert np.array_equal(theta[theta], np.arange(lat.site_count))
    assert not np.any(theta == np.arange(lat.site_count))
    # positive half maps onto the negative half, bijectively
    assert sorted(theta[lat.plus_sites].tolist()) == sorted(lat.minus_sites.tolist())


def test_reflect_swaps_two_site_vector():
    lat = build_lattice(1, [])
    assert reflect(lat, [3.0, 5.0]).tolist() == [5.0, 3.0]
    assert reflect(lat, [0.0, 0.0]).tolist() == [0.0, 0.0]


def test_reflect_is_bit_exact_involution():
    lat = build_lattice(4, [3])
    rng = np.random.default_rng(101)
    for _ in range(20):
        v = rng.standard_normal(lat.site_count)
        assert np.array_equal(reflect(lat, reflect(lat, v)), v)


def test_reflect_rejects_wrong_length():
    lat = build_lattice(1, [])
    with pytest.raises(ValueError):
        reflect(lat, [1.0, 2.0, 3.0])


def test_restrict_plus_reads_positive_half():
    lat = build_lattice(1, [])
    assert restrict_plus(lat, [7.0, 9.0]).tolist() == [9.0]

    lat = build_lattice(2, [3])
    rng = np.random.default_rng(5)
    v = rng.standard_normal(lat.site_count)
    # the positive half of the reflected vector is the negative half read through theta
    got = restrict_plus(lat, reflect(lat, v))
    want = v[lat.theta_perm[lat.plus_sites]]
    assert np.array_equal(got, want)


def test_embed_then_restrict_is_identity():
    lat = build_lattice(3, [2])
    rng = np.random.default_rng(6)
    h = rng.standard_normal(lat.n_plus)
    assert np.array_equal(restrict_plus(lat, embed_plus(lat, h)), h)


def test_positive_support_is_exact_zero():
    lat = build_lattice(1, [])
    assert positive_support(lat, [0.0, 1.0])
    assert not positive_support(lat, [1e-300, 1.0])
    assert positive_support(lat, [0.0, 0.0])


def test_positive_support_of_reflection():
    lat = build_lattice(2, [2])
    rng = np.random.default_rng(7)
    v = embed_plus(lat, rng.standard_normal(lat.n_plus))
    assert positive_support(lat, v)
    assert not positive_support(lat, reflect(lat, v))
    assert positive_support(lat, reflect(lat, np.zeros(lat.site_count)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Term(-0.1, ((-1, 4),)), "negative site index"),
        (lambda: Covariance(np.eye(3)[:2]), "covariance must be square"),
        (lambda: embed_plus(build_lattice(2, [4]), np.zeros(7)), "half vector has shape"),
        # a config gives its density as terms, so phi4's coupling comes only through the library
        (lambda: phi4(build_lattice(1, []), True), "coupling must be a number"),
        (lambda: phi4(build_lattice(1, []), "0.1"), "coupling must be a number"),
        (lambda: phi4(build_lattice(1, []), float("nan")), "coupling must be positive and finite"),
        (lambda: phi4(build_lattice(1, []), float("inf")), "coupling must be positive and finite"),
    ],
    ids=[
        "term-negative-site",
        "covariance-not-square",
        "embed_plus-wrong-shape",
        "phi4-bool-coupling",
        "phi4-string-coupling",
        "phi4-nan-coupling",
        "phi4-inf-coupling",
    ],
)
def test_inputs_only_the_library_api_can_pass_are_rejected(build, message):
    # a config names sites by coordinates, a matrix file is checked against the lattice's site
    # count first, and test functions are full-lattice vectors: these checks are reached only
    # through the library
    with pytest.raises(ValueError, match=message):
        build()
