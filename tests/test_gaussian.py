import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from rplattice import (
    Covariance,
    McParams,
    build_lattice,
    char_fn,
    check_gaussian_rp,
    check_theta_invariance,
    cross_block,
    decompose_pq,
    embed_plus,
    free_field_covariance,
    gaussian_polynomial_gram,
    gram_exact_gaussian,
    gram_mc_direct,
    phi4,
    random_test_functions,
    reflect,
    sample,
    theta_inner,
    tilted_gaussian,
    verify_convolution_identity,
)
from rplattice import cli, gaussian, rp_verify
from rplattice.density import Potential, PolynomialTable, Term, add_potentials, eval_potential_batch
from rplattice.gaussian import covariance_factor, iter_sample_chunks, symmetrized
from rplattice.streams import NS_FIELD, chunk_counts, substream
from wick_reference import product, wick_polynomial_gram


def two_site_cov(c):
    return Covariance(np.array([[1.0, c], [c, 1.0]]))


def _laplacian_plus_mass(lattice, mass):
    """-laplacian + mass^2, assembled link by link on the site grid.

    Each diagonal entry is mass^2 followed by one +1.0 per link end, added
    left to right; adding mass^2 + degree in one step can differ in the last ulp.
    The dense N x N reference the free field is compared against;
    free_field_covariance never forms it, and applies the operator to its
    column table as a stencil instead.
    """
    n = lattice.site_count
    op = np.zeros((n, n))
    np.fill_diagonal(op, mass * mass)
    grid = np.arange(n).reshape(lattice.shape)
    links = [(grid[:-1], grid[1:])]  # the crossing link included, open ends
    for axis, extent in enumerate(lattice.spatial_extents, start=1):
        if extent > 1:  # extent 1 closes on itself; extent 2 links the pair twice
            links.append((grid, np.roll(grid, -1, axis)))
    for a, b in links:
        for i, j in ((a.ravel(), b.ravel()), (b.ravel(), a.ravel())):
            op[i, i] += 1.0
            op[i, j] -= 1.0
    return op


def test_free_field_two_site_hand_inverse():
    lat = build_lattice(1, [])
    cov = free_field_covariance(lat, 1.0)
    want = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
    assert np.abs(cov.matrix - want).max() <= 1e-12


def test_free_field_is_exactly_reflection_invariant():
    for lat in (build_lattice(1, []), build_lattice(4, [8]), build_lattice(2, [4, 4])):
        cov = free_field_covariance(lat, 0.5)
        report = check_theta_invariance(cov, lat, tol=1e-12)
        assert report.passed
        assert report.deviation == 0.0


def test_free_field_heavy_mass_limit():
    lat = build_lattice(2, [3])
    cov = free_field_covariance(lat, 100.0)
    dev = np.abs(cov.matrix - np.eye(lat.site_count) / 100.0**2).max()
    assert dev <= 1e-6


# -laplacian by hand, diagonal = degree. Sites in (t, x) order, t = -T..-1, 1..T.
PATH_2 = [[1, -1], [-1, 1]]
PATH_4 = [[1, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 1]]
# T=1, L=[2]: each spatial pair is linked in both ring directions
RING_2 = [[3, -2, -1, 0], [-2, 3, 0, -1], [-1, 0, 3, -2], [0, -1, -2, 3]]
# T=1, L=[3, 2]: time partner -1, ring of 3 gives two -1 neighbours, extent 2 gives -2
GRID_3x2 = [
    [5, -2, -1, 0, -1, 0, -1, 0, 0, 0, 0, 0],
    [-2, 5, 0, -1, 0, -1, 0, -1, 0, 0, 0, 0],
    [-1, 0, 5, -2, -1, 0, 0, 0, -1, 0, 0, 0],
    [0, -1, -2, 5, 0, -1, 0, 0, 0, -1, 0, 0],
    [-1, 0, -1, 0, 5, -2, 0, 0, 0, 0, -1, 0],
    [0, -1, 0, -1, -2, 5, 0, 0, 0, 0, 0, -1],
    [-1, 0, 0, 0, 0, 0, 5, -2, -1, 0, -1, 0],
    [0, -1, 0, 0, 0, 0, -2, 5, 0, -1, 0, -1],
    [0, 0, -1, 0, 0, 0, -1, 0, 5, -2, -1, 0],
    [0, 0, 0, -1, 0, 0, 0, -1, -2, 5, 0, -1],
    [0, 0, 0, 0, -1, 0, -1, 0, -1, 0, 5, -2],
    [0, 0, 0, 0, 0, -1, 0, -1, 0, -1, -2, 5],
]


@pytest.mark.parametrize(
    "time_extent, extents, mass, laplacian",
    [
        (1, [], 1.0, PATH_2),
        (1, [1], 1.0, PATH_2),
        (1, [2], 1.0, RING_2),
        (1, [3, 2], 1.0, GRID_3x2),
        (1, [3, 2], 0.1, GRID_3x2),
        # 0.7**2 + 1.0 + 1.0 != 0.7**2 + 2.0 in binary64: this case tells the two sums apart
        (2, [], 0.7, PATH_4),
    ],
    ids=["two-site-path", "extent-1-no-self-link", "extent-2-double-link", "multi-axis",
         "multi-axis-mass-0.1", "path-mass-0.7"],
)
def test_laplacian_plus_mass_is_exact(time_extent, extents, mass, laplacian):
    want = np.array(laplacian, dtype=np.float64)
    for i, degree in enumerate(np.diag(laplacian)):
        want[i, i] = mass * mass
        for _ in range(degree):
            want[i, i] += 1.0
    op = _laplacian_plus_mass(build_lattice(time_extent, extents), mass)
    assert op.shape == want.shape
    assert (op == want).all()


@pytest.mark.parametrize(
    "time_extent, extents, mass",
    [(2, [3], 1e-200), (2, [3], 1e-9), (3, [4], 1e-9), (4, [8, 16], 1e-9)],
)
def test_free_field_rejects_a_mass_lost_from_the_operator(time_extent, extents, mass):
    # mass^2 underflows, or vanishes beside every site degree: -laplacian + mass^2 is singular
    # as stored, and inv raises or returns entries near 1e15 (Cholesky succeeds on some shapes)
    with pytest.raises(ValueError, match=f"mass {mass} is too small"):
        free_field_covariance(build_lattice(time_extent, extents), mass)


def test_free_field_accepts_a_mass_kept_by_the_operator():
    # at mass 1.1e-8 the table leaves ||I - (-laplacian + mass^2) C||_inf = 1.0, so C does not
    # invert the operator; at 2e-8 the residual is 0.0099
    lat = build_lattice(1, [])
    with pytest.raises(ValueError, match="mass 1.1e-08 is too small"):
        free_field_covariance(lat, 1.1e-8)
    cov = free_field_covariance(lat, 2e-8)
    assert np.isfinite(cov.matrix).all() and np.isfinite(cov.factor).all()


@pytest.mark.parametrize(
    "time_extent, extents",
    [(1, []), (3, []), (1, [2]), (2, [3]), (2, [3, 4]), (1, [1, 5]), (2, [4]), (2, [5]), (4, [8])],
)
def test_small_mass_gate_returns_only_fields_that_pass(time_extent, extents):
    # every field the gate lets through must pass the exact checks; the sweep holds masses whose
    # tables miss the inverse (2e-8 on T=2, L=[4]; 1.2e-8 on T=3; 1.53e-8 on T=1) and one that a
    # model of the assembled operator refused though its table inverts it (1.548e-8 on T=2, L=[3])
    lat = build_lattice(time_extent, extents)
    for mass in [*np.geomspace(1e-8, 1e-6, 40), 1.2e-8, 1.53e-8, 1.548e-8, 2e-8]:
        try:
            cov = free_field_covariance(lat, mass)
        except ValueError as exc:
            assert f"mass {mass} is too small" in str(exc)
            assert mass < 1e-6, "the top of the sweep is refused"
            continue
        assert check_theta_invariance(cov, lat).passed, mass
        assert check_gaussian_rp(cov, lat).passed, mass
        assert decompose_pq(cov, lat).both_psd, mass


def test_free_field_rejects_nonpositive_mass():
    lat = build_lattice(1, [])
    for mass in (0.0, -1.0, float("nan"), float("inf"), 1e200):
        with pytest.raises(ValueError, match="mass must be positive with a finite square"):
            free_field_covariance(lat, mass)


def test_covariance_requires_exact_symmetry_and_psd():
    with pytest.raises(ValueError):
        Covariance(np.array([[1.0, 0.1], [0.2, 1.0]]))
    with pytest.raises(ValueError, match="covariance is not positive semidefinite"):
        Covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1


def test_char_fn_values():
    lat = build_lattice(1, [])
    cov = two_site_cov(0.3)
    assert char_fn(cov, [0.0, 0.0]) == 1.0
    assert char_fn(cov, [0.0, 1.0]) == pytest.approx(math.exp(-0.5), abs=1e-15)
    half = two_site_cov(0.5)
    assert char_fn(half, [1.0, -1.0]) == pytest.approx(math.exp(-0.5), abs=1e-15)
    with pytest.raises(ValueError):
        char_fn(cov, [1.0])
    del lat


def test_theta_invariance_verdicts():
    lat = build_lattice(1, [])
    assert check_theta_invariance(Covariance(np.eye(2)), lat, tol=0.0).passed
    for c in (-0.7, 0.0, 0.3, 0.99):
        assert check_theta_invariance(two_site_cov(c), lat).passed
    report = check_theta_invariance(Covariance(np.diag([2.0, 1.0])), lat)
    assert not report.passed
    assert report.deviation == 1.0


@pytest.mark.parametrize(
    "time_extent, extents",
    [(1, []), (3, []), (2, [1]), (2, [2]), (2, [3]), (1, [2, 3]), (2, [3, 2])],
)
def test_theta_conjugation_as_a_view_equals_the_gather(time_extent, extents):
    lat = build_lattice(time_extent, extents)
    theta, n = lat.theta_perm, lat.site_count
    x = np.random.default_rng(7).standard_normal((n, n))
    m = symmetrized(x @ x.T)  # PSD and, unlike a free field, not reflection invariant
    deviation = float(np.abs(m[np.ix_(theta, theta)] - m).max())
    cov = Covariance(m)
    assert check_theta_invariance(cov, lat).deviation == deviation
    # the blocks the dense path reads through its table view, against np.ix_ gathers
    plus = lat.plus_sites
    a, b = m[np.ix_(plus, plus)], m[np.ix_(plus, theta[plus])]
    got = cross_block(cov, lat, warn=False)
    assert np.array_equal(got, b) and got.flags.writeable and not np.shares_memory(got, cov.matrix)
    pq = decompose_pq(cov, lat)
    assert np.array_equal(pq.a_block, m[lat.n_plus:, lat.n_plus:]) and np.array_equal(pq.a_block, a)
    assert np.shares_memory(pq.a_block, cov.matrix) and not pq.a_block.flags.writeable
    assert np.array_equal(pq.c_p, a - b) and np.array_equal(pq.c_q, a - (a - b))
    assert check_gaussian_rp(cov, lat).min_eigenvalue == np.linalg.eigvalsh(symmetrized(b)).min()


def _apply_operator_by_stencil(lat, mass, x):
    """(-laplacian + mass^2) @ x, with the operator applied to the rows of x as a grid stencil."""
    grid = x.reshape(*lat.shape, -1)
    y = mass * mass * grid
    y[1:] += grid[1:] - grid[:-1]
    y[:-1] += grid[:-1] - grid[1:]
    for axis, extent in enumerate(lat.spatial_extents, start=1):
        if extent > 1:
            y += 2.0 * grid - np.roll(grid, 1, axis) - np.roll(grid, -1, axis)
    return y.reshape(x.shape)


# entrywise |C - inv(K)| / |inv(K)|; the largest seen is 3.7e-14, at mass 0.1 on T=1, L=[2, 3]
ORACLE_REL_TOL = 1e-13


@pytest.mark.parametrize("mass", [0.1, 0.5, 1.3])
@pytest.mark.parametrize(
    "time_extent, extents",
    [(1, []), (3, []), (2, [1]), (2, [2]), (2, [3]), (1, [2, 3]), (2, [3, 2]), (3, [1, 4])],
    ids=["time-T1", "time-T3", "extent-1", "extent-2-double-link", "extent-3", "multi-axis",
         "multi-axis-T2", "extent-1-and-4"],
)
def test_free_field_matches_the_dense_inverse(time_extent, extents, mass):
    lat = build_lattice(time_extent, extents)
    c = free_field_covariance(lat, mass).matrix
    ref = np.linalg.inv(_laplacian_plus_mass(lat, mass))
    assert (np.abs(c - ref) <= ORACLE_REL_TOL * np.abs(ref)).all()
    assert np.array_equal(c, c.T)
    theta = lat.theta_perm
    assert np.abs(c[np.ix_(theta, theta)] - c).max() == 0.0
    assert check_theta_invariance(Covariance(c), lat).deviation == 0.0
    # a unit step along any spatial axis, applied to both sites, leaves every entry as it is
    blocks = c.reshape(*lat.shape, *lat.shape)
    for axis in range(1, len(lat.shape)):
        shifted = np.roll(np.roll(blocks, 1, axis), 1, len(lat.shape) + axis)
        assert np.array_equal(shifted, blocks)


def test_free_field_residual_is_within_the_benchmark_bound():
    # ||(-laplacian + m^2) C - I||_F / m^2 bounds the cross-block eigenvalue error (Weyl)
    lat, mass = build_lattice(6, [12, 16]), 0.5
    c = free_field_covariance(lat, mass).matrix
    total = 0.0
    for j0 in range(0, c.shape[1], 256):
        r = _apply_operator_by_stencil(lat, mass, c[:, j0:j0 + 256])
        r[np.arange(j0, j0 + r.shape[1]), np.arange(r.shape[1])] -= 1.0
        total += float(np.einsum("ij,ij->", r, r))
    # the dense inverse reads 6.0e-14 here; without the refinement step this reads 5.7e-14
    assert math.sqrt(total) / mass**2 <= 3.0e-14


# |momentum - dense| of a PsdReport's min_eigenvalue and threshold, relative to max(1, max |eigenvalue|)
MOMENTUM_FLOOR_TOL = 1e-14


def _assert_momentum_path_matches_dense(cov, lat):
    """Every exact check of a table-backed covariance against its explicit twin on the dense path."""
    assert gaussian._columns_on(cov, lat) is not None
    twin = Covariance(cov.matrix, cov.psd_tolerance)
    assert twin.columns is None
    assert check_theta_invariance(cov, lat) == check_theta_invariance(twin, lat)
    rp, rp_dense = check_gaussian_rp(cov, lat), check_gaussian_rp(twin, lat)
    assert rp.invariance == rp_dense.invariance
    assert (rp.passed, rp.failure_kind) == (rp_dense.passed, rp_dense.failure_kind)
    pq, pq_dense = decompose_pq(cov, lat), decompose_pq(twin, lat)
    for name in ("c_p", "c_q", "a_block"):
        assert np.array_equal(getattr(pq, name), getattr(pq_dense, name)), name
    # the table path expands a_block from the A table, whose entries are C's
    a_table = gaussian._half_columns(cov.columns)[0]
    assert np.array_equal(pq.a_block, gaussian._translates(a_table)) and not pq.a_block.flags.writeable
    assert np.array_equal(cross_block(cov, lat, warn=False), cross_block(twin, lat, warn=False))
    for got, want in ((rp, rp_dense), (pq.report_p, pq_dense.report_p), (pq.report_q, pq_dense.report_q)):
        assert got.passed == want.passed and got.tol == want.tol
        bound = MOMENTUM_FLOOR_TOL * want.threshold / -want.tol  # threshold = -tol * max(1, max |eig|)
        assert abs(got.min_eigenvalue - want.min_eigenvalue) <= bound
        assert abs(got.threshold - want.threshold) <= bound
    return rp


FREE_FIELD_LATTICES = [(1, []), (3, []), (2, [1]), (2, [2]), (2, [3]), (1, [2, 3]), (2, [3, 2]), (3, [1, 4])]
FREE_FIELD_IDS = ["time-T1", "time-T3", "extent-1", "extent-2-double-link", "extent-3", "multi-axis",
                  "multi-axis-T2", "extent-1-and-4"]


@pytest.mark.parametrize("mass", [0.1, 0.5, 1.3])
@pytest.mark.parametrize("time_extent, extents", FREE_FIELD_LATTICES, ids=FREE_FIELD_IDS)
def test_free_field_decided_per_momentum_matches_the_dense_decision(time_extent, extents, mass):
    lat = build_lattice(time_extent, extents)
    rp = _assert_momentum_path_matches_dense(free_field_covariance(lat, mass), lat)
    assert rp.passed


def _table_covariance(lat, mass, edit):
    """A free field's column table and momentum roots, edited in place by edit(cols, roots), as a Covariance."""
    free = free_field_covariance(lat, mass)
    cols, roots = free.columns.copy(), free.momentum_roots.copy()
    edit(cols, roots)
    return Covariance.from_columns(cols, roots)


@pytest.mark.parametrize("time_extent, extents", [(1, []), (2, [3]), (2, [3, 2])])
def test_negated_cross_entries_fail_on_both_paths(time_extent, extents):
    # conjugating C by -1 on the negative-time half keeps it PSD and negates B
    lat = build_lattice(time_extent, extents)
    half = time_extent

    def negate_cross_entries(cols, roots):
        cols[..., :half, half:] *= -1.0
        cols[..., half:, :half] *= -1.0
        roots[..., :half, :] *= -1.0  # D R_k with D = -1 on negative times: (D R_k)(D R_k)^T = D K_k^-1 D

    cov = _table_covariance(lat, 0.5, negate_cross_entries)
    assert np.abs(cov.factor @ cov.factor.T - cov.matrix).max() <= 1e-14
    rp = _assert_momentum_path_matches_dense(cov, lat)
    assert rp.failure_kind == "cross-block-not-psd"


@pytest.mark.parametrize("time_extent, extents", [(2, []), (2, [3]), (2, [3, 2])])
def test_one_perturbed_entry_fails_invariance_on_both_paths(time_extent, extents):
    lat = build_lattice(time_extent, extents)
    t, s, origin = time_extent, time_extent - 2, (0,) * max(len(extents), 1)

    def perturb_one_entry(cols, roots):
        # B[d=0, i=0, j=1], and C's transpose entry with it: B is then no longer symmetric
        for index in (origin + (t, s), origin + (s, t)):
            cols[index] *= 1.0 + 1e-6

    cov = _table_covariance(lat, 0.5, perturb_one_entry)
    rp = _assert_momentum_path_matches_dense(cov, lat)
    assert rp.failure_kind == "not-theta-invariant"
    assert rp.invariance.deviation == check_theta_invariance(Covariance(cov.matrix), lat).deviation > 0.0


def test_a_free_field_on_another_lattice_of_the_same_size_takes_the_dense_path():
    cov = free_field_covariance(build_lattice(2, [6]), 0.5)
    other = build_lattice(3, [4])
    assert cov.dim == other.site_count and gaussian._columns_on(cov, other) is None
    twin = Covariance(cov.matrix)
    assert check_gaussian_rp(cov, other) == check_gaussian_rp(twin, other)
    assert decompose_pq(cov, other) == decompose_pq(twin, other)


@pytest.mark.parametrize("check", [check_theta_invariance, cross_block, check_gaussian_rp, decompose_pq])
@pytest.mark.parametrize("layout", ["column-table", "dense"])
def test_a_covariance_of_another_size_is_one_clear_error(check, layout):
    free = free_field_covariance(build_lattice(2, [5]), 0.5)
    cov = free if layout == "column-table" else Covariance(free.matrix)
    with pytest.raises(ValueError, match=r"^covariance is 20x20, lattice has 16 sites$"):
        check(cov, build_lattice(2, [4]))


def test_column_table_is_checked_held_read_only_and_not_part_of_the_value():
    lat = build_lattice(2, [3])
    cov = free_field_covariance(lat, 0.9)
    assert "columns" not in repr(cov) and "matrix" not in vars(cov)
    assert cov.columns.shape == (3, 4, 4) and not cov.columns.flags.writeable
    assert not cov.matrix.flags.writeable and not cov.factor.flags.writeable
    assert cov == Covariance(cov.matrix) and dataclasses.replace(cov).columns is None
    given = cov.columns.copy()
    roots = np.zeros_like(given)
    held = Covariance.from_columns(given, roots)
    given[0, 0, 0] = 5.0
    assert held == cov and held.columns[0, 0, 0] == cov.columns[0, 0, 0]
    skewed = cov.columns.copy()
    skewed[1, 0, 1] += 1e-3  # its transpose partner is skewed[-1, 1, 0] = skewed[2, 1, 0]
    with pytest.raises(ValueError, match="exactly symmetric"):
        Covariance.from_columns(skewed, roots)
    for bad in (np.nan, np.inf):
        off = roots.copy()
        off[0, 1, 1] = bad
        with pytest.raises(ValueError, match="root must be finite"):
            Covariance.from_columns(cov.columns, off)
    with pytest.raises(ValueError, match="root table must have"):
        Covariance.from_columns(cov.columns, roots[:, :3, :3])
    with pytest.raises(ValueError, match="column table must have"):
        Covariance.from_columns(cov.columns[0], roots[0])


def test_cross_block_reads_reflected_column():
    lat = build_lattice(1, [])
    assert cross_block(two_site_cov(0.5), lat).tolist() == [[0.5]]
    # identity covariance: no site is its own reflection, so the block vanishes
    lat2 = build_lattice(2, [3])
    b = cross_block(Covariance(np.eye(lat2.site_count)), lat2)
    assert np.all(b == 0.0)


def test_cross_block_warns_without_invariance():
    lat = build_lattice(1, [])
    with pytest.warns(RuntimeWarning):
        cross_block(Covariance(np.diag([2.0, 1.0])), lat)


def test_cross_block_matches_quadratic_form():
    lat = build_lattice(2, [4])
    cov = free_field_covariance(lat, 0.8)
    b = cross_block(cov, lat)
    assert np.abs(b - b.T).max() <= 1e-12
    rng = np.random.default_rng(21)
    for _ in range(20):
        h = rng.standard_normal(lat.n_plus)
        phi = embed_plus(lat, h)
        direct = float(phi @ cov.matrix @ reflect(lat, phi))
        assert direct == pytest.approx(float(h @ b @ h), rel=1e-12, abs=1e-12)


def test_gaussian_rp_two_site_verdicts():
    lat = build_lattice(1, [])
    good = check_gaussian_rp(two_site_cov(0.5), lat)
    assert good.passed and good.min_eigenvalue == pytest.approx(0.5, abs=1e-12)
    bad = check_gaussian_rp(two_site_cov(-0.5), lat)
    assert not bad.passed
    assert bad.failure_kind == "cross-block-not-psd"
    assert bad.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)


def test_gaussian_rp_reports_invariance_violation_distinctly():
    lat = build_lattice(1, [])
    report = check_gaussian_rp(Covariance(np.diag([2.0, 1.0])), lat)
    assert not report.passed
    assert report.failure_kind == "not-theta-invariant"


def test_free_field_is_reflection_positive():
    for args in ((1, [], 1.0), (4, [8], 0.5), (2, [4, 4], 1.0)):
        lat = build_lattice(args[0], args[1])
        cov = free_field_covariance(lat, args[2])
        assert check_theta_invariance(cov, lat, tol=1e-12).passed
        assert check_gaussian_rp(cov, lat).passed


def test_theta_inner_values():
    lat = build_lattice(1, [])
    cov = two_site_cov(0.5)
    assert theta_inner(cov, lat, [0.0, 1.0]) == 0.5
    assert theta_inner(cov, lat, [0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        theta_inner(cov, lat, [1.0, 0.5])


def test_theta_inner_nonnegative_on_rp_covariance():
    lat = build_lattice(4, [8])
    cov = free_field_covariance(lat, 0.5)
    rng = np.random.default_rng(22)
    for _ in range(100):
        phi = embed_plus(lat, rng.standard_normal(lat.n_plus))
        assert theta_inner(cov, lat, phi) >= -1e-12


def test_decompose_pq_two_site_cases():
    lat = build_lattice(1, [])
    pq = decompose_pq(two_site_cov(0.5), lat)
    assert pq.c_p.tolist() == [[0.5]] and pq.c_q.tolist() == [[0.5]]
    assert pq.both_psd

    neg = decompose_pq(two_site_cov(-0.5), lat)
    assert not neg.report_q.passed
    assert neg.report_q.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    ident = decompose_pq(Covariance(np.eye(2)), lat)
    assert ident.c_q.tolist() == [[0.0]] and ident.c_p.tolist() == [[1.0]]
    assert ident.both_psd


def test_decompose_pq_sum_is_bit_exact():
    cases = [
        free_field_covariance(build_lattice(4, [8]), 0.5),
        free_field_covariance(build_lattice(2, [4, 4]), 1.0),
        free_field_covariance(build_lattice(3, [5]), 0.1),
    ]
    lats = [build_lattice(4, [8]), build_lattice(2, [4, 4]), build_lattice(3, [5])]
    for cov, lat in zip(cases, lats):
        pq = decompose_pq(cov, lat)
        assert np.array_equal(pq.c_p + pq.c_q, pq.a_block)


def test_decompose_pq_quadratic_chain():
    lat = build_lattice(2, [4])
    cov = free_field_covariance(lat, 0.7)
    pq = decompose_pq(cov, lat)
    rng = np.random.default_rng(23)
    for _ in range(100):
        h = rng.standard_normal(lat.n_plus)
        assert float(h @ pq.c_q @ h) >= -1e-10
        assert float(h @ pq.c_p @ h) >= -1e-10


def test_convolution_identity_two_site():
    lat = build_lattice(1, [])
    pq = decompose_pq(two_site_cov(0.5), lat)
    report = verify_convolution_identity(pq, n_samples=100_000, seed=31)
    assert report.passed
    assert np.array_equal(pq.c_p + pq.c_q, pq.a_block)
    assert np.array_equal(pq.c_q, cross_block(pq.covariance, lat, warn=False))
    assert report.max_sigma_deviation <= 5.0


def test_convolution_identity_free_field():
    lat = build_lattice(2, [])
    cov = free_field_covariance(lat, 0.5)
    pq = decompose_pq(cov, lat)
    report = verify_convolution_identity(pq, n_samples=100_000, seed=32)
    assert report.passed
    assert np.abs(pq.c_p + pq.c_q - pq.a_block).max() <= 1e-12
    assert np.abs(pq.c_q - cross_block(cov, lat, warn=False)).max() <= 1e-12


@pytest.fixture(scope="module")
def criterion_1_split():
    lat = build_lattice(4, [8])
    return decompose_pq(free_field_covariance(lat, 0.5), lat)


def _zero_like(summand):
    return Covariance(np.zeros((summand.dim, summand.dim)))


def _one_draw_per_pair(summand):
    # both halves of each sample get the same independent draw, as if P were shared like Q
    return types.SimpleNamespace(draw=lambda rng, n: np.repeat(summand.draw(rng, n // 2), 2, axis=0))


@pytest.mark.parametrize(
    "roots",
    [
        lambda p, q: (q, p),
        lambda p, q: (p, _zero_like(q)),
        lambda p, q: (_zero_like(p), q),
        lambda p, q: (_one_draw_per_pair(p), q),
    ],
    ids=["swapped", "zero-shared", "zero-independent", "one-p-for-both-halves"],
)
def test_convolution_identity_fails_a_split_with_wrong_roots(criterion_1_split, roots):
    # the check draws through the split's summands alone, so the summands must be what it checks
    p, q = roots(criterion_1_split.p, criterion_1_split.q)
    pq = dataclasses.replace(criterion_1_split, p=p, q=q)
    report = verify_convolution_identity(pq, n_samples=100_000, seed=0)
    assert not report.passed
    assert report.max_sigma_deviation > 20.0


def test_convolution_identity_fails_a_split_that_is_not_psd():
    # B = -0.3 on two sites: c_q = B has no root, and its clipped one draws the wrong law
    pq = decompose_pq(two_site_cov(-0.3), build_lattice(1, []))
    assert not pq.report_q.passed
    assert not verify_convolution_identity(pq, n_samples=100_000, seed=0).passed


@pytest.mark.parametrize("n", [16, 64])
def test_convolution_identity_passes_a_free_field_at_small_sample_counts(n):
    # the errors come from the target, not from the few samples themselves
    lat = build_lattice(2, [4])
    pq = decompose_pq(free_field_covariance(lat, 1.0), lat)
    sigmas = [verify_convolution_identity(pq, n_samples=n, seed=seed).max_sigma_deviation for seed in range(20)]
    assert max(sigmas) <= 5.0, sigmas


@pytest.mark.parametrize("shape", [(2, [4]), (4, [8]), (3, [5]), (2, [3, 2])], ids=str)
def test_convolution_identity_reads_the_same_law_from_an_explicit_twin(shape):
    # per-momentum draws agree at rounding with the same streams through their expanded factors,
    # held as dense summands; the explicit twin draws through other roots, and passes as well
    lat = build_lattice(*shape)
    free = free_field_covariance(lat, 0.7)
    pq = decompose_pq(free, lat)
    dense = [
        Covariance.__new__(Covariance)._hold(c.psd_tolerance, matrix=c.matrix, factor=c.factor) for c in (pq.p, pq.q)
    ]
    got = [
        verify_convolution_identity(split, n_samples=20_000, seed=5)
        for split in (pq, dataclasses.replace(pq, p=dense[0], q=dense[1]), decompose_pq(Covariance(free.matrix), lat))
    ]
    assert got[0].max_sigma_deviation == pytest.approx(got[1].max_sigma_deviation, abs=1e-6)
    assert all(report.passed for report in got)


def test_convolution_identity_rejects_a_sample_count_below_one(criterion_1_split):
    with pytest.raises(ValueError, match="sample count"):
        verify_convolution_identity(criterion_1_split, n_samples=0)


def test_sampling_variance_matches_identity_covariance():
    lat = build_lattice(1, [])
    cov = Covariance(np.eye(lat.site_count))
    n = 100_000
    draws = sample(cov, n, seed=41).configs
    var = draws.var(axis=0, ddof=1)
    stderr = math.sqrt(2.0 / (n - 1))
    assert np.abs(var - 1.0).max() <= 5 * stderr


def test_sampling_empirical_covariance_converges():
    lat = build_lattice(2, [])
    cov = free_field_covariance(lat, 1.0)
    n = 100_000
    draws = sample(cov, n, seed=42).configs
    emp = draws.T @ draws / n
    second = np.einsum("ki,kj->ij", draws**2, draws**2) / n
    stderr = np.sqrt(np.maximum(second - emp**2, 0.0) / n)
    assert np.all(np.abs(emp - cov.matrix) <= 5 * stderr + 1e-12)
    del lat


def test_sampling_zero_covariance_gives_exact_zeros():
    cov = Covariance(np.zeros((4, 4)))
    draws = sample(cov, 100, seed=1).configs
    assert np.all(draws == 0.0)


def test_sampling_is_deterministic_and_chunk_stable():
    cov = Covariance(np.eye(3))
    a = sample(cov, 5000, seed=7).configs
    b = sample(cov, 5000, seed=7).configs
    assert np.array_equal(a, b)
    # chunks can be produced independently and in any order
    blocks = dict(iter_sample_chunks(cov, 5000, seed=7))
    assert np.array_equal(blocks[1], a[2048:4096])
    assert np.array_equal(blocks[2], a[4096:])


def test_sampling_rejects_non_psd_matrix():
    with pytest.raises(ValueError):
        covariance_factor(np.array([[1.0, 2.0], [2.0, 1.0]]), 1e-10)


def test_covariance_factor_reproduces_matrix():
    lat = build_lattice(2, [3])
    cov = free_field_covariance(lat, 0.9)
    for f in (covariance_factor(cov.matrix, cov.psd_tolerance), cov.factor):
        assert np.abs(f @ f.T - cov.matrix).max() <= 1e-12


def test_char_fn_symmetries():
    lat = build_lattice(2, [2])
    cov = free_field_covariance(lat, 1.3)
    rng = np.random.default_rng(43)
    for _ in range(20):
        phi = rng.standard_normal(lat.site_count)
        assert char_fn(cov, phi) == char_fn(cov, -phi)
        assert char_fn(cov, reflect(lat, phi)) == pytest.approx(char_fn(cov, phi), rel=1e-12)


def test_covariance_rejects_nan_tolerance():
    with pytest.raises(ValueError, match="psd_tolerance"):
        Covariance(np.eye(2), float("nan"))


@pytest.mark.parametrize("tol", [float("inf"), True], ids=["infinite", "boolean"])
def test_covariance_rejects_tolerance_that_is_not_a_finite_number(tol):
    # an infinite tolerance would admit this matrix, whose eigenvalues are 3 and -1
    with pytest.raises(ValueError, match="psd_tolerance"):
        Covariance(np.array([[1.0, 2.0], [2.0, 1.0]]), tol)


def test_covariance_rejects_entries_whose_second_moments_overflow():
    # S_ii S_jj + S_ij^2 <= 2 max|S|^2, the variance of a draw's y_i y_j, must stay finite
    peak = math.sqrt(np.finfo(np.float64).max / 2) * (1 - 2**-50)
    assert math.isfinite(2.0 * peak * peak)
    lat = build_lattice(1, [])
    cov = Covariance(np.diag([peak, peak]))
    assert verify_convolution_identity(decompose_pq(cov, lat), n_samples=1_000, seed=0).passed
    for bad, match in ((2.0 * peak, "too large"), (-2.0 * peak, "too large"), (np.inf, "finite"), (np.nan, "finite")):
        with pytest.raises(ValueError, match=match):
            Covariance(np.diag([1.0, bad]))
    free = free_field_covariance(build_lattice(2, [3]), 0.9)
    roots = np.zeros_like(free.columns)
    for bad, match in ((2.0 * peak, "too large"), (np.inf, "finite")):
        cols = free.columns.copy()
        cols[0, 0, 0] = bad
        with pytest.raises(ValueError, match=match):
            Covariance.from_columns(cols, roots)


def test_symmetrized_is_the_hermitian_part_of_each_matrix_bit_for_bit():
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    got = symmetrized(stack)
    for m, h in zip(stack, got):
        assert np.array_equal(h, (m + m.conj().T) / 2.0)
    real = rng.standard_normal((4, 4))
    assert symmetrized(real).dtype == np.float64
    assert np.array_equal(symmetrized(real), (real + real.T) / 2.0)


def test_covariance_factor_takes_the_matrix_as_stored():
    cov = free_field_covariance(build_lattice(2, [3]), 0.9)
    # a Covariance is exactly symmetric, so (C + C^T) / 2 is C bit for bit
    assert np.array_equal(symmetrized(cov.matrix), cov.matrix)
    nearly = cov.matrix.copy()
    nearly[0, 1] = np.nextafter(nearly[0, 1], 1.0)
    with pytest.raises(ValueError, match="symmetric"):
        covariance_factor(nearly, cov.psd_tolerance)


def _assert_draws_are_bitwise(cov, factor, n, seed):
    configs = sample(cov, n, seed=seed).configs
    start = 0
    for k, count in chunk_counts(n):
        z = substream(seed, NS_FIELD, k).standard_normal((count, cov.dim))
        assert np.array_equal(configs[start:start + count], z @ factor.T)
        start += count
    assert start == configs.shape[0]


def test_samples_are_bitwise_draws_times_the_standalone_factor():
    # an explicit covariance is factored by eigh, exactly as covariance_factor does it
    free = free_field_covariance(build_lattice(2, [3]), 0.9)
    cov = Covariance(free.matrix.copy())
    _assert_draws_are_bitwise(cov, covariance_factor(cov.matrix, cov.psd_tolerance), 5000, 11)


@pytest.mark.parametrize("count", [1, 2, 3, 8, 16, 300])
def test_explicit_draws_are_a_prefix_to_rounding(count):
    # the GEMM z @ factor.T may round a few rows otherwise than a full chunk's: in the last bit for
    # count <= 8 with OpenBLAS 0.3.31; other BLAS builds do so at other counts
    cov = Covariance(free_field_covariance(build_lattice(2, [5, 4]), 0.5).matrix)
    full = cov.draw(np.random.default_rng(3), 2048)[:count]
    assert np.abs(cov.draw(np.random.default_rng(3), count) - full).max() <= 1e-15 * np.abs(full).max()


def _assert_draws_are_near(cov, factor, n, seed, rel=1e-14):
    # a column table draws per momentum, which moves x from z @ factor.T at rounding
    configs = sample(cov, n, seed=seed).configs
    start = 0
    for k, count in chunk_counts(n):
        want = substream(seed, NS_FIELD, k).standard_normal((count, cov.dim)) @ factor.T
        assert np.abs(configs[start:start + count] - want).max() <= rel * np.abs(want).max()
        start += count
    assert start == configs.shape[0]


def test_free_field_samples_are_draws_times_the_factor_to_rounding():
    lat = build_lattice(2, [3])
    cov = free_field_covariance(lat, 0.9)
    _assert_draws_are_near(cov, cov.factor, 5000, 11)
    # the factor is E R: F[(t, x), (k, s)] = E[x, k] R_k[t, s] over the real Fourier modes k, which for
    # L = 3 are the constant, cos and sin of momentum 1; it is a root of C, though not C's
    # translation-invariant one
    x = np.arange(3)
    basis = np.stack([np.full(3, 1.0 / math.sqrt(3.0))]
                     + [math.sqrt(2.0 / 3.0) * f(2.0 * np.pi * x / 3.0) for f in (np.cos, np.sin)], axis=1)
    roots = cov.momentum_roots[[0, 1, 1]]
    want = basis[np.newaxis, :, :, np.newaxis] * roots.transpose(1, 0, 2)[:, np.newaxis]
    np.testing.assert_allclose(cov.factor.reshape(4, 3, 3, 4), want, rtol=0.0, atol=1e-15 * np.abs(want).max())
    assert np.abs(cov.factor @ cov.factor.T - cov.matrix).max() <= 1e-14 * np.abs(cov.matrix).max()


@pytest.mark.parametrize("n", [1, 2048, 2049])
def test_sample_configs_are_fresh_owned_and_writable(n):
    # one chunk is returned as drawn, more are copied into one array; either way the caller owns the block
    cov = free_field_covariance(build_lattice(2, [3]), 0.9)
    _assert_draws_are_near(cov, cov.factor, n, 3)
    a, b = sample(cov, n, seed=3).configs, sample(cov, n, seed=3).configs
    assert a.flags.owndata and a.flags.writeable and a.flags.c_contiguous
    assert not np.shares_memory(a, b)


def test_free_field_and_two_samples_factor_once_without_eigh(count_linalg):
    lat = build_lattice(2, [3])
    calls = count_linalg()
    cov = free_field_covariance(lat, 0.9)
    sample(cov, 100, seed=1)
    sample(cov, 3000, seed=2)
    # per-momentum 2T x 2T work only: one batched Cholesky and the inverse of its factor
    assert [name for name, _ in calls] == ["cholesky", "inv"]
    assert all(shape[-2:] == (4, 4) for _, shape in calls)


@pytest.mark.parametrize("mass", [0.1, 0.5, 1.3])
@pytest.mark.parametrize(
    "time_extent, extents", FREE_FIELD_LATTICES + [(3, [5])], ids=FREE_FIELD_IDS + ["extent-5-T3"]
)
def test_free_field_draws_per_momentum_match_the_dense_factor(time_extent, extents, mass):
    # every momentum pairing of the real basis shows in one chunk and across a chunk boundary
    cov = free_field_covariance(build_lattice(time_extent, extents), mass)
    _assert_draws_are_near(cov, cov.factor, 2049, 5)
    # F F^T against C taken without the basis, as the inverse transform of the Green's tables R_k R_k^T;
    # the refined matrix differs from these by the residual of the inverse, 2e-14 at mass 0.1
    roots = cov.momentum_roots
    c = gaussian._translates(np.fft.ifftn(roots @ roots.swapaxes(-1, -2), axes=tuple(range(roots.ndim - 2))).real)
    assert np.abs(cov.factor @ cov.factor.T - c).max() <= 1e-14 * np.abs(c).max()


@pytest.mark.parametrize("time_extent, extents", [(1, []), (2, [3]), (2, [5, 4]), (6, [12, 16])])
def test_a_chunks_first_draws_do_not_depend_on_its_count(time_extent, extents):
    cov = free_field_covariance(build_lattice(time_extent, extents), 0.5)
    full = cov.draw(np.random.default_rng(3), 2048)
    for m in (2, 3, 300, 2047):
        assert np.array_equal(cov.draw(np.random.default_rng(3), m), full[:m]), m
    # a single draw takes numpy's matrix-vector product, whose sums may round in another order
    one = cov.draw(np.random.default_rng(3), 1)
    assert np.abs(one - full[:1]).max() <= 1e-15 * np.abs(full[:1]).max()


def _whole_chunk_draws(cov, rng, count):
    # the two products over the whole chunk at once, as a draw made them before it went by blocks of rows
    basis, roots_t = cov._modes
    spatial, times = basis.shape[0], roots_t.shape[-1]
    z = rng.standard_normal((count, cov.dim))
    mixed = np.matmul(z.reshape(count, spatial, times).swapaxes(0, 1), roots_t)
    return (mixed.reshape(spatial, count * times).T @ basis.T).reshape(count, cov.dim)


@pytest.mark.parametrize("time_extent, extents", [(2, [4]), (4, [8, 16]), (6, [12, 16])], ids=["n16", "n1024", "n2304"])
def test_blocked_draws_equal_the_whole_chunk_products_bitwise(time_extent, extents):
    # 2048 draws take 16 blocks at N=1024 and 32 at N=2304; 65 at N=2304 take one block, not 64 rows and 1
    cov = free_field_covariance(build_lattice(time_extent, extents), 0.5)
    for count in (1, 63, 64, 65, 2048):
        want = _whole_chunk_draws(cov, np.random.default_rng(count), count)
        assert np.array_equal(cov.draw(np.random.default_rng(count), count), want), count
    assert cov.draw(np.random.default_rng(0), 0).shape == (0, cov.dim)


def test_free_field_sample_bytes_are_pinned():
    # sha256 of these bytes as drawn before draws went by blocks of rows, at one and at two BLAS threads
    configs = sample(free_field_covariance(build_lattice(6, [12, 16]), 0.5), 2048, 0).configs
    assert hashlib.sha256(configs).hexdigest() == "b74b2407d4154d147d01c134298ca4a0a907e2e20fdeffcd0dbbd3d9e6353644"


def _traced_peak(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_free_field_draw_allocates_little_beyond_its_output():
    # a second (count, N) array for the batched product would double the peak
    cov = free_field_covariance(build_lattice(6, [12, 16]), 0.5)
    cov.draw(np.random.default_rng(0), 1)  # the basis and the roots are cached on first use
    x, peak = _traced_peak(lambda: cov.draw(np.random.default_rng(0), 2048))
    assert peak <= 1.1 * x.nbytes, f"peak {peak / x.nbytes:.3f} x the draws"


def test_a_sample_of_three_chunks_holds_one_chunk_beside_its_configs():
    # configs and one 2048-row chunk: 4/3 of the output, where concatenating the chunks takes twice it
    cov = free_field_covariance(build_lattice(4, [8, 16]), 0.5)
    cov.draw(np.random.default_rng(0), 1)
    drawn, peak = _traced_peak(lambda: sample(cov, 3 * 2048, 3))
    assert peak <= 1.4 * drawn.configs.nbytes, f"peak {peak / drawn.configs.nbytes:.3f} x the sample"


def test_free_field_exact_path_and_joint_law_check_never_expand_c():
    lat = build_lattice(2, [3, 2])
    cov = free_field_covariance(lat, 0.5)
    assert cov.dim == lat.site_count
    rp = check_gaussian_rp(cov, lat)
    pq = decompose_pq(cov, lat)
    sample(cov, 100, seed=1)
    assert verify_convolution_identity(pq, n_samples=2000, seed=1).n_samples == 2000
    assert rp.passed and "matrix" not in vars(cov) and "factor" not in vars(cov)
    # read once, C is expanded from the table and held read-only
    assert cov.matrix is cov.matrix and "matrix" in vars(cov) and not cov.matrix.flags.writeable
    assert np.array_equal(cov.matrix, gaussian._translates(cov.columns))
    with pytest.raises(AttributeError, match="no attribute 'other'"):
        cov.other


def test_free_field_decision_at_n2304_allocates_less_than_one_n_by_n_array():
    lat = build_lattice(6, [12, 16])
    tracemalloc.start()
    try:
        cov = free_field_covariance(lat, 0.5)
        rp = check_gaussian_rp(cov, lat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rp.passed
    assert peak < 8 * lat.site_count**2, f"peak {peak / 2**20:.1f} MiB"


def test_free_field_split_and_its_draws_at_n4096_allocate_no_half_block():
    # one N_+ x N_+ float64 array is 32 MiB here; the draws come in blocks of 256 rows
    lat = build_lattice(4, [16, 32])
    cov = free_field_covariance(lat, 0.5)
    twin = free_field_covariance(lat, 0.5)
    twin_pq = decompose_pq(twin, lat)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        checks = {}
        pq = cli._pq_stage(checks, [], cli.Resolved(lat, cov, None, None, None, {}, {}))
        assert pq.sum_exact and checks["pq_decomposition"]["sum_exact"]
        assert cov == twin and pq == twin_pq
        for summand in (pq.p, pq.q):
            for _ in range(8):
                assert summand.draw(rng, 256).shape == (256, lat.n_plus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pq.both_psd and not any("matrix" in vars(summand) for summand in (pq.p, pq.q, pq.a))
    assert peak < 8 * lat.n_plus**2, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "call",
    [
        lambda cov, pq: sample(cov, 3, 2.5),
        lambda cov, pq: sample(cov, 3, True),
        lambda cov, pq: sample(cov, 3, "1"),
        lambda cov, pq: verify_convolution_identity(pq, 100, seed=7.9),
        lambda cov, pq: verify_convolution_identity(pq, 100, seed=np.bool_(False)),
    ],
    ids=["sample-fraction", "sample-bool", "sample-string", "joint-law-fraction", "joint-law-bool"],
)
def test_a_seed_that_is_not_an_integer_is_refused(call):
    lat = build_lattice(2, [3])
    cov = free_field_covariance(lat, 0.9)
    with pytest.raises(ValueError, match="^seed must be an integer"):
        call(cov, decompose_pq(cov, lat))


def test_free_field_sampling_and_direct_gram_never_expand_the_factor(count_linalg):
    lat = build_lattice(2, [3])
    phis = random_test_functions(lat, 3, seed=4)
    calls = count_linalg()
    cov = free_field_covariance(lat, 0.9)
    sample(cov, 3000, seed=2)
    gram_mc_direct(cov, lat, phi4(lat, 0.1), phis, McParams(3000, seed=1))
    assert "factor" not in vars(cov)
    # the batched Cholesky and its inverse, one batched Cholesky of the momentum roots per tilt
    # the direct estimator tries and one more for C'_alpha, the damping of the tilt it picks, then
    # only the k x k Gram spectra of the verdict
    tilts = len(rp_verify._TILT_GRID) - 1
    assert [name for name, _ in calls if name != "eigvalsh"] == ["cholesky", "inv"] + ["cholesky"] * (tilts + 1)
    assert {shape for name, shape in calls[2:] if name == "cholesky"} == {cov.momentum_roots.shape}
    k = len(phis)
    assert all(shape[-2:] == (k, k) for name, shape in calls if name == "eigvalsh")


def test_momentum_roots_must_be_even_on_every_axis():
    cov = free_field_covariance(build_lattice(2, [3, 4]), 0.9)
    # one momentum at a time, and k = (1, 1) with -k = (2, 3): even jointly, not per axis
    for indices in ([(1, 0)], [(0, 1)], [(1, 1)], [(1, 1), (2, 3)]):
        odd = cov.momentum_roots.copy()
        for index in indices:
            odd[index] *= 1.0 + 1e-12
        with pytest.raises(ValueError, match="even under k -> -k"):
            Covariance.from_columns(cov.columns, odd)
    halves = cov.momentum_roots.copy()
    halves[(0, 2)] *= 2.0  # k = L/2 is its own negative, so any value there stays even
    Covariance.from_columns(cov.columns, halves)


def test_sample_bytes_do_not_depend_on_the_blas_thread_count():
    # at N=1024 the basis GEMMs are large enough for OpenBLAS to split them over threads
    script = "import hashlib; from rplattice import *; " + (
        "print(hashlib.sha256(sample(free_field_covariance(build_lattice(4, [8, 16]), 0.5), 2500, 3).configs).hexdigest())"
    )
    src = str(Path(gaussian.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1


def test_explicit_covariance_diagonalises_once(count_linalg):
    calls = count_linalg()
    cov = Covariance(np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]))
    sample(cov, 100, seed=1)
    sample(cov, 3000, seed=2)
    assert calls == [("eigh", (3, 3))]


@pytest.mark.parametrize("mass", [0.1, 0.5, 1.3])
@pytest.mark.parametrize("time_extent, extents", [(1, []), (2, [3]), (3, [2, 3]), (2, [1, 4]), (3, [5])])
def test_precision_factor_is_as_close_to_c_as_c_is_to_the_inverse(time_extent, extents, mass):
    # F F^T - C = C (K C - I) up to rounding, with K C - I the residual of the computed inverse
    lat = build_lattice(time_extent, extents)
    cov = free_field_covariance(lat, mass)
    c, f = cov.matrix, cov.factor
    residual = np.abs(_laplacian_plus_mass(lat, mass) @ c - np.eye(cov.dim)).max()
    scale = np.abs(c).max()
    assert np.abs(f @ f.T - c).max() <= 4 * scale * residual + 1e-14 * scale


def test_root_is_neither_kept_nor_part_of_the_value():
    lat = build_lattice(2, [3])
    cov = free_field_covariance(lat, 0.9)
    # a column table expands its factor only when it is read
    assert "factor" not in vars(cov)
    assert not cov.factor.flags.writeable and "factor" in vars(cov)
    with pytest.raises(ValueError):
        cov.factor[0, 0] = 1.0
    assert "factor" not in repr(cov) and "root" not in repr(cov)
    assert "root" not in vars(cov) and not cov.momentum_roots.flags.writeable
    assert [f.name for f in dataclasses.fields(cov)] == ["matrix", "psd_tolerance", "columns", "momentum_roots"]
    # equality goes by matrix and tolerance, whichever way the factor came
    assert Covariance.from_columns([[[4.0]]], [[[2.0]]]) == Covariance(np.array([[4.0]]))
    given = np.array([[[2.0]]])
    held = Covariance.from_columns([[[4.0]]], given)
    given[0, 0, 0] = 5.0
    assert held.factor[0, 0] == 2.0


@pytest.mark.parametrize("n", [2, 3])
def test_covariance_equality_compares_matrix_and_tolerance(n):
    m = np.eye(n) + 0.25 * (np.ones((n, n)) - np.eye(n))
    cov = Covariance(m)
    assert cov == Covariance(m.copy()) and not cov != Covariance(m.copy())
    other = m.copy()
    other[0, 0] = 2.0
    assert cov != Covariance(other)
    assert cov != Covariance(m, psd_tolerance=1e-8)
    assert cov.__eq__(m) is NotImplemented and cov != "covariance"
    with pytest.raises(TypeError):
        hash(cov)


@pytest.mark.parametrize("time_extent, extents", [(1, []), (2, [3])])
def test_free_field_equals_its_matrix_as_an_explicit_covariance(time_extent, extents):
    free = free_field_covariance(build_lattice(time_extent, extents), 0.9)
    assert free == Covariance(free.matrix)
    assert free != Covariance(free.matrix, psd_tolerance=1e-8)


def test_replacing_a_free_field_tolerance_falls_back_to_eigh(count_linalg):
    cov = free_field_covariance(build_lattice(2, [3]), 0.9)
    calls = count_linalg()
    looser = dataclasses.replace(cov, psd_tolerance=1e-8)
    assert calls == [("eigh", (cov.dim, cov.dim))]
    assert looser.psd_tolerance == 1e-8 and np.array_equal(looser.matrix, cov.matrix)
    assert np.array_equal(looser.factor, covariance_factor(cov.matrix, 1e-8))
    assert np.abs(looser.factor @ looser.factor.T - cov.matrix).max() <= 1e-12


def test_covariance_factor_is_read_only_and_not_part_of_the_value():
    cov = Covariance(np.array([[2.0]]))
    assert not cov.factor.flags.writeable
    with pytest.raises(ValueError):
        cov.factor[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cov.factor = np.ones((1, 1))
    assert "factor" not in repr(cov)
    other = Covariance(np.array([[2.0]]))
    object.__setattr__(other, "factor", np.array([[5.0]]))
    assert cov == other


def test_replacing_the_tolerance_refactors_the_covariance():
    # eigenvalues 1 and about -1e-12: inside the default band, below a zero tolerance
    m = np.array([[0.5 - 5e-13, 0.5 + 5e-13], [0.5 + 5e-13, 0.5 - 5e-13]])
    cov = Covariance(m)
    tighter = dataclasses.replace(cov, psd_tolerance=1e-11)
    assert tighter.psd_tolerance == 1e-11 and tighter.factor is not cov.factor
    assert np.array_equal(tighter.factor, covariance_factor(tighter.matrix, 1e-11))
    with pytest.raises(ValueError, match="covariance is not positive semidefinite"):
        dataclasses.replace(cov, psd_tolerance=0.0)


def test_covariance_is_unaffected_by_later_changes_to_its_input():
    given = np.array([[2.0, 1.0], [1.0, 2.0]])
    cov = Covariance(given)
    given[:] = 100.0
    assert np.array_equal(cov.matrix, [[2.0, 1.0], [1.0, 2.0]])
    assert np.abs(cov.factor @ cov.factor.T - cov.matrix).max() <= 1e-15


def test_rank_deficient_covariance_draws_equal_pairs():
    cov = Covariance(np.array([[1.0, 1.0], [1.0, 1.0]]))
    x = sample(cov, 3000, seed=5).configs
    assert np.abs(x[:, 0] - x[:, 1]).max() <= 1e-12 * np.abs(x).max()


def _plain_split(a, b):
    c_p = a - b
    return c_p, a - c_p


def test_pq_split_is_exact_wherever_cross_ratio_is_between_0_and_2():
    # 10^6 entries of A over 120 binades, with B = r * A for r in [0, 2]
    rng = np.random.default_rng(2026)
    half = 1000

    def symmetric(x):
        upper = np.triu(x, 1)
        return upper + upper.T

    a = symmetric(rng.standard_normal((half, half)) * 2.0 ** rng.integers(-60, 61, (half, half)))
    ratio = np.where(rng.random((half, half)) < 0.1,
                     rng.choice([0.0, 0.5, 1.0, 2.0], (half, half)),
                     rng.uniform(0.0, 2.0, (half, half)))
    b = a * symmetric(ratio)
    # diagonally dominant A + B and A - B, so C = [[A, B], [B, A]] is PSD
    diag = 2.0 * (np.abs(a).sum(axis=1) + np.abs(b).sum(axis=1) + 1.0)
    a[np.diag_indices(half)] = diag
    b[np.diag_indices(half)] = diag * rng.uniform(0.0, 0.5, half)
    lat = build_lattice(1, [half])
    pq = decompose_pq(Covariance(np.block([[a, b], [b, a]])), lat)
    assert np.array_equal(pq.a_block, a)
    c_p, c_q = _plain_split(a, b)
    assert np.array_equal(pq.c_p, c_p) and np.array_equal(pq.c_q, c_q)
    assert np.array_equal(c_p + c_q, a)


def test_decompose_pq_reports_a_split_outside_the_sterbenz_range_as_inexact():
    # B/A is 3 off the diagonal: A - B rounds, and the split misses A by an ulp there
    a01 = -(2.0**52 + 1) * 2.0**-60
    b01 = -(3 * 2.0**52 + 2) * 2.0**-60
    a = np.array([[1.0, a01], [a01, 1.0]])
    b = np.array([[0.1, b01], [b01, 0.1]])
    pq = decompose_pq(Covariance(np.block([[a, b], [b, a]])), build_lattice(1, [2]))
    assert np.array_equal(pq.c_p, a - b) and np.array_equal(pq.c_q, a - pq.c_p)
    assert (pq.c_p + pq.c_q)[0, 1] != a01
    assert not pq.sum_exact


def test_pq_pair_equality_compares_the_split_and_its_reports():
    lat = build_lattice(2, [4])
    cov = free_field_covariance(lat, 0.9)
    pq = decompose_pq(cov, lat)
    assert pq == decompose_pq(cov, lat) and not pq != decompose_pq(cov, lat)
    # covariance and lattice are references to the source, not part of the value
    assert pq == decompose_pq(free_field_covariance(lat, 0.9), lat)
    assert pq == dataclasses.replace(pq, covariance=Covariance(cov.matrix), lattice=build_lattice(1, [8]))
    assert pq.__eq__(pq.c_p) is NotImplemented and pq != "split"
    with pytest.raises(TypeError):
        hash(pq)


def test_pq_pairs_of_different_covariances_are_unequal():
    lat = build_lattice(2, [4])
    assert decompose_pq(free_field_covariance(lat, 0.9), lat) != decompose_pq(free_field_covariance(lat, 0.8), lat)


@pytest.mark.parametrize(
    "time_extent, extents, mass",
    [(1, [], 0.5), (2, [4], 1.0), (2, [3], 0.9), (3, [1, 4], 0.1), (3, [4, 4], 0.3)],
)
def test_pq_roots_are_the_psd_square_roots_of_the_split(time_extent, extents, mass):
    lat = build_lattice(time_extent, extents)
    cov = free_field_covariance(lat, mass)
    pq, pq_dense = decompose_pq(cov, lat), decompose_pq(Covariance(cov.matrix), lat)
    # the free-field split keeps its summands and their roots as T x T column tables until read
    for summand in (pq.p, pq.q, pq.a):
        assert summand.columns.shape == (*(extents or [1]), time_extent, time_extent)
        assert "matrix" not in vars(summand)
    assert pq.a.momentum_roots is None and pq_dense.a.columns is None
    for split in (pq, pq_dense):
        for summand, c in zip((split.p, split.q), (split.c_p, split.c_q)):
            factor = summand.factor
            assert factor.shape == c.shape and summand.matrix is c
            assert np.abs(factor @ factor.T - c).max() <= 1e-14 * np.abs(c).max()
    # the dense factors are the unique PSD roots, symmetric; a column table's mixes the real
    # Fourier basis of the spatial axes with each momentum's root, and is not
    for root in (pq_dense.p.factor, pq_dense.q.factor):
        assert np.abs(root - root.T).max() <= 1e-15 * max(1.0, np.abs(root).max())


ONE = Potential(constant=1.0)


def _phase_problem(lat, count, seed):
    phis = random_test_functions(lat, count, seed)
    return phis, np.stack(phis, axis=1), np.stack([reflect(lat, p) for p in phis], axis=1)


def _polynomial_problems():
    lat = build_lattice(2, [4])
    x, y, z = (lat.index_of(site) for site in ([1, 0], [-1, 0], [2, 1]))
    return lat, {
        "phi4": phi4(lat, 0.1),
        # odd and even degrees of both signs, and a constant: a complex matrix
        "odd-cubic": Potential(
            (Term(0.3, ((x, 3),)), Term(-0.5, ((y, 1), (z, 2))), Term(0.2, ((z, 1),)), Term(-0.1, ((x, 2),))),
            constant=0.4,
        ),
        # E[(Y_x + i v_x)^2 (Y_y + i v_y)] pairs Y_x with Y_y: the cross covariance C_xy
        "two-site-product": Potential((Term(1.0, ((x, 2), (y, 1))),)),
    }


@pytest.mark.parametrize(
    "cov_kind", ["free-field", "explicit"],
)
def test_polynomial_gram_is_the_q_derivative_of_the_quadratic_closed_form(cov_kind):
    # d/dq at q = 0 of det(I + qC)^(-1/2) exp(-(1/2) u^T C (I + qC)^-1 u) is minus half of
    # E[exp(iu.T) sum_x T_x^2] = exp(-(1/2) u^T C u) (tr C - |Cu|^2)
    lat = build_lattice(2, [4])
    cov = free_field_covariance(lat, 1.0)
    if cov_kind == "explicit":
        a = np.random.default_rng(3).standard_normal((lat.site_count, lat.site_count))
        cov = Covariance(symmetrized(a @ a.T / lat.site_count))
    _, phi_mat, theta_mat = _phase_problem(lat, 4, 2024)
    squares = Potential(tuple(Term(1.0, ((x, 2),)) for x in range(lat.site_count)))
    d = phi_mat[:, :, np.newaxis] - theta_mat[:, np.newaxis, :]
    v = np.einsum("xy,ymn->xmn", cov.matrix, d)
    want = np.exp(-0.5 * (d * v).sum(axis=0)) * (np.trace(cov.matrix) - (v * v).sum(axis=0))
    got = gaussian_polynomial_gram(cov, phi_mat, theta_mat, squares)
    assert np.isrealobj(got)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("name", ["phi4", "odd-cubic", "two-site-product"])
def test_polynomial_gram_matches_monte_carlo_for_twenty_seeds(name):
    lat, polynomials = _polynomial_problems()
    p = polynomials[name]
    cov = free_field_covariance(lat, 1.0)
    _, phi_mat, theta_mat = _phase_problem(lat, 2, 2024)
    exact = gaussian_polynomial_gram(cov, phi_mat, theta_mat, p)
    # a real matrix exactly when every term has even degree
    assert np.iscomplexobj(exact) == (name != "phi4")
    if np.iscomplexobj(exact):
        assert np.abs(exact.imag).max() > 1e-3
    sigmas = []
    for seed in range(20):
        draws = cov.draw(np.random.default_rng(seed), 20_000)
        a, b = draws @ phi_mat, draws @ theta_mat
        phase = np.exp(1j * (a[:, :, np.newaxis] - b[:, np.newaxis, :]))
        x = eval_potential_batch(p, draws)[:, np.newaxis, np.newaxis] * phase
        for part, want in ((x.real, exact.real), (x.imag, np.imag(exact))):
            delta = np.abs(part.mean(axis=0) - want)
            stderr = part.std(axis=0, ddof=1) / math.sqrt(part.shape[0])
            # an entry with no spread (the zero function's imaginary part) must be exact
            assert np.all(delta[stderr == 0.0] <= 1e-15)
            sigmas.append(float((delta[stderr > 0] / stderr[stderr > 0]).max()))
    assert max(sigmas) <= 5.0, max(sigmas)


def test_constant_polynomials_give_multiples_of_the_exact_gaussian_gram():
    lat = build_lattice(2, [4])
    cov = free_field_covariance(lat, 1.0)
    phis, phi_mat, theta_mat = _phase_problem(lat, 4, 2024)
    g0 = gaussian_polynomial_gram(cov, phi_mat, theta_mat, ONE)
    assert np.array_equal(gram_exact_gaussian(cov, lat, phis).matrix, (g0 + g0.T) / 2.0)
    # the zero function against itself: u = 0, so the entry is exp(0) = 1
    assert g0[-1, -1] == 1.0
    for c in (0.0, -2.5, 1e-3, 7.0):
        got = gaussian_polynomial_gram(cov, phi_mat, theta_mat, Potential(constant=c))
        assert np.isrealobj(got) and np.array_equal(got, c * g0)


def test_polynomial_gram_rejects_a_site_outside_the_covariance():
    lat = build_lattice(2, [4])
    _, phi_mat, theta_mat = _phase_problem(lat, 2, 0)
    with pytest.raises(ValueError, match="out of range"):
        gaussian_polynomial_gram(
            free_field_covariance(lat, 1.0), phi_mat, theta_mat, Potential((Term(1.0, ((lat.site_count, 2),)),))
        )


def _array_form_problems(lat, cov):
    """(the polynomial gaussian_polynomial_gram reads, the Potential the Wick reference reads) by name."""
    f = phi4(lat, 0.1)
    q = 0.4 / cov.inf_norm
    tilted_f = add_potentials(f, Potential(tuple(Term(q / 2, ((x, 2),)) for x in range(lat.site_count))))
    plus, minus = ([lat.index_of([t, x]) for x in range(4)] for t in (1, -1))
    cubic = Potential(tuple(Term(0.05, ((x, 3),)) for x in (plus[0], minus[0])), constant=0.3)
    # the mixed-support family: products across the plane, of one and of several factors per half
    mixed = Potential(
        tuple(Term(-1.5, ((a, 1), (b, 1))) for a, b in zip(plus, minus))
        + (Term(0.25, ((plus[1], 2), (minus[1], 1), (minus[2], 1))),)
    )
    # phi^4 plus a mass term: two even power shapes whose terms interleave in term order
    massive = add_potentials(f, Potential(tuple(Term(0.05, ((x, 2),)) for x in range(lat.site_count))))
    return {
        "phi4": (f, f),
        "phi4-mass": (massive, massive),
        "tilted-square": (
            PolynomialTable.of(f).plus_squares(q / 2, lat.site_count).squared(),
            product(tilted_f, tilted_f),
        ),
        "odd": (add_potentials(f, cubic), add_potentials(f, cubic)),
        "mixed-support": (mixed, mixed),
        "mixed-support-square": (PolynomialTable.of(mixed).squared(), product(mixed, mixed)),
    }


@pytest.mark.parametrize("cov_kind", ["column-table", "explicit", "diagonal"])
@pytest.mark.parametrize("name", ["phi4", "phi4-mass", "tilted-square", "odd", "mixed-support", "mixed-support-square"])
def test_the_array_form_matches_the_wick_reference(cov_kind, name):
    lat = build_lattice(2, [4])
    cov = free_field_covariance(lat, 1.0)
    if cov_kind == "explicit":
        a = np.random.default_rng(3).standard_normal((lat.site_count, lat.site_count))
        cov = Covariance(symmetrized(a @ a.T / lat.site_count))
    elif cov_kind == "diagonal":
        # uncorrelated sites: every moment that pairs two sites is exactly zero, and is skipped
        cov = Covariance(np.diag(np.linspace(0.5, 2.0, lat.site_count)))
    _, phi_mat, theta_mat = _phase_problem(lat, 4, 2024)
    p, reference = _array_form_problems(lat, cov)[name]
    got = gaussian_polynomial_gram(cov, phi_mat, theta_mat, p)
    want = wick_polynomial_gram(cov, phi_mat, theta_mat, reference)
    assert np.iscomplexobj(got) == np.iscomplexobj(want) == (name == "odd")
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    if isinstance(p, Potential):
        # a Potential's shares are added block by block, shapes in order of first appearance, as the
        # reference adds them: the same bits
        assert np.array_equal(got, want)


def test_no_test_functions_give_an_empty_matrix():
    # k = 0: no entry to size a chunk of terms by, and an empty Gram, without a warning
    lat = build_lattice(2, [4])
    empty = np.zeros((lat.site_count, 0))
    got = gaussian_polynomial_gram(free_field_covariance(lat, 1.0), empty, empty, phi4(lat, 0.1))
    assert got.shape == (0, 0)


def test_the_array_form_does_not_depend_on_its_chunks(monkeypatch):
    # the tilted phi^4 squared at N = 64: 8256 terms, in chunks of a few hundred and in one chunk per term
    lat = build_lattice(4, [8])
    cov = free_field_covariance(lat, 1.0)
    _, phi_mat, theta_mat = _phase_problem(lat, 3, 7)
    square = PolynomialTable.of(phi4(lat, 0.1)).plus_squares(0.1, lat.site_count).squared()
    assert square.term_count == 128 * 129 // 2
    cov.matrix  # expanded outside the traced call
    tracemalloc.start()
    try:
        got = gaussian_polynomial_gram(cov, phi_mat, theta_mat, square)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    monkeypatch.setattr(gaussian, "_POLYNOMIAL_BLOCK", 1)
    assert np.array_equal(gaussian_polynomial_gram(cov, phi_mat, theta_mat, square), got)


def test_a_square_has_every_pair_of_terms_once():
    lat = build_lattice(2, [4])
    f = add_potentials(phi4(lat, 0.1), Potential(constant=-0.5))
    table = PolynomialTable.of(f).plus_squares(0.2, lat.site_count)
    square = table.squared()
    # n (n + 1) / 2 pairs, and the constant's 2 c P: n more
    assert square.term_count == 32 * 33 // 2 + 32 and square.constant == 0.25
    x = np.random.default_rng(0).standard_normal((50, lat.site_count))
    values = eval_potential_batch(f, x) + 0.2 * (x * x).sum(axis=1)
    np.testing.assert_allclose(_table_values(square, x), values * values, rtol=1e-12, atol=1e-14)


def _table_values(table, x):
    """A PolynomialTable at the rows of x, term by term."""
    out = np.full(len(x), table.constant)
    for b in table.blocks:
        for c, sites in zip(b.coefficients, b.sites):
            out += c * np.prod([x[:, s] ** p for s, p in zip(sites, b.powers)], axis=0)
    return out


@pytest.mark.parametrize("name", ["tilted", "square", "norm"])
def test_the_damped_mean_is_the_closed_form_of_the_heavier_gaussian(name):
    # E_C[P d exp(i(a - b))] = Z_alpha G(C_alpha, P), d = exp(-(alpha/2) |T|^2), for P = F', F'^2 and
    # |T|^2, the three damped controls: against Gauss-Hermite quadrature over the two sites, 80 nodes
    # per axis
    lat = build_lattice(1, [])
    cov = two_site_cov(0.3)
    alpha, q = 0.2 / cov.inf_norm, 0.3
    tilted = PolynomialTable.of(phi4(lat, 0.5)).plus_squares(q / 2, 2)
    p = {"tilted": tilted, "square": tilted.squared(), "norm": PolynomialTable().plus_squares(1.0, 2)}[name]
    phis = [np.array([0.0, 1.0]), np.array([0.0, -0.7]), np.zeros(2)]
    phi_mat, theta_mat = np.stack(phis, axis=1), np.stack([reflect(lat, phi) for phi in phis], axis=1)
    damped, log_z = tilted_gaussian(cov, alpha)
    got = math.exp(log_z) * gaussian_polynomial_gram(damped, phi_mat, theta_mat, p)
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    z = np.sqrt(2.0) * np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 2)
    w = np.outer(weights, weights).ravel() / np.pi
    t = z @ np.linalg.cholesky(cov.matrix).T
    integrand = w * _table_values(p, t) * np.exp(-0.5 * alpha * (t * t).sum(axis=1))
    phase = (t @ phi_mat)[:, :, np.newaxis] - (t @ theta_mat)[:, np.newaxis, :]
    want = np.einsum("i,imn->mn", integrand, np.cos(phase))
    assert np.isrealobj(got)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15 * np.abs(want).max())


def _green(cov):
    return cov.momentum_roots @ cov.momentum_roots.swapaxes(-1, -2)


@pytest.mark.parametrize("time_extent, extents, mass", [(2, [4], 1.0), (4, [8], 0.5), (6, [12, 16], 0.5)])
def test_the_tilted_free_field_is_the_heavier_free_field(time_extent, extents, mass):
    # exp(-(q/2) |T|^2) adds q to the mass squared: C' = (-laplacian + m^2 + q)^-1
    lat = build_lattice(time_extent, extents)
    cov = free_field_covariance(lat, mass, psd_tolerance=1e-12)
    for q in (0.1, 0.3, 0.8):
        tilted, _ = tilted_gaussian(cov, q)
        heavier = free_field_covariance(lat, math.sqrt(mass * mass + q))
        assert np.abs(tilted.columns - heavier.columns).max() <= 1e-15 * np.abs(heavier.columns).max()
        assert np.abs(_green(tilted) - _green(heavier)).max() <= 2e-15 * np.abs(_green(heavier)).max()
        assert tilted.psd_tolerance == 1e-12
        assert check_theta_invariance(tilted, lat).deviation == 0.0


@pytest.mark.parametrize("time_extent, extents, mass", [(1, [], 1.0), (2, [4], 1.0), (2, [3, 4], 0.7)])
def test_the_tilt_per_momentum_is_the_dense_solve(time_extent, extents, mass):
    lat = build_lattice(time_extent, extents)
    cov = free_field_covariance(lat, mass)
    for q in (0.2, 0.8, 5.0):
        tilted, log_z = tilted_gaussian(cov, q)
        shifted = np.eye(cov.dim) + q * cov.matrix
        want = np.linalg.solve(shifted, cov.matrix)
        assert np.abs(tilted.matrix - want).max() <= 1e-15 * np.abs(want).max()
        assert log_z == pytest.approx(-0.5 * np.linalg.slogdet(shifted)[1], rel=1e-14)
        dense, dense_log_z = tilted_gaussian(Covariance(cov.matrix), q)
        assert dense.momentum_roots is None
        assert np.abs(dense.matrix - want).max() <= 1e-15 * np.abs(want).max()
        assert dense_log_z == pytest.approx(log_z, rel=1e-14)


def test_the_dense_tilt_of_an_explicit_covariance():
    # a rank-deficient C: C' = C (I + qC)^-1 keeps its null space, and on its range C'^-1 = C^-1 + q
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 4))
    c = symmetrized(x @ x.T)
    cov = Covariance(c)
    eigs, vecs = np.linalg.eigh(c)
    for q in (0.05, 0.5, 3.0):
        tilted, log_z = tilted_gaussian(cov, q)
        shifted = np.eye(6) + q * c
        np.testing.assert_allclose(tilted.matrix, np.linalg.solve(shifted, c), rtol=0, atol=1e-14)
        assert np.array_equal(tilted.matrix, tilted.matrix.T)
        want = (vecs * (eigs / (1.0 + q * eigs))) @ vecs.T
        np.testing.assert_allclose(tilted.matrix, want, rtol=0, atol=1e-13)
        assert log_z == pytest.approx(-0.5 * np.log1p(q * eigs[eigs > 1e-12]).sum(), rel=1e-13)


def test_a_tilt_keeps_theta_symmetry_only_when_the_table_has_it():
    # a column table from random roots, even under k -> -k but not theta invariant: its tilt
    # is the dense one of its matrix, and stays off theta invariance as C is
    lat = build_lattice(2, [4])
    rng = np.random.default_rng(5)
    roots = rng.standard_normal((4, 4, 4))
    roots = (roots + roots[-np.arange(4) % 4]) / 2.0
    cols = np.fft.ifftn(roots @ roots.swapaxes(-1, -2), axes=(0,)).real
    cols = (cols + gaussian._transposed(cols)) / 2.0
    cov = Covariance.from_columns(cols, roots)
    assert not check_theta_invariance(cov, lat).passed
    tilted, log_z = tilted_gaussian(cov, 0.3)
    dense, dense_log_z = tilted_gaussian(Covariance(cov.matrix), 0.3)
    assert np.abs(tilted.matrix - dense.matrix).max() <= 1e-14 * np.abs(dense.matrix).max()
    assert log_z == pytest.approx(dense_log_z, rel=1e-13)
    assert not check_theta_invariance(tilted, lat).passed


def test_no_tilt_is_the_covariance_itself():
    cov = free_field_covariance(build_lattice(2, [4]), 1.0)
    assert tilted_gaussian(cov, 0.0) == (cov, 0.0) and tilted_gaussian(cov, 0)[0] is cov


@pytest.mark.parametrize("q", [-0.1, float("nan"), float("inf"), True, "0.2"])
def test_a_tilt_must_be_finite_and_nonnegative(q):
    with pytest.raises(ValueError):
        tilted_gaussian(two_site_cov(0.5), q)


@pytest.mark.parametrize("time_extent, extents, mass", [(2, [4], 1.0), (4, [8], 0.5), (2, [3, 4], 0.7)])
def test_the_row_sum_norm_reads_the_table(time_extent, extents, mass):
    lat = build_lattice(time_extent, extents)
    cov = free_field_covariance(lat, mass)
    dense = Covariance(cov.matrix)
    assert cov.inf_norm == pytest.approx(np.abs(cov.matrix).sum(axis=1).max(), rel=1e-14)
    assert dense.inf_norm == np.abs(cov.matrix).sum(axis=1).max()
    # the free field's rows sum to 1/m^2, its spectral norm: the bound is tight
    assert cov.inf_norm == pytest.approx(1.0 / mass**2, rel=1e-13)
    assert cov.inf_norm >= np.linalg.eigvalsh(cov.matrix).max() * (1 - 1e-14)
