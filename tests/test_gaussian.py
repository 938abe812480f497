import dataclasses
import math

import numpy as np
import pytest

from rplattice import (
    Covariance,
    build_lattice,
    char_fn,
    check_gaussian_rp,
    check_theta_invariance,
    cross_block,
    decompose_pq,
    embed_plus,
    free_field_covariance,
    reflect,
    sample,
    theta_inner,
    verify_convolution_identity,
)
from rplattice.gaussian import _laplacian_plus_mass, covariance_factor, iter_sample_chunks, symmetrized
from rplattice.streams import NS_FIELD, chunk_counts, substream


def two_site_cov(c):
    return Covariance(np.array([[1.0, c], [c, 1.0]]))


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
    # mass^2 = 1.21e-16 survives in the diagonal of the two degree-1 sites
    cov = free_field_covariance(build_lattice(1, []), 1.1e-8)
    assert np.isfinite(cov.matrix).all() and np.isfinite(cov.factor).all()


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
    assert check_theta_invariance(Covariance(m), lat).deviation == deviation
    ref = np.linalg.inv(_laplacian_plus_mass(lat, 0.7))
    ref = (ref + ref.T) / 2.0
    ref = (ref + ref[np.ix_(theta, theta)]) / 2.0
    assert np.array_equal(free_field_covariance(lat, 0.7).matrix, ref)


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
        assert check_gaussian_rp(cov, lat, tol=1e-10).passed


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
    report = verify_convolution_identity(decompose_pq(two_site_cov(0.5), lat), n_samples=100_000, seed=31)
    assert report.passed
    assert report.block_deviation == 0.0
    assert report.max_sigma_deviation <= 5.0


def test_convolution_identity_free_field():
    lat = build_lattice(2, [])
    cov = free_field_covariance(lat, 0.5)
    report = verify_convolution_identity(decompose_pq(cov, lat), n_samples=100_000, seed=32)
    assert report.passed
    assert report.algebraic_passed and report.sampling_passed


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


def test_free_field_samples_are_bitwise_draws_times_c_times_the_cholesky_factor():
    lat = build_lattice(2, [3])
    cov = free_field_covariance(lat, 0.9)
    factor = cov.matrix @ np.linalg.cholesky(_laplacian_plus_mass(lat, 0.9))
    _assert_draws_are_bitwise(cov, factor, 5000, 11)


def test_free_field_and_two_samples_factor_once_without_eigh(count_linalg):
    lat = build_lattice(2, [3])
    calls = count_linalg()
    cov = free_field_covariance(lat, 0.9)
    sample(cov, 100, seed=1)
    sample(cov, 3000, seed=2)
    n = lat.site_count
    assert calls == [("cholesky", (n, n))]


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


def test_precision_is_neither_kept_nor_part_of_the_value():
    lat = build_lattice(2, [3])
    cov = free_field_covariance(lat, 0.9)
    assert not cov.factor.flags.writeable
    with pytest.raises(ValueError):
        cov.factor[0, 0] = 1.0
    assert "factor" not in repr(cov) and "precision" not in repr(cov)
    assert "precision" not in vars(cov)
    assert [f.name for f in dataclasses.fields(cov)] == ["matrix", "psd_tolerance", "factor"]
    # equality goes by matrix and tolerance, whichever way the factor came
    assert Covariance(np.array([[2.0]]), precision=np.array([[0.5]])) == Covariance(np.array([[2.0]]))


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


def test_covariance_rejects_a_precision_it_cannot_factor():
    c = np.array([[2.0, 1.0], [1.0, 2.0]])
    k = np.linalg.inv(c)
    with pytest.raises(ValueError, match="precision must be exactly symmetric"):
        Covariance(c, precision=k + np.array([[0.0, 1e-9], [0.0, 0.0]]))
    for shape_off in (np.eye(3), k.ravel(), np.ones((2, 3))):
        with pytest.raises(ValueError, match="precision must have the covariance's shape"):
            Covariance(c, precision=shape_off)
    with pytest.raises(ValueError, match="precision is not positive definite"):
        Covariance(c, precision=-k)
    assert np.array_equal(Covariance(c, precision=k).factor, c @ np.linalg.cholesky(k))


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


def test_decompose_pq_repairs_a_split_outside_the_sterbenz_range():
    # B/A is 3 off the diagonal: A - B rounds, and the plain split misses A by an ulp
    a01 = -(2.0**52 + 1) * 2.0**-60
    b01 = -(3 * 2.0**52 + 2) * 2.0**-60
    a = np.array([[1.0, a01], [a01, 1.0]])
    b = np.array([[0.1, b01], [b01, 0.1]])
    c_p, c_q = _plain_split(a, b)
    assert (c_p + c_q)[0, 1] != a01
    pq = decompose_pq(Covariance(np.block([[a, b], [b, a]])), build_lattice(1, [2]))
    assert np.array_equal(pq.c_p + pq.c_q, pq.a_block)
    assert pq.c_p[0, 1] != c_p[0, 1] and np.array_equal(pq.c_q, c_q)
