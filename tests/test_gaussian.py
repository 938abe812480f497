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


def test_free_field_rejects_nonpositive_mass():
    lat = build_lattice(1, [])
    for mass in (0.0, -1.0, float("nan"), float("inf"), 1e200):
        with pytest.raises(ValueError, match="mass must be positive with a finite square"):
            free_field_covariance(lat, mass)


def test_covariance_requires_exact_symmetry_and_psd():
    with pytest.raises(ValueError):
        Covariance(np.array([[1.0, 0.1], [0.2, 1.0]]))
    with pytest.raises(ValueError):
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
    report = verify_convolution_identity(two_site_cov(0.5), lat, n_samples=100_000, seed=31)
    assert report.passed
    assert report.block_deviation == 0.0
    assert report.max_sigma_deviation <= 5.0


def test_convolution_identity_free_field():
    lat = build_lattice(2, [])
    cov = free_field_covariance(lat, 0.5)
    report = verify_convolution_identity(cov, lat, n_samples=100_000, seed=32)
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
    f = covariance_factor(cov.matrix, cov.psd_tolerance)
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
