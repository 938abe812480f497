"""A weighted measure with a closed-form Gram matrix: the quadratic splitting density.

On a lattice with no t = 0 sites, F(T) = -(q/2) sum_x T_x^2 splits (each site's term
has its mirror) and is even. The weighted measure exp(F) mu_C is Z mu_C', the tilted
Gaussian of tilted_gaussian: covariance C' = C (I + qC)^-1 and mass Z = det(I + qC)^(-1/2), so

    M[m, n] = Z exp(-(1/2) d^T C' d),  d = phi_m - theta phi_n.

With zero density the direct estimator's control variate makes its estimate exact, and
the direct estimator's own tilt on the grid q ||C||_inf in (0.2, 0.4, 0.8) absorbs this
density into constant weights; with the grid held at (0.0,), these tests are the ones that
hold its sampler, and the factorized one's, to an exact answer with weights that vary.
"""

import math

import numpy as np
import pytest

from rplattice import (
    Covariance,
    FAIL,
    McParams,
    Potential,
    Term,
    ZERO_POTENTIAL,
    build_lattice,
    decompose_pq,
    free_field_covariance,
    gram_exact_gaussian,
    gram_mc_direct,
    gram_mc_factorized,
    is_even,
    phi4,
    random_test_functions,
    rp_verify,
    split_check,
    tilted_gaussian,
)
from rplattice.density import add_potentials

Q = 0.2


def quadratic_density(lattice, q=Q):
    return Potential(tuple(Term(-q / 2, ((x, 2),)) for x in range(lattice.site_count)))


def quadratic_gram(cov, lattice, phis, q=Q):
    """The closed-form weighted Gram matrix Z G0(C'), from the dense tilt of cov's matrix."""
    tilted, log_z = tilted_gaussian(Covariance(cov.matrix), q)
    return math.exp(log_z) * gram_exact_gaussian(tilted, lattice, phis).matrix.real


@pytest.fixture
def untilted(monkeypatch):
    """The direct estimator held at q = 0, so that the quadratic density's weights vary."""
    monkeypatch.setattr(rp_verify, "_TILT_GRID", (0.0,))


@pytest.fixture(scope="module")
def criterion_4_lattice():
    lat = build_lattice(2, [4])
    return lat, free_field_covariance(lat, 1.0), random_test_functions(lat, 4, seed=2024)


def two_site(c):
    lat = build_lattice(1, [])
    return lat, Covariance(np.array([[1.0, c], [c, 1.0]])), [np.array([0.0, 1.0]), np.zeros(2)]


def max_sigma(rep, exact):
    assert rep.stderr.min() > 0.0
    return float((np.abs(rep.matrix - exact) / rep.stderr).max())


def test_the_quadratic_density_splits_and_is_even(criterion_4_lattice):
    lat, cov, phis = criterion_4_lattice
    density = quadratic_density(lat)
    assert split_check(lat, density).is_splitting
    assert is_even(density)
    # q = 0 is the base Gaussian
    want = gram_exact_gaussian(cov, lat, phis).matrix.real
    np.testing.assert_allclose(quadratic_gram(cov, lat, phis, q=0.0), want, rtol=1e-13)


def test_direct_estimate_matches_the_closed_form_for_twenty_seeds(criterion_4_lattice, untilted):
    lat, cov, phis = criterion_4_lattice
    density, exact = quadratic_density(lat), quadratic_gram(cov, lat, phis)
    sigmas = [
        max_sigma(gram_mc_direct(cov, lat, density, phis, McParams(20_000, seed=seed)), exact)
        for seed in range(20)
    ]
    assert max(sigmas) <= 5.0, sigmas


def test_independent_factorized_estimate_matches_the_closed_form_for_twenty_seeds(criterion_4_lattice):
    # independent inner draws make every entry an unbiased product: no bias allowance
    lat, cov, phis = criterion_4_lattice
    pq, exact = decompose_pq(cov, lat), quadratic_gram(cov, lat, phis)
    witness = split_check(lat, quadratic_density(lat)).witness_g
    sigmas = []
    for seed in range(20):
        params = McParams(1, seed=seed, n_outer=512, n_inner=32, share_inner=False)
        sigmas.append(max_sigma(gram_mc_factorized(pq, witness, phis, params), exact))
    assert max(sigmas) <= 5.0, sigmas


def assert_weighted_non_rp_fails_stably():
    lat, cov, phis = two_site(-0.5)
    exact = quadratic_gram(cov, lat, phis)
    exact_min = float(np.linalg.eigvalsh(exact).min())
    assert exact_min == pytest.approx(-0.0784, abs=1e-4)
    for seed in range(10):
        rep = gram_mc_direct(cov, lat, quadratic_density(lat), phis, McParams(100_000, seed=seed))
        assert rep.verdict == FAIL, f"seed {seed} gave {rep.verdict}"
        assert rep.eig_error_bound < 1e-3
        assert abs(rep.min_eigenvalue - exact_min) <= 5.0 * rep.eig_error_bound


def test_weighted_non_rp_covariance_fails_stably(untilted):
    assert_weighted_non_rp_fails_stably()


def test_weighted_non_rp_covariance_fails_stably_under_the_tilt():
    # ||C||_inf = 1.5: the grid's q = 0.2/1.5, 0.4/1.5 and 0.8/1.5 miss the density's q = 0.2
    assert_weighted_non_rp_fails_stably()


@pytest.mark.parametrize("problem", ["criterion-4", "two-site"])
def test_zero_density_direct_estimate_is_the_exact_gaussian_gram(criterion_4_lattice, problem):
    lat, cov, phis = criterion_4_lattice if problem == "criterion-4" else two_site(-0.5)
    exact = gram_exact_gaussian(cov, lat, phis)
    rep = gram_mc_direct(cov, lat, ZERO_POTENTIAL, phis, McParams(5_000, seed=1))
    assert np.array_equal(rep.matrix, exact.matrix)
    assert not rep.stderr.any() and rep.eig_error_bound == 0.0
    assert rep.verdict == exact.verdict
    # the same matrix, solved as real rather than complex Hermitian
    assert rep.min_eigenvalue == pytest.approx(exact.min_eigenvalue, rel=1e-12, abs=1e-15)
    # the weights are still drawn: every one is 1
    assert rep.effective_sample_size == 5_000.0


def test_the_tilted_direct_estimate_of_the_quadratic_density_is_the_closed_form(criterion_4_lattice):
    # ||C||_inf = 1/m^2 = 1, so the grid's q = 0.2 absorbs the density: F' = F + 0.1 |T|^2 vanishes,
    # the weights are Z at every draw, and the estimate is b1 G0(C') = Z G0(C') to rounding
    lat, cov, phis = criterion_4_lattice
    density, exact = quadratic_density(lat), quadratic_gram(cov, lat, phis)
    assert cov.inf_norm == 1.0
    for seed in range(3):
        assert rp_verify._pick_tilt(cov, density, 2048, seed)[0] == 0.2
        rep = gram_mc_direct(cov, lat, density, phis, McParams(20_000, seed=seed))
        np.testing.assert_allclose(rep.matrix.real, exact, rtol=1e-14, atol=1e-14)
        assert rep.stderr.max() <= 1e-15
        assert rep.effective_sample_size == pytest.approx(20_000, rel=1e-12)


def test_tilted_direct_estimate_agrees_with_the_independent_factorized_one(criterion_4_lattice):
    # a quadratic-plus-quartic density that the tilt shifts but cannot absorb, against the
    # unbiased factorized estimate of its split
    lat, cov, phis = criterion_4_lattice
    density = add_potentials(phi4(lat, 0.1), quadratic_density(lat))
    witness = split_check(lat, density).witness_g
    pq = decompose_pq(cov, lat)
    sigmas = []
    for seed in range(10):
        assert rp_verify._pick_tilt(cov, density, 2048, seed)[0] > 0.0
        direct = gram_mc_direct(cov, lat, density, phis, McParams(20_000, seed=seed))
        params = McParams(1, seed=seed, n_outer=1024, n_inner=32, share_inner=False)
        fact = gram_mc_factorized(pq, witness, phis, params)
        sigmas.append(float((np.abs(direct.matrix - fact.matrix) / np.hypot(direct.stderr, fact.stderr)).max()))
    assert max(sigmas) <= 5.0, sigmas
