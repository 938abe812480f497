"""A weighted measure with a closed-form Gram matrix: the quadratic splitting density.

On a lattice with no t = 0 sites, F(T) = -(q/2) sum_x T_x^2 splits (each site's term
has its mirror) and is even. The weighted measure exp(F) mu_C is the Gaussian of
covariance C (I + qC)^-1 with total mass det(I + qC)^(-1/2), so

    M[m, n] = det(I + qC)^(-1/2) exp(-(1/2) d^T C (I + qC)^-1 d),  d = phi_m - theta phi_n.

With zero density the direct estimator's control variate makes its estimate exact, so
these tests are the ones that hold its sampler, and the factorized one's, to an exact
answer with weights that vary.
"""

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
    random_test_functions,
    reflect,
    split_check,
)

Q = 0.2


def quadratic_density(lattice, q=Q):
    return Potential(tuple(Term(-q / 2, ((x, 2),)) for x in range(lattice.site_count)))


def quadratic_gram(cov, lattice, phis, q=Q):
    """The closed-form weighted Gram matrix, from all k^2 differences d at once."""
    shifted = np.eye(cov.dim) + q * cov.matrix
    weighted = np.linalg.solve(shifted, cov.matrix)
    phi_mat = np.stack(phis, axis=1)
    theta_mat = np.stack([reflect(lattice, p) for p in phis], axis=1)
    d = phi_mat[:, :, np.newaxis] - theta_mat[:, np.newaxis, :]
    quad = np.einsum("imn,ij,jmn->mn", d, weighted, d)
    return np.linalg.det(shifted) ** -0.5 * np.exp(-0.5 * quad)


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


def test_direct_estimate_matches_the_closed_form_for_twenty_seeds(criterion_4_lattice):
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


def test_weighted_non_rp_covariance_fails_stably():
    lat, cov, phis = two_site(-0.5)
    exact = quadratic_gram(cov, lat, phis)
    exact_min = float(np.linalg.eigvalsh(exact).min())
    assert exact_min == pytest.approx(-0.0784, abs=1e-4)
    for seed in range(10):
        rep = gram_mc_direct(cov, lat, quadratic_density(lat), phis, McParams(100_000, seed=seed))
        assert rep.verdict == FAIL, f"seed {seed} gave {rep.verdict}"
        assert rep.eig_error_bound < 1e-3
        assert abs(rep.min_eigenvalue - exact_min) <= 5.0 * rep.eig_error_bound


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
