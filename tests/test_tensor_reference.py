"""Estimator kernels against the plainer paths they replaced.

The tensor reference materializes every chunk of samples as a complex
(count, k, k) tensor, splits it into its real and imaginary parts itself, and
sums each part's entries and squares along the sample axis, without the
library's accumulator. The complex-exp reference forms the factorized partial
averages as the mean of w exp(-i phase) over 3-D batched draws, and weights
each outer product by the tilt of the shared draws the estimator picked. The
estimators must agree with both to rounding, give the same verdicts, and
never hold such a tensor themselves. The direct reference fits the same
pilot coefficients and takes the same known means of its control variates,
two untilted and five tilted, from its own closed forms (the Wick reference
of tests/wick_reference.py for F'^2, the single-site one for F' and |T|^2),
at the tilt the estimator is held to.
For an even density the estimators
accumulate only the real part, and the references keep only the real part
of their tensors; for a density with an odd term the estimators accumulate
the imaginary part in a second real accumulator, and the references keep
both parts. Odd-density reports, those of densities the estimators do not
tilt, and one tilted report of each estimator are also pinned by digest.
"""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from rplattice import (
    Covariance,
    McParams,
    Potential,
    Term,
    ZERO_POTENTIAL,
    build_lattice,
    cross_block,
    decompose_pq,
    free_field_covariance,
    gram_mc_direct,
    gram_mc_factorized,
    is_even,
    phi4,
    random_test_functions,
    reflect,
    restrict_plus,
    rp_verify,
    split_check,
    tilted_gaussian,
    verify_convolution_identity,
)
from rplattice.density import add_potentials, eval_potential_batch
from rplattice.gaussian import iter_sample_chunks
from rplattice.rp_verify import _OUTER_CHUNK, _finish_mc_report, _importance_weights
from rplattice.streams import CHUNK_SIZE, NS_FACTORIZED, NS_FIELD, NS_PILOT, chunk_counts, substream
from wick_reference import product, wick_polynomial_gram

RTOL = 1e-12


class TensorMoments:
    """Running moments of real samples, each chunk materialized as a (count, k, k) tensor."""

    def __init__(self):
        self.counts = []
        self.sums = []
        self.squares = 0.0

    def add_real(self, a, b, c, d):
        self.add_tensor(a[:, :, np.newaxis] * c[:, np.newaxis, :] + b[:, :, np.newaxis] * d[:, np.newaxis, :])

    def add_tensor(self, x):
        assert np.isrealobj(x)
        self.counts.append(x.shape[0])
        self.sums.append(x.sum(axis=0))
        self.squares = self.squares + (x**2).sum(axis=0)

    def mean_and_chunk_stderr(self):
        # the spread of the chunk sums about their share of the mean, over the stacked chunks
        sums, counts = np.stack(self.sums), np.array(self.counts, dtype=np.float64)[:, np.newaxis, np.newaxis]
        n, k = counts.sum(), len(self.counts)
        mean = sums.sum(axis=0) / n
        return mean, np.sqrt((((sums - counts * mean) / n) ** 2).sum(axis=0) * k / (k - 1))

    def mean_and_stderr(self):
        n = sum(self.counts)
        mean = sum(self.sums) / n
        return mean, np.sqrt(np.maximum(self.squares - n * mean**2, 0.0) / max(n - 1, 1) / n)


def tensor_parts(f):
    """Accumulators for the real part and, for a density with an odd term, the imaginary part."""
    return TensorMoments(), None if is_even(f) else TensorMoments()


def add_complex(real, imag, x):
    """Add the parts of the complex tensor x to their accumulators; without one, the imaginary part is dropped."""
    real.add_tensor(x.real)
    if imag is not None:
        imag.add_tensor(x.imag)


def single_site_g1(cov, f, d, g0):
    """E[F(T) exp(i d.T)] for a density of single-site terms c T_x^p, all k^2 differences d at once.

    With v = Cd each term is c E[(Y + i v_x)^p] G0 for Y ~ N(0, C_xx), whose even moments
    are C_xx^(j/2) (j - 1)!!.
    """
    v = np.einsum("ij,jmn->imn", cov.matrix, d)
    g1 = np.full(g0.shape, f.constant, dtype=np.complex128)
    for term in f.terms:
        ((x, p),) = term.factors
        for j in range(0, p + 1, 2):
            moment = cov.matrix[x, x] ** (j // 2) * math.prod(range(j - 1, 0, -2))
            g1 += term.coefficient * math.comb(p, j) * moment * (1, 1j, -1, -1j)[(p - j) % 4] * v[x] ** (p - j)
    return g0 * g1


def tensor_gram_mc_direct(cov, lattice, f, phis, params, q=0.0):
    """gram_mc_direct at the tilt q, with the phase exp[i(a_m - b_n)] formed per sample and entry.

    The draws come from the tilted Gaussian C' of tilted_gaussian(cov, q), and F' = F + (q/2) |T|^2.
    At q = 0 each sample is (w - b1 - b2 F) exp[i(a_m - b_n)], with w = exp F and the pilot chunk's
    regression coefficients b2 = sum (F - mean F) w / sum (F - mean F)^2 and b1 = mean w - b2 mean F;
    b1 G0 + b2 G1 is added back, where G0[m, n] = exp(-d^T C' d / 2) for d = phi_m - theta phi_n is
    formed for all k^2 differences at once, and G1 is single_site_g1 of F. The pilot is drawn from
    C at every q. At q > 0 the weight w = exp(F' + log Z) is regressed on
    (1, F', D F', D F'^2, D |T|^2) by least squares on the pilot, each row weighted by
    r = exp(-(q/2) |T|^2) / sum, d mu_C' / d mu_C with log Z cancelled, with D = exp(-(alpha/2) |T|^2)
    and alpha = 0.2 / ||C'||_inf, and Z_a (b3 G1a + b4 G2a + b5 G3a) is added too: under C'_a of
    tilted_gaussian(C', alpha), G1a is single_site_g1 of F', G2a the Wick reference of F'^2 built
    term by term and G3a single_site_g1 of sum_x T_x^2. For an even f only the real part of each
    sample's tensor is accumulated.
    """
    pilot = substream(params.seed, NS_PILOT, 0).standard_normal((min(params.n_samples, CHUNK_SIZE), cov.dim))
    pilot = pilot @ cov.factor.T
    cov, log_z = tilted_gaussian(cov, q)
    squares = Potential(tuple(Term(q / 2, ((x, 2),)) for x in range(cov.dim)) if q else ())
    tilted_f = add_potentials(f, squares)
    alpha = 0.2 / cov.inf_norm

    def tilted_values(x):
        sq = np.einsum("ij,ij->i", x, x)
        values = eval_potential_batch(f, x) + 0.5 * q * sq
        damping = np.exp(-0.5 * alpha * sq)
        damped = [damping * values, damping * values * values, damping * sq] if q else []
        return values, np.stack([np.ones_like(values), values, *damped], axis=1)

    phi_mat = np.stack(phis, axis=1)
    theta_mat = np.stack([reflect(lattice, p) for p in phis], axis=1)
    f_pilot, x_pilot = tilted_values(pilot)
    w_pilot = np.exp(f_pilot + log_z)
    if q:
        root = np.exp(-0.25 * q * np.einsum("ij,ij->i", pilot, pilot))
        root /= np.sqrt(root @ root)
        coefficients = np.linalg.lstsq(x_pilot * root[:, np.newaxis], w_pilot * root, rcond=None)[0]
    else:
        centred = f_pilot - f_pilot.mean()
        b2 = centred @ w_pilot / (centred @ centred)
        coefficients = np.array([w_pilot.mean() - b2 * f_pilot.mean(), b2])
    d = phi_mat[:, :, np.newaxis] - theta_mat[:, np.newaxis, :]
    g0 = np.exp(-0.5 * np.einsum("imn,ij,jmn->mn", d, cov.matrix, d))
    means = [g0, single_site_g1(cov, tilted_f, d, g0)]
    if q:
        damped, log_z_alpha = tilted_gaussian(cov, alpha)
        g0_alpha = np.exp(-0.5 * np.einsum("imn,ij,jmn->mn", d, damped.matrix, d))
        norm = Potential(tuple(Term(1.0, ((x, 2),)) for x in range(cov.dim)))
        means += [
            math.exp(log_z_alpha) * single_site_g1(damped, tilted_f, d, g0_alpha),
            math.exp(log_z_alpha) * wick_polynomial_gram(damped, phi_mat, theta_mat, product(tilted_f, tilted_f)),
            math.exp(log_z_alpha) * single_site_g1(damped, norm, d, g0_alpha),
        ]
    offset = sum(b * (g.real if is_even(f) else g) for b, g in zip(coefficients, means))
    real, imag = tensor_parts(f)
    weight_stats = []
    for _, block in iter_sample_chunks(cov, params.n_samples, params.seed):
        a, b = block @ phi_mat, block @ theta_mat
        values, controls = tilted_values(block)
        w = np.exp(values + log_z)
        phase = a[:, :, np.newaxis] - b[:, np.newaxis, :]
        x = (w - controls @ coefficients)[:, np.newaxis, np.newaxis] * np.exp(1j * phase)
        add_complex(real, imag, x)
        weight_stats.append((float(w.sum()), float(w.max())))
    return _finish_mc_report(real, cov.psd_tolerance, params.seed, "mc-direct", weight_stats, offset, imag)


def exp_gram_mc_factorized(cov, lattice, g, phis, params):
    """gram_mc_factorized with each chunk's inner draws as one 3-D batch and an inner mean of w exp(-i phase).

    The shared draws L are the library's quasi-random ones, rp_verify._shared_draws from the tilted
    c_q' of the tilt q the estimator picks, and the outer products omega conj(H_m) H_n,
    omega = exp(log Z + (q/2) |L|^2), are formed and split into their parts; for an even g only the
    real part is accumulated, and from 32 outer chunks on the stderr is the spread of the chunk
    means. The effective sample size is that of the weights omega exp G of the inner samples. Both
    levels draw through Covariance.transformed, whose rows do not depend on how many are drawn at
    once, so the weights, and with them the effective sample size, are the estimator's bit for bit.
    """
    pq = decompose_pq(cov, lattice)
    nh = lattice.n_plus
    h_mat = np.stack([restrict_plus(lattice, p) for p in phis], axis=1)
    q, tilted, log_z = rp_verify._pick_shared_tilt(pq, g, params)
    real, imag = tensor_parts(g)
    weight_stats = []

    def partial_averages(rng, shared, omega):
        count = len(shared)
        s = shared[:, np.newaxis, :] + pq.p.draw(rng, count * params.n_inner).reshape(count, params.n_inner, nh)
        w = _importance_weights(eval_potential_batch(g, s.reshape(-1, nh)), "half-density").reshape(count, params.n_inner)
        # each inner sample weighs omega(L) exp G(T + L) in the estimate
        weighted = omega[:, np.newaxis] * w
        weight_stats.append((float(weighted.sum()), float(weighted.max())))
        return (w[:, :, np.newaxis] * np.exp(-1j * (s @ h_mat))).mean(axis=1)

    for chunk_index, count in chunk_counts(params.n_outer, _OUTER_CHUNK):
        rng = substream(params.seed, NS_FACTORIZED, chunk_index)
        shared = rp_verify._shared_draws(tilted, rng, count)
        # the estimator's sqrt(omega), squared: the weight of the outer term, bit for bit
        root = np.exp(0.5 * (log_z + 0.5 * q * np.einsum("ij,ij->i", shared, shared)))
        w = root * root
        h1 = partial_averages(rng, shared, w)
        h2 = h1 if params.share_inner else partial_averages(rng, shared, w)
        add_complex(real, imag, w[:, np.newaxis, np.newaxis] * np.conj(h1)[:, :, np.newaxis] * h2[:, np.newaxis, :])
    kind = "mc-factorized-shared" if params.share_inner else "mc-factorized-independent"
    return _finish_mc_report(real, cov.psd_tolerance, params.seed, kind, weight_stats, imag=imag, by_chunk=True)


@pytest.fixture(scope="module")
def criterion_4():
    lat = build_lattice(2, [4])
    density = phi4(lat, 0.1)
    return lat, free_field_covariance(lat, 1.0), density, random_test_functions(lat, 4, seed=2024)


@pytest.fixture(scope="module")
def odd_criterion_4(criterion_4):
    """Criterion 4 with a mirrored cubic term: it still splits, and it is odd."""
    lat, cov, density, phis = criterion_4
    cubic = Potential(tuple(Term(0.05, ((lat.index_of(site), 3),)) for site in ([1, 0], [-1, 0])))
    return lat, cov, add_potentials(density, cubic), phis


def report_digest(report):
    """SHA-256 of every GramReport field: array bytes, and the repr of the rest."""
    h = hashlib.sha256()
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        h.update(f.name.encode())
        h.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return h.hexdigest()


# Reports of odd_criterion_4, whose imaginary part has its own real accumulator (numpy 2.4 with
# OpenBLAS 0.3.31 on x86-64, the same at one and two BLAS threads; another BLAS build may round
# the products otherwise). They moved from those of the complex accumulator they replaced by at
# most 2e-16 of the largest matrix entry and 6e-15 of the largest stderr. The direct digest was
# taken again, at one and two BLAS threads, once free-field draws read their normals as
# coefficients of the spatial modes: its draws, not their law, changed per seed. The factorized
# digests were taken again the same way once the half-lattice summands drew through those modes,
# and again once the shared draws came from randomised Sobol blocks of 32 outer draws, with the
# stderr from the spread of the 32 chunk means: the draws, not their law, changed per seed.
ODD_DIRECT_DIGEST = "652fdbcd0c488c67a6dadb38bac931da7fd72b491b4a3b303bfc913b3075c26b"
ODD_FACTORIZED_DIGESTS = {
    True: "1c32eae73ed14eb4e1e256064dd2969dfff69223be2a49bddda0f10aa455fc68",
    False: "237d1d55a482ee162d42a625d7d3140f48b4f4c98edf5b36f562eb4b5badc135",
}


def assert_same_report(got, want):
    assert np.isrealobj(got.matrix) == np.isrealobj(want.matrix)
    if np.isrealobj(want.matrix):
        # an even density's estimate is real: the imaginary part written as matrix_im is exactly zero
        assert not np.any(got.matrix.imag)
    assert got.verdict == want.verdict
    assert got.n_samples == want.n_samples
    assert got.effective_sample_size == want.effective_sample_size
    np.testing.assert_allclose(got.matrix, want.matrix, rtol=RTOL)
    np.testing.assert_allclose(got.stderr, want.stderr, rtol=RTOL)
    assert got.eig_error_bound == pytest.approx(want.eig_error_bound, rel=RTOL)
    # Weyl: an eigenvalue moves by at most the norm of the matrix change
    assert abs(got.min_eigenvalue - want.min_eigenvalue) <= RTOL * np.abs(want.matrix).max()


@pytest.mark.parametrize("seed", [0, 9])
def test_direct_gram_matches_the_tensor_path(criterion_4, monkeypatch, seed):
    monkeypatch.setattr(rp_verify, "_TILT_GRID", (0.0,))
    lat, cov, density, phis = criterion_4
    params = McParams(200_000, seed=seed)
    assert_same_report(
        gram_mc_direct(cov, lat, density, phis, params),
        tensor_gram_mc_direct(cov, lat, density, phis, params),
    )


@pytest.mark.parametrize("seed", [0, 9])
def test_tilted_direct_gram_matches_the_tensor_path(criterion_4, monkeypatch, seed):
    # the grid held at the one tilt q ||C||_inf = 0.4 (phi^4 picks 0.2 or 0.4 by seed): five controls,
    # the three damped ones among them
    monkeypatch.setattr(rp_verify, "_TILT_GRID", (0.4,))
    lat, cov, density, phis = criterion_4
    params = McParams(200_000, seed=seed)
    assert_same_report(
        gram_mc_direct(cov, lat, density, phis, params),
        tensor_gram_mc_direct(cov, lat, density, phis, params, q=0.4 / cov.inf_norm),
    )


# Reports of densities the direct estimator does not tilt, on the criterion-4 problem at 20k
# samples, seed 3, taken before the tilt existed (numpy 2.4 with OpenBLAS 0.3.31 on x86-64, the
# same at one and two BLAS threads): the tilt must leave them byte-identical. "mixed-sign" was
# taken again once the polynomial Gram added a Potential's shares block by block: its T^2 and T^4
# terms interleave in term order, so its control means round differently in the last bits.
UNTILTED_DIRECT_DIGESTS = {
    "mixed-support": "cefc445808ed1c127f9b00067f507d249c6c8d3cc85933fc4ab9c5026634d3aa",
    "zero": "70383d6281b9889594edb10cc39a38647d068950f89437866a065bd4e826925b",
    "constant": "fbca91b9f63c6b02d091e256abd6ac605edfd962871c472c17db627bc2aed065",
    "positive-coefficient": "64a22556c493d1b5f10484ffb3738ad6c7a03f19a30bc910a61e5131aa9f7c10",
    "mixed-sign": "390920dcf5a6a05d04ff853130cd743530cb38c46fbd1194fc15fb14e80e5085",
}


@pytest.mark.parametrize("name", sorted(UNTILTED_DIRECT_DIGESTS))
def test_untilted_direct_reports_keep_their_bytes(criterion_4, name):
    lat, cov, phi4_density, phis = criterion_4
    plus, minus = ([lat.index_of([t, x]) for x in range(4)] for t in (1, -1))
    squares = Potential(tuple(Term(0.05, ((x, 2),)) for x in range(lat.site_count)))
    density = {
        "mixed-support": Potential(tuple(Term(-1.5, ((a, 1), (b, 1))) for a, b in zip(plus, minus))),
        "zero": ZERO_POTENTIAL,
        "constant": Potential(constant=0.25),
        "positive-coefficient": squares,
        "mixed-sign": add_potentials(phi4_density, squares),
    }[name]
    got = gram_mc_direct(cov, lat, density, phis, McParams(20_000, seed=3))
    assert report_digest(got) == UNTILTED_DIRECT_DIGESTS[name]


# Reports of the tilted phi^4 density on the criterion-4 problem, seed 3 (numpy 2.4 with OpenBLAS
# 0.3.31 on x86-64, the same at one and two BLAS threads): the direct estimate at 20k samples, whose
# pilot fit is a weighted lstsq, taken again once d |T|^2 joined its damped controls (a fifth
# coefficient moves every residual, and so every entry, per seed but not in law), and the shared
# factorized estimate of the witness at 512 x 100 draws, which neither that nor the reweighted
# direct pilot before it changed. The factorized digest was taken again once the shared draws came
# from randomised Sobol blocks of 32 (16 chunks, below the chunk-spread stderr's 32): its draws,
# not their law, changed per seed.
TILTED_DIGESTS = {
    "direct": "e79c0d09f719ea818e69b327414759b7d34c38da74a5941dc7f99d579e07e285",
    "factorized": "ffdb5d8830d191ac116eccaae7b32c7af793b2decf476bc2bb4bcbe3bf5d785b",
}


def test_tilted_reports_keep_their_bytes(criterion_4):
    lat, cov, density, phis = criterion_4
    pq, witness = decompose_pq(cov, lat), split_check(lat, density).witness_g
    direct, factorized = McParams(20_000, seed=3), McParams(1, seed=3, n_outer=512, n_inner=100)
    assert rp_verify._pick_tilt(cov, density, 2048, 3)[0] > 0.0
    assert rp_verify._pick_shared_tilt(pq, witness, factorized)[0] > 0.0
    got = {
        "direct": gram_mc_direct(cov, lat, density, phis, direct),
        "factorized": gram_mc_factorized(pq, witness, phis, factorized),
    }
    assert {name: report_digest(report) for name, report in got.items()} == TILTED_DIGESTS


# Shared factorized reports of half-densities the estimator does not tilt, on the criterion-4
# problem at 1000 x 200 draws, seed 3, taken before the tilt of the shared draws existed (numpy 2.4
# with OpenBLAS 0.3.31 on x86-64, the same at one and two BLAS threads): the tilt, and drawing
# the inner draws of a sub-block in one call, left them byte-identical. They were taken again once
# the shared draws came from randomised Sobol blocks of 32, with the stderr from the spread of the
# 32 chunk means: the draws, not their law, changed per seed.
UNTILTED_FACTORIZED_DIGESTS = {
    "mixed-sign": "8662b42e800d05bcda8839f11e573ff53375d7ca6499a234016b99bfbc222245",
    "positive-coefficient": "e178e5cbbbf0c9e8f9e0a093584ba03779acc9e0870073735b97d2909ecaa27d",
    "zero": "a26efe6f84be3bb325aaa51aa6c944eda6e24535c5a39f1256d61313635b9ef3",
}


@pytest.mark.parametrize("name", sorted(UNTILTED_FACTORIZED_DIGESTS))
def test_untilted_factorized_reports_keep_their_bytes(criterion_4, name):
    lat, cov, phi4_density, phis = criterion_4
    squares = Potential(tuple(Term(0.05, ((x, 2),)) for x in range(lat.site_count)))
    density = {
        "mixed-sign": add_potentials(phi4_density, squares),
        "positive-coefficient": squares,
        "zero": ZERO_POTENTIAL,
    }[name]
    witness = split_check(lat, density).witness_g
    params = McParams(1, seed=3, n_outer=1_000, n_inner=200)
    got = gram_mc_factorized(decompose_pq(cov, lat), witness, phis, params)
    assert report_digest(got) == UNTILTED_FACTORIZED_DIGESTS[name]


@pytest.mark.parametrize("share_inner", [True, False], ids=["shared", "independent"])
def test_factorized_gram_matches_the_tensor_path(criterion_4, monkeypatch, share_inner):
    lat, cov, density, phis = criterion_4
    witness = split_check(lat, density).witness_g
    params = McParams(1, seed=3, n_outer=1_000, n_inner=200, share_inner=share_inner)
    got = gram_mc_factorized(decompose_pq(cov, lat), witness, phis, params)
    # same factors conj(H) and H, accumulated as the (count, k, k) tensor of their products
    monkeypatch.setattr(rp_verify, "ChunkMoments", TensorMoments)
    assert_same_report(got, gram_mc_factorized(decompose_pq(cov, lat), witness, phis, params))


@pytest.mark.parametrize("share_inner", [True, False], ids=["shared", "independent"])
def test_factorized_gram_matches_the_complex_exp_kernel(criterion_4, share_inner):
    lat, cov, density, phis = criterion_4
    witness = split_check(lat, density).witness_g
    params = McParams(1, seed=5, n_outer=1_000, n_inner=200, share_inner=share_inner)
    assert_same_report(
        gram_mc_factorized(decompose_pq(cov, lat), witness, phis, params),
        exp_gram_mc_factorized(cov, lat, witness, phis, params),
    )


def test_odd_density_direct_gram_keeps_the_complex_path(odd_criterion_4):
    lat, cov, density, phis = odd_criterion_4
    assert not is_even(density)
    params = McParams(200_000, seed=0)
    got = gram_mc_direct(cov, lat, density, phis, params)
    assert_same_report(got, tensor_gram_mc_direct(cov, lat, density, phis, params))
    assert report_digest(got) == ODD_DIRECT_DIGEST


@pytest.mark.parametrize("share_inner", [True, False], ids=["shared", "independent"])
def test_odd_density_factorized_gram_keeps_the_complex_path(odd_criterion_4, monkeypatch, share_inner):
    lat, cov, density, phis = odd_criterion_4
    witness = split_check(lat, density).witness_g
    assert not is_even(witness)
    params = McParams(1, seed=3, n_outer=1_000, n_inner=200, share_inner=share_inner)
    got = gram_mc_factorized(decompose_pq(cov, lat), witness, phis, params)
    assert report_digest(got) == ODD_FACTORIZED_DIGESTS[share_inner]
    assert_same_report(got, exp_gram_mc_factorized(cov, lat, witness, phis, params))
    monkeypatch.setattr(rp_verify, "ChunkMoments", TensorMoments)
    assert_same_report(got, gram_mc_factorized(decompose_pq(cov, lat), witness, phis, params))


@pytest.mark.parametrize("share_inner", [True, False], ids=["shared", "independent"])
def test_factorized_zero_function_entry_is_exact_without_a_density(criterion_4, share_inner):
    lat, cov, _, phis = criterion_4
    params = McParams(1, seed=0, n_outer=200, n_inner=50, share_inner=share_inner)
    rep = gram_mc_factorized(decompose_pq(cov, lat), ZERO_POTENTIAL, phis, params)
    # unit weights at phase zero: the inner sum is n_inner exactly, divided once
    assert rep.matrix[-1, -1] == 1.0
    assert rep.stderr[-1, -1] == 0.0


def tensor_joint_law_sigma(pq, n_samples, seed):
    """verify_convolution_identity's statistic, from each chunk's (count, k, k) tensor of y_i y_j.

    The same streams through the summands' expanded factors give P_1 (even rows) and P_2 (odd
    rows) and the shared Q; the standard errors are Isserlis' S_ii S_jj + S_ij S_ji of the
    target S, entry by entry.
    """
    lat = pq.lattice
    a, b = pq.a_block, cross_block(pq.covariance, lat, warn=False)
    target = np.block([[a, b], [b, a]])
    root_p, root_q = pq.p.factor, pq.q.factor
    total = np.zeros_like(target)
    for chunk_index, count in chunk_counts(n_samples):
        rng = substream(seed, NS_FIELD, chunk_index)
        shared = rng.standard_normal((count, lat.n_plus)) @ root_q.T
        p = rng.standard_normal((2 * count, lat.n_plus)) @ root_p.T
        y = np.concatenate([p[0::2] + shared, p[1::2] + shared], axis=1)
        total += (y[:, :, np.newaxis] * y[:, np.newaxis, :]).sum(axis=0)
    variance = np.einsum("ii,jj->ij", target, target) + target * target.T
    delta = np.abs(total / n_samples - target)
    sigmas = [
        d / math.sqrt(v / n_samples) if v > 0 else (0.0 if d <= 1e-12 else math.inf)
        for d, v in zip(delta.ravel(), variance.ravel())
    ]
    return max(sigmas)


def test_joint_law_check_matches_the_tensor_path():
    lat = build_lattice(4, [8])
    free = free_field_covariance(lat, 0.5)
    # per-momentum summands, and the dense summands of the same matrix given explicitly
    for cov in (free, Covariance(free.matrix)):
        pq = decompose_pq(cov, lat)
        got = verify_convolution_identity(pq, n_samples=5_000, seed=17)
        want = tensor_joint_law_sigma(pq, 5_000, 17)
        assert got.max_sigma_deviation == pytest.approx(want, rel=RTOL)
        assert got.passed == (want <= 5.0)


def test_joint_law_check_never_forms_the_sample_tensor():
    # N=128: a (2048, 128, 128) float64 chunk alone would be 256 MiB
    lat = build_lattice(4, [16])
    cov = free_field_covariance(lat, 0.5)
    tracemalloc.start()
    try:
        report = verify_convolution_identity(decompose_pq(cov, lat), n_samples=4096, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.n_samples == 4096
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_joint_law_check_memory_does_not_grow_with_the_sample_count():
    # only the running y^T y is kept: ten times the chunks cost no more memory
    lat = build_lattice(4, [16, 2])
    pq = decompose_pq(free_field_covariance(lat, 0.5), lat)
    for summand in (pq.p, pq.q):
        summand.draw(np.random.default_rng(0), 1)  # the basis is built once, outside the traced calls
    peaks = []
    for n in (4096, 40960):
        tracemalloc.start()
        try:
            verify_convolution_identity(pq, n_samples=n, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 2**20, [f"{peak / 2**20:.1f} MiB" for peak in peaks]
