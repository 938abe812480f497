"""Estimator kernels against the plainer paths they replaced.

The tensor reference materializes every chunk x[s, m, n] = p[s, m] q[s, n]
and sums its entries and squares along the sample axis. The complex-exp
reference forms the factorized partial averages as the mean of
w exp(-i phase) over 3-D batched draws. The estimators must agree with both
to rounding, give the same verdicts, and never hold such a tensor themselves.
"""

import tracemalloc

import numpy as np
import pytest

from rplattice import (
    McParams,
    ZERO_POTENTIAL,
    build_lattice,
    decompose_pq,
    free_field_covariance,
    gaussian,
    gram_mc_direct,
    gram_mc_factorized,
    phi4,
    random_test_functions,
    reflect,
    restrict_plus,
    rp_verify,
    split_check,
    verify_convolution_identity,
)
from rplattice.gaussian import iter_sample_chunks
from rplattice.rp_verify import _OUTER_CHUNK, DEFAULT_GRAM_TOL, _finish_mc_report, _importance_weights
from rplattice.streams import NS_FACTORIZED, ChunkMoments, chunk_counts, substream

RTOL = 1e-12


class TensorMoments(ChunkMoments):
    """Accumulates each chunk materialized as a (count, k, k) tensor."""

    def add_outer(self, p, q):
        self.add_tensor(p[:, :, np.newaxis] * q[:, np.newaxis, :])

    def add_tensor(self, x):
        parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
        squares = [(part**2).sum(axis=0) for part in parts]
        if self._squares is not None:
            squares = [acc + sq for acc, sq in zip(self._squares, squares)]
        self._squares = squares
        self.counts.append(x.shape[0])
        self.sums.append(x.sum(axis=0))


def recording(base, seen):
    """A subclass of base that appends every (mean, stderr) it returns to seen."""

    class Recording(base):
        def mean_and_stderr(self):
            seen.append(super().mean_and_stderr())
            return seen[-1]

    return Recording


def tensor_gram_mc_direct(cov, lattice, f, phis, params):
    """gram_mc_direct with the phase exp[i(a_m - b_n)] formed per sample and entry."""
    phi_mat = np.stack(phis, axis=1)
    theta_mat = np.stack([reflect(lattice, p) for p in phis], axis=1)
    moments = TensorMoments()
    weight_stats = []
    for _, block in iter_sample_chunks(cov, params.n_samples, params.seed):
        a, b = block @ phi_mat, block @ theta_mat
        w = _importance_weights(f, block, "density")
        phase = a[:, :, np.newaxis] - b[:, np.newaxis, :]
        moments.add_tensor(w[:, np.newaxis, np.newaxis] * np.exp(1j * phase))
        weight_stats.append((float(w.sum()), float(w.max())))
    return _finish_mc_report(moments, DEFAULT_GRAM_TOL, params.seed, "mc-direct", weight_stats)


def exp_gram_mc_factorized(cov, lattice, g, phis, params):
    """gram_mc_factorized with batched 3-D draws and an inner mean of w exp(-i phase)."""
    pq = decompose_pq(cov, lattice)
    nh = lattice.n_plus
    h_mat = np.stack([restrict_plus(lattice, p) for p in phis], axis=1)
    root_p, root_q = pq.roots
    moments = ChunkMoments()
    weight_stats = []

    def partial_averages(rng, shared, count):
        s = shared[:, np.newaxis, :] + rng.standard_normal((count, params.n_inner, nh)) @ root_p.T
        w = _importance_weights(g, s.reshape(-1, nh), "half-density").reshape(count, params.n_inner)
        weight_stats.append((float(w.sum()), float(w.max())))
        return (w[:, :, np.newaxis] * np.exp(-1j * (s @ h_mat))).mean(axis=1)

    for chunk_index, count in chunk_counts(params.n_outer, _OUTER_CHUNK):
        rng = substream(params.seed, NS_FACTORIZED, chunk_index)
        shared = rng.standard_normal((count, nh)) @ root_q.T
        h1 = partial_averages(rng, shared, count)
        h2 = h1 if params.share_inner else partial_averages(rng, shared, count)
        moments.add_outer(np.conj(h1), h2)
    kind = "mc-factorized-shared" if params.share_inner else "mc-factorized-independent"
    return _finish_mc_report(moments, DEFAULT_GRAM_TOL, params.seed, kind, weight_stats)


@pytest.fixture(scope="module")
def criterion_4():
    lat = build_lattice(2, [4])
    density = phi4(lat, 0.1)
    return lat, free_field_covariance(lat, 1.0), density, random_test_functions(lat, 4, seed=2024)


def assert_same_report(got, want):
    assert got.verdict == want.verdict
    assert got.n_samples == want.n_samples
    assert got.effective_sample_size == want.effective_sample_size
    np.testing.assert_allclose(got.matrix, want.matrix, rtol=RTOL)
    np.testing.assert_allclose(got.stderr, want.stderr, rtol=RTOL)
    assert got.eig_error_bound == pytest.approx(want.eig_error_bound, rel=RTOL)
    # Weyl: an eigenvalue moves by at most the norm of the matrix change
    assert abs(got.min_eigenvalue - want.min_eigenvalue) <= RTOL * np.abs(want.matrix).max()


@pytest.mark.parametrize("seed", [0, 9])
def test_direct_gram_matches_the_tensor_path(criterion_4, seed):
    lat, cov, density, phis = criterion_4
    params = McParams(200_000, seed=seed)
    assert_same_report(
        gram_mc_direct(cov, lat, density, phis, params),
        tensor_gram_mc_direct(cov, lat, density, phis, params),
    )


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


@pytest.mark.parametrize("share_inner", [True, False], ids=["shared", "independent"])
def test_factorized_zero_function_entry_is_exact_without_a_density(criterion_4, share_inner):
    lat, cov, _, phis = criterion_4
    params = McParams(1, seed=0, n_outer=200, n_inner=50, share_inner=share_inner)
    rep = gram_mc_factorized(decompose_pq(cov, lat), ZERO_POTENTIAL, phis, params)
    # unit weights at phase zero: the inner sum is n_inner exactly, divided once
    assert rep.matrix[-1, -1] == 1.0
    assert rep.stderr[-1, -1] == 0.0


def test_joint_law_check_matches_the_tensor_path(monkeypatch):
    lat = build_lattice(4, [8])
    cov = free_field_covariance(lat, 0.5)
    reports, moments = [], []
    for accumulator in (ChunkMoments, TensorMoments):
        monkeypatch.setattr(gaussian, "ChunkMoments", recording(accumulator, moments))
        reports.append(verify_convolution_identity(decompose_pq(cov, lat), n_samples=20_000, seed=17))
    (got_mean, got_stderr), (want_mean, want_stderr) = moments
    np.testing.assert_allclose(got_mean, want_mean, rtol=RTOL)
    np.testing.assert_allclose(got_stderr, want_stderr, rtol=RTOL)
    got, want = reports
    assert got.passed == want.passed
    assert got.max_sigma_deviation == pytest.approx(want.max_sigma_deviation, rel=RTOL)


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
