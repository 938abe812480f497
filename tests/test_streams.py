import numpy as np
import pytest

from rplattice import streams
from rplattice.streams import CHUNK_SIZE, NS_FIELD, NS_PILOT, ChunkMoments, chunk_counts, substream

SPLIT = (2048, 2048, 17)


def feed(moments, a, b, c, d, split=SPLIT):
    start = 0
    for count in split:
        rows = slice(start, start + count)
        moments.add_real(a[rows], b[rows], c[rows], d[rows])
        start += count


def sample_factor(kind, n=sum(SPLIT), k=3, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k)) + 0.5
    if kind == "complex":
        x = x + 1j * (rng.standard_normal((n, k)) - 0.25)
    return x


def test_chunk_counts_cover_the_range():
    assert list(chunk_counts(4113)) == [(0, 2048), (1, 2048), (2, 17)]
    assert list(chunk_counts(5, chunk_size=2)) == [(0, 2), (1, 2), (2, 1)]
    # every sampler draws through chunk_counts, so it validates the count for all of them
    assert list(chunk_counts(4096.0)) == [(0, 2048), (1, 2048)]
    for bad in (0, -1, 2.5, True, "8"):
        with pytest.raises(ValueError, match="sample count"):
            list(chunk_counts(bad))


def test_namespaces_are_distinct():
    namespaces = {name: value for name, value in vars(streams).items() if name.startswith("NS_")}
    assert len(namespaces) >= 5
    assert len(set(namespaces.values())) == len(namespaces), namespaces


def test_the_pilot_draws_apart_from_the_field():
    # the direct estimator's control-variate coefficient must not reuse chunk 0 of its draws
    for seed in (0, 7, -1):
        pilot = substream(seed, NS_PILOT, 0).standard_normal((CHUNK_SIZE, 4))
        field = substream(seed, NS_FIELD, 0).standard_normal((CHUNK_SIZE, 4))
        assert not np.isin(pilot, field).any()


@pytest.mark.parametrize(
    "p_kind, q_kind",
    [("real", "real"), ("complex", "complex"), ("real", "complex"), ("complex", "real")],
    ids=["real", "complex", "real-complex", "complex-real"],
)
def test_chunk_moments_match_a_direct_reference(p_kind, q_kind):
    # x = p q of complex factors p = a + ib, q = c + id, as the estimators accumulate it:
    # Re x = a c - b d and Im x = a d + b c, each in its own real accumulator; the
    # reference materializes the (count, 3, 4) tensor the accumulators never form
    p = sample_factor(p_kind, k=3, seed=5)
    q = sample_factor(q_kind, k=4, seed=6)
    x = p[:, :, np.newaxis] * q[:, np.newaxis, :]
    a, b, c, d = p.real, p.imag, q.real, q.imag
    real, imag = ChunkMoments(), ChunkMoments()
    feed(real, a, -b, c, d)
    feed(imag, a, b, d, c)

    for moments, part in ((real, x.real), (imag, x.imag)):
        mean, stderr = moments.mean_and_stderr()
        assert mean.shape == stderr.shape == (3, 4)
        assert mean.dtype == stderr.dtype == np.float64
        np.testing.assert_allclose(mean, part.mean(axis=0), rtol=1e-12, atol=0)
        np.testing.assert_allclose(stderr, np.sqrt(part.var(axis=0, ddof=1) / part.shape[0]), rtol=1e-12, atol=0)
        assert moments.counts == list(SPLIT)
        starts = np.cumsum((0,) + SPLIT[:-1])
        for start, count, chunk_sum in zip(starts, SPLIT, moments.sums):
            np.testing.assert_allclose(chunk_sum, part[start:start + count].sum(axis=0), rtol=1e-12, atol=0)


def test_real_chunks_of_two_products_match_a_direct_reference():
    # x = a c + b d, materialized here and never by the accumulator
    a, b = (sample_factor("real", k=3, seed=seed) for seed in (5, 7))
    c, d = (sample_factor("real", k=4, seed=seed) for seed in (6, 8))
    x = a[:, :, np.newaxis] * c[:, np.newaxis, :] + b[:, :, np.newaxis] * d[:, np.newaxis, :]
    moments = ChunkMoments()
    feed(moments, a, b, c, d)
    mean, stderr = moments.mean_and_stderr()

    assert mean.shape == stderr.shape == (3, 4)
    assert mean.dtype == stderr.dtype == np.float64
    np.testing.assert_allclose(mean, x.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(stderr, np.sqrt(x.var(axis=0, ddof=1) / x.shape[0]), rtol=1e-12)
    assert moments.counts == list(SPLIT)
    starts = np.cumsum((0,) + SPLIT[:-1])
    for start, count, chunk_sum in zip(starts, SPLIT, moments.sums):
        assert chunk_sum.dtype == np.float64
        np.testing.assert_allclose(chunk_sum, x[start:start + count].sum(axis=0), rtol=1e-12)


class _NoImag(np.ndarray):
    @property
    def imag(self):
        raise AssertionError("real input must not touch .imag")


def test_real_chunks_never_touch_the_imaginary_part():
    p = sample_factor("real").view(_NoImag)
    moments = ChunkMoments()
    moments.add_real(p, p, p, p)
    mean, stderr = moments.mean_and_stderr()
    assert np.isrealobj(mean) and np.isrealobj(stderr)


def test_single_sample_has_zero_stderr():
    moments = ChunkMoments()
    moments.add_real(np.array([[1.0]]), np.array([[2.0]]), np.array([[3.0]]), np.array([[0.5]]))
    mean, stderr = moments.mean_and_stderr()
    assert mean[0, 0] == 4.0
    assert stderr[0, 0] == 0.0
