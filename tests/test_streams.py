import numpy as np
import pytest

from rplattice.streams import ChunkMoments, chunk_counts

SPLIT = (2048, 2048, 17)


def feed(moments, x, split=SPLIT):
    start = 0
    for count in split:
        moments.add(x[start:start + count])
        start += count


def sample_array(kind, n=sum(SPLIT), shape=(3, 2), seed=5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n,) + shape) + 0.5
    if kind == "complex":
        x = x + 1j * (rng.standard_normal((n,) + shape) - 0.25)
    return x


def test_chunk_counts_cover_the_range():
    assert list(chunk_counts(4113)) == [(0, 2048), (1, 2048), (2, 17)]
    assert list(chunk_counts(5, chunk_size=2)) == [(0, 2), (1, 2), (2, 1)]
    assert list(chunk_counts(0)) == []


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_chunk_moments_match_a_direct_reference(kind):
    x = sample_array(kind)
    n = x.shape[0]
    moments = ChunkMoments()
    feed(moments, x)
    mean, stderr = moments.mean_and_stderr()

    var = x.real.var(axis=0, ddof=1)
    if kind == "complex":
        var = var + x.imag.var(axis=0, ddof=1)
    np.testing.assert_allclose(mean, x.mean(axis=0), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(stderr, np.sqrt(var / n), rtol=1e-9)
    assert stderr.dtype == np.float64
    assert mean.dtype == x.dtype

    assert moments.counts == list(SPLIT)
    starts = np.cumsum((0,) + SPLIT[:-1])
    for start, count, chunk_sum in zip(starts, SPLIT, moments.sums):
        np.testing.assert_array_equal(chunk_sum, x[start:start + count].sum(axis=0))


class _NoImag(np.ndarray):
    @property
    def imag(self):
        raise AssertionError("real input must not touch .imag")


def test_real_chunks_never_touch_the_imaginary_part():
    x = sample_array("real").view(_NoImag)
    moments = ChunkMoments()
    feed(moments, x)
    mean, stderr = moments.mean_and_stderr()
    assert np.isrealobj(mean) and np.isrealobj(stderr)


def test_single_sample_has_zero_stderr():
    moments = ChunkMoments()
    moments.add(np.array([[1.0 + 2.0j]]))
    mean, stderr = moments.mean_and_stderr()
    assert mean[0] == 1.0 + 2.0j
    assert stderr[0] == 0.0
