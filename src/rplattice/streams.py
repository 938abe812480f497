"""Deterministic substream layout for chunked Monte Carlo generation.

Every stochastic routine in this package draws its randomness in fixed-size
chunks, and chunk k of a run reads from an independent PCG64 stream keyed by
(seed, namespace, k). Chunks can therefore be generated in any order, on any
number of workers, and still merge to bit-identical output.

A chunk may also read quasi-random normals from its stream: sobol_normals
maps a randomly shifted block of Sobol points through the standard normal
quantile, so each point is still a standard normal vector, and the block's
points are spread more evenly than independent draws.
"""

from statistics import NormalDist

import numpy as np

from .lattice import as_int

CHUNK_SIZE = 2048

# Namespace constants keep the substreams of unrelated consumers disjoint.
NS_FIELD = 0
NS_FACTORIZED = 1
NS_TESTFN = 2
NS_BOOTSTRAP = 3
NS_PILOT = 4

# Joe and Kuo's direction numbers m_1..m_5 (new-joe-kuo-6.21201) of the first SOBOL_POINTS Sobol
# dimensions, carried to m_5 by their recurrence where the degree is smaller: enough for 2^5 points
SOBOL_POINTS = 32
_SOBOL_M = (
    (1, 1, 1, 1, 1), (1, 3, 5, 15, 17), (1, 3, 3, 9, 29), (1, 3, 1, 5, 31), (1, 1, 1, 11, 31), (1, 1, 3, 3, 25),
    (1, 3, 5, 13, 11), (1, 1, 5, 5, 17), (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1), (1, 1, 1, 3, 11),
    (1, 3, 5, 5, 31), (1, 3, 3, 9, 7), (1, 1, 1, 15, 21), (1, 3, 1, 13, 27), (1, 1, 1, 15, 7), (1, 3, 1, 15, 13),
    (1, 1, 5, 5, 19), (1, 3, 7, 11, 23), (1, 3, 7, 13, 13), (1, 1, 3, 13, 7), (1, 3, 5, 9, 1), (1, 3, 1, 13, 9),
    (1, 3, 1, 5, 27), (1, 1, 5, 11, 19), (1, 3, 5, 3, 3), (1, 1, 7, 13, 1), (1, 3, 7, 5, 13), (1, 1, 3, 9, 25),
    (1, 3, 5, 13, 23), (1, 3, 7, 3, 13),
)


def substream(seed, namespace, chunk_index):
    """Return the PCG64 generator for one chunk of one consumer.

    Integer seeds are folded into the nonnegative range accepted by SeedSequence;
    the fold is deterministic, so negative seeds are legal and reproducible.
    """
    entropy = as_int(seed, "seed") % (1 << 64)
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=(int(namespace), int(chunk_index)))
    return np.random.default_rng(ss)


def chunk_counts(n, chunk_size=CHUNK_SIZE):
    """Yield (chunk_index, count) pairs covering ``n`` items; ``n`` must be a positive integer."""
    n = as_int(n, "sample count")
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    for k, start in enumerate(range(0, n, chunk_size)):
        yield k, min(chunk_size, n - start)


class ChunkMoments:
    """Running moments of real samples that arrive in chunks of outer products.

    A chunk is x[s, m, n] = a[s, m] c[s, n] + b[s, m] d[s, n]; it is never
    formed, so a chunk costs O(count * k + k * k) memory. Keeps every chunk's
    count and sum, for a bootstrap over chunks, and the running sum of
    squares. A complex estimate takes two accumulators, one for its real and
    one for its imaginary part.
    """

    def __init__(self):
        self.counts = []
        self.sums = []
        self._squares = 0.0

    def add_real(self, a, b, c, d):
        """Add the chunk a[s, :, None] c[s, None, :] + b[s, :, None] d[s, None, :].

        The four factors are real arrays of shape (count, k); the squares
        expand to a2 c2 + 2 ab cd + b2 d2, one matrix product per term.
        """
        cross = 2.0 * ((a * b).T @ (c * d))
        self.counts.append(a.shape[0])
        self.sums.append(a.T @ c + b.T @ d)
        self._squares = self._squares + ((a * a).T @ (c * c) + cross + (b * b).T @ (d * d))

    def mean_and_stderr(self):
        """Per-entry mean and its standard error."""
        n = sum(self.counts)
        mean = sum(self.sums) / n
        # one-pass unbiased estimate; cancellation can push it below zero
        var = np.maximum(self._squares - n * mean**2, 0.0) / max(n - 1, 1)
        return mean, np.sqrt(var / n)

    def mean_and_chunk_stderr(self):
        """Per-entry mean and its standard error from the spread of the chunks about it, for two or more chunks.

        For chunks that are independent of each other but whose samples are
        not, as randomised quasi-Monte Carlo blocks: the mean is sum_k S_k / n
        over chunk sums S_k of c_k samples, and its variance is estimated by
        K / (K - 1) sum_k ((S_k - c_k mean) / n)^2 over the K chunks, which
        for equal counts is the variance of the chunk means over K.
        """
        n, k = sum(self.counts), len(self.counts)
        mean = sum(self.sums) / n
        var = sum((s - c * mean) ** 2 for c, s in zip(self.counts, self.sums)) * (k / (k - 1)) / n**2
        return mean, np.sqrt(var)


def sobol_block(dim):
    """The first SOBOL_POINTS points of the unscrambled 32-bit Sobol sequence in dim <= 32 dimensions.

    A (SOBOL_POINTS, dim) uint64 array of 32-bit words, point i in Gray-code
    order: the XOR of the direction numbers v_j = m_j 2^(32 - j) over the set
    bits j of i ^ (i >> 1). Each coordinate holds exactly one point in each
    interval of width 2^-5.
    """
    m = np.array(_SOBOL_M[:dim], dtype=np.uint64)
    v = m << (32 - np.arange(1, 6, dtype=np.uint64))
    i = np.arange(SOBOL_POINTS, dtype=np.uint64)
    bits = ((i ^ (i >> np.uint64(1)))[:, np.newaxis] >> np.arange(5, dtype=np.uint64)) & np.uint64(1)
    return np.bitwise_xor.reduce(bits[:, np.newaxis, :] * v, axis=-1)


def sobol_normals(rng, count, dim):
    """(count, dim) normals from the first count <= SOBOL_POINTS points of a randomly shifted Sobol block.

    Each coordinate's 32-bit words are XORed with one random 32-bit word
    (a digital shift, Matousek 1998) and extended by 20 random bits per
    point, both from rng, then read as the midpoint u of one of 2^52 equal
    cells of (0, 1) and mapped through NormalDist().inv_cdf. Each point is a
    standard normal vector (to the 2^-52 grid of u), and each coordinate of
    a full block still holds one point per interval of width 2^-5 before the
    map.
    """
    shift = rng.integers(0, 1 << 32, size=dim, dtype=np.uint64)
    jitter = rng.integers(0, 1 << 20, size=(count, dim), dtype=np.uint64)
    cells = ((sobol_block(dim)[:count] ^ shift) << np.uint64(20)) | jitter
    return np.vectorize(NormalDist().inv_cdf, otypes=[float])((cells + 0.5) * 2.0**-52)
