"""Deterministic substream layout for chunked Monte Carlo generation.

Every stochastic routine in this package draws its randomness in fixed-size
chunks, and chunk k of a run reads from an independent PCG64 stream keyed by
(seed, namespace, k). Chunks can therefore be generated in any order, on any
number of workers, and still merge to bit-identical output.

A chunk may also read quasi-random normals from its stream: sobol_normals
maps a randomly shifted block of Sobol points through normal_quantile, so
each point is still a standard normal vector, and the block's points are
spread more evenly than independent draws.
"""

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
# Wichura's AS241 (PPND16) rational approximations, highest power first, as statistics.NormalDist.inv_cdf
# evaluates them: |p - 1/2| <= 0.425 in r = 0.180625 - (p - 1/2)^2, then the tails in r = sqrt(-log min(p, 1 - p))
# less 1.6 for r <= 5, and less 5 beyond
_AS241 = (
    (
        (2509.0809287301226727, 33430.575583588128105, 67265.770927008700853, 45921.953931549871457,
         13731.693765509461125, 1971.5909503065514427, 133.14166789178437745, 3.387132872796366608),
        (5226.495278852854561, 28729.085735721942674, 39307.89580009271061, 21213.794301586595867,
         5394.1960214247511077, 687.1870074920579083, 42.313330701600911252, 1.0),
    ),
    (
        (7.7454501427834140764e-4, 0.0227238449892691845833, 0.24178072517745061177, 1.27045825245236838258,
         3.64784832476320460504, 5.7694972214606914055, 4.6303378461565452959, 1.42343711074968357734),
        (1.05075007164441684324e-9, 5.475938084995344946e-4, 0.0151986665636164571966, 0.14810397642748007459,
         0.68976733498510000455, 1.6763848301838038494, 2.05319162663775882187, 1.0),
    ),
    (
        (2.01033439929228813265e-7, 2.71155556874348757815e-5, 0.0012426609473880784386, 0.026532189526576123093,
         0.29656057182850489123, 1.7848265399172913358, 5.4637849111641143699, 6.6579046435011037772),
        (2.04426310338993978564e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
         7.868691311456132591e-4, 0.0148753612908506148525, 0.13692988092273580531, 0.59983220655588793769, 1.0),
    ),
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


def normal_quantile(p):
    """The standard normal quantile at each p in (0, 1), as statistics.NormalDist().inv_cdf computes it (AS241).

    The same rational approximations in the same order of operations; only
    log and sqrt are numpy's, so a value may differ from the stdlib's in its
    last bits.
    """
    p = np.asarray(p, dtype=np.float64)
    q = p - 0.5
    r = 0.180625 - q * q
    (num, den), near, far = _AS241
    x = np.polyval(num, r) * q / np.polyval(den, r)
    tail = np.abs(q) > 0.425
    r = np.sqrt(-np.log(np.where(q[tail] <= 0.0, p[tail], 1.0 - p[tail])))
    inner = r <= 5.0
    r = np.where(inner, r - 1.6, r - 5.0)
    num, den = (np.where(inner, np.polyval(a, r), np.polyval(b, r)) for a, b in zip(near, far))
    x[tail] = np.copysign(num / den, q[tail])
    return x


def sobol_normals(rng, count, dim):
    """(count, dim) normals from the first count <= SOBOL_POINTS points of a randomly shifted Sobol block.

    Each coordinate's 32-bit words are XORed with one random 32-bit word
    (a digital shift, Matousek 1998) and extended by 20 random bits per
    point, both from rng, then read as the midpoint u of one of 2^52 equal
    cells of (0, 1) and mapped through normal_quantile. Each point is a
    standard normal vector (to the 2^-52 grid of u), and each coordinate of
    a full block still holds one point per interval of width 2^-5 before the
    map.
    """
    shift = rng.integers(0, 1 << 32, size=dim, dtype=np.uint64)
    jitter = rng.integers(0, 1 << 20, size=(count, dim), dtype=np.uint64)
    cells = ((sobol_block(dim)[:count] ^ shift) << np.uint64(20)) | jitter
    return normal_quantile((cells + 0.5) * 2.0**-52)
