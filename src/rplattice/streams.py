"""Deterministic substream layout for chunked Monte Carlo generation.

Every stochastic routine in this package draws its randomness in fixed-size
chunks, and chunk k of a run reads from an independent PCG64 stream keyed by
(seed, namespace, k). Chunks can therefore be generated in any order, on any
number of workers, and still merge to bit-identical output.
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
    k = 0
    done = 0
    while done < n:
        c = min(chunk_size, n - done)
        yield k, c
        k += 1
        done += c


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
