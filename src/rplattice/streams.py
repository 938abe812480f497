"""Deterministic substream layout for chunked Monte Carlo generation.

Every stochastic routine in this package draws its randomness in fixed-size
chunks, and chunk k of a run reads from an independent PCG64 stream keyed by
(seed, namespace, k). Chunks can therefore be generated in any order, on any
number of workers, and still merge to bit-identical output.
"""

import numpy as np

CHUNK_SIZE = 2048

# Namespace constants keep the substreams of unrelated consumers disjoint.
NS_FIELD = 0
NS_FACTORIZED = 1
NS_TESTFN = 2
NS_BOOTSTRAP = 3


def substream(seed, namespace, chunk_index):
    """Return the PCG64 generator for one chunk of one consumer.

    Seeds are folded into the nonnegative range accepted by SeedSequence;
    the fold is deterministic, so negative seeds are legal and reproducible.
    """
    entropy = int(seed) % (1 << 64)
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=(int(namespace), int(chunk_index)))
    return np.random.default_rng(ss)


def chunk_counts(n, chunk_size=CHUNK_SIZE):
    """Yield (chunk_index, count) pairs covering ``n`` items."""
    k = 0
    done = 0
    while done < n:
        c = min(chunk_size, n - done)
        yield k, c
        k += 1
        done += c


def _parts(x):
    """The real and imaginary parts of complex input; real input on its own."""
    return (x.real, x.imag) if np.iscomplexobj(x) else (x,)


class ChunkMoments:
    """Running moments of samples that arrive in chunks of shape (count, ...).

    Keeps every chunk's count and sum, for a bootstrap over chunks, and the
    running sums of squares of the real part and, for complex input only,
    of the imaginary part, so real input allocates no imaginary temporaries.
    """

    def __init__(self):
        self.counts = []
        self.sums = []
        self._squares = None

    def add(self, chunk):
        squares = [(part**2).sum(axis=0) for part in _parts(chunk)]
        if self._squares is not None:
            squares = [acc + sq for acc, sq in zip(self._squares, squares)]
        self._squares = squares
        self.counts.append(chunk.shape[0])
        self.sums.append(chunk.sum(axis=0))

    def mean_and_stderr(self):
        """Per-entry mean and its standard error; real and imaginary variances add."""
        n = sum(self.counts)
        mean = sum(self.sums) / n
        var = 0.0
        for sum_sq, part in zip(self._squares, _parts(mean)):
            # one-pass unbiased estimate; cancellation can push it below zero
            var = var + np.maximum(sum_sq - n * part**2, 0.0) / max(n - 1, 1)
        return mean, np.sqrt(var / n)
