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

    Seeds are folded into the nonnegative range accepted by SeedSequence;
    the fold is deterministic, so negative seeds are legal and reproducible.
    """
    entropy = int(seed) % (1 << 64)
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


def _parts(x):
    """The real and imaginary parts of complex input; real input on its own."""
    return (x.real, x.imag) if np.iscomplexobj(x) else (x,)


def _outer_squares(p, q):
    """Sums over s of Re(p[s, m] q[s, n])**2 and, for complex input, of Im(...)**2.

    With p = a + ib and q = c + id the products expand to
    Re**2 = a2 c2 - 2 ab cd + b2 d2 and Im**2 = a2 d2 + 2 ab cd + b2 c2,
    and each term summed over samples is one (k, count) @ (count, k) product.
    """
    if not (np.iscomplexobj(p) or np.iscomplexobj(q)):
        return [(p * p).T @ (q * q)]
    a, b, c, d = p.real, p.imag, q.real, q.imag
    a2, b2, c2, d2 = a * a, b * b, c * c, d * d
    cross = 2.0 * ((a * b).T @ (c * d))
    return [a2.T @ c2 - cross + b2.T @ d2, a2.T @ d2 + cross + b2.T @ c2]


class ChunkMoments:
    """Running moments of samples that arrive in chunks of outer products.

    A chunk is x[s, m, n] = p[s, m] * q[s, n] (add_outer), or the real
    a[s, m] c[s, n] + b[s, m] d[s, n] (add_real); it is never formed, so a
    chunk costs O(count * k + k * k) memory. Keeps every chunk's count and
    sum, for a bootstrap over chunks, and the running sums of squares of the
    real part and, for complex input only, of the imaginary part, so real
    input allocates no imaginary temporaries. One accumulator takes one
    kind of chunk.
    """

    def __init__(self):
        self.counts = []
        self.sums = []
        self._squares = None

    def _add(self, count, chunk_sum, squares):
        if self._squares is not None:
            squares = [acc + sq for acc, sq in zip(self._squares, squares)]
        self._squares = squares
        self.counts.append(count)
        self.sums.append(chunk_sum)

    def add_outer(self, p, q):
        """Add the chunk p[s, :, None] * q[s, None, :] from its factors of shape (count, k)."""
        self._add(p.shape[0], p.T @ q, _outer_squares(p, q))

    def add_real(self, a, b, c, d):
        """Add the real chunk a[s, :, None] c[s, None, :] + b[s, :, None] d[s, None, :].

        The four factors are real arrays of shape (count, k); the squares
        expand to a2 c2 + 2 ab cd + b2 d2, one matrix product per term.
        """
        cross = 2.0 * ((a * b).T @ (c * d))
        self._add(a.shape[0], a.T @ c + b.T @ d, [(a * a).T @ (c * c) + cross + (b * b).T @ (d * d)])

    def mean_and_stderr(self):
        """Per-entry mean and its standard error; for complex chunks real and imaginary variances add."""
        n = sum(self.counts)
        mean = sum(self.sums) / n
        var = 0.0
        for sum_sq, part in zip(self._squares, _parts(mean)):
            # one-pass unbiased estimate; cancellation can push it below zero
            var = var + np.maximum(sum_sq - n * part**2, 0.0) / max(n - 1, 1)
        return mean, np.sqrt(var / n)
