"""Centred Gaussian measures on a reflection-symmetric lattice.

A symmetric positive semidefinite matrix C stands in for the measure: the
characteristic function of the centred Gaussian with covariance C is

    E exp[i T(phi)] = exp[-(1/2) phi^T C phi] .

Reflection properties are decided exactly through two derived matrices. The
measure is invariant under time reflection iff conjugating C by the
reflection permutation leaves it unchanged, and it is reflection positive
iff the cross block

    B[x, y] = C[x, theta(y)]       for x, y on the positive-time half

is positive semidefinite. For a reflection-positive covariance the
positive-half diagonal block A decomposes as A = (A - B) + B with both
summands positive semidefinite; drawing the two pieces independently and
adding a shared B-draw to both halves reproduces the joint law of
(restrict_plus(T), restrict_plus(reflect(T))). That decomposition is what
the factorized Gram estimator integrates against.

The free field's covariance (-laplacian + mass^2)^-1 is built without any
N x N linear algebra: spatial translations block-diagonalise the operator
into one 2T x 2T matrix K_k per spatial momentum k, so C is held as 2T
columns, O(N T) numbers, and its draws come from roots R_k with
R_k R_k^T = K_k^-1, applied to normals read as coefficients of the real
Fourier modes of the spatial axes, without an N x N factor. The
Covariance keeps C's column table and the R_k and expands C only when it
is read. The exact checks read any C, column table or dense, as a table
over its two time axes, and index its halves, flip and split alike; only
the eigensolves differ. A column table's B, c_p = A - B and c_q are block-
diagonal in momentum, with spectra and roots from batched T x T eigensolves,
and c_p and c_q draw per momentum; a dense C keeps dense ones, the oracle.

gaussian_polynomial_gram gives the Gram entries E[exp(i(a_m - b_n)) P(T)]
of a polynomial P in closed form, by Isserlis' theorem; P = 1 gives the
Gaussian Gram itself.
"""

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce

import numpy as np

from .density import PolynomialTable, check_sites, is_even
from .lattice import Lattice, as_float, as_int, reflect, restrict_plus, positive_support, _as_site_vector
from .streams import CHUNK_SIZE, NS_FIELD, chunk_counts, substream

DEFAULT_PSD_TOL = 1e-10
DEFAULT_INVARIANCE_TOL = 1e-12
# A column table's draw turns its normals into draws a block of about _DRAW_BLOCK
# doubles at a time, never fewer than _DRAW_MIN_ROWS rows: a block of one row
# rounds otherwise than the whole draw, so the bits would depend on the blocks.
_DRAW_BLOCK = 1 << 17
_DRAW_MIN_ROWS = 64
# doubles a chunk of gaussian_polynomial_gram's terms holds in shares and powers of shifts, about
_POLYNOMIAL_BLOCK = 1 << 16


@dataclass(frozen=True)
class Covariance:
    """Symmetric PSD matrix over lattice sites; immutable after construction.

    Symmetry must hold exactly as stored. draw() samples the measure, one of
    two ways, chosen by what the caller holds:

    * Column tables, through from_columns: C is kept as its 2T columns per
      spatial momentum, read-only, beside the momentum roots R_k.
      free_field_covariance builds C this way, so a free-field C is never
      diagonalised, the exact checks below decide it per spatial momentum
      from the table, and draw() applies the R_k to normals read as
      coefficients of the real Fourier modes of the spatial axes. The
      N x N matrix and factor are expanded only when they are read.
    * Otherwise F is the symmetric root V sqrt(max(L, 0)) V^T of one eigh of
      matrix: unique, so it moves at rounding with matrix, where V sqrt(L)
      can turn with the eigenbasis of a repeated eigenvalue. That eigh gates
      positive semidefiniteness up to psd_tolerance relative to the spectral
      norm; a separate eigvalsh could disagree only within rounding of it.

    psd_tolerance is the one PSD tolerance of everything derived from C:
    check_gaussian_rp gates B, decompose_pq c_p and c_q, and the Gram
    estimators their verdicts at it.

    columns and momentum_roots are None on the second way. Like factor, they
    are not part of the value, and dataclasses.replace, which takes the
    second way, drops them; repr shows none of the arrays, so it expands no
    matrix, and == compares two column tables of one shape table to table.
    decompose_pq holds its summands unchecked: a C that is not
    reflection invariant splits into halves that are not symmetric.
    """

    matrix: np.ndarray = field(repr=False)
    psd_tolerance: float = DEFAULT_PSD_TOL
    columns: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)
    momentum_roots: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"covariance must be square, got shape {m.shape}")
        _check_entries(m)
        if not np.array_equal(m, m.T):
            raise ValueError("covariance must be exactly symmetric as stored")
        tol = _checked_tolerance(self.psd_tolerance)
        # factor the caller's array before copying it, so the factorization's
        # workspace and the copy are never alive together
        gate, factor = _psd_root(m, tol)
        if not gate.passed:
            raise ValueError(
                f"covariance is not positive semidefinite: eigenvalue {gate.min_eigenvalue:.3e} "
                f"below {gate.threshold:.3e}"
            )
        self._hold(tol, matrix=np.array(m), factor=factor)

    @classmethod
    def from_columns(cls, columns, momentum_roots, psd_tolerance=DEFAULT_PSD_TOL):
        """The covariance C[(t, x), (s, y)] = columns[x - y, t, s], drawn through momentum_roots.

        Both tables have shape (*spatial_extents, n, n) and lay C out on sites
        (t, x), t over the n times of a block; momentum_roots[k] is a root
        R_k of C's n x n block at spatial momentum k. The caller vouches
        that R_k R_k^T is that block up to rounding; it is not factored or
        gated here. The checks run on the tables: columns[d, t, s] ==
        columns[-d, s, t], which holds exactly when C is symmetric, and
        finite roots, exactly even under k -> -k on every axis as the real
        basis of draw() needs. Both tables are copied; matrix is expanded
        from the columns on first read, and holds exactly their entries.
        """
        cols = np.array(columns, dtype=np.float64)
        roots = np.array(momentum_roots, dtype=np.float64)
        if cols.ndim < 3 or cols.shape[-1] != cols.shape[-2]:
            raise ValueError(f"column table must have shape (*extents, n, n), got {cols.shape}")
        if roots.shape != cols.shape:
            raise ValueError(f"root table must have the column table's shape {cols.shape}, got {roots.shape}")
        _check_entries(cols)
        if not np.array_equal(cols, _transposed(cols)):
            raise ValueError("covariance must be exactly symmetric as stored")
        if not np.isfinite(roots).all():
            raise ValueError("root must be finite")
        if not all(np.array_equal(roots, roots.take(-np.arange(n) % n, a)) for a, n in enumerate(cols.shape[:-2])):
            raise ValueError("momentum roots must be even under k -> -k on every axis")
        return cls.__new__(cls)._hold(_checked_tolerance(psd_tolerance), columns=cols, momentum_roots=roots)

    def _hold(self, tol, **arrays):
        for name, array in arrays.items():  # as given, unchecked; a factor fills the cached property
            if array is not None:
                array.setflags(write=False)
                object.__setattr__(self, name, array)
        object.__setattr__(self, "psd_tolerance", tol)
        return self

    def __getattr__(self, name):
        # reached only for attributes not yet set: a column table's matrix is expanded on first read
        if name != "matrix" or self.columns is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self._hold(self.psd_tolerance, matrix=_translates(self.columns)).matrix

    def __eq__(self, other):
        if not isinstance(other, Covariance):
            return NotImplemented
        if self.psd_tolerance != other.psd_tolerance:
            return False
        if self.columns is not None and other.columns is not None and self.columns.shape == other.columns.shape:
            return np.array_equal(self.columns, other.columns)  # the expansion holds exactly the table's entries
        return np.array_equal(self.matrix, other.matrix)

    @property
    def dim(self):
        if self.columns is None:
            return self.matrix.shape[0]
        return math.prod(self.columns.shape[:-1])

    @cached_property
    def inf_norm(self):
        """||C||_inf, the largest absolute row sum and a bound on the spectral norm; a column table is not expanded."""
        if self.columns is None:
            return float(np.abs(self.matrix).sum(axis=1).max(initial=0.0))
        # row (t, x) sums |columns[d, t, s]| over every spatial difference d and time s
        return float(np.abs(self.columns).sum(axis=(*range(self.columns.ndim - 2), -1)).max())

    @cached_property
    def factor(self):
        """Read-only F with F F^T = matrix, expanded on first read for a column table.

        A column table's F[(t, x), (k, s)] = E[x, k] R_k[t, s] with E the real
        Fourier basis of draw(): its columns are the modes k of the spatial
        axes at each time s. It is a root of C but not C's translation-
        invariant one: F F^T is the inverse transform of the Green's tables
        R_k R_k^T up to rounding.
        """
        basis, roots_t = self._modes
        spatial, times = basis.shape[0], roots_t.shape[-1]
        factor = np.einsum("xk,kst->txks", basis, roots_t).reshape(times * spatial, spatial * times)
        factor.setflags(write=False)
        return factor

    @cached_property
    def _modes(self):
        """The real Fourier basis E of the spatial axes, and R_k^T for the momentum k of each column."""
        bases, momenta = zip(*map(_real_fourier_basis, self.momentum_roots.shape[:-2]))
        roots = self.momentum_roots[np.ix_(*momenta)]
        return reduce(np.kron, bases), np.ascontiguousarray(roots.reshape(-1, *roots.shape[-2:]).swapaxes(-1, -2))

    def draw(self, rng, count):
        """A fresh (count, dim) array x = z F^T for z = rng.standard_normal((count, dim)); see transformed."""
        return self.transformed(count, rng.standard_normal)

    def transformed(self, count, normals):
        """A fresh (count, dim) array x = z F^T for the fresh array z = normals((count, dim)).

        A column table reads each row of z as the coefficients z[(k, s)] of
        the spatial modes k at times s: a batched product of each mode's
        (rows, n) slice with its R_k^T, then a GEMM with E^T, 2N(n + S)
        flops per draw instead of 2N^2. Since E^T z^T is white noise too,
        the draws have the law of those through C's translation-invariant
        root. Each draw reads only its own row of z, so z is turned into x
        in place, a block of rows at a time: the draw holds z and one
        scratch block of about _DRAW_BLOCK doubles, not a second (count,
        dim) array. Blocks have at least _DRAW_MIN_ROWS rows, and x is bit
        for bit what the two products over the whole of z at once give.
        """
        if self.momentum_roots is None:
            return normals((count, self.dim)) @ self.factor.T
        basis, roots_t = self._modes
        spatial, times = basis.shape[0], roots_t.shape[-1]
        dim = spatial * times
        # blocks of equal size, so no remainder of a few rows is left for a last one
        blocks = max(1, count // max(_DRAW_MIN_ROWS, _DRAW_BLOCK // dim))
        # taken before z, so its free leaves a hole under z, not a heap top that glibc trims and refaults
        scratch = np.empty(-(-count // blocks) * dim)
        z = normals((count, dim))
        for b in range(blocks):
            start, stop = count * b // blocks, count * (b + 1) // blocks
            rows, m = z[start:stop], stop - start
            mixed = scratch[: m * dim].reshape(spatial, m, times)
            np.matmul(rows.reshape(m, spatial, times).swapaxes(0, 1), roots_t, out=mixed)
            # every normal of these rows has been read: the product with E^T overwrites them with their draws
            np.matmul(mixed.reshape(spatial, m * times).T, basis.T, out=rows.reshape(m * times, spatial))
        return z


def _check_entries(m):
    """Raise ValueError unless every entry is finite and so is 2 max|S|^2, a bound on S_ii S_jj + S_ij^2."""
    if not np.isfinite(m).all():
        raise ValueError("covariance entries must be finite")
    peak = max(float(m.max(initial=0.0)), -float(m.min(initial=0.0)))
    if not math.isfinite(2.0 * peak * peak):  # Python floats overflow to inf without a warning
        raise ValueError(f"covariance entry of magnitude {peak:.3e} is too large: S_ii S_jj + S_ij^2 overflows")


def _checked_tolerance(tol, name="psd_tolerance"):
    """tol as a float; the one rule of every gate's tolerance, named name in the message."""
    tol = as_float(tol, name)
    if not (math.isfinite(tol) and tol >= 0):  # NaN and inf would turn every gate into a no-op
        raise ValueError(f"{name} must be finite and nonnegative, got {tol}")
    return tol


@dataclass(frozen=True)
class PsdReport:
    passed: bool
    min_eigenvalue: float
    threshold: float
    tol: float


@dataclass(frozen=True)
class InvarianceReport:
    passed: bool
    deviation: float
    threshold: float
    tol: float


@dataclass(frozen=True)
class GaussianRpReport:
    passed: bool
    min_eigenvalue: float
    threshold: float
    tol: float
    failure_kind: str | None
    invariance: InvarianceReport


@dataclass(frozen=True)
class PQPair:
    """Covariances p (c_p = A - B) and q (c_q) of the independent and shared half-draws, and their source."""

    p: Covariance
    q: Covariance
    report_p: PsdReport
    report_q: PsdReport
    covariance: Covariance = field(repr=False, compare=False)
    lattice: Lattice = field(repr=False, compare=False)
    a: Covariance = field(repr=False)  # A, held as p and q are, without a root
    sum_exact: bool  # whether c_p + c_q reproduces A bit for bit: a diagnostic of the rounding, not a gate

    c_p = property(lambda self: self.p.matrix)
    c_q = property(lambda self: self.q.matrix)
    a_block = property(lambda self: self.a.matrix)

    @property
    def both_psd(self):
        return self.report_p.passed and self.report_q.passed

    def draw_halves(self, rng, shared, count):
        """The half draws P + L of the theta-split: count draws P of p about each shared draw L, a row of shared.

        One p.draw of len(shared) * count rows from rng, count consecutive
        rows per L; the result has shape (len(shared), count, N+).
        """
        halves = self.p.draw(rng, shared.shape[0] * count).reshape(shared.shape[0], count, -1)
        halves += shared[:, np.newaxis, :]
        return halves


@dataclass(frozen=True)
class FieldSample:
    configs: np.ndarray  # (count, site_count)
    seed: int
    count: int


@dataclass(frozen=True)
class ConvolutionReport:
    passed: bool
    max_sigma_deviation: float | None  # None: an entry with standard error 0 missed its target
    n_samples: int
    seed: int


def _gate(eigs, threshold, tol):
    """The PsdReport of a spectrum gated at threshold: min eigenvalue >= threshold, an empty spectrum's minimum 0."""
    min_eig = float(eigs.min()) if eigs.size else 0.0
    return PsdReport(min_eig >= threshold, min_eig, threshold, tol)


def _spectral_psd(eigs, tol):
    """PSD gate on a spectrum: min eigenvalue >= -tol * max(1, max |eigenvalue|).

    The threshold scales with the spectral norm but is never tighter than
    -tol; an empty spectrum passes with minimum 0.
    """
    scale = max(1.0, float(np.abs(eigs).max())) if eigs.size else 1.0
    return _gate(eigs, -tol * scale, tol)


def symmetrized(matrix):
    """(M + M^H) / 2 over the last two axes, of one matrix or a stack; M bit for bit when M is exactly Hermitian.

    A real matrix is not conjugated: ndarray.conj returns the array itself.
    """
    return (matrix + matrix.conj().swapaxes(-1, -2)) / 2.0


def _psd_root(blocks, tol):
    """One eigh of a Hermitian block or a stack: a PsdReport over all spectra, and each root V sqrt(max(L, 0)) V^H."""
    eigs, vecs = np.linalg.eigh(blocks)
    root = (vecs * np.sqrt(np.clip(eigs, 0.0, None))[..., np.newaxis, :]) @ vecs.conj().swapaxes(-1, -2)
    return _spectral_psd(eigs.ravel(), tol), root


def free_field_covariance(lattice, mass, psd_tolerance=DEFAULT_PSD_TOL):
    """Inverse of (-laplacian + mass^2) on the lattice, built from its 2T columns.

    Nearest-neighbour edges: time links within each half plus the single
    crossing link between t = -1 and t = +1, open ends at t = +-T; spatial
    links periodic. Spatial translations commute with the operator, so
    C[(t, x), (s, y)] = c[x - y, t, s] with c the 2T columns at y = 0. Per
    spatial momentum k the operator is the 2T x 2T matrix
    K_k = P + (mass^2 + lambda_k) I, P the open time path; a batched Cholesky
    of the K_k is the positive-definiteness gate, and c is the inverse Fourier
    transform of K_k^-1, refined once against the operator applied as a
    stencil. Symmetrising c under (t, s, d) <-> (s, t, -d) and under theta
    makes C exactly symmetric, reflection invariant and translation invariant.
    The Covariance keeps the roots R_k R_k^T = K_k^-1 and draws through them,
    so its draws have covariance C up to rounding; no N x N matrix is
    built, inverted, factored or multiplied. A mass is too small, and an
    error, when the Cholesky fails or the returned C leaves a residual
    ||I - (-laplacian + mass^2) C||_inf of 1 or more, read off the table.
    """
    mass = as_float(mass, "mass")
    # NaN fails every comparison; a mass whose square overflows would give C = 0
    if not (mass > 0 and math.isfinite(mass * mass)):
        raise ValueError(f"mass must be positive with a finite square, got {mass}")
    times = lattice.shape[0]
    extents = lattice.shape[1:] or (1,)  # a pure time lattice is one spatial site
    path = 2.0 * np.eye(times) - np.eye(times, k=1) - np.eye(times, k=-1)
    path[0, 0] = path[-1, -1] = 1.0  # open ends at t = +-T
    operators = path + _momentum_shifts(extents, mass)[..., None, None] * np.eye(times)
    try:
        lower = np.linalg.cholesky(operators)
    except np.linalg.LinAlgError:
        raise ValueError(f"mass {mass} is too small: -laplacian + mass^2 is not positive definite") from None
    roots = np.linalg.inv(lower).swapaxes(-1, -2)  # R_k R_k^T = K_k^-1
    green = roots @ roots.swapaxes(-1, -2)
    axes = tuple(range(len(extents)))
    cols = np.fft.ifftn(green, axes=axes).real
    cols += np.fft.ifftn(green @ np.fft.fftn(_residual(cols, mass), axes=axes), axes=axes).real  # one refinement step
    cols = _symmetrised(cols, theta=True)
    # ||I - (-laplacian + mass^2) C||_inf, the largest row sum of the residual; NaN fails
    residual = float(np.abs(_residual(cols, mass)).sum(axis=(*axes, -1)).max())
    if not residual < 1.0:
        raise ValueError(f"mass {mass} is too small: ||I - (-laplacian + mass^2) C||_inf = {residual:.3e} >= 1")
    return Covariance.from_columns(cols, roots, psd_tolerance)


def tilted_gaussian(cov, q):
    """The Gaussian that exp(-(q/2) |T|^2) weights mu_C into, for q >= 0: (C', log Z).

    exp(-(q/2) |T|^2) mu_C = Z mu_C' with C' = C (I + qC)^-1 = (C^-1 + qI)^-1
    and log Z = -(1/2) log det(I + qC). At q = 0 it is cov itself and log Z = 0.
    A column table tilts per spatial momentum: each root R_k becomes
    R_k U_k^-T, with U_k U_k^T = I + q R_k^T R_k by one batched Cholesky, and
    log Z = -sum over k of log det U_k, det(I + q R_k R_k^T) being
    det(I + q R_k^T R_k). The table is the inverse transform of the new
    roots' R_k R_k^T, symmetrised as free_field_covariance's is: under
    (t, s, d) <-> (s, t, -d), and under theta when C's table is theta
    invariant bit for bit, since the tilt commutes with theta. So the free
    field at mass m tilts into the free field at mass sqrt(m^2 + q), up to
    rounding. A dense C takes one solve and the Covariance eigh, and log Z
    its slogdet. C' keeps cov's psd_tolerance.
    """
    q = _checked_tolerance(q, "tilt q")
    if q == 0:
        return cov, 0.0
    if cov.momentum_roots is None:
        shifted = np.eye(cov.dim) + q * cov.matrix
        tilted = Covariance(symmetrized(np.linalg.solve(shifted, cov.matrix)), cov.psd_tolerance)
        return tilted, -0.5 * float(np.linalg.slogdet(shifted)[1])
    roots = cov.momentum_roots
    lower = np.linalg.cholesky(np.eye(roots.shape[-1]) + q * roots.swapaxes(-1, -2) @ roots)
    roots = _even_roots(np.linalg.solve(lower, roots.swapaxes(-1, -2)).swapaxes(-1, -2))
    log_z = -float(np.log(np.diagonal(lower, axis1=-2, axis2=-1)).sum())
    cols = np.fft.ifftn(roots @ roots.swapaxes(-1, -2), axes=tuple(range(roots.ndim - 2))).real
    cols = _symmetrised(cols, theta=np.array_equal(cov.columns, cov.columns[..., ::-1, ::-1]))
    return Covariance.from_columns(cols, roots, cov.psd_tolerance), log_z


def _even_roots(roots):
    """A real root table made exactly even under k -> -k on every spatial axis, as draw's basis needs."""
    for axis, n in enumerate(roots.shape[:-2]):
        roots = (roots + roots.take(-np.arange(n) % n, axis)) / 2.0
    return roots


def _momentum_shifts(extents, mass):
    """mass^2 + lambda_k, lambda_k the sum over axes of 2 - 2 cos(2 pi k_a / L_a).

    k and L - k are folded so that both give a bit-equal lambda_k, which
    keeps the inverse transforms of even tables real up to rounding.
    """
    shifts = 0.0
    for n in extents:
        k = np.arange(n)
        shifts = np.add.outer(shifts, 2.0 - 2.0 * np.cos(2.0 * np.pi * np.minimum(k, n - k) / n))
    return mass * mass + shifts


def _residual(cols, mass):
    """The table of I - (-laplacian + mass^2) C for C expanded from the columns cols."""
    residual = -_apply_operator(cols, mass)
    residual[(0,) * (cols.ndim - 2)] += np.eye(cols.shape[-1])
    return residual


def _apply_operator(cols, mass):
    """(-laplacian + mass^2) applied as a stencil to the columns cols[x..., t, s] over (x..., t)."""
    out = mass * mass * cols
    out[..., 1:, :] += cols[..., 1:, :] - cols[..., :-1, :]
    out[..., :-1, :] += cols[..., :-1, :] - cols[..., 1:, :]
    for axis in range(cols.ndim - 2):
        if cols.shape[axis] > 1:  # extent 1 closes on itself; extent 2 links the pair twice
            out += 2.0 * cols - np.roll(cols, 1, axis) - np.roll(cols, -1, axis)
    return out


def _symmetrised(cols, theta):
    """cols averaged with _transposed(cols), so C is exactly symmetric, then, if theta, with its time flip.

    The second average makes C exactly reflection invariant; each keeps
    what the other made exact.
    """
    cols = (cols + _transposed(cols)) / 2.0
    if theta:
        cols = (cols + cols[..., ::-1, ::-1]) / 2.0
    return cols


def _transposed(cols):
    """The table of M^T for M expanded from cols: cols[-d, s, t], spatial differences taken mod extents."""
    out = cols.swapaxes(-1, -2)
    for axis, n in enumerate(cols.shape[:-2]):
        out = out.take(-np.arange(n) % n, axis=axis)
    return out


def _real_fourier_basis(n):
    """Columns of an orthonormal real basis of R^n, and the momentum 0 <= k <= n/2 of each.

    1/sqrt(n); sqrt(2/n) cos and sin of 2 pi k x / n for 0 < k < n/2; and
    (-1)^x / sqrt(n) for even n. Each is an eigenvector, with eigenvalue
    lambda_k, of every circulant whose spectrum satisfies lambda_k = lambda_-k.
    """
    x, k = np.arange(n), np.arange(1, (n + 1) // 2)
    angles = 2.0 * np.pi * (np.outer(x, k) % n) / n
    columns = [np.full((n, 1), 1.0 / math.sqrt(n)), math.sqrt(2.0 / n) * np.cos(angles), math.sqrt(2.0 / n) * np.sin(angles)]
    if n % 2:
        return np.hstack(columns), np.concatenate([[0], k, k])
    return np.hstack(columns + [((-1.0) ** x / math.sqrt(n))[:, np.newaxis]]), np.concatenate([[0], k, k, [n // 2]])


def _translates(cols):
    """The N x N matrix M[(t, x), (s, y)] = cols[x - y, t, s], spatial differences taken mod extents.

    cols has shape (*extents, n, n). Doubling it along each spatial axis
    gives doubled[e] = cols[e mod L], so cols[(x - y) mod L] = doubled[L + x - y]
    with L + x - y in 1..2L-1: M is a strided view of doubled that starts at
    doubled[L] and steps back along y, copied once into its N x N layout.
    """
    extents = cols.shape[:-2]
    times = cols.shape[-1]
    doubled = cols
    for axis in range(len(extents)):
        doubled = np.concatenate([doubled, doubled], axis=axis)
    spatial = doubled.strides[:-2]
    view = np.lib.stride_tricks.as_strided(
        doubled[extents],
        shape=(times, *extents, times, *extents),
        strides=(doubled.strides[-2], *spatial, doubled.strides[-1], *(-stride for stride in spatial)),
        writeable=False,
    )
    n = times * math.prod(extents)
    return np.array(view, order="C").reshape(n, n)


def char_fn(cov, phi):
    """Characteristic function exp[-(1/2) phi^T C phi] of the centred Gaussian."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (cov.dim,):
        raise ValueError(f"test function has shape {phi.shape}, covariance is {cov.dim}x{cov.dim}")
    q = float(phi @ cov.matrix @ phi)
    return float(np.exp(-0.5 * q))


def gaussian_polynomial_gram(cov, phi_mat, theta_mat, p):
    """The k x k matrix E[exp(i(a_m - b_n)) P(T)] of the centred Gaussian, in closed form.

    a_m = T(phi_m) and b_n = T(theta_n) for the k columns phi_m of phi_mat
    and theta_n of theta_mat, and P is a Potential or a PolynomialTable over
    the covariance's sites. With u = phi_m - theta_n and v = Cu, completing
    the square gives

        E[exp(iu.T) P(T)] = exp(-(1/2) u^T C u) E[P(Y + iv)],   Y ~ N(0, C).

    Each factor (Y_x + i v_x)^p expands binomially, and the mixed moments of
    Y follow from Isserlis' theorem, by Wick recursion over the multiset of
    a term's factors. C Phi and C Theta are the only products with C, so all
    k^2 shifts are exact at once, with no sampling. The terms of one power
    shape are evaluated together, as arrays, a chunk of terms at a time, so
    the temporaries stay near _POLYNOMIAL_BLOCK doubles. The terms' shares
    are added one by one, block by block in the table's order, so the result
    does not depend on the chunks; a Potential's terms add in the order of
    PolynomialTable.of(P). The matrix is real when every term of P
    has even degree and complex otherwise; the constant polynomial 1 gives
    the Gaussian Gram G0 = exp(-(1/2) u^T C u).
    """
    c = cov.matrix
    phi_mat = np.asarray(phi_mat, dtype=np.float64)
    theta_mat = np.asarray(theta_mat, dtype=np.float64)
    table = PolynomialTable.of(p)
    check_sites(table, cov.dim, f"a covariance of {cov.dim} sites")
    c_phi, c_theta = c @ phi_mat, c @ theta_mat
    # u^T C u = phi^T C phi + theta^T C theta - 2 phi^T C theta, C being exactly symmetric
    phi_norms, theta_norms = (phi_mat * c_phi).sum(axis=0), (theta_mat * c_theta).sum(axis=0)
    quad = phi_norms[:, np.newaxis] + theta_norms - 2.0 * (phi_mat.T @ c_theta)
    g0 = np.exp(-0.5 * quad)

    # the even-degree terms of E[P(Y + iv)] are real, the odd-degree ones imaginary
    parts = [np.full(g0.shape, table.constant), np.zeros(g0.shape)]
    for b in table.blocks:
        part = parts[sum(b.powers) % 2]
        slots, signs, binomials, exponents = _wick_patterns(b.powers)
        step = max(1, _POLYNOMIAL_BLOCK // (3 * len(slots) * max(g0.size, 1)))  # k = 0 is sized as k = 1
        for lo in range(0, len(b.coefficients), step):
            rows = slice(lo, lo + step)
            m = _wick_moments(c, b.sites[rows], slots)
            x = (b.coefficients[rows, np.newaxis] * m * signs * binomials)[:, :, np.newaxis, np.newaxis]
            for shift in _shift_powers(c_phi, c_theta, b.sites[rows], exponents):
                x = x * shift
            if not m.all():  # a zero moment shares -0.0, which adds nothing
                x = np.where((m == 0.0)[:, :, np.newaxis, np.newaxis], -0.0, x)
            # each term's shares, one per pattern, add onto the part in the block's term order
            shares = np.concatenate([part[np.newaxis], x.reshape(x.shape[0] * x.shape[1], *g0.shape)])
            part[...] = np.add.accumulate(shares, axis=0, out=shares)[-1]
    if is_even(table):
        return g0 * parts[0]
    return g0 * (parts[0] + 1j * parts[1])


@cache
def _wick_patterns(powers):
    """(slots, signs, binomials, exponents) of the ways to expand a term of these powers with a nonzero moment.

    In pattern r, factor j of the term contributes taken[j] of its p_j
    copies of Y and p_j - taken[j] = exponents[r, j] of iv; the moment
    E[prod_j Y_j^taken[j]] is nonzero only when sum(taken) is even.
    slots[r] is factor j repeated taken[j] times, signs[r] = (-1)^(left // 2)
    for the left = sum(exponents[r]) powers of i, and binomials[r] =
    prod_j C(p_j, taken[j]). Patterns run in itertools.product order.
    """
    taken = [t for t in itertools.product(*(range(power + 1) for power in powers)) if sum(t) % 2 == 0]
    exponents = np.array(powers) - np.array(taken).reshape(len(taken), len(powers))
    slots = tuple(tuple(j for j, count in enumerate(t) for _ in range(count)) for t in taken)
    signs = np.array([(-1) ** (left // 2) for left in exponents.sum(axis=1)])
    binomials = np.array([math.prod(map(math.comb, powers, t)) for t in taken])
    for shared in (signs, binomials, exponents):  # cached: every caller reads the same arrays
        shared.setflags(write=False)
    return slots, signs, binomials, exponents


def _wick_moments(c, sites, slots):
    """The (terms, patterns) moments E[prod over the factors j in slots[r] of Y_j], by Wick recursion.

    Y_j is Y at the site of factor j of each row of sites, Y ~ N(0, c); the
    recursion pairs the first factor of a sorted slots tuple with each of
    the others, as Isserlis' theorem sums over pairings.
    """
    pairs, cached = {}, {}

    def pair(j, l):
        if (j, l) not in pairs:
            pairs[j, l] = c[sites[:, j], sites[:, l]]
        return pairs[j, l]

    def moment(slots):
        if not slots:
            return 1.0
        if slots not in cached:
            first, rest = slots[0], slots[1:]
            cached[slots] = sum(
                rest.count(s) * pair(first, s) * moment(rest[:j] + rest[j + 1:])
                for j, s in enumerate(rest)
                if j == 0 or s != rest[j - 1]
            )
        return cached[slots]

    out = np.empty((len(sites), len(slots)))
    for r, slot in enumerate(slots):
        out[:, r] = moment(slot)
    return out


def _shift_powers(c_phi, c_theta, sites, exponents):
    """Yield, per factor j, the (terms, patterns, k, k) powers shift_j^exponents[:, j].

    shift_j = (C Phi)_x - (C Theta)_x at the site x of factor j is raised to
    each power once per site the rows name, not once per term; exponent 0
    gives 1.0, which multiplies nothing.
    """
    named = np.zeros(len(c_phi), dtype=bool)
    named[sites] = True
    unique = np.flatnonzero(named)
    place = np.zeros(len(c_phi), dtype=np.intp)
    place[unique] = np.arange(len(unique))
    shifts = c_phi[unique][:, :, np.newaxis] - c_theta[unique][:, np.newaxis, :]
    powered = np.stack([np.ones_like(shifts)] + [shifts**e for e in range(1, exponents.max(initial=0) + 1)])
    for j in range(exponents.shape[1]):
        yield powered[exponents[:, j], place[sites[:, j], np.newaxis]]


def check_theta_invariance(cov, lattice, tol=DEFAULT_INVARIANCE_TOL):
    """Deviation of C from its conjugate under the reflection permutation.

    theta flips both time axes of _layout's table, whose entries are exactly
    C's, so the deviation and the scale read the table and equal the ones of
    the gathered C[theta, theta] bit for bit.
    """
    tol = _checked_tolerance(tol, "tol")
    table = _layout(cov, lattice)[0]
    deviation = float(np.abs(table[..., ::-1, ::-1] - table).max())
    scale = max(1.0, float(np.abs(table).max()))
    threshold = tol * scale
    return InvarianceReport(deviation <= threshold, deviation, threshold, tol)


def _layout(cov, lattice):
    """C as a table over its time axes, and the ways back: (table, expand, blocks, hold).

    table[..., t, s] is a column table on this lattice as held, or else the
    view D[x, y, t, s] = C[(t, x), (s, y)]; theta flips its last two axes
    either way. expand gives a half table's matrix, a view of a dense C where
    the strides allow. blocks gives Hermitian blocks whose spectra together
    are the symmetrised matrix's: per spatial momentum for a column table,
    while a dense C is one block, so its eigensolves stay the dense oracle.
    hold(half, root) holds a half table as a Covariance drawn through root.
    """
    if cov.dim != lattice.site_count:
        raise ValueError(f"covariance is {cov.dim}x{cov.dim}, lattice has {lattice.site_count} sites")
    tol, cols = cov.psd_tolerance, _columns_on(cov, lattice)
    if cols is not None:
        def momentum_blocks(half):  # a Fourier transform over the spatial axes block-diagonalises C
            return np.fft.fftn(_symmetrised(half, theta=False), axes=tuple(range(half.ndim - 2)))

        def hold(half, root):
            root = None if root is None else _even_roots(root.real)
            return Covariance.__new__(Covariance)._hold(tol, columns=half, momentum_roots=root)

        return cols, _translates, momentum_blocks, hold
    times, rest = lattice.shape[0], lattice.site_count // lattice.shape[0]

    def expand(table):
        return table.transpose(2, 0, 3, 1).reshape(table.shape[-1] * rest, -1)

    def hold(half, root):
        return Covariance.__new__(Covariance)._hold(tol, matrix=expand(half), factor=root)

    table = cov.matrix.reshape(times, rest, times, rest).transpose(1, 3, 0, 2)
    return table, expand, lambda half: symmetrized(expand(half)), hold


def _columns_on(cov, lattice):
    """cov's column table if it lays C out on lattice's grid, else None and the dense path runs."""
    times = lattice.shape[0]
    if cov.columns is not None and cov.columns.shape == (*(lattice.spatial_extents or (1,)), times, times):
        return cov.columns
    return None


def _half_columns(table):
    """Tables of A and B: a[..., i, j] = c[..., T + i, T + j] and b[..., i, j] = c[..., T + i, T - 1 - j]."""
    half = table.shape[-1] // 2
    return table[..., half:, half:], table[..., half:, :half][..., ::-1]


def warn_unless_invariant(cov, lattice, consequence):
    """RuntimeWarning at the caller's caller when C fails the default invariance check."""
    inv = check_theta_invariance(cov, lattice)
    if not inv.passed:
        warnings.warn(
            f"covariance is not reflection invariant (deviation {inv.deviation:.3e}); {consequence}",
            RuntimeWarning,
            stacklevel=3,
        )


def cross_block(cov, lattice, warn=True):
    """B[x, y] = C[x, theta(y)] over positive-time sites, as a fresh array.

    Symmetric whenever C is reflection invariant; a warning is emitted when
    the invariance check fails at the default tolerance. B is expanded from
    _layout's B table, whose entries are C's, so it equals the gather bit for
    bit, and a column table on this lattice is not expanded to C.
    """
    if warn:
        warn_unless_invariant(cov, lattice, "the cross block loses its meaning")
    table, expand, _, _ = _layout(cov, lattice)
    block = expand(_half_columns(table)[1])
    # a dense C with one time slice per half or one spatial site expands to a read-only view of itself
    return block if block.flags.writeable else block.copy()


def check_gaussian_rp(cov, lattice, *, invariance_tol=DEFAULT_INVARIANCE_TOL):
    """Reflection positivity of the Gaussian: the cross block must be PSD up to cov.psd_tolerance.

    A reflection-invariance violation is reported as its own failure kind,
    distinct from a genuinely negative cross-block spectrum. The spectrum is
    that of _layout's blocks of the B table; a column table on this lattice
    is decided per spatial momentum, and its smallest eigenvalue and
    threshold then differ from the dense ones at rounding. Only the spectrum
    is computed, never a root.
    """
    inv = check_theta_invariance(cov, lattice, _checked_tolerance(invariance_tol, "invariance_tol"))
    table, _, blocks, _ = _layout(cov, lattice)
    psd = _spectral_psd(np.linalg.eigvalsh(blocks(_half_columns(table)[1])).ravel(), cov.psd_tolerance)
    if not inv.passed:
        kind = "not-theta-invariant"
    elif not psd.passed:
        kind = "cross-block-not-psd"
    else:
        kind = None
    return GaussianRpReport(kind is None, psd.min_eigenvalue, psd.threshold, psd.tol, kind, inv)


def theta_inner(cov, lattice, phi):
    """phi^T C (theta phi) for a positive-support test function."""
    phi = _as_site_vector(lattice, phi)
    if not positive_support(lattice, phi):
        raise ValueError("theta_inner requires a test function supported on positive times")
    return float(phi @ cov.matrix @ reflect(lattice, phi))


def decompose_pq(cov, lattice):
    """Split the positive-half block A into (A - B) + B.

    The two summands are the covariances of the independent and the shared
    Gaussian draw in the factorized representation of the joint half law.
    With c_p = A - B and c_q = A - c_p, the sum c_p + c_q reproduces A
    bit-exactly wherever 0 <= B/A <= 2 entrywise: by Sterbenz's lemma one of
    the two subtractions is then exact. Elsewhere the sum can miss A in the
    last ulp, and sum_exact reads false. c_q may differ from the raw cross
    block in the last ulp. Non-PSD summands are returned with failing
    reports rather than raised: the failing report is the diagnostic
    product.

    The split runs on _layout's tables of A and B, which hold exactly C's
    entries, so the expanded a_block, c_p and c_q equal the split of the
    gathered blocks bit for bit, and so does sum_exact, decided on the
    tables. a_block is read-only: a view of the covariance's matrix, or, for
    a column table on this lattice, its A table expanded on first read.

    Each summand is diagonalised once, by the eigh of its _layout blocks
    that gives both its report and the PSD root it is held and drawn with.
    """
    table, expand, blocks, hold = _layout(cov, lattice)
    a, b = _half_columns(table)
    p = a - b
    q = a - p
    (report_p, root_p), (report_q, root_q) = (_psd_root(blocks(half), cov.psd_tolerance) for half in (p, q))
    sum_exact = bool(np.array_equal(p + q, a))
    return PQPair(hold(p, root_p), hold(q, root_q), report_p, report_q, cov, lattice, hold(a, None), sum_exact)


def covariance_factor(matrix, psd_tolerance):
    """The symmetric root F = V sqrt(L) V^T, so F F^T = matrix, eigenvalues L clipped at zero.

    The factor of Covariance(matrix, psd_tolerance), with its checks: the
    matrix must be exactly symmetric as given, negative eigenvalues within
    the tolerance band are clipped, and anything below it is an error.
    Rank-deficient matrices are fine. Nothing in the package calls it, but
    the tests draw explicit covariances against it and bench/tracing.py
    times it by name: removing it breaks the traced benchmark run.
    """
    return Covariance(matrix, psd_tolerance).factor


def iter_sample_chunks(cov, n, seed):
    """Yield (chunk_index, block) of Gaussian field draws, each block cov.draw of its substream.

    Chunk k is a pure function of (seed, k); see streams. Concatenating the
    blocks in index order gives exactly sample(cov, n, seed).configs.
    """
    for k, count in chunk_counts(n):
        yield k, cov.draw(substream(seed, NS_FIELD, k), count)


def sample(cov, n, seed):
    """Draw n independent mean-zero field configurations with covariance C.

    Deterministic given (n, seed, site ordering): the same call always
    returns bit-identical samples, whatever the BLAS thread count. configs
    is a fresh array owned by the sample; a single chunk's block is
    returned without a copy, and more chunks are copied one by one into
    rows of configs, so the sample holds configs and one chunk at a time.
    See Covariance.draw for how a block is drawn.
    A sample of fewer draws is not always a bitwise prefix: the BLAS may
    round an explicit covariance's z @ F^T otherwise for a few rows.
    """
    n = as_int(n, "sample count")
    chunks = iter_sample_chunks(cov, n, seed)
    if n <= CHUNK_SIZE:
        ((_, configs),) = chunks
    else:
        configs = np.empty((n, cov.dim))
        for k, block in chunks:
            configs[k * CHUNK_SIZE : k * CHUNK_SIZE + len(block)] = block
            del block  # freed before the next chunk is drawn
    return FieldSample(configs=configs, seed=int(seed), count=int(n))


def verify_convolution_identity(pq, n_samples=100_000, seed=0):
    """Sampling check of the factorized representation behind pq.

    Per sample, one shared Q drawn by pq.q and two independent P_1, P_2 by
    pq.draw_halves give y = [P_1 + Q, P_2 + Q]. Over n_samples draws its
    second moment must match S = [[A, B], [B, A]], the joint law of
    (restrict_plus(T), restrict_plus(reflect(T))), entrywise within five
    standard errors taken from S: Var(y_i y_j) = S_ii S_jj + S_ij^2 (Isserlis).
    An entry with standard error 0 passes when it misses by at most 1e-12;
    otherwise no number of standard errors measures it, and the report fails
    with max_sigma_deviation None. The split is gated by pq.both_psd alone;
    pq.sum_exact only describes its rounding.
    """
    a, b = pq.a_block, cross_block(pq.covariance, pq.lattice, warn=False)
    target = np.block([[a, b], [b, a]])
    second = np.zeros_like(target)
    for k, count in chunk_counts(n_samples):
        rng = substream(seed, NS_FIELD, k)
        y = pq.draw_halves(rng, pq.q.draw(rng, count), 2).reshape(count, -1)
        second += y.T @ y
    delta = np.abs(second / n_samples - target)
    stderr = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n_samples)
    max_sigma = _max_ratio(delta, stderr, 1e-12)
    return ConvolutionReport(max_sigma is not None and max_sigma <= 5.0, max_sigma, int(n_samples), int(seed))


def _max_ratio(delta, scale, exact):
    """The largest delta / scale, or None when it is not finite.

    An entry with scale 0 counts 0 when its delta is at most exact, and
    makes the ratio infinite otherwise: no multiple of a zero scale measures it.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = float(np.where(scale > 0, delta / scale, np.where(delta <= exact, 0.0, np.inf)).max())
    return ratio if math.isfinite(ratio) else None
