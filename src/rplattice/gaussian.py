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
Covariance keeps C's column table and the R_k, expands C only when it is
read, and the exact checks decide such a C per spatial momentum: B,
c_p = A - B and c_q are block-diagonal in momentum too, so their spectra,
and the PSD square roots of c_p and c_q, come from batched eigensolves of
T x T blocks, and the invariance check and the split read the table.
Explicit covariances take the dense path, which stays the oracle.

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

from .density import check_sites, is_even
from .lattice import Lattice, as_float, reflect, restrict_plus, positive_support, _as_site_vector
from .streams import NS_FIELD, chunk_counts, substream

DEFAULT_PSD_TOL = 1e-10
DEFAULT_INVARIANCE_TOL = 1e-12


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
    * Otherwise the factor F with F F^T = matrix comes from one eigh of
      matrix, which also gates positive semidefiniteness up to psd_tolerance
      relative to the spectral norm. The gate reads the eigenvalues of that
      eigh, not of a separate eigvalsh; only a matrix whose smallest
      eigenvalue lies within rounding of the threshold can tell the two apart.

    columns and momentum_roots are None on the second way. Like factor, they
    are not part of the value, and dataclasses.replace, which takes the
    second way, drops them.
    """

    matrix: np.ndarray
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
        factor = _psd_factor(m, tol, "covariance")
        self._hold(tol, matrix=np.array(m), factor=factor)

    @classmethod
    def from_columns(cls, columns, momentum_roots, psd_tolerance=DEFAULT_PSD_TOL):
        """The covariance C[(t, x), (s, y)] = columns[x - y, t, s], drawn through momentum_roots.

        Both tables have shape (*spatial_extents, 2T, 2T) and lay C out on the
        lattice of shape (2T, *spatial_extents); momentum_roots[k] is a root
        R_k of C's 2T x 2T block at spatial momentum k. The caller vouches
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
        tol = _checked_tolerance(psd_tolerance)
        cov = cls.__new__(cls)
        cov._hold(tol, columns=cols, momentum_roots=roots)
        return cov

    def _hold(self, tol, **arrays):
        for name, array in arrays.items():  # a factor given here fills the cached property
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "psd_tolerance", tol)

    def __getattr__(self, name):
        # reached only for attributes not yet set: a column table's matrix is expanded on first read
        if name != "matrix" or self.columns is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        matrix = _translates(self.columns)
        self._hold(self.psd_tolerance, matrix=matrix)
        return matrix

    def __eq__(self, other):
        if not isinstance(other, Covariance):
            return NotImplemented
        return self.psd_tolerance == other.psd_tolerance and np.array_equal(self.matrix, other.matrix)

    @property
    def dim(self):
        if self.columns is None:
            return self.matrix.shape[0]
        return math.prod(self.columns.shape[:-1])

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
        """A fresh (count, dim) array x = z F^T for z = rng.standard_normal((count, dim)).

        A column table reads each row of z as the coefficients z[(k, s)] of
        the spatial modes k at times s: one batched product of each mode's
        (count, 2T) slice with its R_k^T, then one GEMM with E^T, 2N(2T + S)
        flops per draw instead of 2N^2. Since E^T z^T is white noise too,
        the draws have the law of those through C's translation-invariant
        root. Each draw reads only its own row of z.
        """
        z = rng.standard_normal((count, self.dim))
        if self.momentum_roots is None:
            return z @ self.factor.T
        basis, roots_t = self._modes
        spatial, times = basis.shape[0], roots_t.shape[-1]
        mixed = np.matmul(z.reshape(count, spatial, times).swapaxes(0, 1), roots_t)
        # every normal has been read: the product with E^T overwrites them with the draws
        np.matmul(mixed.reshape(spatial, count * times).T, basis.T, out=z.reshape(count * times, spatial))
        return z


def _check_entries(m):
    """Raise ValueError unless every entry is finite and so is 2 max|S|^2, a bound on S_ii S_jj + S_ij^2."""
    if not np.isfinite(m).all():
        raise ValueError("covariance entries must be finite")
    peak = max(float(m.max(initial=0.0)), -float(m.min(initial=0.0)))
    if not math.isfinite(2.0 * peak * peak):  # Python floats overflow to inf without a warning
        raise ValueError(f"covariance entry of magnitude {peak:.3e} is too large: S_ii S_jj + S_ij^2 overflows")


def _checked_tolerance(tol):
    tol = as_float(tol, "psd_tolerance")
    if not (math.isfinite(tol) and tol >= 0):  # NaN and inf would turn every gate into a no-op
        raise ValueError(f"psd_tolerance must be finite and nonnegative, got {tol}")
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
    """Covariances of the independent (c_p) and shared (c_q) half-lattice draws, and their source.

    root_tables: the PSD roots of c_p and c_q from their reports' eigh, as tables on a column-table split.
    """

    c_p: np.ndarray
    c_q: np.ndarray
    a_block: np.ndarray
    report_p: PsdReport
    report_q: PsdReport
    covariance: Covariance = field(repr=False, compare=False)
    lattice: Lattice = field(repr=False, compare=False)
    root_tables: tuple = field(repr=False, compare=False)

    def __eq__(self, other):
        if not isinstance(other, PQPair):
            return NotImplemented
        return (
            self.report_p == other.report_p
            and self.report_q == other.report_q
            and np.array_equal(self.c_p, other.c_p)
            and np.array_equal(self.c_q, other.c_q)
            and np.array_equal(self.a_block, other.a_block)
        )

    @cached_property
    def roots(self):
        """(R_p, R_q), the unique PSD roots: symmetric, and R R^T = c_p and c_q, to rounding."""
        return tuple(root if root.ndim == 2 else _translates(root) for root in self.root_tables)

    @property
    def both_psd(self):
        return self.report_p.passed and self.report_q.passed

    @property
    def sum_exact(self):
        """Whether c_p + c_q reproduces A bit for bit: a diagnostic of the rounding, not a gate."""
        return bool(np.array_equal(self.c_p + self.c_q, self.a_block))


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


def _spectral_psd(eigs, tol):
    """PSD gate on a spectrum: min eigenvalue >= -tol * max(1, max |eigenvalue|).

    The threshold scales with the spectral norm but is never tighter than
    -tol; an empty spectrum passes with minimum 0.
    """
    min_eig = float(eigs.min()) if eigs.size else 0.0
    scale = max(1.0, float(np.abs(eigs).max())) if eigs.size else 1.0
    threshold = -tol * scale
    return PsdReport(min_eig >= threshold, min_eig, threshold, tol)


def _require_psd(eigs, tol, what):
    gate = _spectral_psd(eigs, tol)
    if not gate.passed:
        raise ValueError(
            f"{what} is not positive semidefinite: eigenvalue {gate.min_eigenvalue:.3e} "
            f"below {gate.threshold:.3e}"
        )


def symmetrized(matrix):
    """(M + M^T) / 2, which equals M bit for bit when M is exactly symmetric."""
    return (matrix + matrix.T) / 2.0


def _psd_root(matrix, tol):
    """The PsdReport of symmetrized(matrix) and its PSD square root V sqrt(max(L, 0)) V^T, from one eigh."""
    eigs, vecs = np.linalg.eigh(symmetrized(matrix))
    return _spectral_psd(eigs, tol), (vecs * np.sqrt(np.clip(eigs, 0.0, None))) @ vecs.T


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
    built, inverted, factored or multiplied. A mass too small for the operator to
    be positive definite in binary64 is an error.
    """
    mass = as_float(mass, "mass")
    # NaN fails every comparison; a mass whose square overflows would give C = 0
    if not (mass > 0 and math.isfinite(mass * mass)):
        raise ValueError(f"mass must be positive with a finite square, got {mass}")
    # Each row of the assembled -laplacian + mass^2 sums exactly to its
    # diagonal minus its degree. If mass^2 is lost from every diagonal entry,
    # the operator annihilates the constant field; if one row keeps it, the
    # operator is irreducibly diagonally dominant and so positive definite.
    if all(_assembled_diagonal(mass, degree) == degree for degree in _site_degrees(lattice)):
        raise ValueError(
            f"mass {mass} is too small: its square vanishes beside the site degrees, "
            "so -laplacian + mass^2 is singular"
        )
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
    residual = -_apply_operator(cols, mass)  # one step of iterative refinement
    residual[(0,) * len(extents)] += np.eye(times)
    cols += np.fft.ifftn(green @ np.fft.fftn(residual, axes=axes), axes=axes).real
    # averaging with c[-d, s, t] makes C exactly symmetric, then with the
    # time-flipped table exactly reflection invariant; each keeps the other
    cols = (cols + _transposed(cols)) / 2.0
    cols = (cols + cols[..., ::-1, ::-1]) / 2.0
    return Covariance.from_columns(cols, roots, psd_tolerance)


def _site_degrees(lattice):
    """The distinct numbers of link ends at a site: 1 or 2 in time, 2 per spatial ring."""
    spatial = 2 * sum(extent > 1 for extent in lattice.spatial_extents)
    return {min(2, lattice.shape[0] - 1) + spatial, 1 + spatial}


def _assembled_diagonal(mass, degree):
    """mass^2 followed by one +1.0 per link end, added left to right as assembling the operator does."""
    total = mass * mass
    for _ in range(degree):
        total += 1.0
    return total


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


def _apply_operator(cols, mass):
    """(-laplacian + mass^2) applied as a stencil to the columns cols[x..., t, s] over (x..., t)."""
    out = mass * mass * cols
    out[..., 1:, :] += cols[..., 1:, :] - cols[..., :-1, :]
    out[..., :-1, :] += cols[..., :-1, :] - cols[..., 1:, :]
    for axis in range(cols.ndim - 2):
        if cols.shape[axis] > 1:  # extent 1 closes on itself; extent 2 links the pair twice
            out += 2.0 * cols - np.roll(cols, 1, axis) - np.roll(cols, -1, axis)
    return out


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
    and theta_n of theta_mat, and P is a Potential over the covariance's
    sites. With u = phi_m - theta_n and v = Cu, completing the square gives

        E[exp(iu.T) P(T)] = exp(-(1/2) u^T C u) E[P(Y + iv)],   Y ~ N(0, C).

    Each factor (Y_x + i v_x)^p expands binomially, and the mixed moments of
    Y follow from Isserlis' theorem, by Wick recursion over the multiset of
    sites. C Phi and C Theta are the only products with C, so all k^2
    shifts are exact at once, with no sampling. The matrix is real when
    every term of P has even degree and complex otherwise; the constant
    polynomial 1 gives the Gaussian Gram G0 = exp(-(1/2) u^T C u).
    """
    c = cov.matrix
    phi_mat = np.asarray(phi_mat, dtype=np.float64)
    theta_mat = np.asarray(theta_mat, dtype=np.float64)
    check_sites(p, cov.dim, f"a covariance of {cov.dim} sites")
    c_phi, c_theta = c @ phi_mat, c @ theta_mat
    # u^T C u = phi^T C phi + theta^T C theta - 2 phi^T C theta, C being exactly symmetric
    phi_norms, theta_norms = (phi_mat * c_phi).sum(axis=0), (theta_mat * c_theta).sum(axis=0)
    quad = phi_norms[:, np.newaxis] + theta_norms - 2.0 * (phi_mat.T @ c_theta)
    g0 = np.exp(-0.5 * quad)

    @cache
    def moment(sites):
        # E[Y_s1 ... Y_sj] for a sorted tuple of sites: pair the first with each of the others
        if len(sites) % 2:
            return 0.0
        if not sites:
            return 1.0
        first, rest = sites[0], sites[1:]
        return sum(
            rest.count(s) * c[first, s] * moment(rest[:j] + rest[j + 1:])
            for j, s in enumerate(rest)
            if j == 0 or s != rest[j - 1]
        )

    # the even-degree terms of E[P(Y + iv)] are real, the odd-degree ones imaginary
    parts = [np.full(g0.shape, p.constant), np.zeros(g0.shape)]
    for term in p.terms:
        sites, powers = zip(*term.factors)
        shifts = c_phi[list(sites)][:, :, np.newaxis] - c_theta[list(sites)][:, np.newaxis, :]
        for taken in itertools.product(*(range(power + 1) for power in powers)):
            m = moment(tuple(s for s, j in zip(sites, taken) for _ in range(j)))
            if m == 0.0:
                continue
            left = sum(powers) - sum(taken)  # the power of i
            x = term.coefficient * m * (-1) ** (left // 2) * math.prod(map(math.comb, powers, taken))
            for shift, power, j in zip(shifts, powers, taken):
                if power > j:
                    x = x * shift ** (power - j)
            parts[left % 2] += x
    if is_even(p):
        return g0 * parts[0]
    return g0 * (parts[0] + 1j * parts[1])


def check_theta_invariance(cov, lattice, tol=DEFAULT_INVARIANCE_TOL):
    """Deviation of C from its conjugate under the reflection permutation.

    On a column table theta flips both time indices: every entry of C is a
    table entry and every table entry is an entry of C, so the deviation
    and the scale read the table and equal the dense ones bit for bit.
    """
    cols = _columns_on(cov, lattice)
    if cols is None:
        values, flipped = _time_blocks(cov.matrix, lattice)
    else:
        values, flipped = cols, cols[..., ::-1, ::-1]
    deviation = float(np.abs(flipped - values).max())
    scale = max(1.0, float(np.abs(values).max()))
    threshold = tol * scale
    return InvarianceReport(deviation <= threshold, deviation, threshold, tol)


def _columns_on(cov, lattice):
    """cov's column table if it lays C out on lattice's grid, else None and the dense path runs."""
    times = lattice.shape[0]
    if cov.columns is not None and cov.columns.shape == (*(lattice.spatial_extents or (1,)), times, times):
        return cov.columns
    return None


def _half_columns(cols):
    """Tables of A and B: a[d, i, j] = c[d, T + i, T + j] and b[d, i, j] = c[d, T + i, T - 1 - j]."""
    half = cols.shape[-1] // 2
    return cols[..., half:, half:], cols[..., half:, :half][..., ::-1]


def _momentum_psd_root(table, tol):
    """_psd_root of the matrix the table expands to, from one batched eigh of its _momentum_blocks.

    The root is returned as the table of the same form, the inverse
    transform of the blocks' roots U sqrt(max(L, 0)) U^H.
    """
    eigs, vecs = np.linalg.eigh(_momentum_blocks(table))
    roots = (vecs * np.sqrt(np.clip(eigs, 0.0, None))[..., np.newaxis, :]) @ vecs.conj().swapaxes(-1, -2)
    return _spectral_psd(eigs.ravel(), tol), np.fft.ifftn(roots, axes=tuple(range(table.ndim - 2))).real


def _momentum_blocks(table):
    """One Hermitian T x T block per spatial momentum of the symmetrised matrix the table expands to.

    The Fourier transform over the spatial axes block-diagonalises the
    translation-invariant matrix: the blocks' spectra together are its spectrum.
    """
    sym = (table + _transposed(table)) / 2.0
    return np.fft.fftn(sym, axes=tuple(range(sym.ndim - 2)))


def _time_blocks(matrix, lattice):
    """matrix viewed as (2T, S, 2T, S) blocks, and its conjugate under theta.

    theta reverses the leading time axis of the C-ordered site grid, so
    M[theta(x), theta(y)] is the view with both time axes flipped: the same
    values as the np.ix_(theta, theta) gather, without an N^2 copy.
    """
    times = lattice.shape[0]
    rest = lattice.site_count // times
    blocks = matrix.reshape(times, rest, times, rest)
    return blocks, blocks[::-1, :, ::-1, :]


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
    the invariance check fails at the default tolerance. A covariance with a
    column table on this lattice expands B from its B table, whose entries
    are those of C, so B equals the dense gather bit for bit without C.
    """
    if warn:
        warn_unless_invariant(cov, lattice, "the cross block loses its meaning")
    cols = _columns_on(cov, lattice)
    if cols is not None:
        return _translates(_half_columns(cols)[1])
    plus = lattice.plus_sites
    return cov.matrix[np.ix_(plus, lattice.theta_perm[plus])]


def check_gaussian_rp(cov, lattice, tol=DEFAULT_PSD_TOL, invariance_tol=DEFAULT_INVARIANCE_TOL):
    """Reflection positivity of the Gaussian: the cross block must be PSD.

    A reflection-invariance violation is reported as its own failure kind,
    distinct from a genuinely negative cross-block spectrum. A covariance
    with a column table on this lattice is decided per spatial momentum,
    from the T x T blocks of its cross-block table; its smallest eigenvalue
    and threshold then differ from the dense ones at rounding. Only the
    spectrum is computed, never a root.
    """
    inv = check_theta_invariance(cov, lattice, invariance_tol)
    cols = _columns_on(cov, lattice)
    if cols is None:
        block = symmetrized(cross_block(cov, lattice, warn=False))
    else:
        block = _momentum_blocks(_half_columns(cols)[1])
    psd = _spectral_psd(np.linalg.eigvalsh(block).ravel(), tol)
    if not inv.passed:
        kind = "not-theta-invariant"
    elif not psd.passed:
        kind = "cross-block-not-psd"
    else:
        kind = None
    return GaussianRpReport(kind is None, psd.min_eigenvalue, psd.threshold, tol, kind, inv)


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
    last ulp; _split refits c_p to A - c_q on those entries, which repairs
    some with B/A > 2, and the rest stay inexact. c_q may differ from
    the raw cross block in the last ulp. Non-PSD summands are returned with
    failing reports rather than raised: the failing report is the diagnostic
    product.

    a_block is read-only: a view of the covariance's matrix, or, for a
    covariance with a column table on this lattice, the expansion of its A
    table, and C is not expanded. Such a covariance is split on the tables
    of A and B, and c_p and c_q are expanded from them. The dense blocks
    hold exactly the table entries, and the refit is entrywise and stops
    once no entry misses, so a_block, c_p and c_q equal the dense ones bit
    for bit. The reports come from the per-momentum spectra, as in
    check_gaussian_rp.

    Each summand is diagonalised once, by the eigh that gives both its
    report and its PSD square root (see PQPair.roots).
    """
    tol = cov.psd_tolerance
    cols = _columns_on(cov, lattice)
    if cols is None:
        a_block = cov.matrix[lattice.n_plus:, lattice.n_plus:]  # the positive half is the last n_plus sites
        c_p, c_q = _split(a_block, cross_block(cov, lattice, warn=False))
        (report_p, root_p), (report_q, root_q) = _psd_root(c_p, tol), _psd_root(c_q, tol)
        return PQPair(c_p, c_q, a_block, report_p, report_q, cov, lattice, (root_p, root_q))
    a, b = _half_columns(cols)
    p, q = _split(a, b)
    (report_p, root_p), (report_q, root_q) = _momentum_psd_root(p, tol), _momentum_psd_root(q, tol)
    a_block = _translates(a)
    a_block.setflags(write=False)
    return PQPair(_translates(p), _translates(q), a_block, report_p, report_q, cov, lattice, (root_p, root_q))


def _split(a, b):
    """c_p = A - B and c_q = A - c_p, refit entrywise where c_p + c_q misses A."""
    c_p = a - b
    c_q = a - c_p
    for _ in range(4):
        bad = (c_p + c_q) != a
        if not bad.any():
            break
        c_q = np.where(bad, a - c_p, c_q)
        bad = (c_p + c_q) != a
        if not bad.any():
            break
        c_p = np.where(bad, a - c_q, c_p)
    return c_p, c_q


def covariance_factor(matrix, psd_tolerance):
    """Factor F with F F^T = matrix, eigenvalues clipped at zero.

    The matrix must be exactly symmetric as given. Negative eigenvalues
    within the tolerance band are clipped; anything below it is an error.
    Rank-deficient matrices are fine.
    """
    if not np.array_equal(matrix, matrix.T):
        raise ValueError("matrix to factor must be exactly symmetric")
    return _psd_factor(matrix, psd_tolerance, "matrix")


def _psd_factor(matrix, psd_tolerance, what):
    eigvals, eigvecs = np.linalg.eigh(matrix)
    _require_psd(eigvals, psd_tolerance, what)
    eigvecs *= np.sqrt(np.clip(eigvals, 0.0, None))
    return eigvecs


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
    returned without a copy. See Covariance.draw for how a block is drawn.
    """
    blocks = [block for _, block in iter_sample_chunks(cov, n, seed)]
    configs = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
    return FieldSample(configs=configs, seed=int(seed), count=int(n))


def verify_convolution_identity(pq, n_samples=100_000, seed=0):
    """Sampling check of the factorized representation behind pq.

    Per sample, one shared Q through pq.roots[1] and two independent P_1, P_2
    through pq.roots[0] give y = [P_1 + Q, P_2 + Q]. Over n_samples draws its
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
    root_p, root_q = pq.roots
    half = pq.lattice.n_plus
    second = np.zeros_like(target)
    for k, count in chunk_counts(n_samples):
        rng = substream(seed, NS_FIELD, k)
        shared = rng.standard_normal((count, half)) @ root_q.T
        y = (rng.standard_normal((2 * count, half)) @ root_p.T).reshape(count, 2 * half)
        y.reshape(count, 2, half)[...] += shared[:, np.newaxis]
        second += y.T @ y
    delta = np.abs(second / n_samples - target)
    with np.errstate(divide="ignore", invalid="ignore"):
        stderr = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n_samples)
        sigmas = np.where(stderr > 0, delta / stderr, np.where(delta <= 1e-12, 0.0, np.inf))
    max_sigma = float(sigmas.max()) if sigmas.size else 0.0
    if math.isinf(max_sigma):
        return ConvolutionReport(False, None, int(n_samples), int(seed))
    return ConvolutionReport(max_sigma <= 5.0, max_sigma, int(n_samples), int(seed))
