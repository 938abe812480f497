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
"""

import math
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .lattice import Lattice, as_float, as_int, reflect, restrict_plus, positive_support, _as_site_vector
from .streams import NS_FIELD, ChunkMoments, chunk_counts, substream

DEFAULT_PSD_TOL = 1e-10
DEFAULT_INVARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class Covariance:
    """Symmetric PSD matrix over lattice sites; immutable after construction.

    Symmetry must hold exactly as stored. The sampling factor F with
    F F^T = matrix is held read-only beside it, so a Covariance keeps 2 N^2
    doubles for its whole life. F comes one of two ways, chosen by what the
    caller holds:

    * From a precision K (the inverse of matrix, passed as precision= and not
      kept): F = matrix @ L with K = L L^T, so F F^T = C K C = C up to the
      residual C (K C - I). A successful Cholesky of K is the PSD gate, since
      K positive definite makes its inverse positive definite; matrix is
      trusted to be that inverse and is not diagonalised at all.
    * Otherwise from one eigh of matrix, which also gates positive
      semidefiniteness up to psd_tolerance relative to the spectral norm.
      The gate reads the eigenvalues of that eigh, not of a separate
      eigvalsh; only a matrix whose smallest eigenvalue lies within rounding
      of the threshold can tell the two apart.
    """

    matrix: np.ndarray
    psd_tolerance: float = DEFAULT_PSD_TOL
    precision: InitVar[np.ndarray | None] = None
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, precision):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"covariance must be square, got shape {m.shape}")
        if not np.array_equal(m, m.T):
            raise ValueError("covariance must be exactly symmetric as stored")
        tol = as_float(self.psd_tolerance, "psd_tolerance")
        if not (math.isfinite(tol) and tol >= 0):  # NaN and inf would turn every gate into a no-op
            raise ValueError(f"psd_tolerance must be finite and nonnegative, got {tol}")
        # factor the caller's array before copying it, so the factorization's
        # workspace and the copy are never alive together
        if precision is None:
            factor = _psd_factor(m, tol, "covariance")
        else:
            factor = m @ _cholesky_lower(precision, m.shape)
        m = np.array(m)
        m.setflags(write=False)
        factor.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "psd_tolerance", tol)

    def __eq__(self, other):
        if not isinstance(other, Covariance):
            return NotImplemented
        return self.psd_tolerance == other.psd_tolerance and np.array_equal(self.matrix, other.matrix)

    @property
    def dim(self):
        return self.matrix.shape[0]


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
    """Covariances of the independent (c_p) and shared (c_q) half-lattice draws, and their source."""

    c_p: np.ndarray
    c_q: np.ndarray
    a_block: np.ndarray
    report_p: PsdReport
    report_q: PsdReport
    covariance: Covariance = field(repr=False, compare=False)
    lattice: Lattice = field(repr=False, compare=False)

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
    algebraic_passed: bool
    block_deviation: float
    block_threshold: float
    sampling_passed: bool
    max_sigma_deviation: float
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


def _psd_report(matrix, tol):
    sym = symmetrized(matrix)
    return _spectral_psd(np.linalg.eigvalsh(sym) if sym.size else np.zeros(0), tol)


def free_field_covariance(lattice, mass, psd_tolerance=DEFAULT_PSD_TOL):
    """Inverse of (-laplacian + mass^2) on the lattice.

    Nearest-neighbour edges: time links within each half plus the single
    crossing link between t = -1 and t = +1, open ends at t = +-T; spatial
    links periodic. The edge set is mirror symmetric, and the returned matrix
    is symmetrized and reflection-symmetrized so both properties hold
    bit-exactly. The operator is handed to the Covariance as its precision,
    so the sampling factor comes from its Cholesky factor and C is never
    diagonalised. A mass too small for the operator to be positive definite
    in binary64 is an error.
    """
    mass = as_float(mass, "mass")
    # NaN fails every comparison; a mass whose square overflows would give C = 0
    if not (mass > 0 and math.isfinite(mass * mass)):
        raise ValueError(f"mass must be positive with a finite square, got {mass}")
    op = _laplacian_plus_mass(lattice, mass)
    # Each row of op sums exactly to its diagonal minus its degree. If mass^2
    # is lost from every diagonal entry, op annihilates the constant field, and
    # inv would return noise or raise; if one row keeps it, op is irreducibly
    # diagonally dominant and so positive definite.
    if not op.sum(axis=1).any():
        raise ValueError(
            f"mass {mass} is too small: its square vanishes beside the site degrees, "
            "so -laplacian + mass^2 is singular"
        )
    cov = np.linalg.inv(op)
    cov = (cov + cov.T) / 2.0
    blocks, flipped = _time_blocks(cov, lattice)
    cov = ((blocks + flipped) / 2.0).reshape(cov.shape)
    return Covariance(cov, psd_tolerance, precision=op)


def _laplacian_plus_mass(lattice, mass):
    """-laplacian + mass^2, assembled link by link on the site grid.

    Each diagonal entry is mass^2 followed by one +1.0 per link end, added
    left to right; adding mass^2 + degree in one step can differ in the last ulp.
    """
    n = lattice.site_count
    op = np.zeros((n, n))
    np.fill_diagonal(op, mass * mass)
    grid = np.arange(n).reshape(lattice.shape)
    links = [(grid[:-1], grid[1:])]  # the crossing link included, open ends
    for axis, extent in enumerate(lattice.spatial_extents, start=1):
        if extent > 1:  # extent 1 closes on itself; extent 2 links the pair twice
            links.append((grid, np.roll(grid, -1, axis)))
    for a, b in links:
        for i, j in ((a.ravel(), b.ravel()), (b.ravel(), a.ravel())):
            op[i, i] += 1.0
            op[i, j] -= 1.0
    return op


def char_fn(cov, phi):
    """Characteristic function exp[-(1/2) phi^T C phi] of the centred Gaussian."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (cov.dim,):
        raise ValueError(f"test function has shape {phi.shape}, covariance is {cov.dim}x{cov.dim}")
    q = float(phi @ cov.matrix @ phi)
    return float(np.exp(-0.5 * q))


def check_theta_invariance(cov, lattice, tol=DEFAULT_INVARIANCE_TOL):
    """Deviation of C from its conjugate under the reflection permutation."""
    blocks, flipped = _time_blocks(cov.matrix, lattice)
    deviation = float(np.abs(flipped - blocks).max())
    scale = max(1.0, float(np.abs(cov.matrix).max()))
    threshold = tol * scale
    return InvarianceReport(deviation <= threshold, deviation, threshold, tol)


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
    """B[x, y] = C[x, theta(y)] over positive-time sites.

    Symmetric whenever C is reflection invariant; a warning is emitted when
    the invariance check fails at the default tolerance.
    """
    if warn:
        warn_unless_invariant(cov, lattice, "the cross block loses its meaning")
    plus = lattice.plus_sites
    return cov.matrix[np.ix_(plus, lattice.theta_perm[plus])]


def check_gaussian_rp(cov, lattice, tol=DEFAULT_PSD_TOL, invariance_tol=DEFAULT_INVARIANCE_TOL):
    """Reflection positivity of the Gaussian: the cross block must be PSD.

    A reflection-invariance violation is reported as its own failure kind,
    distinct from a genuinely negative cross-block spectrum.
    """
    inv = check_theta_invariance(cov, lattice, invariance_tol)
    psd = _psd_report(cross_block(cov, lattice, warn=False), tol)
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
    last ulp; the loop below refits c_p to A - c_q on those entries, which
    repairs some with B/A > 2, and the rest stay inexact. c_q may differ from
    the raw cross block in the last ulp. Non-PSD summands are returned with
    failing reports rather than raised: the failing report is the diagnostic
    product.
    """
    plus = lattice.plus_sites
    a = cov.matrix[np.ix_(plus, plus)]
    b = cross_block(cov, lattice, warn=False)
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
    tol = cov.psd_tolerance
    return PQPair(c_p, c_q, a, _psd_report(c_p, tol), _psd_report(c_q, tol), cov, lattice)


def covariance_factor(matrix, psd_tolerance):
    """Factor F with F F^T = matrix, eigenvalues clipped at zero.

    The matrix must be exactly symmetric as given. Negative eigenvalues
    within the tolerance band are clipped; anything below it is an error.
    Rank-deficient matrices are fine.
    """
    if not np.array_equal(matrix, matrix.T):
        raise ValueError("matrix to factor must be exactly symmetric")
    return _psd_factor(matrix, psd_tolerance, "matrix")


def _cholesky_lower(precision, shape):
    """Lower Cholesky factor of a square, exactly symmetric precision of the given shape."""
    k = np.asarray(precision, dtype=np.float64)
    if k.shape != shape:
        raise ValueError(f"precision must have the covariance's shape {shape}, got {k.shape}")
    # cholesky reads one triangle only, so symmetry is checked here or not at all
    if not np.array_equal(k, k.T):
        raise ValueError("precision must be exactly symmetric as stored")
    try:
        return np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        raise ValueError("precision is not positive definite: it has no Cholesky factor") from None


def _psd_factor(matrix, psd_tolerance, what):
    eigvals, eigvecs = np.linalg.eigh(matrix)
    _require_psd(eigvals, psd_tolerance, what)
    eigvecs *= np.sqrt(np.clip(eigvals, 0.0, None))
    return eigvecs


def iter_sample_chunks(cov, n, seed):
    """Yield (chunk_index, block) of standard Gaussian field draws.

    Chunk k is a pure function of (seed, k); see streams. Concatenating the
    blocks in index order gives exactly sample(cov, n, seed).configs.
    """
    n = as_int(n, "sample count")
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    for k, count in chunk_counts(n):
        z = substream(seed, NS_FIELD, k).standard_normal((count, cov.dim))
        yield k, z @ cov.factor.T


def sample(cov, n, seed):
    """Draw n independent mean-zero field configurations with covariance C.

    Deterministic given (n, seed, site ordering): the same call always
    returns bit-identical samples.
    """
    blocks = [block for _, block in iter_sample_chunks(cov, n, seed)]
    configs = np.concatenate(blocks, axis=0)
    return FieldSample(configs=configs, seed=int(seed), count=int(n))


def verify_convolution_identity(pq, tol=DEFAULT_INVARIANCE_TOL, n_samples=100_000, seed=0):
    """Check the factorized representation of the split pq two ways.

    Algebraic part: the block matrix [[A, B], [B, A]] must equal
    [[c_p, 0], [0, c_p]] + [[c_q, c_q], [c_q, c_q]] entrywise; with the
    bit-exact decomposition this deviation is zero, and the check guards the
    block bookkeeping of the implementation.

    Sampling part: the empirical second moment of
    (restrict_plus(T), restrict_plus(reflect(T))) over n_samples draws of
    the full measure must match [[A, B], [B, A]] entrywise within five
    standard errors.
    """
    cov, lattice = pq.covariance, pq.lattice
    a, b = pq.a_block, cross_block(cov, lattice, warn=False)
    block_dev = max(
        float(np.abs((pq.c_p + pq.c_q) - a).max()) if a.size else 0.0,
        float(np.abs(pq.c_q - b).max()) if b.size else 0.0,
    )
    block_threshold = tol
    algebraic_ok = block_dev <= block_threshold

    plus = lattice.plus_sites
    mirror = lattice.theta_perm[plus]
    target = np.block([[a, b], [b, a]])

    moments = ChunkMoments()
    for _, block in iter_sample_chunks(cov, n_samples, seed):
        y = np.concatenate([block[:, plus], block[:, mirror]], axis=1)
        moments.add_outer(y, y)
    emp, stderr = moments.mean_and_stderr()
    delta = np.abs(emp - target)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigmas = np.where(stderr > 0, delta / stderr, np.where(delta <= 1e-12, 0.0, np.inf))
    max_sigma = float(sigmas.max()) if sigmas.size else 0.0
    sampling_ok = max_sigma <= 5.0

    return ConvolutionReport(
        passed=algebraic_ok and sampling_ok,
        algebraic_passed=algebraic_ok,
        block_deviation=block_dev,
        block_threshold=block_threshold,
        sampling_passed=sampling_ok,
        max_sigma_deviation=max_sigma,
        n_samples=int(n_samples),
        seed=int(seed),
    )
