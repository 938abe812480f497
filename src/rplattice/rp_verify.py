"""Reflection-positivity verification engines.

The object under test is always a Gram matrix

    M[m, n] = (characteristic function of the measure)(phi_m - theta phi_n)

over a finite family of positive-time test functions: the measure is
reflection positive exactly when every such matrix is positive semidefinite.
Three estimators produce GramReports:

* exact Gaussian entries from the covariance quadratic form,
* a direct Monte Carlo average of exp[i T(phi_m - theta phi_n)] weighted by
  exp of the interaction density F, with control variates whose means are
  exact Gaussian expectations: the unweighted phase, whose mean is the
  exact Gaussian entry (so the estimate is exact at zero density), F times
  the phase, whose mean is a Gaussian-polynomial closed form, and, for a
  tilted density, F, F^2 and the squared norm |T|^2 times the phase damped
  by a Gaussian factor, whose means are closed forms under a heavier
  Gaussian, and
* a two-level factorized estimator that integrates partial averages H_m over
  the independent half-draw against the shared draw. With shared inner
  samples every outer draw contributes a rank-one Hermitian matrix, so the
  estimate is positive semidefinite by construction at the price of an
  O(1/n_inner) bias; with independent inner samples the entries are
  unbiased products but the structural guarantee is lost. The shared draws
  may come from a tilted Gaussian, each outer term weighted by a positive
  importance weight, which keeps both properties.

Both Monte Carlo estimators add their samples through _add_samples: real
chunks (streams.ChunkMoments), and for a density with an odd term the
imaginary part in a second accumulator.

Verdicts are three-valued. An estimate passes when its smallest eigenvalue
clears -tol - 5 * eig_error_bound, where tol is the psd_tolerance of the
covariance the estimate samples and eig_error_bound is the coarse
Frobenius-type bound K * max entrywise standard error. Below the gate the
verdict is a fail only when the sign survives a bootstrap over sample
chunks; otherwise the run is inconclusive. Estimates are never divided by
the weight sum: the weighted measure is a finite measure, not a probability
measure, and its total mass is part of what the Gram matrix encodes.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .density import Potential, PolynomialTable, check_sites, eval_potential_batch, is_even
from .gaussian import (
    _checked_tolerance,
    _gate,
    char_fn,
    gaussian_polynomial_gram,
    iter_sample_chunks,
    symmetrized,
    tilted_gaussian,
    warn_unless_invariant,
)
from .lattice import _as_site_vector, as_float, as_int, embed_plus, positive_support, reflect, restrict_plus
from .streams import (
    CHUNK_SIZE,
    NS_BOOTSTRAP,
    NS_FACTORIZED,
    NS_PILOT,
    NS_TESTFN,
    ChunkMoments,
    chunk_counts,
    substream,
)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_OUTER_CHUNK = 64
_SUB_BLOCK = 16
_N_BOOTSTRAP = 200
_STABLE_FRACTION = 0.99
# q ||C||_inf of the tilted Gaussians the Monte Carlo estimators try; q ||C||_inf <= 0.8 keeps q lambda_max(C) < 1
_TILT_GRID = (0.0, 0.2, 0.4, 0.8)
# alpha ||C'||_inf of the damping exp(-(alpha/2) |T|^2) in the direct estimator's damped controls
_DAMPING = 0.2
# the most terms of F'^2 whose closed form those controls take; a tilt of a larger F' keeps (1, F')
_DAMPED_TERMS = 1 << 14
# shared and inner draws of the factorized estimator's tilt pilot, at most
_PILOT_OUTER = 256
_PILOT_INNER = 64
_ONE = Potential(constant=1.0)


class IllConditionedWeightsError(RuntimeError):
    """exp of the density, or a moment it weights, overflowed; the estimate is unusable."""


@dataclass(frozen=True)
class McParams:
    """Sample counts and seed for the Monte Carlo estimators."""

    n_samples: int
    seed: int
    n_outer: int = 10_000
    n_inner: int = 1_000
    share_inner: bool = True

    def __post_init__(self):
        for name in ("n_samples", "seed", "n_outer", "n_inner"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        for name in ("n_samples", "n_outer", "n_inner"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not isinstance(self.share_inner, bool):
            raise ValueError(f"share_inner must be true or false, got {self.share_inner!r}")


@dataclass(frozen=True)
class GramReport:
    """Gram estimate with statistical error and a PSD verdict.

    matrix is the hermitized estimate; hermiticity_gap records the max
    entrywise deviation before symmetrization, a self-consistency
    diagnostic. A Monte Carlo estimate for an even density is real: its
    imaginary part vanishes in expectation and is not estimated, and stderr
    is the standard error of the real part. Otherwise the imaginary part is
    accumulated apart, and stderr is sqrt(se_re^2 + se_im^2) per entry.
    It is identically zero for exact entries.
    """

    matrix: np.ndarray
    stderr: np.ndarray
    min_eigenvalue: float
    eig_error_bound: float
    verdict: str
    n_samples: int
    seed: int | None
    estimator_kind: str
    effective_sample_size: float | None
    hermiticity_gap: float
    tol: float


def psd_check(matrix, tol, eig_error_bound=0.0):
    """The PsdReport of the hermitized matrix, gated at -tol - 5 * eig_error_bound.

    An estimator turns a report that does not pass into a fail, or, via the
    bootstrap, an inconclusive verdict.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    tol, bound = _checked_tolerance(tol, "tol"), _checked_tolerance(eig_error_bound, "eig_error_bound")
    return _gate(np.linalg.eigvalsh(symmetrized(m)), -tol - 5.0 * bound, tol)


def schur_product(a, b):
    """Entrywise product of two equally shaped square matrices.

    Preserves positive semidefiniteness; the test battery checks that
    property against an eigensolver rather than assuming it.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a * b


def random_test_functions(lattice, count, seed):
    """count standard-normal vectors on the positive half plus the zero vector.

    Deterministic given seed. The zero vector is a legal test function and
    calibrates the normalization entry of the Gram matrix.
    """
    rng = substream(seed, NS_TESTFN, 0)
    block = rng.standard_normal((as_int(count, "count"), lattice.n_plus))
    phis = [embed_plus(lattice, row) for row in block]
    phis.append(np.zeros(lattice.site_count))
    return phis


def require_positive_support(lattice, phis):
    """Raise ValueError unless every test function is a finite site vector vanishing at t < 0."""
    for i, phi in enumerate(phis):
        if not np.isfinite(_as_site_vector(lattice, phi)).all():
            raise ValueError(f"test function {i} has a NaN or infinite entry")
        if not positive_support(lattice, phi):
            raise ValueError(f"test function {i} is not supported on positive times")


def small_lambda_probe(cov, lattice, phi, lambdas):
    """Second-difference probe of the Gram form that tends to theta_inner.

    probe(s) = [cf(s*(phi - theta phi)) - 2 cf(s*phi) + 1] / s^2 for the
    Gaussian characteristic function cf; the error is O(s^2).
    """
    phi = np.asarray(phi, dtype=np.float64)
    require_positive_support(lattice, [phi])
    diff = phi - reflect(lattice, phi)
    out = []
    for lam in lambdas:
        lam = as_float(lam, "probe scale")
        if not (lam > 0 and 0.0 < lam * lam < math.inf):  # NaN fails; a square that under- or overflows too
            raise ValueError(f"probe scale must be positive with a finite, positive square, got {lam}")
        value = (char_fn(cov, lam * diff) - 2.0 * char_fn(cov, lam * phi) + 1.0) / lam**2
        out.append(value)
    return out


def _phase_matrices(lattice, phis):
    """The test functions phi_m and their reflections theta phi_m as the columns of two N x k matrices."""
    phi_mat = np.stack([np.asarray(p, dtype=np.float64) for p in phis], axis=1)
    return phi_mat, np.stack([reflect(lattice, p) for p in phis], axis=1)


def gram_exact_gaussian(cov, lattice, phis):
    """Exact Gaussian Gram matrix; entries are closed-form, stderr is zero, the gate is cov.psd_tolerance."""
    require_positive_support(lattice, phis)
    warn_unless_invariant(cov, lattice, "the Gram matrix does not test reflection positivity")
    m = gaussian_polynomial_gram(cov, *_phase_matrices(lattice, phis), _ONE).astype(np.complex128)
    return _gram_report(m, np.zeros(m.shape), cov.psd_tolerance, "exact-gaussian")


def _stable_below(counts, sums, threshold, seed):
    """Bootstrap over chunk sums: does the failing sign persist? One eigvalsh over the stack of resample means."""
    counts = np.asarray(counts, dtype=np.float64)
    sums = np.stack(sums)
    n_chunks = counts.shape[0]
    rng = substream(seed, NS_BOOTSTRAP, 0)
    idx = rng.integers(0, n_chunks, size=(_N_BOOTSTRAP, n_chunks))
    means = np.stack([sums[row].sum(axis=0) / counts[row].sum() for row in idx])
    below = int((np.linalg.eigvalsh(symmetrized(means)).min(axis=-1) < threshold).sum())
    return below >= math.ceil(_STABLE_FRACTION * _N_BOOTSTRAP)


def _gram_report(mean, stderr, tol, kind, n_samples=0, seed=None, ess=None, chunks=None):
    """The GramReport of an estimate and its entrywise stderr, gated at eig_error_bound = k * max stderr.

    chunks, the (counts, sums) of a Monte Carlo estimate, let a fail be
    resampled: it stays a fail only when its sign survives the bootstrap. An
    exact estimate has stderr 0 and no chunks.
    """
    hermitized = symmetrized(mean)
    eig_error_bound = float(mean.shape[0] * stderr.max())
    check = psd_check(hermitized, tol, eig_error_bound)
    verdict = PASS if check.passed else FAIL
    if verdict == FAIL and chunks is not None and not _stable_below(*chunks, check.threshold, seed):
        verdict = INCONCLUSIVE
    return GramReport(
        matrix=hermitized,
        stderr=stderr,
        min_eigenvalue=check.min_eigenvalue,
        eig_error_bound=eig_error_bound,
        verdict=verdict,
        n_samples=n_samples,
        seed=seed,
        estimator_kind=kind,
        effective_sample_size=ess,
        hermiticity_gap=float(np.abs(mean - np.conj(mean.T)).max()),
        tol=check.tol,
    )


def _add_samples(moments, imag, a, b, c, d):
    """Add the samples (a + ib)(c - id) of real factors a, b, c, d of shape (count, k).

    Their real part ac + bd goes to moments; their imaginary part bc - ad to
    imag, unless it is None, as for an even density.
    """
    moments.add_real(a, b, c, d)
    if imag is not None:
        imag.add_real(b, -a, c, d)


def _finish_mc_report(moments, tol, seed, kind, weight_stats, offset=None, imag=None):
    sums = moments.sums
    with np.errstate(over="ignore", invalid="ignore"):
        mean, stderr = moments.mean_and_stderr()
        if imag is not None:
            mean_im, stderr_im = imag.mean_and_stderr()
            mean, stderr = mean + 1j * mean_im, np.sqrt(stderr**2 + stderr_im**2)
            sums = [re + 1j * im for re, im in zip(sums, imag.sums)]
        if offset is not None:
            # a control variate's known mean, also in each chunk sum for the bootstrap
            mean = mean + offset
            sums = [s + count * offset for count, s in zip(moments.counts, sums)]
    if not (np.isfinite(mean).all() and np.isfinite(stderr).all()):
        raise IllConditionedWeightsError(f"the weighted moments of the {kind} estimate overflowed")
    # effective sample size sum(w)/max(w) from per-batch (sum, max) of the weights
    w_sum, w_max = sum(s for s, _ in weight_stats), max(m for _, m in weight_stats)
    ess = w_sum / w_max if w_max > 0 else 0.0
    return _gram_report(mean, stderr, tol, kind, int(sum(moments.counts)), int(seed), ess, (moments.counts, sums))


def _importance_weights(values, what):
    """exp of the potential's values at the configurations, raw and unnormalized."""
    with np.errstate(over="ignore"):
        w = np.exp(values)
    if not np.all(np.isfinite(w)):
        raise IllConditionedWeightsError(f"exp of the {what} overflowed while weighting samples")
    return w


def _control_coefficients(f_values, weights):
    """b1, b2 of the regression of the weights on F, by centred dot products.

    b2 is 0 when F does not vary (or its spread underflows), so a zero or
    constant density keeps b1 = mean weight exactly.
    """
    f_mean = f_values.mean()
    centred = f_values - f_mean
    spread = centred @ centred
    b2 = float(centred @ weights / spread) if f_values.max() > f_values.min() and spread > 0 else 0.0
    return float(weights.mean() - b2 * f_mean), b2


def _tilts(cov, f):
    """(q, C', log Z) of each tilted Gaussian an estimator tries for f drawn from cov, q = 0 (cov itself) first.

    Only a density bounded above by construction is tilted: it has a term,
    and every term a negative coefficient and only even powers. Then each q
    of the grid has q lambda_max(C) <= q ||C||_inf <= 0.8 < 1, and the tilted
    weights exp(F + (q/2) |T|^2 + log Z) have finite variance under C': the
    direct estimator's weights, and, with exp F bounded, the factorized
    estimator's outer weights times its bounded partial averages. Every
    other density, and C = 0, keeps q = 0 alone, and with it the estimate of
    the untilted base measure bit for bit.
    """
    bounded = f.terms and all(t.coefficient < 0 and all(p % 2 == 0 for _, p in t.factors) for t in f.terms)
    scale = cov.inf_norm
    qs = [g / scale for g in _TILT_GRID] if bounded and scale > 0 else [0.0]
    return [(q, *tilted_gaussian(cov, q)) for q in qs]


def _row_squares(block):
    """|T|^2 of each draw T, a row of block."""
    return np.einsum("ij,ij->i", block, block)


def _damped(values, squares, alpha):
    """The damped controls d F', d F'^2 and d |T|^2 at the draws, d = exp(-(alpha/2) |T|^2) and F' = values.

    Their polynomials, in the same order, are _damped_polynomials.
    """
    d = np.exp(-0.5 * alpha * squares)
    damped = d * values
    return [damped, damped * values, d * squares]


def _tilted_weights(values, squares, q, log_z, alpha):
    """F' = F + (q/2) |T|^2 at draws with F = values and |T|^2 = squares, w = exp(F' + log Z), and _damped's controls.

    The controls are empty when alpha is None. The pilot and the run both
    weigh their draws here.
    """
    tilted_values = values + 0.5 * q * squares
    w = _importance_weights(tilted_values + log_z, "density")
    return tilted_values, w, [] if alpha is None else _damped(tilted_values, squares, alpha)


def _damped_polynomials(control, dim):
    """F', F'^2 and |T|^2 as PolynomialTables over dim sites, F' = control: the P of _damped's controls d P."""
    return [control, control.squared(), PolynomialTable().plus_squares(1.0, dim)]


def _damps(f, tilted):
    """alpha of the damped controls under the tilted C', or None when F'^2 has over _DAMPED_TERMS terms."""
    n = len(f.terms) + tilted.dim  # F' = F + (q/2) sum_x T_x^2
    return _DAMPING / tilted.inf_norm if n * (n + 1) // 2 <= _DAMPED_TERMS else None


def _reweights(squares, q):
    """d mu_C' / d mu_C at pilot draws T from C, r = exp(-(q/2) |T|^2) normalised to sum 1, so log Z cancels."""
    r = np.exp(-0.5 * q * (squares - squares.min()))  # the largest r is 1 before the sum: no underflow to 0
    return r / r.sum()


def _least_variance(tilts, squares, pilot):
    """(q, C', log Z, *extra) of the tilt under whose C' the pilot's values x vary least.

    The pilot draws T come from C, with |T|^2 = squares; each candidate
    reads them as draws from its C' through r = _reweights(squares, q).
    pilot(q, C', log Z, r) gives (x, extra), x at the pilot draws, and the
    score is the r-weighted variance of x about its r-weighted mean. Ties go
    to the smaller q, and so do tilts whose pilot weights or controls
    overflow; q = 0's overflow raises.
    """
    best = None
    for q, tilted, log_z in tilts:
        r = _reweights(squares, q)
        try:
            x, extra = pilot(q, tilted, log_z, r)
        except IllConditionedWeightsError:
            if q == 0:
                raise
            continue
        variance = float(r @ (x - r @ x) ** 2)
        if best is None or variance < best[0]:
            best = variance, (q, tilted, log_z, *extra)
    return best[1]


def _residual(w, values, b, damped):
    """The weights w less their fitted controls, w - b1 - b2 F' - b3 X1 - b4 X2 - b5 X3, at F' = values.

    damped is the list X of _damped's controls, or empty for the pair (1, F') alone.
    """
    residual = w - b[0] - b[1] * values
    for coefficient, x in zip(b[2:], damped):
        residual -= coefficient * x
    return residual


def _inner_weights(g, halves):
    """exp G at the half draws of PQPair.draw_halves, as an (outer, inner) array."""
    values = eval_potential_batch(g, halves.reshape(-1, halves.shape[-1]))
    return _importance_weights(values, "half-density").reshape(halves.shape[:2])


def _outer_weights(q, log_z, squares):
    """(sqrt(omega), omega) at shared draws L with |L|^2 = squares, omega = exp(log Z + (q/2) |L|^2).

    omega, the weight of an outer term, is taken as the square of sqrt(omega),
    the factor each half's partial averages carry.
    """
    root = _importance_weights(0.5 * (log_z + 0.5 * q * squares), "shared tilt")
    return root, root * root


def _pick_tilt(cov, f, n_pilot, seed):
    """(q, C', log Z, b, alpha) of the tilt whose pilot leaves the least variance in w less its controls.

    One pilot is drawn from cov itself, from the substream (seed, NS_PILOT,
    0), and F and |T|^2 are evaluated on it once. Each candidate reads it as
    draws from its C' through _reweights: both the fit and the score, the
    variance of w less its controls, are r-weighted, and the score's
    residual is the run's, _residual. q = 0 regresses w on (1, F) by
    _control_coefficients, with alpha None. A q > 0 regresses w on
    (1, F', d F', d F'^2, d |T|^2), d = exp(-(alpha/2) |T|^2), with alpha
    from _damps, or on (1, F') when _damps gives None; singular values below
    lstsq's default cut, as of a density the tilt absorbs, fit nothing.
    """
    block = cov.draw(substream(seed, NS_PILOT, 0), n_pilot)
    values, squares = eval_potential_batch(f, block), _row_squares(block)

    def pilot(q, tilted, log_z, r):
        alpha = None if q == 0 else _damps(f, tilted)
        tilted_values, w, damped = _tilted_weights(values, squares, q, log_z, alpha)
        controls = np.stack([np.ones_like(values), tilted_values, *damped], axis=1)
        if not np.isfinite(controls).all():
            raise IllConditionedWeightsError("a control of the density overflowed in the tilt pilot")
        if q == 0:
            b = _control_coefficients(values, w)
        else:
            root = np.sqrt(r)
            b = tuple(map(float, np.linalg.lstsq(controls * root[:, np.newaxis], w * root, rcond=None)[0]))
        return _residual(w, tilted_values, b, damped), (b, alpha)

    return _least_variance(_tilts(cov, f), squares, pilot)


def _pick_shared_tilt(pq, g, params):
    """(q, c_q', log Z) of the tilt of the shared draws whose pilot leaves the least variance in omega H0^2.

    The candidates are _tilts(pq.q, g). One pilot, from the substream (seed,
    NS_PILOT, 1), draws min(n_outer, 256) shared draws L from pq.q itself,
    then min(n_inner, 64) half draws about each by pq.draw_halves, and
    H0(L), the inner mean of exp G(T + L) and the partial average of the
    zero test function, is computed on it once. Each candidate scores
    omega H0^2 by _least_variance, omega(L) the weight _outer_weights gives
    the outer term in the run. A half-density that is not tilted draws no
    pilot.
    """
    tilts = _tilts(pq.q, g)
    if len(tilts) == 1:
        return tilts[0]
    n_outer, n_inner = min(params.n_outer, _PILOT_OUTER), min(params.n_inner, _PILOT_INNER)
    rng = substream(params.seed, NS_PILOT, 1)
    shared = pq.q.draw(rng, n_outer)
    h0, squares = _inner_weights(g, pq.draw_halves(rng, shared, n_inner)).mean(axis=1), _row_squares(shared)
    return _least_variance(tilts, squares, lambda q, _, log_z, r: (_outer_weights(q, log_z, squares)[1] * h0 * h0, ()))


def gram_mc_direct(cov, lattice, f, phis, params):
    """Direct Monte Carlo Gram estimate for the density-weighted measure.

    M[m, n] = E[w exp(i(a_m - b_n))] over field draws T from a Gaussian
    proposal, with a = T(phi) and b = T(theta phi). The proposal is the
    tilted Gaussian C' = C (I + qC)^-1 of tilted_gaussian, and
    exp(-(q/2) |T|^2) mu_C = Z mu_C' makes the weight w = exp(F' + log Z)
    with F' = F + (q/2) |T|^2 (importance sampling, Glasserman 2003,
    sec. 4.6); at q = 0 the proposal is the base measure and w = exp F.
    Control variates with closed-form means under C' take out most of the
    variance (the regression estimator of sec. 4.1.2): exp(i(a_m - b_n)),
    whose mean is the Gaussian Gram G0, and F' exp(i(a_m - b_n)), whose mean
    G1 gaussian_polynomial_gram gives exactly. At q = 0 the samples
    (w - b1 - b2 F) exp(i(a_m - b_n)) are averaged and b1 G0 + b2 G1 is
    added, with b2 the regression slope of w on F and b1 = mean w - b2 mean F.

    A q > 0 adds the damped controls d P for P = F', F'^2 and |T|^2,
    d = exp(-(alpha/2) |T|^2) with alpha = _DAMPING / ||C'||_inf: the samples
    are (w - b1 - b2 F' - b3 d F' - b4 d F'^2 - b5 d |T|^2) exp(i(a_m - b_n)),
    with b the least squares fit of w on (1, F', d F', d F'^2, d |T|^2), and
    exp(-(alpha/2) |T|^2) mu_C' = Z_alpha mu_C'_alpha gives each mean as
    Z_alpha G(C'_alpha, P), (C'_alpha, log Z_alpha) = tilted_gaussian(C',
    alpha). _damped and _damped_polynomials list the family once, in one
    order, for the pilot fit, the residual and the offset. Undamped, F'^2
    has a heavy tail under C', and a pilot fit of it widens the bound; the
    factor d keeps every damped control bounded. d |T|^2 fits how the weight
    moves with the squared norm, which (1, F') and the damped F' terms leave
    in the residual. F'^2 is built as a PolynomialTable of n (n + 1) / 2
    terms for the n terms of F', and |T|^2 as plus_squares of the empty
    table; past _DAMPED_TERMS terms of F'^2 a tilt keeps (1, F').

    q and b come from an independent pilot from C, which keeps the estimate
    unbiased; q is the one of _tilts' grid whose reweighted pilot leaves the
    least variance in w less its controls. F and |T|^2 are evaluated once
    per draw, and _tilted_weights forms F', w and the damped controls from
    them, in the pilot and in the run alike. A zero or constant density
    gives q = 0, b2 = 0 and b1 the pilot's mean weight, so at zero density
    the estimate is G0 exactly. The weights are used raw (no normalization);
    their effective sample size sum(w)/max(w) is reported as a diagnostic.

    The base measure is centred, so for an even f the estimate is real in
    expectation; only its real part is accumulated. An odd term adds the
    imaginary part in a second accumulator, both by _add_samples of
    w exp(i a) exp(-i b). The verdict gates at cov.psd_tolerance.
    """
    require_positive_support(lattice, phis)
    phi_mat, theta_mat = _phase_matrices(lattice, phis)

    moments = ChunkMoments()
    imag = None if is_even(f) else ChunkMoments()
    weight_stats = []
    # huge but finite weights overflow the sums, and huge draws the closed forms; _finish_mc_report
    # rejects what is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        q, tilted, log_z, b, alpha = _pick_tilt(cov, f, min(params.n_samples, CHUNK_SIZE), params.seed)
        for _, block in iter_sample_chunks(tilted, params.n_samples, params.seed):
            a = block @ phi_mat
            phase_b = block @ theta_mat
            values, w, damped = _tilted_weights(eval_potential_batch(f, block), _row_squares(block), q, log_z, alpha)
            v = _residual(w, values, b, damped)[:, np.newaxis]
            _add_samples(moments, imag, v * np.cos(a), v * np.sin(a), np.cos(phase_b), np.sin(phase_b))
            weight_stats.append((float(w.sum()), float(w.max())))
        # F' as a table of terms, for the closed forms of its controls' means
        control = f if q == 0 else PolynomialTable.of(f).plus_squares(q / 2, cov.dim)
        g0, g1 = (gaussian_polynomial_gram(tilted, phi_mat, theta_mat, p) for p in (_ONE, control))
        offset = b[0] * g0 + b[1] * g1
        if alpha is not None:
            # E_C'[d P exp(i(a - b))] = Z_alpha G(C'_alpha, P), exp(-(alpha/2) |T|^2) mu_C' = Z_alpha mu_C'_alpha
            heavier, log_z_alpha = tilted_gaussian(tilted, alpha)
            grams = (gaussian_polynomial_gram(heavier, phi_mat, theta_mat, p) for p in _damped_polynomials(control, cov.dim))
            offset = offset + math.exp(log_z_alpha) * sum(c * g for c, g in zip(b[2:], grams))
    return _finish_mc_report(moments, cov.psd_tolerance, params.seed, "mc-direct", weight_stats, offset, imag)


def gram_mc_factorized(pq, g, phis, params):
    """Two-level Gram estimate through the half-lattice split pq.

    Outer draws L come from the shared covariance pq.q, inner draws T from
    the independent covariance pq.p, each by its draw; the partial averages

        H_m(L) = inner mean of exp[-i (T + L) . h_m + G(T + L)]

    pair into M[m, n] = outer mean of conj(H_m) H_n, where h_m is phi_m
    restricted to the positive half and G is the half-density. Requires a
    reflection-positive covariance: both blocks of pq must be PSD,
    otherwise the factorization does not exist and the call fails fast.
    n_samples on the report counts outer draws. For an even g the centred
    outer draws make the estimate real in expectation, and only
    Re(conj(H_m) H_n) = Re H_m Re H_n + Im H_m Im H_n is accumulated; with
    shared inner draws it is still PSD by construction. An odd term adds
    Im(conj(H_m) H_n) in a second accumulator, both by _add_samples.
    The verdict gates at pq.covariance.psd_tolerance, the tol of pq's reports.

    The outer draws are importance sampled as gram_mc_direct's draws are:
    L comes from the tilted c_q' of tilted_gaussian(pq.q, q), and each outer
    term is weighted by omega(L) = exp(log Z + (q/2) |L|^2) = d mu_{c_q} / d mu_{c_q'},
    so omega conj(H_m) H_n keeps its mean, the shared inner bias included. Both
    halves' H are scaled by sqrt(omega) before they are added; omega > 0, so with
    shared inner draws each term is still a rank-one PSD matrix, and c_q'
    keeps c_q's range, so a rank-deficient c_q is tilted as well. q is the
    one of _tilts(pq.q, g) that _pick_shared_tilt's pilot picks; a g that is
    not bounded above by construction keeps q = 0 and the report it had
    before the tilt, bit for bit. The effective sample size is sum(omega w) /
    max(omega w) over the inner samples, w = exp G(T + L) and omega the
    square of the sqrt(omega) their outer draw's term is scaled by; at q = 0,
    omega = 1 exactly.

    The calling thread consumes every stream and evaluates the half-density,
    in chunk order, so the draws and the traced layers stay on it; one worker
    thread, scoped to the call, computes the phase kernel of each sub-block
    of outer draws, and chunks merge in order. The inner draws of a sub-block
    are one pq.draw_halves of n_inner rows per outer draw. The worker changes
    no bit of the report, and neither do the sub-blocks for a column table
    with n_inner >= 2; a dense pq.p at small n_inner, or n_inner = 1, rounds its
    draws as BLAS rounds a product of that many rows.
    """
    lattice = pq.lattice
    require_positive_support(lattice, phis)
    if not pq.both_psd:
        raise ValueError(
            "factorized estimator needs a reflection-positive covariance: "
            f"decomposition eigenvalue floors are {pq.report_p.min_eigenvalue:.3e} (independent) "
            f"and {pq.report_q.min_eigenvalue:.3e} (shared)"
        )
    check_sites(g, lattice.n_plus, f"{lattice.n_plus} positive-time sites")

    h_mat = np.stack([restrict_plus(lattice, p) for p in phis], axis=1)

    n_inner = params.n_inner
    moments = ChunkMoments()
    imag = None if is_even(g) else ChunkMoments()
    weight_stats = []

    def draw_half(rng, shared, omega, pool):
        futures, weights = [], []
        for start in range(0, shared.shape[0], _SUB_BLOCK):
            s = pq.draw_halves(rng, shared[start:start + _SUB_BLOCK], n_inner)
            weights.append(_inner_weights(g, s))
            futures.append(pool.submit(partial_averages, s, weights[-1]))
        # the weight of each inner sample in the estimate is omega(L) exp G(T + L)
        weights = np.concatenate(weights) * omega
        weight_stats.append((float(weights.sum()), float(weights.max())))
        return futures

    def partial_averages(s, weights):
        # sum of w exp(-i phase) as two real weighted matvecs, (re, im) with H = (re - i im) / n_inner;
        # divide after the sum, so equal weights over a zero phase give exactly 1
        phase = s @ h_mat
        w = weights[:, np.newaxis, :]
        with np.errstate(over="ignore", invalid="ignore"):  # error state is per thread
            re, im = (w @ np.cos(phase))[:, 0, :], (w @ np.sin(phase))[:, 0, :]
            return re / n_inner, im / n_inner

    def merge(halves, root_omega):
        # sqrt(omega) H of each half, so that each sample is omega conj(H_m) H_n
        h = [
            [np.concatenate(parts) * root_omega for parts in zip(*(future.result() for future in futures))]
            for futures in halves
        ]
        (re, im), (re2, im2) = h[0], h[-1]
        _add_samples(moments, imag, re, im, re2, im2)  # conj(H_m) H_n = (re + i im)(re2 - i im2)

    # a chunk merges once the next one is drawn, so the draws never wait for its last sub-block;
    # overflowing weighted sums are left to _finish_mc_report, as in gram_mc_direct
    with np.errstate(over="ignore", invalid="ignore"), ThreadPoolExecutor(max_workers=1) as pool:
        q, tilted, log_z = _pick_shared_tilt(pq, g, params)
        pending = None
        for chunk_index, count in chunk_counts(params.n_outer, _OUTER_CHUNK):
            rng = substream(params.seed, NS_FACTORIZED, chunk_index)
            shared = tilted.draw(rng, count)
            root_omega, omega = (x[:, np.newaxis] for x in _outer_weights(q, log_z, _row_squares(shared)))
            halves = [draw_half(rng, shared, omega, pool) for _ in range(1 if params.share_inner else 2)]
            if pending is not None:
                merge(*pending)
            pending = halves, root_omega
        merge(*pending)

    kind = "mc-factorized-shared" if params.share_inner else "mc-factorized-independent"
    return _finish_mc_report(moments, pq.covariance.psd_tolerance, params.seed, kind, weight_stats, imag=imag)
