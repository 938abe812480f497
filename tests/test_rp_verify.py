import dataclasses
import json
import math
import threading
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from rplattice import (
    Covariance,
    FAIL,
    GramReport,
    INCONCLUSIVE,
    IllConditionedWeightsError,
    McParams,
    PASS,
    Potential,
    Term,
    ZERO_POTENTIAL,
    build_lattice,
    check_gaussian_rp,
    check_theta_invariance,
    decompose_pq,
    eval_potential_batch,
    free_field_covariance,
    gaussian_polynomial_gram,
    gram_exact_gaussian,
    gram_mc_direct,
    gram_mc_factorized,
    phi4,
    positive_support,
    potential_from_obj,
    psd_check,
    random_test_functions,
    reflect,
    sample,
    schur_product,
    small_lambda_probe,
    split_check,
    theta_inner,
)
from rplattice import cli, rp_verify
from rplattice.density import PolynomialTable, add_potentials
from rplattice.rp_verify import _control_coefficients, _stable_below
from rplattice.streams import NS_BOOTSTRAP, NS_FACTORIZED, NS_PILOT, ChunkMoments, chunk_counts, substream
from wick_reference import table_values


def two_site_cov(c):
    return Covariance(np.array([[1.0, c], [c, 1.0]]))


TWO_SITE_PHIS = [np.array([0.0, 1.0]), np.zeros(2)]


def random_psd(rng, max_dim=8):
    k = int(rng.integers(1, max_dim + 1))
    x = rng.standard_normal((k, k))
    return x @ x.T


def test_psd_check_identity_passes():
    check = psd_check(np.eye(2), tol=0.0)
    assert check.passed
    assert check.min_eigenvalue == pytest.approx(1.0, abs=1e-14)
    assert (check.threshold, check.tol) == (0.0, 0.0)


def test_psd_check_two_site_gram_determinants():
    e = math.exp
    failing = np.array([[e(-1.5), e(-0.5)], [e(-0.5), 1.0]])
    assert np.linalg.det(failing) == pytest.approx(e(-1.5) - e(-1.0), abs=1e-14)
    assert not psd_check(failing, tol=1e-10).passed

    passing = np.array([[e(-0.5), e(-0.5)], [e(-0.5), 1.0]])
    assert np.linalg.det(passing) == pytest.approx(e(-0.5) - e(-1.0), abs=1e-14)
    assert psd_check(passing, tol=1e-10).passed


def test_psd_check_rejects_non_square():
    with pytest.raises(ValueError):
        psd_check(np.ones((2, 3)), tol=0.0)


def test_gram_exact_two_site_matrices():
    lat = build_lattice(1, [])
    rep = gram_exact_gaussian(two_site_cov(0.5), lat, TWO_SITE_PHIS)
    want = np.array([[math.exp(-0.5), math.exp(-0.5)], [math.exp(-0.5), 1.0]])
    assert np.abs(rep.matrix.real - want).max() <= 1e-15
    assert np.all(rep.matrix.imag == 0.0)
    assert np.all(rep.stderr == 0.0)
    assert rep.verdict == PASS

    neg = gram_exact_gaussian(two_site_cov(-0.5), lat, TWO_SITE_PHIS)
    assert neg.verdict == FAIL
    det = float(np.linalg.det(neg.matrix.real))
    assert det == pytest.approx(math.exp(-1.5) - math.exp(-1.0), abs=1e-12)


def test_gram_exact_zero_family_is_trivially_positive():
    lat = build_lattice(1, [])
    rep = gram_exact_gaussian(two_site_cov(-0.9), lat, [np.zeros(2)])
    assert rep.matrix.tolist() == [[1.0 + 0.0j]]
    assert rep.verdict == PASS


def test_gram_exact_rejects_negative_time_support():
    lat = build_lattice(1, [])
    with pytest.raises(ValueError):
        gram_exact_gaussian(two_site_cov(0.5), lat, [np.array([1.0, 0.0])])


NON_FINITE_PHI_CALLS = {
    "gram_exact_gaussian": lambda cov, lat, phis: gram_exact_gaussian(cov, lat, phis),
    "gram_mc_direct": lambda cov, lat, phis: gram_mc_direct(
        cov, lat, phi4(lat, 0.1), phis, McParams(2_000, seed=0)
    ),
    "gram_mc_factorized": lambda cov, lat, phis: gram_mc_factorized(
        decompose_pq(cov, lat), split_check(lat, phi4(lat, 0.1)).witness_g, phis,
        McParams(1, seed=0, n_outer=64, n_inner=16),
    ),
    "small_lambda_probe": lambda cov, lat, phis: small_lambda_probe(cov, lat, phis[0], [0.1]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
@pytest.mark.parametrize("call", NON_FINITE_PHI_CALLS.values(), ids=NON_FINITE_PHI_CALLS.keys())
def test_estimators_reject_non_finite_test_functions(call, bad):
    lat = build_lattice(1, [])
    phis = [np.array([0.0, bad]), np.zeros(2)]
    with pytest.raises(ValueError, match="test function 0 has a NaN or infinite entry"):
        call(free_field_covariance(lat, 1.0), lat, phis)


TOLERANCE_GATES = {
    "Covariance": lambda cov, lat, tol: Covariance(np.eye(2), tol),
    "Covariance.from_columns": lambda cov, lat, tol: Covariance.from_columns(cov.columns, cov.momentum_roots, tol),
    "free_field_covariance": lambda cov, lat, tol: free_field_covariance(lat, 1.0, tol),
    "check_theta_invariance": lambda cov, lat, tol: check_theta_invariance(cov, lat, tol),
    "check_gaussian_rp-invariance_tol": lambda cov, lat, tol: check_gaussian_rp(cov, lat, invariance_tol=tol),
    "psd_check-tol": lambda cov, lat, tol: psd_check(np.eye(2), tol),
    "psd_check-eig_error_bound": lambda cov, lat, tol: psd_check(np.eye(2), 0.0, tol),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("gate", TOLERANCE_GATES.values(), ids=TOLERANCE_GATES.keys())
def test_gates_refuse_a_tolerance_that_is_not_finite_and_nonnegative(gate, tol):
    # NaN failed a PSD block and a zero deviation, -1 failed every gate, inf passed anything;
    # the PSD gates of the estimators read the covariance's tolerance, checked when it was built
    lat = build_lattice(1, [])
    with pytest.raises(ValueError, match="must be finite and nonnegative"):
        gate(free_field_covariance(lat, 1.0), lat, tol)


def test_every_psd_gate_reads_the_covariance_tolerance():
    # B = c_q = [[-5e-9]] is negative, but within the covariance's 1e-8, which every gate reads
    lat = build_lattice(1, [])
    cov = Covariance(np.array([[1.0, -5e-9], [-5e-9, 1.0]]), psd_tolerance=1e-8)
    rp, pq = check_gaussian_rp(cov, lat), decompose_pq(cov, lat)
    exact = gram_exact_gaussian(cov, lat, TWO_SITE_PHIS)
    assert rp.passed and pq.report_q.passed and exact.verdict == PASS
    assert rp.tol == pq.report_q.tol == exact.tol == 1e-8
    free = free_field_covariance(lat, 1.0, psd_tolerance=1e-8)
    params = McParams(1_000, seed=0, n_outer=64, n_inner=16)
    direct = gram_mc_direct(free, lat, phi4(lat, 0.1), TWO_SITE_PHIS, params)
    witness = split_check(lat, phi4(lat, 0.1)).witness_g
    factorized = gram_mc_factorized(decompose_pq(free, lat), witness, TWO_SITE_PHIS, params)
    assert direct.tol == factorized.tol == 1e-8


REMOVED_TOLERANCE_CALLS = {
    # a third positional argument would bind a tolerance that is no longer there
    "check_gaussian_rp-positional": lambda cov, lat, pq, params: check_gaussian_rp(cov, lat, 1e-10),
    "check_gaussian_rp-tol": lambda cov, lat, pq, params: check_gaussian_rp(cov, lat, tol=1e-10),
    "gram_exact_gaussian": lambda cov, lat, pq, params: gram_exact_gaussian(cov, lat, TWO_SITE_PHIS, tol=1e-10),
    "gram_mc_direct": lambda cov, lat, pq, params: gram_mc_direct(
        cov, lat, ZERO_POTENTIAL, TWO_SITE_PHIS, params, tol=1e-10
    ),
    "gram_mc_factorized": lambda cov, lat, pq, params: gram_mc_factorized(
        pq, np.zeros(1), TWO_SITE_PHIS, params, tol=1e-10
    ),
}


@pytest.mark.parametrize("call", REMOVED_TOLERANCE_CALLS.values(), ids=REMOVED_TOLERANCE_CALLS.keys())
def test_a_psd_tolerance_passed_to_a_derived_gate_is_refused(call):
    # the gates read the covariance's tolerance; a caller's own tolerance is an error, not ignored
    lat = build_lattice(1, [])
    cov = two_site_cov(0.5)
    with pytest.raises(TypeError):
        call(cov, lat, decompose_pq(cov, lat), McParams(16, seed=0, n_outer=4, n_inner=4))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 1e-300, 1e200, 0.0, -0.1, True, "0.1"])
def test_probe_refuses_a_scale_whose_square_is_not_positive_and_finite(scale):
    # NaN returned [nan], inf warned, 1e-300 divided by a square that underflows to zero, and
    # float() read True as 1 and "0.1" as 0.1
    lat = build_lattice(1, [])
    with pytest.raises(ValueError, match="probe scale must be (positive|a number)"):
        small_lambda_probe(two_site_cov(0.5), lat, np.array([0.0, 1.0]), [scale])


def test_gram_exact_warns_on_invariance_violation():
    lat = build_lattice(1, [])
    with pytest.warns(RuntimeWarning):
        gram_exact_gaussian(Covariance(np.diag([2.0, 1.0])), lat, [np.zeros(2)])


def test_mc_direct_matches_exact_for_zero_density():
    lat = build_lattice(1, [])
    cov = two_site_cov(0.5)
    exact = gram_exact_gaussian(cov, lat, TWO_SITE_PHIS)
    rep = gram_mc_direct(cov, lat, ZERO_POTENTIAL, TWO_SITE_PHIS, McParams(100_000, seed=3))
    assert rep.verdict == PASS
    assert np.all(np.abs(rep.matrix - exact.matrix) <= 5 * np.maximum(rep.stderr, 1e-15))
    assert rep.effective_sample_size == pytest.approx(100_000.0)


def test_mc_direct_detects_non_rp_covariance():
    lat = build_lattice(1, [])
    for seed in (0, 1):
        rep = gram_mc_direct(
            two_site_cov(-0.5), lat, ZERO_POTENTIAL, TWO_SITE_PHIS, McParams(100_000, seed=seed)
        )
        assert rep.verdict == FAIL
        assert rep.min_eigenvalue < -0.1


def test_mc_direct_is_deterministic():
    lat = build_lattice(1, [])
    cov = two_site_cov(0.5)
    a = gram_mc_direct(cov, lat, ZERO_POTENTIAL, TWO_SITE_PHIS, McParams(20_000, seed=9))
    b = gram_mc_direct(cov, lat, ZERO_POTENTIAL, TWO_SITE_PHIS, McParams(20_000, seed=9))
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.stderr, b.stderr)


def test_mc_direct_reports_weight_diagnostics():
    lat = build_lattice(2, [2])
    cov = free_field_covariance(lat, 1.0)
    phis = random_test_functions(lat, 2, seed=5)
    rep = gram_mc_direct(cov, lat, phi4(lat, 0.1), phis, McParams(20_000, seed=5))
    assert 0.0 < rep.effective_sample_size < 20_000.0


def test_mc_direct_raises_on_overflowing_weights():
    lat = build_lattice(1, [])
    cov = Covariance(np.eye(2))
    runaway = Potential((Term(1000.0, ((0, 2),)),))
    with pytest.raises(IllConditionedWeightsError):
        gram_mc_direct(cov, lat, runaway, TWO_SITE_PHIS, McParams(10_000, seed=0))


def test_mc_estimators_consistent_with_exact_for_twenty_seeds():
    lat = build_lattice(1, [])
    cov = two_site_cov(0.5)
    exact = gram_exact_gaussian(cov, lat, TWO_SITE_PHIS)
    for seed in range(20):
        direct = gram_mc_direct(
            cov, lat, ZERO_POTENTIAL, TWO_SITE_PHIS, McParams(20_000, seed=seed)
        )
        delta = np.abs(direct.matrix - exact.matrix)
        assert np.all(delta <= 5 * np.maximum(direct.stderr, 1e-15))

        fact = gram_mc_factorized(
            decompose_pq(cov, lat),
            ZERO_POTENTIAL,
            TWO_SITE_PHIS,
            McParams(1, seed=seed, n_outer=3_000, n_inner=300, share_inner=True),
        )
        delta = np.abs(fact.matrix - exact.matrix)
        assert np.all(delta <= 5 * np.maximum(fact.stderr, 1e-15))


def test_factorized_matches_exact_at_reference_counts():
    lat = build_lattice(1, [])
    cov = two_site_cov(0.5)
    exact = gram_exact_gaussian(cov, lat, TWO_SITE_PHIS)
    rep = gram_mc_factorized(
        decompose_pq(cov, lat),
        ZERO_POTENTIAL,
        TWO_SITE_PHIS,
        McParams(1, seed=0, n_outer=10_000, n_inner=1_000, share_inner=True),
    )
    assert np.all(np.abs(rep.matrix - exact.matrix) <= 5 * np.maximum(rep.stderr, 1e-15))


def test_factorized_shared_inner_is_structurally_psd():
    cases = [
        (build_lattice(1, []), two_site_cov(0.5), ZERO_POTENTIAL),
        (build_lattice(1, []), two_site_cov(0.99), ZERO_POTENTIAL),
    ]
    lat = build_lattice(2, [2])
    cov = free_field_covariance(lat, 1.0)
    witness = split_check(lat, phi4(lat, 0.3)).witness_g
    cases.append((lat, cov, witness))
    for lattice, covariance, g in cases:
        phis = random_test_functions(lattice, 3, seed=8)
        rep = gram_mc_factorized(
            decompose_pq(covariance, lattice),
            g,
            phis,
            McParams(1, seed=8, n_outer=500, n_inner=100, share_inner=True),
        )
        assert rep.min_eigenvalue >= -1e-10
        assert rep.estimator_kind == "mc-factorized-shared"


def test_factorized_independent_inner_mode():
    lat = build_lattice(1, [])
    cov = two_site_cov(0.5)
    exact = gram_exact_gaussian(cov, lat, TWO_SITE_PHIS)
    rep = gram_mc_factorized(
        decompose_pq(cov, lat),
        ZERO_POTENTIAL,
        TWO_SITE_PHIS,
        McParams(1, seed=4, n_outer=4_000, n_inner=200, share_inner=False),
    )
    assert rep.estimator_kind == "mc-factorized-independent"
    assert np.all(np.abs(rep.matrix - exact.matrix) <= 5 * np.maximum(rep.stderr, 1e-15))


def test_factorized_fails_fast_without_rp():
    lat = build_lattice(1, [])
    with pytest.raises(ValueError):
        gram_mc_factorized(
            decompose_pq(two_site_cov(-0.5), lat), ZERO_POTENTIAL, TWO_SITE_PHIS, McParams(1, seed=0)
        )


def test_factorized_rejects_full_lattice_density():
    lat = build_lattice(1, [])
    g = Potential((Term(-1.0, ((1, 4),)),))  # index 1 is out of range on the half
    with pytest.raises(ValueError):
        gram_mc_factorized(
            decompose_pq(two_site_cov(0.5), lat), g, TWO_SITE_PHIS, McParams(1, seed=0, n_outer=10, n_inner=10)
        )


class _InlineExecutor:
    """Runs each task as it is submitted, on the calling thread."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def _phi4_half_problem():
    lat = build_lattice(2, [2])
    pq = decompose_pq(free_field_covariance(lat, 1.0), lat)
    return pq, split_check(lat, phi4(lat, 0.3)).witness_g, random_test_functions(lat, 3, seed=8)


@pytest.mark.parametrize("n_outer", [1, 17, 100])
@pytest.mark.parametrize("share_inner", [True, False], ids=["shared", "independent"])
def test_factorized_worker_thread_cannot_change_bits(monkeypatch, share_inner, n_outer):
    # 17 and 100 outer draws leave ragged last chunks and sub-blocks
    pq, g, phis = _phi4_half_problem()
    params = McParams(1, seed=3, n_outer=n_outer, n_inner=40, share_inner=share_inner)
    threaded = gram_mc_factorized(pq, g, phis, params)
    monkeypatch.setattr(rp_verify, "ThreadPoolExecutor", _InlineExecutor)
    inline = gram_mc_factorized(pq, g, phis, params)
    for field in dataclasses.fields(GramReport):
        a, b = getattr(threaded, field.name), getattr(inline, field.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name


def test_factorized_draws_and_potential_stay_on_the_calling_thread(monkeypatch):
    # the benchmark tracer keeps one span stack, so a traced call made on the worker would
    # close its span out of order
    idents = {"substream": [], "draw": [], "potential": []}

    class RecordingGenerator:
        def __init__(self, rng):
            self._rng = rng

        def __getattr__(self, attr):
            method = getattr(self._rng, attr)

            def draw(*args, **kwargs):
                idents["draw"].append(threading.get_ident())
                return method(*args, **kwargs)

            return draw

    def recorded(key, fn, wrap=lambda out: out):
        def call(*args, **kwargs):
            idents[key].append(threading.get_ident())
            return wrap(fn(*args, **kwargs))

        return call

    monkeypatch.setattr(rp_verify, "substream", recorded("substream", rp_verify.substream, RecordingGenerator))
    monkeypatch.setattr(
        rp_verify, "eval_potential_batch", recorded("potential", rp_verify.eval_potential_batch)
    )
    pq, g, phis = _phi4_half_problem()
    for share_inner in (True, False):
        gram_mc_factorized(pq, g, phis, McParams(1, seed=3, n_outer=100, n_inner=40, share_inner=share_inner))
    for key, seen in idents.items():
        assert seen and set(seen) == {threading.get_ident()}, key


def test_control_coefficients_regress_the_weights_on_the_density():
    rng = np.random.default_rng(0)
    f = rng.standard_normal(2048)
    b1, b2 = _control_coefficients(f, 2.0 + 3.0 * f)
    assert b1 == pytest.approx(2.0, rel=1e-13) and b2 == pytest.approx(3.0, rel=1e-13)
    # a constant density, whose mean can miss the constant by an ulp, and a spread that
    # underflows: no slope, and b1 is the mean weight bit for bit
    for values in (np.full(2048, 0.1), 1e-300 * f):
        weights = np.exp(values)
        assert _control_coefficients(values, weights) == (weights.mean(), 0.0)


@pytest.mark.parametrize("explicit", [False, True], ids=["column-table", "explicit"])
def test_the_tilt_pilot_is_one_draw_from_the_covariance_itself(monkeypatch, explicit):
    keys, pilots = [], []
    monkeypatch.setattr(rp_verify, "substream", lambda *key: keys.append(key) or substream(*key))
    monkeypatch.setattr(
        rp_verify, "eval_potential_batch", lambda p, configs: pilots.append(configs) or eval_potential_batch(p, configs)
    )
    lat = build_lattice(2, [4])
    cov = free_field_covariance(lat, 1.0)
    cov = Covariance(cov.matrix) if explicit else cov
    assert len(rp_verify._tilts(cov, phi4(lat, 0.1))) > 1
    rp_verify._pick_tilt(cov, phi4(lat, 0.1), 300, 5)
    assert keys == [(5, NS_PILOT, 0)]
    (pilot,) = pilots
    assert np.array_equal(pilot, cov.draw(substream(5, NS_PILOT, 0), 300))


def untilted_densities(lat):
    """Densities the direct estimator keeps at q = 0: each breaks the rule of a bound above."""
    plus = [lat.index_of([1, x]) for x in range(4)]
    minus = [lat.index_of([-1, x]) for x in range(4)]
    squares = Potential(tuple(Term(0.05, ((x, 2),)) for x in range(lat.site_count)))
    cubic = Potential(tuple(Term(-0.05, ((x, 3),)) for x in plus + minus))
    return {
        "mixed-support": Potential(tuple(Term(-1.5, ((a, 1), (b, 1))) for a, b in zip(plus, minus))),
        "zero": ZERO_POTENTIAL,
        "constant": Potential(constant=0.25),
        "positive-coefficient": squares,
        "one-positive-term": add_potentials(phi4(lat, 0.1), squares),
        "odd-power": add_potentials(phi4(lat, 0.1), cubic),
    }


@pytest.mark.parametrize("n_samples", [1_000, 2_048, 5_000])
@pytest.mark.parametrize("name", sorted([*untilted_densities(build_lattice(2, [4])), "phi4"]))
def test_every_density_is_evaluated_once_per_draw_and_on_one_pilot(monkeypatch, name, n_samples):
    # the pilot and every main draw: F feeds both the weight exp F and the control F exp(i(a - b)),
    # and one pilot serves every tilt of the grid, tilted density or not
    rows = []

    def counted(p, configs):
        rows.append(len(configs))
        return eval_potential_batch(p, configs)

    lat = build_lattice(2, [4])
    cov, phis = free_field_covariance(lat, 1.0), random_test_functions(lat, 2, 0)
    density = phi4(lat, 0.1) if name == "phi4" else untilted_densities(lat)[name]
    assert (len(rp_verify._tilts(cov, density)) > 1) == (name == "phi4")
    monkeypatch.setattr(rp_verify, "eval_potential_batch", counted)
    gram_mc_direct(cov, lat, density, phis, McParams(n_samples, seed=1))
    assert sum(rows) == n_samples + min(n_samples, 2048)


@pytest.mark.parametrize("explicit", [False, True], ids=["column-table", "explicit"])
def test_the_pilot_reweighted_to_each_tilt_has_that_tilts_means(explicit):
    # r = _reweights(|T|^2, q) turns the pilot's draws from C into draws from C': the r-mean of |T|^2 is
    # tr C' and that of F' its closed form, within 5 self-normalised standard errors
    # sqrt(sum r^2 (x - mean)^2) / sum r; a sign error in r puts the mean of |T|^2 13-19 of them off, an r
    # that is not normalised 38-45
    lat = build_lattice(2, [4])
    cov, density = free_field_covariance(lat, 1.0), phi4(lat, 0.1)
    cov = Covariance(cov.matrix) if explicit else cov
    block = cov.draw(substream(0, NS_PILOT, 0), 2048)
    squares, values = np.einsum("ij,ij->i", block, block), eval_potential_batch(density, block)
    zeros = np.zeros((cov.dim, 1))
    tilts = rp_verify._tilts(cov, density)
    assert len(tilts) == len(rp_verify._TILT_GRID)
    for q, tilted, _ in tilts:
        r = rp_verify._reweights(squares, q)
        tilted_density = PolynomialTable.of(density).plus_squares(q / 2, cov.dim)
        for x, want in (
            (squares, np.trace(tilted.matrix)),
            (values + 0.5 * q * squares, gaussian_polynomial_gram(tilted, zeros, zeros, tilted_density)[0, 0]),
        ):
            mean = r @ x
            assert abs(mean - want) <= 5.0 * math.sqrt(r * r @ (x - mean) ** 2) / r.sum(), (q, mean, want)


def test_the_tilt_grid_is_scaled_by_the_row_sum_norm():
    lat = build_lattice(2, [4])
    cov = free_field_covariance(lat, 0.5)  # ||C||_inf = 1/m^2 = 4
    tilts = rp_verify._tilts(cov, phi4(lat, 0.1))
    assert [q for q, _, _ in tilts] == pytest.approx([g / 4.0 for g in rp_verify._TILT_GRID], rel=1e-15)
    assert tilts[0][1] is cov and tilts[0][2] == 0.0
    for q, _, log_z in tilts[1:]:
        assert q * float(np.linalg.eigvalsh(cov.matrix).max()) <= 0.8 * (1 + 1e-15)
        assert log_z < 0.0
    # C = 0 has nothing to tilt
    zero = Covariance(np.zeros((lat.site_count, lat.site_count)))
    assert [q for q, _, _ in rp_verify._tilts(zero, phi4(lat, 0.1))] == [0.0]


@pytest.mark.parametrize("constant", [700.0, 709.0])
def test_ties_and_overflowing_tilts_go_to_the_smaller_q(constant):
    # at 700 every candidate's residual variance overflows to inf, a tie; at 709 the weights
    # of every q > 0 overflow, and those tilts are passed over
    lat = build_lattice(2, [4])
    cov = free_field_covariance(lat, 1.0)
    density = Potential(tuple(Term(-1e-3, ((x, 4),)) for x in range(lat.site_count)), constant=constant)
    with np.errstate(over="ignore", invalid="ignore"):
        assert rp_verify._pick_tilt(cov, density, 2048, 0)[0] == 0.0


def alphas(controls):
    return [c.alpha for c in controls]


def test_a_tilt_regresses_on_the_damped_pair_up_to_the_term_cap(monkeypatch):
    # criterion 4: F' has 32 terms, F'^2 528; a tilt fits (1, F', d F', d F'^2, d |T|^2), and q = 0
    # keeps (1, F) and no damping
    lat = build_lattice(2, [4])
    cov, density = free_field_covariance(lat, 1.0), phi4(lat, 0.1)
    q, tilted, _, b, controls = rp_verify._pick_tilt(cov, density, 2048, 0)
    assert q > 0.0 and len(b) == 5 and alphas(controls) == [0.0, 0.0] + [rp_verify._DAMPING / tilted.inf_norm] * 3
    monkeypatch.setattr(rp_verify, "_DAMPED_TERMS", 528)
    assert alphas(rp_verify._controls(density, q, tilted)) == alphas(controls)
    monkeypatch.setattr(rp_verify, "_DAMPED_TERMS", 527)
    assert alphas(rp_verify._controls(density, q, tilted)) == [0.0, 0.0]
    q, _, _, b, controls = rp_verify._pick_tilt(cov, density, 2048, 0)
    assert q > 0.0 and len(b) == 2 and alphas(controls) == [0.0, 0.0]
    monkeypatch.setattr(rp_verify, "_TILT_GRID", (0.0,))
    q, _, _, b, controls = rp_verify._pick_tilt(cov, density, 2048, 0)
    assert q == 0.0 and len(b) == 2 and alphas(controls) == [0.0, 0.0]
    # (1, F) at the draws, the pair _control_coefficients fits
    block = cov.draw(np.random.default_rng(3), 64)
    values = eval_potential_batch(density, block)
    _, samples = rp_verify._tilted_weights(values, np.einsum("ij,ij->i", block, block), 0.0, 0.0, controls)
    assert np.array_equal(samples[0], np.ones(64)) and np.array_equal(samples[1], values)


@pytest.mark.parametrize("damped_terms", [rp_verify._DAMPED_TERMS, 527], ids=["below-the-cap", "above-the-cap"])
def test_each_controls_samples_are_its_polynomial(monkeypatch, damped_terms):
    # the one invariant of the list: at draws T, each control's samples are exp(-(alpha/2) |T|^2) P(T),
    # with P the polynomial of F' = F + (q/2) |T|^2 whose closed-form mean the offset takes; at each
    # tilt of criterion 4's grid
    monkeypatch.setattr(rp_verify, "_DAMPED_TERMS", damped_terms)
    lat = build_lattice(2, [4])
    cov, density = free_field_covariance(lat, 1.0), phi4(lat, 0.1)
    block = cov.draw(np.random.default_rng(11), 256)
    values, squares = eval_potential_batch(density, block), np.einsum("ij,ij->i", block, block)
    for q, tilted, log_z in rp_verify._tilts(cov, density):
        controls = rp_verify._controls(density, q, tilted)
        assert len(controls) == (5 if q > 0 and damped_terms > 527 else 2)
        _, samples = rp_verify._tilted_weights(values, squares, q, log_z, controls)
        tilted_f = PolynomialTable.of(density).plus_squares(q / 2, cov.dim)
        for control, x in zip(controls, samples):
            want = np.exp(-0.5 * control.alpha * squares) * table_values(control.polynomial(tilted_f), block)
            assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max(), (q, control.alpha)


def test_a_tilt_above_the_term_cap_keeps_the_first_order_control(monkeypatch):
    # N = 96: F' has 192 terms, so F'^2 would have 18528 > 2^14; the tilt keeps (1, F') and
    # no closed form of F'^2 is taken
    lat = build_lattice(2, [24])
    cov, density, phis = free_field_covariance(lat, 1.0), phi4(lat, 0.1), random_test_functions(lat, 2, seed=3)
    assert 192 * 193 // 2 > rp_verify._DAMPED_TERMS
    picks, closed_forms = [], []
    pick, closed_form = rp_verify._pick_tilt, rp_verify.gaussian_polynomial_gram
    monkeypatch.setattr(rp_verify, "_pick_tilt", lambda *args: picks.append(pick(*args)) or picks[-1])
    monkeypatch.setattr(
        rp_verify, "gaussian_polynomial_gram", lambda *args: closed_forms.append(args[-1]) or closed_form(*args)
    )
    params = McParams(4096, seed=1)
    rep = gram_mc_direct(cov, lat, density, phis, params)
    ((q, _, _, b, controls),) = picks
    assert q > 0.0 and len(b) == 2 and alphas(controls) == [0.0, 0.0]
    assert len(closed_forms) == 2
    monkeypatch.setattr(rp_verify, "_TILT_GRID", (0.0,))
    untilted = gram_mc_direct(cov, lat, density, phis, params)
    assert rep.verdict == untilted.verdict == PASS
    assert np.all(np.abs(rep.matrix - untilted.matrix) <= 5.0 * np.hypot(rep.stderr, untilted.stderr))


@pytest.mark.parametrize(
    "time_extent, extents, mass, coefficients",
    [(2, [22], 1.0, 5), (2, [23], 1.0, 2), (6, [12, 16], 0.5, 2)],
    ids=["N88", "N92", "N2304"],
)
def test_the_pilot_fits_the_damped_controls_only_below_the_term_cap(time_extent, extents, mass, coefficients):
    # phi^4's F' has 2N terms, so F'^2 stays within 2^14 terms up to N = 90 (16290 terms): N = 88 and
    # N = 92 are the T = 2 lattices on either side of it. At N = 2304 the pick, q ||C||_inf = 0.8,
    # reads the pilot through weights r whose effective size 1 / sum r^2 is about 176 of 2048 draws;
    # above the cap that thin pilot fits (1, F') and never the damped controls' coefficients
    lat = build_lattice(time_extent, extents)
    cov = free_field_covariance(lat, mass)
    q, tilted, _, b, controls = rp_verify._pick_tilt(cov, phi4(lat, 0.1), 2048, 0)
    assert q > 0.0 and len(b) == coefficients
    assert alphas(controls)[2:] == ([rp_verify._DAMPING / tilted.inf_norm] * 3 if coefficients == 5 else [])


def test_the_damped_controls_keep_the_mean(monkeypatch):
    # tilted with the damped pair against untilted with (1, F) on the same seeds: per entry, the
    # difference averages to zero (largest |z| 2.1); dropping Z_alpha from the closed forms reads 6.1
    lat = build_lattice(2, [4])
    cov, density, phis = free_field_covariance(lat, 1.0), phi4(lat, 0.1), random_test_functions(lat, 4, seed=2024)
    diffs = []
    for seed in range(7000, 7024):
        params = McParams(20_000, seed=seed)
        assert len(rp_verify._pick_tilt(cov, density, 2048, seed)[4]) == 5
        damped = gram_mc_direct(cov, lat, density, phis, params)
        with monkeypatch.context() as m:
            m.setattr(rp_verify, "_TILT_GRID", (0.0,))
            untilted = gram_mc_direct(cov, lat, density, phis, params)
        diffs.append(damped.matrix - untilted.matrix)
    diffs = np.array(diffs)
    z = diffs.mean(axis=0) / (diffs.std(axis=0, ddof=1) / math.sqrt(len(diffs)))
    assert np.abs(z).max() <= 3.0, z


# E[e^F] of criterion 4 (free field, T=2, L=[4], m=1, phi^4 with lambda = 0.1), by transfer-matrix
# quadrature along the time chain: K = 25, 31 and 41 nodes agree to 1e-11
CRITERION_4_WEIGHT_MEAN = 0.692737664421


def test_the_direct_weight_mean_matches_the_exact_phi4_value():
    # the zero test function's entry is E[e^F]; over seeds 0-19 at 200k draws its z against the exact
    # value read mean 0.02, sd 1.29 and max |z| 2.34 (mean -0.09 and max 2.74 without d |T|^2). Dropping
    # Z_alpha, taking the damped means under C' instead of C'_alpha, or halving the |T|^2 control's
    # polynomial put max |z| over seeds 0-4 at 6207, 166 and 2610
    lat = build_lattice(2, [4])
    cov, density, phis = free_field_covariance(lat, 1.0), phi4(lat, 0.1), random_test_functions(lat, 4, seed=2024)
    z = []
    for seed in range(20):
        rep = gram_mc_direct(cov, lat, density, phis, McParams(200_000, seed=seed))
        z.append((rep.matrix[-1, -1].real - CRITERION_4_WEIGHT_MEAN) / rep.stderr[-1, -1])
    z = np.array(z)
    assert np.abs(z).max() <= 3.5, z
    assert abs(z.mean()) <= 0.75, z  # 3.4 standard errors of a mean of 20 unit normals


@pytest.mark.parametrize("seed", [1005, 2000])
def test_the_damped_pair_narrows_the_tilted_bound(monkeypatch, seed):
    # criterion 4 at 200k draws: seed 1005 read 3.00e-4 with (1, F') and 1.68e-4 with the damped pair
    lat = build_lattice(2, [4])
    cov, density, phis = free_field_covariance(lat, 1.0), phi4(lat, 0.1), random_test_functions(lat, 4, seed=2024)
    params = McParams(200_000, seed=seed)
    damped = gram_mc_direct(cov, lat, density, phis, params)
    monkeypatch.setattr(rp_verify, "_DAMPED_TERMS", 0)
    first_order = gram_mc_direct(cov, lat, density, phis, params)
    assert damped.verdict == first_order.verdict == PASS
    assert damped.eig_error_bound < 0.7 * first_order.eig_error_bound


def _criterion_4_split(coupling=0.1):
    lat = build_lattice(2, [4])
    pq = decompose_pq(free_field_covariance(lat, 1.0), lat)
    return pq, split_check(lat, phi4(lat, coupling)).witness_g, random_test_functions(lat, 4, seed=2024)


@pytest.mark.parametrize("seed", [0, 1, 2, 1000, 2000])
def test_criterion_4_tilts_its_shared_draws(seed):
    # the pilot picks q ||c_q||_inf = 0.2 on every seed measured; the bound falls about 19% against q = 0
    pq, g, _ = _criterion_4_split()
    q, tilted, log_z = rp_verify._pick_shared_tilt(pq, g, McParams(1, seed=seed, n_outer=2048, n_inner=1000))
    assert q > 0.0 and tilted is not pq.q and log_z < 0.0


@pytest.mark.parametrize("n_outer, n_inner", [(2048, 1000), (100, 40)])
def test_the_shared_tilt_pilot_draws_once_and_evaluates_the_half_density_once(monkeypatch, n_outer, n_inner):
    # shared draws L from c_q itself, then the inner draws about each, from one stream in that order
    pq, g, _ = _criterion_4_split()
    keys, pilots = [], []
    monkeypatch.setattr(rp_verify, "substream", lambda *key: keys.append(key) or substream(*key))
    monkeypatch.setattr(
        rp_verify, "eval_potential_batch", lambda p, configs: pilots.append(configs) or eval_potential_batch(p, configs)
    )
    rp_verify._pick_shared_tilt(pq, g, McParams(1, seed=5, n_outer=n_outer, n_inner=n_inner))
    assert keys == [(5, NS_PILOT, 1)]
    assert len(rp_verify._tilts(pq.q, g)) > 1
    n_outer, n_inner = min(n_outer, 256), min(n_inner, 64)
    (pilot,) = pilots
    assert pilot.shape == (n_outer * n_inner, pq.p.dim)
    rng = substream(5, NS_PILOT, 1)
    shared = pq.q.draw(rng, n_outer)
    inner = pq.p.draw(rng, n_outer * n_inner).reshape(n_outer, n_inner, -1)
    assert np.array_equal(pilot, (inner + shared[:, np.newaxis, :]).reshape(pilot.shape))


@pytest.mark.parametrize("name", sorted(set(untilted_densities(build_lattice(2, [4]))) - {"mixed-support"}))
def test_an_untilted_half_density_draws_no_shared_pilot(monkeypatch, name):
    lat = build_lattice(2, [4])
    pq = decompose_pq(free_field_covariance(lat, 1.0), lat)
    split = split_check(lat, untilted_densities(lat)[name])
    assert split.is_splitting
    monkeypatch.setattr(rp_verify, "substream", lambda seed, namespace, index: pytest.fail("a pilot was drawn"))
    assert rp_verify._pick_shared_tilt(pq, split.witness_g, McParams(1, seed=0)) == (0.0, pq.q, 0.0)


def test_the_shared_tilt_keeps_the_mean(monkeypatch):
    # the weighted outer terms omega conj(H) H under c_q' have the mean of conj(H) H under c_q, shared
    # inner bias included: per entry, the tilted-minus-untilted difference averages to zero over seeds
    pq, g, phis = _criterion_4_split(coupling=1.0)
    diffs = []
    for seed in range(7000, 7024):
        params = McParams(1, seed=seed, n_outer=512, n_inner=100)
        assert rp_verify._pick_shared_tilt(pq, g, params)[0] > 0.0
        tilted = gram_mc_factorized(pq, g, phis, params)
        with monkeypatch.context() as m:
            m.setattr(rp_verify, "_TILT_GRID", (0.0,))
            untilted = gram_mc_factorized(pq, g, phis, params)
        diffs.append(tilted.matrix.real - untilted.matrix.real)
    diffs = np.array(diffs)
    z = diffs.mean(axis=0) / (diffs.std(axis=0, ddof=1) / math.sqrt(len(diffs)))
    assert np.abs(z).max() <= 3.0, z


@pytest.mark.parametrize("coupling", [0.1, 0.5, 1.0])
def test_the_shared_tilt_narrows_the_bound(monkeypatch, coupling):
    # at 512 x 100 draws (16 outer chunks, so the per-sample stderr) the tilted bound reads 0.84-0.87,
    # 0.48-0.50 and 0.60-0.62 of the untilted one
    pq, g, phis = _criterion_4_split(coupling)
    for seed in (0, 1):
        params = McParams(1, seed=seed, n_outer=512, n_inner=100)
        tilted = gram_mc_factorized(pq, g, phis, params)
        with monkeypatch.context() as m:
            m.setattr(rp_verify, "_TILT_GRID", (0.0,))
            untilted = gram_mc_factorized(pq, g, phis, params)
        assert tilted.verdict == untilted.verdict == PASS
        assert tilted.eig_error_bound < untilted.eig_error_bound


def test_the_factorized_effective_sample_size_counts_the_outer_weights():
    # sum(omega w) / max(omega w) over the inner samples, recomputed from the chunk substreams; the
    # inner weights alone, sum(w) / max(w), miss how few outer draws carry the tilted estimate
    pq, g, phis = _criterion_4_split(coupling=1.0)
    params = McParams(1, seed=3, n_outer=512, n_inner=100)
    q, tilted, log_z = rp_verify._pick_shared_tilt(pq, g, params)
    assert q > 0.0
    rep = gram_mc_factorized(pq, g, phis, params)
    weighted, inner = [], []
    for chunk_index, count in chunk_counts(params.n_outer, rp_verify._OUTER_CHUNK):
        rng = substream(params.seed, NS_FACTORIZED, chunk_index)
        shared = rp_verify._shared_draws(tilted, rng, count)
        s = shared[:, np.newaxis, :] + pq.p.draw(rng, count * params.n_inner).reshape(count, params.n_inner, -1)
        w = np.exp(eval_potential_batch(g, s.reshape(-1, s.shape[-1]))).reshape(count, params.n_inner)
        omega = np.exp(log_z + 0.5 * q * np.einsum("ij,ij->i", shared, shared))
        weighted.append(omega[:, np.newaxis] * w)
        inner.append(w)
    weighted, inner = np.concatenate(weighted), np.concatenate(inner)
    assert rep.effective_sample_size == pytest.approx(weighted.sum() / weighted.max(), rel=1e-12)
    assert rep.effective_sample_size < 0.5 * inner.sum() / inner.max()


@pytest.mark.parametrize("tilt", [0.0, 0.2, 0.8])
@pytest.mark.parametrize("n_outer", [1, 3, 8])
def test_the_tilted_shared_estimate_is_psd_by_construction(monkeypatch, tilt, n_outer):
    # each outer draw adds omega (Re H Re H^T + Im H Im H^T) with omega > 0, whether its shared draw is
    # quasi-random or not: at fewer outer draws than test functions the estimate is singular, and still
    # PSD to rounding; the grid is held at one tilt, q = 0 (omega = 1) among them
    monkeypatch.setattr(rp_verify, "_TILT_GRID", (tilt,))
    pq, g, phis = _criterion_4_split(coupling=1.0)
    params = McParams(1, seed=11, n_outer=n_outer, n_inner=16)
    assert rp_verify._pick_shared_tilt(pq, g, params)[0] == tilt / pq.q.inf_norm
    rep = gram_mc_factorized(pq, g, phis, params)
    assert np.linalg.eigvalsh(rep.matrix.real).min() >= -1e-15 * np.abs(rep.matrix).max()
    assert rep.min_eigenvalue >= -1e-15


def _kept_moments(monkeypatch):
    """The ChunkMoments each estimator call makes, in the order it makes them."""
    kept = []

    class Kept(ChunkMoments):
        def __init__(self):
            super().__init__()
            kept.append(self)

    monkeypatch.setattr(rp_verify, "ChunkMoments", Kept)
    return kept


@pytest.mark.parametrize("n_outer, chunks", [(992, 31), (993, 32)])
def test_the_factorized_stderr_is_the_chunk_spread_from_32_chunks(monkeypatch, n_outer, chunks):
    # 31 outer chunks of 32 keep the per-sample formula; one more outer draw opens a 32nd chunk, and
    # the stderr becomes the spread of the chunk means, each chunk one randomised Sobol block
    kept = _kept_moments(monkeypatch)
    pq, g, phis = _criterion_4_split()
    rep = gram_mc_factorized(pq, g, phis, McParams(1, seed=2, n_outer=n_outer, n_inner=16))
    (moments,) = kept
    assert len(moments.counts) == chunks and rp_verify._SPREAD_CHUNKS == 32
    per_sample, spread = moments.mean_and_stderr()[1], moments.mean_and_chunk_stderr()[1]
    assert np.array_equal(rep.stderr, spread if chunks == 32 else per_sample)
    assert not np.array_equal(per_sample, spread)
    assert rep.eig_error_bound == len(phis) * rep.stderr.max()


def test_the_chunk_spread_stderr_matches_the_spread_over_seeds(monkeypatch):
    # criterion 4 at 1024 x 256 draws, 32 outer chunks: the stderr from the chunk means must neither
    # understate nor overstate the spread of each real entry over seeds. The per-sample formula on
    # the same accumulators ignores how evenly each quasi-random block covers c_q, and overstates it
    # (spread / stderr reads a median 0.56 over the entries, against 0.89 from the chunk means)
    kept = _kept_moments(monkeypatch)
    pq, g, phis = _criterion_4_split()
    reports = [gram_mc_factorized(pq, g, phis, McParams(1, seed=seed, n_outer=1024, n_inner=256)) for seed in range(20)]
    assert len(kept) == 20 and all(len(m.counts) == 32 for m in kept)
    spread = np.stack([rep.matrix.real for rep in reports]).std(axis=0, ddof=1)
    ratio = spread / np.median(np.stack([rep.stderr for rep in reports]), axis=0)
    assert ratio.max() <= 2.0, ratio
    assert np.diag(ratio).min() >= 0.5, ratio
    per_sample = spread / np.median(np.stack([m.mean_and_stderr()[1] for m in kept]), axis=0)
    assert per_sample.max() <= 2.0, per_sample
    assert np.median(per_sample) < 0.8 * np.median(ratio)


def test_the_quasi_random_factorized_estimate_is_unbiased():
    # zero density and independent inner draws: each entry averages conj(H1_m) H2_n, whose mean is the
    # exact Gaussian Gram entry; over 24 seeds at 32 chunks each entry's mean deviation is within 3
    # of its standard errors (the zero function's entry is 1 on every seed)
    lat = build_lattice(2, [4])
    cov = free_field_covariance(lat, 1.0)
    pq, phis = decompose_pq(cov, lat), random_test_functions(lat, 4, seed=2024)
    exact = gram_exact_gaussian(cov, lat, phis).matrix.real
    params = [McParams(1, seed=seed, n_outer=1024, n_inner=16, share_inner=False) for seed in range(24)]
    diffs = np.stack([gram_mc_factorized(pq, ZERO_POTENTIAL, phis, p).matrix.real for p in params]) - exact
    sd = diffs.std(axis=0, ddof=1)
    assert sd[-1, -1] == 0.0 and not diffs[:, -1, -1].any()
    sd[-1, -1] = 1.0
    z = diffs.mean(axis=0) / (sd / math.sqrt(len(diffs)))
    assert np.abs(z).max() <= 3.0, z


def test_a_last_ulp_change_of_c_moves_the_factorized_estimate_only_at_rounding():
    # C, c_p and c_q have degenerate eigenvalues, so an eigenbasis factor V sqrt(L) of any can
    # turn by O(1) under a 1-ulp change of C; their PSD roots are unique and move at rounding
    lat = build_lattice(2, [4])
    c = np.array(free_field_covariance(lat, 1.0).matrix)
    plus, theta = lat.plus_sites, lat.theta_perm
    density = phi4(lat, 0.1)
    witness = split_check(lat, density).witness_g
    phis = random_test_functions(lat, 4, seed=2024)
    params = McParams(20_000, seed=0, n_outer=2048, n_inner=100)
    base = gram_mc_factorized(decompose_pq(Covariance(c), lat), witness, phis, params)
    base_direct = gram_mc_direct(Covariance(c), lat, density, phis, params)
    for i, j in ((plus[3], plus[5]), (plus[1], theta[plus[2]])):  # an entry of A, and one of B
        bumped = c.copy()
        for a, b in {(i, j), (j, i), (theta[i], theta[j]), (theta[j], theta[i])}:
            bumped[a, b] = np.nextafter(bumped[a, b], np.inf)
        cov = Covariance(bumped)
        assert not np.array_equal(bumped, c) and check_theta_invariance(cov, lat).deviation == 0.0
        moved = gram_mc_factorized(decompose_pq(cov, lat), witness, phis, params)
        assert np.abs(moved.matrix - base.matrix).max() <= 1e-9
        moved = gram_mc_direct(cov, lat, density, phis, params)
        assert np.abs(moved.matrix - base_direct.matrix).max() <= 5e-12


def test_a_last_ulp_change_of_a_column_table_moves_the_factorized_estimate_only_at_rounding():
    # the dense test's two changes, each made at every translate: the per-momentum roots of the
    # split are unique too, and its draws through the real Fourier basis move at rounding
    lat = build_lattice(2, [4])
    free = free_field_covariance(lat, 1.0)
    witness = split_check(lat, phi4(lat, 0.1)).witness_g
    phis = random_test_functions(lat, 4, seed=2024)
    params = McParams(1, seed=0, n_outer=2048, n_inner=100)
    base = gram_mc_factorized(decompose_pq(free, lat), witness, phis, params)
    for d, t, s in ((2, 2, 3), (1, 2, 1)):  # d = x - y mod 4, and times t, s of the 2T: A, then B
        cols = free.columns.copy()
        # with its transpose partner, its reflection and their mirrors -d: symmetric, invariant, even
        for d_, t_, s_ in ((d, t, s), (-d, s, t), (d, 3 - t, 3 - s), (-d, 3 - s, 3 - t)):
            for index in {(d_ % 4, t_, s_), (-d_ % 4, t_, s_)}:
                cols[index] = np.nextafter(free.columns[index], np.inf)
        cov = Covariance.from_columns(cols, free.momentum_roots)
        assert not np.array_equal(cols, free.columns) and check_theta_invariance(cov, lat).deviation == 0.0
        moved = gram_mc_factorized(decompose_pq(cov, lat), witness, phis, params)
        assert np.abs(moved.matrix - base.matrix).max() <= 5e-12


def test_factorized_overflow_raises_with_sub_blocks_pending_and_joins_the_worker(monkeypatch):
    held, futures, pending = threading.Event(), [], []

    class HeldPool(ThreadPoolExecutor):
        # holds every task until the pool shuts down, so the draws raise with tasks pending
        def submit(self, fn, *args):
            futures.append(super().submit(lambda: held.wait(10) and fn(*args)))
            return futures[-1]

        def shutdown(self, *args, **kwargs):
            pending.append(sum(not future.done() for future in futures))
            held.set()
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(rp_verify, "ThreadPoolExecutor", HeldPool)
    lat = build_lattice(2, [2])
    pq = decompose_pq(free_field_covariance(lat, 1.0), lat)
    # exp(200 x^2) overflows at |x| > 1.9; with seed 6 the fourth sub-block, the second of the second
    # outer chunk, is the first to reach it, before the first chunk merges
    g = Potential((Term(200.0, ((0, 2),)),))
    before = threading.active_count()
    with pytest.raises(IllConditionedWeightsError, match="half-density"):
        gram_mc_factorized(pq, g, random_test_functions(lat, 2, 0), McParams(1, seed=6, n_outer=200, n_inner=20))
    assert pending == [3]
    assert all(future.done() for future in futures)
    assert threading.active_count() == before


# exp(100 x^2) stays finite at every draw here, but the weighted moment sums overflow
HUGE_QUADRATIC = {"terms": [
    {"coefficient": 100.0, "factors": [{"site": [1, 0], "power": 2}]},
    {"coefficient": 100.0, "factors": [{"site": [-1, 0], "power": 2}]},
]}
# each half weight is exp(708), and 20 of them overflow the inner sums on the worker thread
HUGE_CONSTANT = {"terms": [], "constant": 1416.0}


@pytest.mark.parametrize(
    "estimator, density",
    [("direct", HUGE_QUADRATIC), ("factorized", HUGE_QUADRATIC), ("factorized", HUGE_CONSTANT)],
    ids=["direct", "factorized", "factorized-constant"],
)
def test_huge_finite_weights_raise_instead_of_overflowing_the_moments(estimator, density, tmp_path):
    lat = build_lattice(2, [2])
    cov = free_field_covariance(lat, 1.0)
    f = potential_from_obj(lat, density)
    phis = random_test_functions(lat, 4, 0)
    params = McParams(2000, seed=0, n_outer=200, n_inner=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedWeightsError, match=f"moments of the mc-{estimator}"):
            if estimator == "direct":
                gram_mc_direct(cov, lat, f, phis, params)
            else:
                gram_mc_factorized(decompose_pq(cov, lat), split_check(lat, f).witness_g, phis, params)
    # through verify-rp the unusable estimate exits 3, not 1: it is not a verified failure
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "lattice": {"time_extent": 2, "spatial_extents": [2]},
        "covariance": {"kind": "free_field", "mass": 1.0},
        "density": density,
        "mc": {"n_samples": 2000, "seed": 0, "n_outer": 200, "n_inner": 20},
    }), encoding="utf-8")
    assert cli.main(["verify-rp", "--config", str(cfg), "--quiet"]) == 3


def test_draws_whose_controls_overflow_raise_instead_of_failing_the_fit():
    # C = 1e80 I: d F'^2 overflows the pilot of every q > 0, whose lstsq raised a LinAlgError, and
    # the q = 0 offset overflows to NaN, which reached eigvalsh past the finiteness check
    lat = build_lattice(2, [])
    cov = Covariance(1e80 * np.eye(lat.site_count))
    phis = random_test_functions(lat, 2, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedWeightsError, match="moments of the mc-direct"):
            gram_mc_direct(cov, lat, phi4(lat, 0.1), phis, McParams(2000, seed=1))


def test_hermiticity_gap_is_within_noise():
    lat = build_lattice(1, [])
    cov = two_site_cov(0.5)
    for seed in range(10):
        rep = gram_mc_direct(cov, lat, ZERO_POTENTIAL, TWO_SITE_PHIS, McParams(50_000, seed=seed))
        gate = 5 * (rep.stderr + rep.stderr.T)
        assert rep.hermiticity_gap <= gate.max()


def test_schur_product_examples():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    b = np.array([[3.0, 0.0], [0.0, 3.0]])
    assert schur_product(a, b).tolist() == [[6.0, 0.0], [0.0, 6.0]]

    ones = np.ones((2, 2))
    alt = np.array([[1.0, -1.0], [-1.0, 1.0]])
    got = schur_product(ones, alt)
    assert got.tolist() == alt.tolist()
    assert np.linalg.eigvalsh(got).min() >= -1e-15

    with pytest.raises(ValueError):
        schur_product(np.eye(2), np.eye(3))


def test_schur_product_preserves_psd_randomized():
    rng = np.random.default_rng(51)
    for _ in range(300):
        k = int(rng.integers(1, 9))
        x = rng.standard_normal((k, k))
        y = rng.standard_normal((k, k))
        a, b = x @ x.T, y @ y.T
        prod = schur_product(a, b)
        scale = np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
        assert np.linalg.eigvalsh((prod + prod.T) / 2).min() >= -1e-10 * max(scale, 1.0)


def test_schur_diagonalization_identity():
    rng = np.random.default_rng(52)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        x = rng.standard_normal((k, k))
        y = rng.standard_normal((k, k))
        a, b = x @ x.T, y @ y.T
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        lhs = np.conj(c) @ schur_product(a, b.astype(complex)) @ c
        lam, u = np.linalg.eigh(b)
        rhs = sum(
            lam[i] * np.conj(u[:, i] * c) @ a @ (u[:, i] * c) for i in range(k)
        )
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
        assert lhs.real >= -1e-9 * max(abs(lhs), 1.0)


def test_probe_closed_form_and_sweep():
    lat = build_lattice(1, [])
    cov = two_site_cov(0.5)
    phi = np.array([0.0, 1.0])
    probes = small_lambda_probe(cov, lat, phi, [0.2, 0.1, 0.05, 0.025])
    closed = 100.0 * (1.0 - math.exp(-0.005))
    assert probes[1] == pytest.approx(closed, abs=1e-12)

    inner = theta_inner(cov, lat, phi)
    errors = [abs(p - inner) for p in probes]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.2 <= coarse / fine <= 4.8


def test_probe_zero_function_and_bad_scale():
    lat = build_lattice(1, [])
    cov = two_site_cov(0.5)
    assert small_lambda_probe(cov, lat, np.zeros(2), [0.5, 0.1]) == [0.0, 0.0]
    with pytest.raises(ValueError):
        small_lambda_probe(cov, lat, np.array([0.0, 1.0]), [0.1, -0.1])
    with pytest.raises(ValueError):
        small_lambda_probe(cov, lat, np.array([1.0, 0.0]), [0.1])


def test_random_test_functions_contract():
    lat = build_lattice(2, [3])
    phis = random_test_functions(lat, 4, seed=77)
    again = random_test_functions(lat, 4, seed=77)
    assert len(phis) == 5
    assert np.all(phis[-1] == 0.0)
    for a, b in zip(phis, again):
        assert np.array_equal(a, b)
    assert all(positive_support(lat, p) for p in phis)


def test_gram_report_wire_format_keys(tmp_path):
    # the keys of the Gram entries verify-rp writes through cli._fields, for either kind of inner draws
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    for share_inner in (True, False):
        cfg.write_text(json.dumps({
            "lattice": {"time_extent": 1, "spatial_extents": [2]},
            "covariance": {"kind": "free_field", "mass": 1.0},
            "density": {"terms": [], "constant": 0},
            "mc": {"n_samples": 2_000, "seed": 0, "n_outer": 64, "n_inner": 16, "share_inner": share_inner},
        }), encoding="utf-8")
        assert cli.main(["verify-rp", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
        assert [checks[key]["estimator_kind"] for key in ("gram_direct", "gram_factorized")] == [
            "mc-direct",
            "mc-factorized-shared" if share_inner else "mc-factorized-independent",
        ]
        for key in ("gram_direct", "gram_factorized"):
            assert set(checks[key]) == {
                "matrix_re",
                "matrix_im",
                "stderr",
                "min_eigenvalue",
                "eig_error_bound",
                "verdict",
                "n_samples",
                "seed",
                "estimator_kind",
                "effective_sample_size",
            }


def test_exact_report_hermiticity_gap_is_that_of_the_closed_form(monkeypatch):
    lat = build_lattice(2, [4])
    cov = free_field_covariance(lat, 1.0)
    phis = random_test_functions(lat, 4, seed=2024)
    phi_mat = np.stack(phis, axis=1)
    theta_mat = np.stack([reflect(lat, p) for p in phis], axis=1)
    g0 = gaussian_polynomial_gram(cov, phi_mat, theta_mat, Potential(constant=1.0))
    rep = gram_exact_gaussian(cov, lat, phis)
    assert rep.hermiticity_gap == float(np.abs(g0 - g0.conj().T).max())
    # a G0 that is far from Hermitian: the gap is measured, and the matrix is its Hermitian part
    skew = np.triu(np.full(g0.shape, 1e-3), 1)
    monkeypatch.setattr(rp_verify, "gaussian_polynomial_gram", lambda *args: g0 + skew)
    rep = gram_exact_gaussian(cov, lat, phis)
    assert rep.hermiticity_gap == pytest.approx(1e-3, rel=1e-12)
    np.testing.assert_array_equal(rep.matrix, ((g0 + skew) + (g0 + skew).conj().T) / 2.0)


def test_bootstrap_stability_mechanics():
    # complex chunk sums, and the real ones of an even density's estimate
    for unit in (1.0 + 0j, 1.0):
        # all chunks agree: a negative mean is a stable fail
        steady = [np.array([[-1.0 * unit]]) for _ in range(40)]
        assert _stable_below([1] * 40, steady, threshold=-0.5, seed=0)
        # one catastrophic chunk drives the mean negative, but resamples that
        # miss it sit at zero: the sign is not stable
        spiky = [np.array([[0.0 * unit]]) for _ in range(9)] + [np.array([[-100.0 * unit]])]
        assert not _stable_below([1] * 10, spiky, threshold=-1.0, seed=0)
    # a real 2x2 chunk sum with eigenvalues 1 and -1 in every chunk
    swing = [np.array([[0.0, 1.0], [1.0, 0.0]]) for _ in range(20)]
    assert _stable_below([1] * 20, swing, threshold=-0.5, seed=0)


def test_stable_below_counts_what_a_per_resample_loop_counts():
    # complex 3x3 chunk sums; the reference hermitizes and solves each resample mean on its own
    rng = np.random.default_rng(11)
    sums = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(12)]
    counts = [50 + i for i in range(12)]
    idx = substream(5, NS_BOOTSTRAP, 0).integers(0, 12, size=(rp_verify._N_BOOTSTRAP, 12))
    stacked, weights, mins = np.stack(sums), np.asarray(counts, dtype=np.float64), []
    for row in idx:
        m = stacked[row].sum(axis=0) / weights[row].sum()
        mins.append(float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min()))
    need = math.ceil(rp_verify._STABLE_FRACTION * rp_verify._N_BOOTSTRAP)
    edge = sorted(mins)[need - 1]
    assert sum(v < edge for v in mins) == need - 1
    # at the need-th smallest minimum one resample short of a stable fail, just above it a stable fail
    assert not _stable_below(counts, sums, edge, seed=5)
    assert _stable_below(counts, sums, np.nextafter(edge, np.inf), seed=5)


def test_verdict_rule_constants():
    assert {PASS, FAIL, INCONCLUSIVE} == {"pass", "fail", "inconclusive"}


# An odd term whose weight exp(1e-300 x) rounds to 1: the zero density's draws and
# estimate, taken through the complex path of a density with an odd term.
ODD_UNIT_WEIGHT = Potential((Term(1e-300, ((1, 1),)),))


def test_a_fail_of_fewer_than_two_samples_is_inconclusive():
    # criterion 4 is RP, yet one direct sample read a stable fail on 19 of seeds 0-19, and one outer draw
    # with independent inner draws on all 20: one sample's stderr is rounding noise, and a bootstrap over
    # one chunk always persists. Such an estimate has no error to gate on
    lat = build_lattice(2, [4])
    cov, density = free_field_covariance(lat, 1.0), phi4(lat, 0.1)
    pq, g, phis = decompose_pq(cov, lat), split_check(lat, density).witness_g, random_test_functions(lat, 4, seed=1)
    for seed in range(5):
        direct = gram_mc_direct(cov, lat, density, phis, McParams(1, seed=seed))
        factorized = gram_mc_factorized(pq, g, phis, McParams(1, seed=seed, n_outer=1, n_inner=16, share_inner=False))
        for rep in (direct, factorized):
            assert rep.n_samples == 1 and rep.min_eigenvalue < -rep.tol - 5.0 * rep.eig_error_bound
            assert rep.verdict == INCONCLUSIVE
    # from two samples on, a fail whose sign persists stays a fail
    below, stderr = np.diag([-1.0, 1.0]), np.zeros((2, 2))
    for n, verdict in ((1, INCONCLUSIVE), (2, FAIL)):
        rep = rp_verify._gram_report(below, stderr, 0.0, "mc-direct", n, 0, chunks=([1] * n, [below] * n))
        assert rep.verdict == verdict


def test_an_estimate_of_fewer_than_two_samples_is_inconclusive_whatever_its_sign():
    # one direct sample that clears its gate (seed 8), and one shared outer draw, PSD by construction:
    # both read pass, with an eig_error_bound of rounding noise or none, until such an estimate became
    # inconclusive whatever its sign
    lat = build_lattice(2, [4])
    cov, density = free_field_covariance(lat, 1.0), phi4(lat, 0.1)
    pq, g, phis = decompose_pq(cov, lat), split_check(lat, density).witness_g, random_test_functions(lat, 4, seed=1)
    reports = [gram_mc_direct(cov, lat, density, phis, McParams(1, seed=8))]
    reports += [gram_mc_factorized(pq, g, phis, McParams(1, seed=seed, n_outer=1, n_inner=16)) for seed in range(5)]
    for rep in reports:
        assert rep.n_samples == 1 and rep.min_eigenvalue >= -rep.tol - 5.0 * rep.eig_error_bound
        assert rep.verdict == INCONCLUSIVE
    # an exact estimate has no chunks and keeps its pass; two samples that clear the gate pass
    psd, stderr = np.diag([1.0, 0.5]), np.zeros((2, 2))
    assert rp_verify._gram_report(psd, stderr, 0.0, "exact-gaussian").verdict == PASS
    for n, verdict in ((1, INCONCLUSIVE), (2, PASS)):
        rep = rp_verify._gram_report(psd, stderr, 0.0, "mc-direct", n, 0, chunks=([1] * n, [psd] * n))
        assert rep.verdict == verdict


def test_unstable_fail_is_downgraded_to_inconclusive(monkeypatch):
    # the tilt would absorb most of the quadratic density below; held at q = 0, its weights vary
    monkeypatch.setattr(rp_verify, "_TILT_GRID", (0.0,))
    lat = build_lattice(1, [])
    params = McParams(8192, seed=0)
    # unit weights make the control variate's coefficient 1 exactly: the estimate is the
    # closed form, with no error, and its sign is a stable fail on either path
    exact = gram_exact_gaussian(two_site_cov(-0.5), lat, TWO_SITE_PHIS)
    for density in (ODD_UNIT_WEIGHT, ZERO_POTENTIAL):
        rep = gram_mc_direct(two_site_cov(-0.5), lat, density, TWO_SITE_PHIS, params)
        assert np.iscomplexobj(rep.matrix) == (density is ODD_UNIT_WEIGHT)
        assert np.array_equal(rep.matrix, exact.matrix)
        assert not rep.stderr.any() and rep.eig_error_bound == 0.0
        assert rep.verdict == FAIL

    # weights that vary: the even quadratic density exp(-0.1 (x_-1^2 + x_1^2)) on the
    # two-site c = -0.0112 covariance, whose exact smallest Gram eigenvalue is -0.001957.
    # At 16384 draws (8 bootstrap chunks) the gate -5 * eig_error_bound sits near -0.00183,
    # about one standard deviation of the estimated eigenvalue (1.15e-4) above the exact
    # one: most estimates that fall below the gate do so by less than the spread of their
    # resamples (seeds 0-9: five inconclusive, two fail, three pass)
    quadratic = Potential(tuple(Term(-0.1, ((x, 2),)) for x in range(2)))
    reports = [
        gram_mc_direct(two_site_cov(-0.0112), lat, quadratic, TWO_SITE_PHIS, McParams(16_384, seed=seed))
        for seed in range(10)
    ]
    downgraded = [rep for rep in reports if rep.verdict == INCONCLUSIVE]
    assert downgraded
    for rep in downgraded:
        # the estimate fails the 5-sigma gate, but its sign does not survive the bootstrap
        assert rep.min_eigenvalue < -rep.tol - 5.0 * rep.eig_error_bound


@pytest.mark.parametrize("estimator", ["direct", "factorized-independent"])
def test_real_part_stderr_matches_the_spread_over_seeds(estimator):
    # criterion 4 at small counts: the standard error of each real entry, whose imaginary
    # part is no longer estimated, must not understate the spread of that entry over seeds
    lat = build_lattice(2, [4])
    cov = free_field_covariance(lat, 1.0)
    density = phi4(lat, 0.1)
    phis = random_test_functions(lat, 4, seed=2024)
    pq = decompose_pq(cov, lat)
    witness = split_check(lat, density).witness_g
    reports = []
    for seed in range(20):
        if estimator == "direct":
            reports.append(gram_mc_direct(cov, lat, density, phis, McParams(4096, seed=seed)))
        else:
            params = McParams(1, seed=seed, n_outer=128, n_inner=16, share_inner=False)
            reports.append(gram_mc_factorized(pq, witness, phis, params))
    assert all(np.isrealobj(rep.matrix) for rep in reports)
    spread = np.stack([rep.matrix for rep in reports]).std(axis=0, ddof=1)
    stderr = np.median(np.stack([rep.stderr for rep in reports]), axis=0)
    ratio = spread / stderr
    # within a factor of 2 over all 25 entries; hermitizing averages the off-diagonal
    # pairs, so only the diagonal has a floor
    assert ratio.max() <= 2.0, ratio
    assert np.diag(ratio).min() >= 0.5, ratio


def test_factorized_estimator_accepts_covariance_invariant_within_tolerance():
    lat = build_lattice(2, [4])
    m = free_field_covariance(lat, 1.0).matrix.copy()
    m[8, 1] += 1e-14  # inside the cross block, far below the invariance tolerance
    m[1, 8] = m[8, 1]
    cov = Covariance(m)
    pq = decompose_pq(cov, lat)
    assert not np.array_equal(pq.c_p, pq.c_p.T)
    params = McParams(1, seed=0, n_outer=64, n_inner=16)
    rep = gram_mc_factorized(pq, ZERO_POTENTIAL, random_test_functions(lat, 2, 0), params)
    assert rep.min_eigenvalue >= -1e-10


def _params_fields(p):
    return (p.n_samples, p.seed, p.n_outer, p.n_inner, p.share_inner)


# (call, expected): ValueError, or the repr of the normalized value
LIBRARY_NUMBERS = {
    "term-site-fractional": (lambda: Term(1.0, ((0.9, 2),)), ValueError),
    "term-power-fractional": (lambda: Term(1.0, ((0, 2.7),)), ValueError),
    "term-site-boolean": (lambda: Term(1.0, ((True, 2),)), ValueError),
    "term-integral-floats": (lambda: Term(1, ((np.int64(3), 2.0),)).factors, "((3, 2),)"),
    "term-coefficient-boolean": (lambda: Term(True, ((0, 2),)), ValueError),
    "term-coefficient-string": (lambda: Term("1.5", ((0, 2),)), ValueError),
    "potential-constant-boolean": (lambda: Potential((), False), ValueError),
    "term-coefficient-nan": (lambda: Term(float("nan"), ((0, 2),)), ValueError),
    "term-coefficient-infinite": (lambda: Term(float("-inf"), ((0, 2),)), ValueError),
    "potential-constant-nan": (lambda: Potential((), float("nan")), ValueError),
    "potential-constant-infinite": (lambda: Potential((), float("inf")), ValueError),
    "free-field-mass-nan": (lambda: free_field_covariance(build_lattice(1, []), float("nan")), ValueError),
    "mc-n_samples-fractional": (lambda: McParams(1.5, 0), ValueError),
    "mc-seed-fractional": (lambda: McParams(1, 0.5), ValueError),
    "mc-n_inner-boolean": (lambda: McParams(1, 0, n_inner=True), ValueError),
    "mc-n_outer-zero": (lambda: McParams(1, 0, n_outer=0), ValueError),
    "mc-share_inner-string": (lambda: McParams(1, 0, share_inner="false"), ValueError),
    "mc-share_inner-int": (lambda: McParams(1, 0, share_inner=1), ValueError),
    "mc-integral-floats": (
        lambda: _params_fields(McParams(5e3, np.int64(-3), n_outer=64.0)), "(5000, -3, 64, 1000, True)"
    ),
    "test-function-count-fractional": (
        lambda: random_test_functions(build_lattice(1, []), 2.7, 0), ValueError
    ),
    "test-function-count-integral-float": (
        lambda: len(random_test_functions(build_lattice(1, []), 2.0, 0)), "3"
    ),
    "sample-count-fractional": (lambda: sample(two_site_cov(0.5), 2.5, 0), ValueError),
    "sample-count-integral-float": (lambda: sample(two_site_cov(0.5), 3.0, 0).configs.shape, "(3, 2)"),
    "mc-seed-numeric-string": (lambda: McParams(1, "5"), ValueError),
    "mc-n_samples-float32-fractional": (lambda: McParams(np.float32(2.7), 0), ValueError),
    "mc-n_samples-fraction": (lambda: McParams(Fraction(5, 2), 0), ValueError),
    "mc-seed-float32-infinite": (lambda: McParams(1, np.float32("inf")), ValueError),
    "mc-seed-none": (lambda: McParams(1, None), ValueError),
    "term-power-float32-fractional": (lambda: Term(1.0, ((0, np.float32(2.5)),)), ValueError),
    "term-site-numeric-string": (lambda: Term(1.0, (("3", 2),)), ValueError),
    "lattice-extent-numeric-string": (lambda: build_lattice(2, ["4"]), ValueError),
    "mc-integral-non-floats": (
        lambda: _params_fields(McParams(Fraction(10, 2), np.float32(3.0), n_inner=np.int32(7))),
        "(5, 3, 10000, 7, True)",
    ),
}


@pytest.mark.parametrize("call, expected", LIBRARY_NUMBERS.values(), ids=LIBRARY_NUMBERS.keys())
def test_library_numbers_are_validated_not_truncated(call, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            call()
    else:
        assert repr(call()) == expected
