"""Batch front-end: config-driven verification runs with JSON reports.

Subcommands mirror the verification pipelines: check-gaussian decides the
exact Gaussian criteria, check-density decides the splitting property,
verify-rp chains both in front of the Monte Carlo Gram estimators, and
selftest replays the built-in closed-form oracles. Reports echo the fully
resolved configuration, so a run is reproducible from its report alone;
with identical config and seed the report bytes are identical except for
the wall_time_s field.

Exit codes: 0 all checks pass (or are inconclusive but consistent with a
pass), 1 a check failed, 2 usage, config or IO error, 3 an estimate was
unusable (ill-conditioned weights) and nothing else failed, 4 an internal
error (an unexpected exception, named in one line on stderr).
Reports are strict JSON: a ratio with no finite value is written as null.
"""

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .density import (
    Potential,
    Term,
    ZERO_POTENTIAL,
    _renamed,
    potential_from_obj,
    potential_to_obj,
    split_check,
)
from .gaussian import (
    DEFAULT_INVARIANCE_TOL,
    DEFAULT_PSD_TOL,
    Covariance,
    char_fn,
    check_gaussian_rp,
    cross_block,
    decompose_pq,
    free_field_covariance,
    gaussian_polynomial_gram,
    theta_inner,
    tilted_gaussian,
    verify_convolution_identity,
)
from .gaussian import _checked_tolerance, _max_ratio, _translates
from .lattice import Lattice, as_float, as_int, build_lattice
from .rp_verify import (
    FAIL,
    IllConditionedWeightsError,
    McParams,
    _phase_matrices,
    gram_exact_gaussian,
    gram_mc_direct,
    gram_mc_factorized,
    random_test_functions,
    require_positive_support,
    schur_product,
    small_lambda_probe,
)

STRUCTURAL_PSD_FLOOR = -1e-10
ILL_CONDITIONED = "ill-conditioned-weights"
# exit code -> report verdict; 3 is an unusable estimate, which is not a verified failure
VERDICTS = {0: "pass", 1: "fail", 3: "inconclusive"}
# how far a free field's per-momentum smallest eigenvalue and threshold may
# move from the dense ones, relative to max(1, max |eigenvalue|)
MOMENTUM_FLOOR_TOL = 1e-14


class ConfigError(Exception):
    """Invalid configuration or unreadable input; maps to exit code 2."""


def _fail(msg):
    raise ConfigError(msg)


def write_matrix_csv(path, matrix):
    """Row-major CSV, 17 significant digits per entry."""
    rows = []
    for row in np.atleast_2d(np.asarray(matrix, dtype=np.float64)):
        rows.append(",".join(format(v, ".17g") for v in row))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_matrix_csv(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"cannot read matrix file {path}: {exc}")
    try:
        rows = [
            [float(tok) for tok in line.split(",")]
            for line in text.splitlines()
            if line.strip()
        ]
    except ValueError as exc:
        _fail(f"matrix file {path} has a non-numeric entry: {exc}")
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        _fail(f"matrix file {path} is ragged or empty")
    return np.array(rows, dtype=np.float64)


@dataclasses.dataclass
class Resolved:
    """Config after validation, defaulting and seed overrides."""

    lattice: Lattice
    covariance: Covariance | None
    density: Potential | None
    phis: list | None
    mc: McParams | None
    tolerances: dict
    echo: dict


def load_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"cannot read config {path}: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(f"config {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        _fail(f"config {path} must be a JSON object")
    return raw


def _section(raw, name):
    """The named config section, {} when absent; anything but an object is an error."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        _fail(f"config section '{name}' must be a JSON object")
    return section


def _number(section, name, key, default, kind=float):
    """section[key], or default when absent, as a float or (kind=int) an exact integer."""
    value = section.get(key, default)
    try:
        return as_int(value, key) if kind is int else as_float(value, key)
    except (TypeError, ValueError, OverflowError):
        _fail(f"{name}.{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")


def resolve_config(raw, config_dir, seed_override=None):
    if "lattice" not in raw:
        _fail("config is missing the 'lattice' section")
    lat_cfg = _section(raw, "lattice")
    try:
        lattice = build_lattice(
            lat_cfg["time_extent"], lat_cfg.get("spatial_extents", [])
        )
    except (KeyError, TypeError, ValueError) as exc:
        _fail(f"invalid lattice section: {exc}")

    tol_cfg = _section(raw, "tolerances")
    tolerances = {}
    for key, default in (("psd_tol", DEFAULT_PSD_TOL), ("invariance_tol", DEFAULT_INVARIANCE_TOL)):
        try:
            tolerances[key] = _checked_tolerance(tol_cfg.get(key, default), f"tolerances.{key}")
        except (ValueError, OverflowError) as exc:  # float() of a huge JSON integer overflows
            _fail(str(exc))
    echo = {"lattice": _fields(lattice), "tolerances": tolerances}

    mc = None
    if seed_override is not None and "mc" not in raw:
        _fail("--seed overrides mc.seed, and the config has no 'mc' section")
    if "mc" in raw:
        mc_cfg = _section(raw, "mc")
        if "n_samples" not in mc_cfg:
            _fail("mc section needs n_samples")
        # only the keys the config gives, unconverted; McParams checks them and holds the other defaults
        keys = ("n_samples", "seed", "n_outer", "n_inner", "share_inner")
        given = {"seed": 0, **{key: mc_cfg[key] for key in keys if key in mc_cfg}}
        if seed_override is not None:
            given["seed"] = seed_override
        try:
            mc = McParams(**given)
        except ValueError as exc:
            _fail(f"invalid mc section: {exc}")
        echo["mc"] = _fields(mc)

    covariance = None
    if "covariance" in raw:
        cov_cfg = _section(raw, "covariance")
        kind = cov_cfg.get("kind")
        if kind == "free_field":
            if "mass" not in cov_cfg:
                _fail("free_field covariance needs a mass")
            mass = _number(cov_cfg, "covariance", "mass", None)
            try:
                covariance = free_field_covariance(lattice, mass, tolerances["psd_tol"])
            except ValueError as exc:
                _fail(f"invalid covariance: {exc}")
            echo["covariance"] = {"kind": "free_field", "mass": mass}
        elif kind == "explicit":
            if not isinstance(cov_cfg.get("matrix_file"), str):
                _fail(f"explicit covariance needs a matrix_file path, got {cov_cfg.get('matrix_file')!r}")
            matrix = read_matrix_csv(Path(config_dir) / cov_cfg["matrix_file"])
            if matrix.shape != (lattice.site_count, lattice.site_count):
                _fail(
                    f"explicit covariance is {matrix.shape}, lattice needs "
                    f"({lattice.site_count}, {lattice.site_count})"
                )
            try:
                covariance = Covariance(matrix, tolerances["psd_tol"])
            except ValueError as exc:
                _fail(f"invalid covariance: {exc}")
            echo["covariance"] = {
                "kind": "explicit",
                "matrix_file": str(cov_cfg["matrix_file"]),
                "matrix": matrix.tolist(),
            }
        else:
            _fail(f"unknown covariance kind {kind!r}")

    density = None
    if "density" in raw:
        try:
            density = potential_from_obj(lattice, raw["density"])
        except (KeyError, TypeError, ValueError) as exc:
            _fail(f"invalid density: {exc}")
        echo["density"] = potential_to_obj(lattice, density)

    phis = None
    if "test_functions" in raw:
        tf_cfg = _section(raw, "test_functions")
        kind = tf_cfg.get("kind", "random")
        if kind == "random":
            phis = _random_family(lattice, echo, tf_cfg, mc)
        elif kind == "explicit":
            vectors = tf_cfg.get("vectors")
            if not isinstance(vectors, list) or not vectors:
                _fail("explicit test_functions need a nonempty 'vectors' list")
            try:
                phis = [np.array([as_float(x, "a test function entry") for x in vec]) for vec in vectors]
                require_positive_support(lattice, phis)
            except (TypeError, ValueError) as exc:
                _fail(f"invalid explicit test_functions: {exc}")
            echo["test_functions"] = {"kind": "explicit", "vectors": [phi.tolist() for phi in phis]}
        else:
            _fail(f"unknown test_functions kind {kind!r}")

    return Resolved(lattice, covariance, density, phis, mc, tolerances, echo)


def _random_family(lattice, echo, tf_cfg, mc):
    """The random test functions of the test_functions section tf_cfg, echoed: count 4 and seed mc.seed unless given."""
    count = _number(tf_cfg, "test_functions", "count", 4, int)
    if count < 1:
        _fail("test_functions count must be >= 1")
    seed = _number(tf_cfg, "test_functions", "seed", mc.seed if mc is not None else 0, int)
    echo["test_functions"] = {"kind": "random", "count": count, "seed": seed}
    return random_test_functions(lattice, count, seed)


def _fields(report, omit=()):
    """A report dataclass as a dict of its fields, minus those named in omit."""
    return {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.name not in omit
    }


def _numpy_to_json(obj):
    # numpy float64 subclasses float and is written by json itself; arrays,
    # integers and bools are not, and become their Python equivalents
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def render_report(report):
    """Deterministic, strict JSON bytes for a report dict; NaN or an infinity raises ValueError."""
    return json.dumps(report, indent=2, sort_keys=True, default=_numpy_to_json, allow_nan=False) + "\n"


def _gram_entry(report):
    """A GramReport as written: the hermitized matrix split into real and imaginary parts."""
    entry = _fields(report, omit=("matrix", "hermiticity_gap", "tol"))
    return dict(entry, matrix_re=report.matrix.real, matrix_im=report.matrix.imag)


def _gaussian_stage(checks, resolved):
    """Write the exact Gaussian checks theta_invariance and gaussian_rp to checks, and return their report."""
    rp = check_gaussian_rp(resolved.covariance, resolved.lattice, invariance_tol=resolved.tolerances["invariance_tol"])
    checks["theta_invariance"] = _fields(rp.invariance)
    checks["gaussian_rp"] = _fields(rp, omit=("invariance",))
    return rp


def _pq_stage(checks, reasons, resolved):
    """Write the half-lattice split pq_decomposition to checks, and its reason on a fail; return the split."""
    pq = decompose_pq(resolved.covariance, resolved.lattice)
    checks["pq_decomposition"] = {
        "passed": pq.both_psd,
        "sum_exact": pq.sum_exact,
        "p": _fields(pq.report_p, omit=("tol",)),
        "q": _fields(pq.report_q, omit=("tol",)),
    }
    if not pq.both_psd:
        reasons.append("pq-decomposition")
    return pq


def _split_stage(checks, reasons, resolved):
    """Write the splitting decision split to checks, and its first violation's reason on a fail; return it."""
    lattice = resolved.lattice
    result = split_check(lattice, resolved.density)
    violations = [
        {"term": potential_to_obj(lattice, Potential((v.term,)))["terms"][0], "reason": v.reason}
        for v in result.violations
    ]
    checks["split"] = {"is_splitting": result.is_splitting, "violations": violations}
    if not result.is_splitting:
        reasons.append("split:" + result.violations[0].reason)
    return result


def cmd_check_gaussian(resolved, csv_dir=None):
    if resolved.covariance is None:
        _fail("check-gaussian needs a 'covariance' section")
    lattice, cov = resolved.lattice, resolved.covariance
    checks = {}
    reasons = []

    rp = _gaussian_stage(checks, resolved)
    if not rp.invariance.passed:
        reasons.append("theta-invariance")
    if not rp.passed:
        reasons.append("gaussian-rp")

    pq = _pq_stage(checks, reasons, resolved)

    mc = resolved.mc
    # without an mc section the sample count and seed are verify_convolution_identity's defaults
    given = {} if mc is None else {"n_samples": mc.n_samples, "seed": mc.seed}
    conv = verify_convolution_identity(pq, **given)
    checks["convolution_identity"] = _fields(conv)
    if not conv.passed:
        reasons.append("convolution-identity")

    if csv_dir is not None:
        out = Path(csv_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_matrix_csv(out / "covariance.csv", cov.matrix)
        write_matrix_csv(out / "cross_block.csv", cross_block(cov, lattice, warn=False))

    return checks, reasons


def cmd_check_density(resolved):
    if resolved.density is None:
        _fail("check-density needs a 'density' section")
    lattice = resolved.lattice
    checks, reasons = {}, []
    result = _split_stage(checks, reasons, resolved)
    g = result.witness_g  # over half indices, written at the positive-time sites they index
    checks["split"]["witness"] = None if g is None else potential_to_obj(lattice, _renamed(g, lattice.plus_sites))
    return checks, reasons


def _gram_stage(checks, reasons, name, estimate, *args):
    """Write estimate(*args) to checks[name], and its reason on a fail.

    Ill-conditioned weights write None and ill-conditioned-weights, and the
    None returned stops the command.
    """
    try:
        report = estimate(*args)
    except IllConditionedWeightsError:
        checks[name] = None
        reasons.append(ILL_CONDITIONED)
        return None
    checks[name] = _gram_entry(report)
    if report.verdict == FAIL:
        reasons.append(name.replace("_", "-") + "-stable-fail")
    return report


def cmd_verify_rp(resolved):
    if resolved.covariance is None or resolved.density is None or resolved.mc is None:
        _fail("verify-rp needs 'covariance', 'density' and 'mc' sections")
    lattice, cov = resolved.lattice, resolved.covariance
    mc = resolved.mc
    phis = resolved.phis
    if phis is None:
        phis = _random_family(lattice, resolved.echo, {}, mc)

    checks = {}
    reasons = []

    if not _gaussian_stage(checks, resolved).passed:
        reasons.append("gaussian-gate")
        return checks, reasons

    split = _split_stage(checks, reasons, resolved)
    if not split.is_splitting:
        return checks, reasons

    direct = _gram_stage(checks, reasons, "gram_direct", gram_mc_direct, cov, lattice, resolved.density, phis, mc)
    if direct is None:
        return checks, reasons

    pq = _pq_stage(checks, reasons, resolved)
    if not pq.both_psd:
        return checks, reasons

    factorized = _gram_stage(checks, reasons, "gram_factorized", gram_mc_factorized, pq, split.witness_g, phis, mc)
    if factorized is None:
        return checks, reasons

    if mc.share_inner:
        structural_ok = factorized.min_eigenvalue >= STRUCTURAL_PSD_FLOOR
        checks["structural_psd"] = {
            "passed": structural_ok,
            "min_eigenvalue": factorized.min_eigenvalue,
            "floor": STRUCTURAL_PSD_FLOOR,
        }
        if not structural_ok:
            reasons.append("structural-psd")

    bias_allowance = 2.0 / mc.n_inner if mc.share_inner else 0.0
    delta = np.abs(direct.matrix - factorized.matrix)
    gate = 5.0 * (direct.stderr + factorized.stderr + bias_allowance)
    agree = bool((delta <= gate).all())
    checks["estimator_agreement"] = {
        "passed": agree,
        "max_abs_difference": float(delta.max()),
        # an entry with gate 0 agrees only exactly, and one that misses is written as null
        "max_gate_ratio": _max_ratio(delta, gate, 0.0),
        "bias_allowance": bias_allowance,
    }
    if not agree:
        reasons.append("estimator-agreement")

    return checks, reasons


def cmd_selftest(psd_tol=DEFAULT_PSD_TOL):
    """Built-in oracle battery: closed forms, Schur products, probe sweep."""
    entries = []

    def entry(name, passed, measured, gate):
        entries.append({"name": name, "passed": bool(passed), "measured": measured, "gate": gate})

    lat2 = build_lattice(1, [])
    cov2 = free_field_covariance(lat2, 1.0)
    dev = float(np.abs(cov2.matrix - np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0).max())
    entry("free-field-2site-inverse", dev <= 1e-12, dev, 1e-12)

    chalf = Covariance(np.array([[1.0, 0.5], [0.5, 1.0]]), psd_tol)
    cneg = Covariance(np.array([[1.0, -0.5], [-0.5, 1.0]]), psd_tol)
    phi = np.array([0.0, 1.0])
    dev = abs(char_fn(chalf, phi) - float(np.exp(-0.5)))
    entry("char-fn-closed-form", dev <= 1e-15, dev, 1e-15)

    phis = [phi, np.zeros(2)]
    for cov, c, want in ((chalf, 0.5, "pass"), (cneg, -0.5, "fail")):
        rep = gram_exact_gaussian(cov, lat2, phis)
        det = float(np.linalg.det(rep.matrix.real))
        closed = float(np.exp(-(1.0 - c)) - np.exp(-1.0))
        ok = abs(det - closed) <= 1e-12 and rep.verdict == want
        entry(f"exact-gram-determinant-c={c}", ok, det, closed)

    dev = abs(theta_inner(chalf, lat2, phi) - 0.5)
    entry("theta-inner-value", dev <= 1e-15, dev, 1e-15)

    probes = small_lambda_probe(chalf, lat2, phi, [0.2, 0.1, 0.05, 0.025])
    closed = float(100.0 * (1.0 - np.exp(-0.005)))
    dev = abs(probes[1] - closed)
    entry("probe-closed-form", dev <= 1e-12, dev, 1e-12)
    errs = [abs(p - 0.5) for p in probes]
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    ok = all(3.2 <= r <= 4.8 for r in ratios)
    entry("probe-sweep-ratio", ok, ratios, [3.2, 4.8])

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 9))
        x = rng.standard_normal((k, k))
        y = rng.standard_normal((k, k))
        a, b = x @ x.T, y @ y.T
        prod = schur_product(a, b)
        scale = float(np.linalg.norm(a, 2) * np.linalg.norm(b, 2))
        rel = float(np.linalg.eigvalsh((prod + prod.T) / 2.0).min()) / max(scale, 1e-300)
        worst = min(worst, rel)
    entry("schur-psd-battery", worst >= -psd_tol, worst, -psd_tol)

    lat = build_lattice(2, [4])
    cov = free_field_covariance(lat, 1.0, psd_tolerance=max(psd_tol, 1e-15))
    pq = decompose_pq(cov, lat)
    floor = min(pq.report_p.min_eigenvalue, pq.report_q.min_eigenvalue)
    entry("pq-decomposition", pq.sum_exact and floor >= -psd_tol, floor, -psd_tol)

    # the per-momentum decision against the dense one on the same matrix
    twin = Covariance(cov.matrix, cov.psd_tolerance)
    rp, rp_dense = (check_gaussian_rp(c, lat) for c in (cov, twin))
    pq_dense = decompose_pq(twin, lat)
    pairs = ((rp, rp_dense), (pq.report_p, pq_dense.report_p), (pq.report_q, pq_dense.report_q))
    # each gap relative to max(1, max |eigenvalue|) = threshold / -tol
    gap = max(
        max(abs(got.min_eigenvalue - want.min_eigenvalue), abs(got.threshold - want.threshold))
        / (want.threshold / -want.tol)
        for got, want in pairs
    )
    same = (rp.invariance, rp.failure_kind) == (rp_dense.invariance, rp_dense.failure_kind)
    same = same and all(got.passed == want.passed for got, want in pairs)
    entry("exact-momentum-vs-dense", same and gap <= MOMENTUM_FLOOR_TOL, gap, MOMENTUM_FLOOR_TOL)

    # free-field draws against the same normals times the dense factor, which shares their real
    # Fourier basis, and F F^T against C, taken the basis-free way as the inverse transform of the
    # Green's tables R_k R_k^T; then the half-lattice summands of that field against c_p and c_q
    small_lat = build_lattice(2, [5, 4])  # two momenta per axis, and k = L/2
    small = free_field_covariance(small_lat, 0.5)
    split, roots = decompose_pq(small, small_lat), small.momentum_roots
    c = _translates(np.fft.ifftn(roots @ roots.swapaxes(-1, -2), axes=(0, 1)).real)
    for name, pairs in (("sampler", [(small, c)]), ("split", [(split.p, split.c_p), (split.q, split.c_q)])):
        dev = 0.0
        for drawn, target in pairs:
            want = np.random.default_rng(7).standard_normal((256, drawn.dim)) @ drawn.factor.T
            dev = max(dev, float(np.abs(drawn.draw(np.random.default_rng(7), 256) - want).max() / np.abs(want).max()))
            dev = max(dev, float(np.abs(drawn.factor @ drawn.factor.T - target).max() / np.abs(target).max()))
        entry(f"{name}-momentum-vs-dense", dev <= 1e-14, dev, 1e-14)

    # the polynomial closed form for sum_x T_x^2, whose mean against exp(iu.T) is minus twice the
    # q-derivative at q = 0 of the quadratic density's (below): exp(-(1/2) u^T C u) (tr C - |Cu|^2)
    phi_mat, theta_mat = _phase_matrices(lat, random_test_functions(lat, 3, 7))
    d = phi_mat[:, :, np.newaxis] - theta_mat[:, np.newaxis, :]
    shifts = np.einsum("xy,ymn->xmn", cov.matrix, d)
    want = np.exp(-0.5 * (d * shifts).sum(axis=0)) * (np.trace(cov.matrix) - (shifts * shifts).sum(axis=0))
    squares = Potential(tuple(Term(1.0, ((x, 2),)) for x in range(lat.site_count)))
    got = gaussian_polynomial_gram(cov, phi_mat, theta_mat, squares)
    dev = float(np.abs(got - want).max() / np.abs(want).max())
    entry("gaussian-polynomial-closed-form", dev <= 1e-12, dev, 1e-12)

    # the per-momentum tilt of the free field by exp(-(q/2) |T|^2) is the free field at mass
    # sqrt(1 + q), and its log Z = -(1/2) log det(I + qC) is the dense tilt's, by slogdet
    q = 0.3
    tilted, log_z = tilted_gaussian(cov, q)
    heavier = free_field_covariance(lat, math.sqrt(1.0 + q))
    dense_tilted, dense_log_z = tilted_gaussian(twin, q)
    dev = max(
        float(np.abs(tilted.columns - heavier.columns).max() / np.abs(heavier.columns).max()),
        abs(log_z - dense_log_z) / abs(dense_log_z),
    )
    entry("tilted-free-field", dev <= 1e-14, dev, 1e-14)

    # the quadratic density -(q/2) sum_x T_x^2 splits and is even, and it weights the Gaussian
    # into the dense tilt's Gaussian C (I + qC)^-1 of mass Z: a real estimate, within 5 sigma of
    # that closed form; q is off the estimator's tilt grid, so its weights still vary
    phis = random_test_functions(lat, 3, 7)
    quadratic = Potential(tuple(Term(-q / 2, ((x, 2),)) for x in range(lat.site_count)))
    closed = gram_exact_gaussian(dense_tilted, lat, phis).matrix * math.exp(dense_log_z)
    direct = gram_mc_direct(cov, lat, quadratic, phis, McParams(20_000, seed=7))
    delta = np.abs(direct.matrix - closed)
    real = not np.any(direct.matrix.imag)
    within = bool((delta <= 5.0 * direct.stderr).all())
    # entries with stderr 0 count 0 sigma here; within fails them unless they are exact
    sigma = float(np.divide(delta, direct.stderr, out=np.zeros_like(delta), where=direct.stderr > 0).max())
    entry("mc-direct-even-vs-exact", real and within, sigma, 5.0)

    params = McParams(n_samples=1, seed=7, n_outer=256, n_inner=64, share_inner=True)
    fact = gram_mc_factorized(pq, ZERO_POTENTIAL, phis, params)
    gate = min(STRUCTURAL_PSD_FLOOR, -psd_tol)
    entry("factorized-structural-psd", fact.min_eigenvalue >= gate, fact.min_eigenvalue, gate)

    reasons = [e["name"] for e in entries if not e["passed"]]
    return {"selftest": entries}, reasons


def _summarize(report, quiet):
    if quiet:
        return
    print(f"rplattice {report['tool_version']} — {report['command']}")
    checks = report["checks"]
    if "selftest" in checks:
        width = max(len(e["name"]) for e in checks["selftest"])
        for e in checks["selftest"]:
            status = "PASS" if e["passed"] else "FAIL"
            print(f"  {e['name']:<{width}}  {status}  measured={e['measured']}")
    else:
        for name, body in checks.items():
            if body is None:
                print(f"  {name:<24} SKIPPED")
                continue
            # a Gram report carries a verdict, the split is_splitting, every other check passed
            passed = body.get("passed", body.get("is_splitting"))
            status = body["verdict"].upper() if passed is None else "PASS" if passed else "FAIL"
            print(f"  {name:<24} {status}")
    if report["failure_reasons"]:
        print("failure reasons: " + ", ".join(report["failure_reasons"]))
    print(f"overall: {report['verdict'].upper()} (exit {report['exit_code']})")


def _tolerance(text):
    """argparse type: a finite, nonnegative float."""
    try:
        return _checked_tolerance(float(text), "the tolerance")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rplattice",
        description="Reflection-positivity checks on finite theta-symmetric lattices.",
    )
    parser.add_argument("--version", action="version", version=f"rplattice {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True, takes_seed=True):
        if needs_config:
            p.add_argument("--config", required=True, help="experiment config JSON")
        if takes_seed:
            p.add_argument("--seed", type=int, help="override the mc seed from the config")
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--quiet", action="store_true", help="suppress the stdout summary")

    cg = sub.add_parser("check-gaussian", help="exact Gaussian reflection checks")
    common(cg)
    cg.add_argument("--csv-dir", help="dump matrices as CSV into this directory")
    common(sub.add_parser("check-density", help="splitting decision for a density"), takes_seed=False)
    common(sub.add_parser("verify-rp", help="full pipeline incl. Monte Carlo Gram checks"))
    st = sub.add_parser("selftest", help="run the built-in oracle battery")
    common(st, needs_config=False, takes_seed=False)
    st.add_argument("--psd-tol", type=_tolerance, default=DEFAULT_PSD_TOL, help="PSD gate for the battery")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:
        # a bug, not a verdict: never exit 1, the code of a verified failure
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


def _run(args):
    started = time.perf_counter()
    try:
        if args.command == "selftest":
            checks, reasons = cmd_selftest(args.psd_tol)
            echo = {"psd_tol": args.psd_tol}
        else:
            raw = load_config(args.config)
            resolved = resolve_config(
                raw,
                Path(args.config).parent,
                seed_override=getattr(args, "seed", None),
            )
            if args.command == "check-gaussian":
                checks, reasons = cmd_check_gaussian(resolved, csv_dir=args.csv_dir)
            elif args.command == "check-density":
                checks, reasons = cmd_check_density(resolved)
            else:
                checks, reasons = cmd_verify_rp(resolved)
            echo = resolved.echo
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not reasons:
        exit_code = 0
    else:
        exit_code = 3 if set(reasons) == {ILL_CONDITIONED} else 1
    report = {
        "command": args.command,
        "tool_version": __version__,
        "config": echo,
        "checks": checks,
        "failure_reasons": reasons,
        "verdict": VERDICTS[exit_code],
        "exit_code": exit_code,
        "wall_time_s": time.perf_counter() - started,
    }

    if args.out:
        try:
            Path(args.out).write_text(render_report(report), encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    _summarize(report, args.quiet)
    return exit_code


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
