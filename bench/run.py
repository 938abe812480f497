"""Time-to-verdict benchmark for rplattice.

Runs one workload in this process, checks every invocation's output, and
prints as its last stdout line one JSON object with the keys "correct",
"attempted", "failed" and "metrics":

    python3 bench/run.py --workload rp_direct --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics: setup_s, verdict_s (the median
gated invocation), peak_rss_mb and eig_error_bound. --trace 1 first times untraced invocations, then installs
the span tracer of tracing.py and reports the per-layer metrics.
--workload all runs every workload in its own process, one after another,
and prints one table with error_rate = failed / attempted added.
Workloads and gates are described in bench/NOTES.md.
"""

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import problems
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
# Deterministic key values must match bench/reference.json this closely;
# the eigenvalue scale of every covariance here is at most 1/mass^2 = 4.
EIG_TOL = 1e-10
SIGMAS = 5.0

PER_LAYER_SPANS = [f"{module}.{fn}" for module, fn, _ in tracing.SPANNED] + ["streams.substream"]
SELF_TIMED = ["rp_verify.gram_mc_direct", "rp_verify.gram_mc_factorized"]
PER_LAYER_COUNTS = [
    "streams.substream.draws",
    "gaussian.sample.draws",
    "density.eval_potential_batch.rows",
]


def load_rplattice():
    """Import rplattice from src/ of this checkout; returns (package, import seconds)."""
    src = ROOT / "src"
    if not (src / "rplattice" / "__init__.py").is_file():
        raise SystemExit(f"error: no rplattice package under {src}")
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import rplattice
    import rplattice.cli

    elapsed = time.perf_counter() - started
    if src.resolve() not in Path(rplattice.__file__).resolve().parents:
        raise SystemExit(f"error: imported rplattice from {rplattice.__file__}, not {src}")
    return rplattice, elapsed


def load_reference():
    return json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))["problems"]


def near(value, ref, tol):
    return abs(float(value) - float(ref)) <= tol


def within_sigmas(value, ref, stderr, ref_stderr, allowance=0.0):
    gate = SIGMAS * math.hypot(stderr, ref_stderr) + allowance
    return abs(float(value) - float(ref)) <= gate


def sha256(*buffers):
    h = hashlib.sha256()
    for b in buffers:
        h.update(b)
    return h.hexdigest()


def weyl_eig_bound(time_extent, extents, mass, cov_matrix, block=256):
    """Bound on the cross-block eigenvalue error of a computed free-field covariance.

    C_true = (-Laplacian + m^2)^-1 has spectral norm 1/m^2, so
    ||C - C_true||_2 <= ||(-Laplacian + m^2) C - I||_F / m^2, and by Weyl's
    inequality no eigenvalue of the cross block (a submatrix of C) moves by
    more. The operator is applied here as a stencil on the (2T, L1, ...) grid,
    independently of the library's assembly: a path in time with open ends,
    rings in space.
    """
    n = cov_matrix.shape[0]
    shape = (2 * time_extent, *extents)
    total = 0.0
    for j0 in range(0, n, block):
        x = cov_matrix[:, j0:j0 + block].reshape(*shape, -1)
        y = mass * mass * x
        y[1:] += x[1:] - x[:-1]
        y[:-1] += x[:-1] - x[1:]
        for axis, extent in enumerate(extents, start=1):
            if extent > 1:
                y += 2.0 * x - np.roll(x, 1, axis) - np.roll(x, -1, axis)
        y = y.reshape(n, -1)
        width = y.shape[1]
        y[np.arange(j0, j0 + width), np.arange(width)] -= 1.0
        total += float(np.einsum("ij,ij->", y, y))
    return math.sqrt(total) / (mass * mass)


@dataclasses.dataclass
class Outcome:
    """What the gate found for one invocation."""

    found: list
    digest: str | None = None
    eig_bound: float | None = None
    report_bytes: int = 0


class CliWorkload:
    """rplattice.cli.main on a generated config, one mc seed per invocation."""

    def __init__(self, lib, name, command, lattice, mc, sweep, isolates=None):
        self.lib = lib
        self.name = name
        self.command = command
        self.problem = lattice
        self.mc = mc
        self.sweep = sweep
        self.isolates = isolates  # the Gram estimator whose eig_error_bound is reported
        self.reference = load_reference()[lattice]
        self.eig_bound = None

    def prepare(self, seed, workdir):
        time_extent, extents, mass = problems.LATTICES[self.problem]
        config = {
            "lattice": {"time_extent": time_extent, "spatial_extents": extents},
            "covariance": {"kind": "free_field", "mass": mass},
            "mc": dict(self.mc, seed=0),
        }
        if self.command == "verify-rp":
            config["density"] = problems.phi4_obj(time_extent, extents)
            config["test_functions"] = {
                "kind": "random", "count": 4, "seed": problems.TEST_FUNCTION_SEED,
            }
        self.config_path = workdir / f"{self.name}.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.out_path = workdir / f"{self.name}-report.json"
        self.seeds = [1000 * seed + j for j in range(self.sweep)]

    def invoke(self, index):
        self.out_path.unlink(missing_ok=True)
        return self.lib.cli.main([
            self.command, "--config", str(self.config_path), "--seed", str(self.seeds[index]),
            "--out", str(self.out_path), "--quiet",
        ])

    def check(self, code, index):
        data = self.out_path.read_bytes()
        report = json.loads(data)
        found = []
        if code != 0 or report["exit_code"] != 0 or report["verdict"] != "pass":
            found.append(f"exit {code}, failure reasons {report['failure_reasons']}")
        if report["command"] != self.command:
            found.append(f"report is for {report['command']}")
        checks = report["checks"]
        ref = self.reference
        for key in ("theta_invariance", "gaussian_rp"):
            if not checks[key]["passed"]:
                found.append(f"{key} failed")
        if not near(checks["gaussian_rp"]["min_eigenvalue"], ref["gaussian_rp_min_eigenvalue"], EIG_TOL):
            found.append(f"cross-block floor {checks['gaussian_rp']['min_eigenvalue']!r} off reference")
        pq = checks["pq_decomposition"]
        for half in ("p", "q"):
            if not near(pq[half]["min_eigenvalue"], ref[f"pq_{half}_min_eigenvalue"], EIG_TOL):
                found.append(f"pq {half} floor {pq[half]['min_eigenvalue']!r} off reference")
        gate = self.check_verify_rp if self.command == "verify-rp" else self.check_gaussian
        eig_bound = gate(checks, index, found)
        without_wall_time, n = re.subn(rb'\n  "wall_time_s": [^\n]*', b"", data)
        if n != 1:
            found.append("report has no single wall_time_s line")
        return Outcome(found, sha256(without_wall_time), eig_bound, len(data))

    def check_gaussian(self, checks, index, found):
        for key in ("pq_decomposition", "convolution_identity"):
            if not checks[key]["passed"]:
                found.append(f"{key} failed")
        if not checks["pq_decomposition"]["sum_exact"]:
            found.append("c_p + c_q != A")
        conv = checks["convolution_identity"]
        if (conv["n_samples"], conv["seed"]) != (self.mc["n_samples"], self.seeds[index]):
            found.append(f"convolution identity ran {conv['n_samples']} samples, seed {conv['seed']}")
        if self.eig_bound is None:
            time_extent, extents, mass = problems.LATTICES[self.problem]
            lattice = self.lib.build_lattice(time_extent, extents)
            cov = self.lib.free_field_covariance(lattice, mass)
            self.eig_bound = weyl_eig_bound(time_extent, extents, mass, cov.matrix)
        return self.eig_bound

    def check_verify_rp(self, checks, index, found):
        for key in ("structural_psd", "estimator_agreement", "pq_decomposition"):
            if not checks[key]["passed"]:
                found.append(f"{key} failed")
        if not checks["split"]["is_splitting"]:
            found.append("phi^4 density did not split")
        ref = self.reference
        for key, allowance in (("gram_direct", 0.0), ("gram_factorized", 2.0 / self.mc["n_inner"])):
            gram = checks[key]
            if gram["verdict"] == "fail":
                found.append(f"{key} verdict fail")
            if gram["seed"] != self.seeds[index]:
                found.append(f"{key} ran seed {gram['seed']}")
            # The last test function is zero, so the last diagonal entry is E[exp F].
            if not within_sigmas(
                gram["matrix_re"][-1][-1], ref["weight_mean"], gram["stderr"][-1][-1],
                ref["weight_mean_stderr"], allowance,
            ):
                found.append(f"{key} weight mean {gram['matrix_re'][-1][-1]!r} off reference")
        return checks[self.isolates]["eig_error_bound"]


class DenseWorkload:
    """The exact decision at N = 2304 through the library's public functions."""

    name = "exact_dense"
    problem = "dense"
    sweep = 2
    draws = 2048

    def __init__(self, lib):
        self.lib = lib
        self.reference = load_reference()[self.problem]
        self.cov_digest = None
        self.eig_bound = None

    def prepare(self, seed, workdir):
        self.seeds = [1000 * seed + j for j in range(self.sweep)]

    def invoke(self, index):
        time_extent, extents, mass = problems.LATTICES[self.problem]
        lib = self.lib
        lattice = lib.build_lattice(time_extent, extents)
        cov = lib.free_field_covariance(lattice, mass)
        inv = lib.check_theta_invariance(cov, lattice)
        rpr = lib.check_gaussian_rp(cov, lattice)
        pq = lib.decompose_pq(cov, lattice)
        sum_exact = bool(np.array_equal(pq.c_p + pq.c_q, pq.a_block))
        draws = lib.sample(cov, self.draws, self.seeds[index])
        verdict = inv.passed and rpr.passed and sum_exact and pq.both_psd
        return lattice, cov, inv, rpr, pq, sum_exact, draws, verdict

    def check(self, result, index):
        lattice, cov, inv, rpr, pq, sum_exact, draws, verdict = result
        ref = self.reference
        found = []
        if not verdict:
            found.append(
                f"verdict fail: invariance {inv.passed}, rp {rpr.passed}, "
                f"sum exact {sum_exact}, both psd {pq.both_psd}"
            )
        if not near(rpr.min_eigenvalue, ref["gaussian_rp_min_eigenvalue"], EIG_TOL):
            found.append(f"cross-block floor {rpr.min_eigenvalue!r} off reference")
        for half, report in (("p", pq.report_p), ("q", pq.report_q)):
            if not near(report.min_eigenvalue, ref[f"pq_{half}_min_eigenvalue"], EIG_TOL):
                found.append(f"pq {half} floor {report.min_eigenvalue!r} off reference")
        x = draws.configs
        if x.shape != (self.draws, lattice.site_count) or not np.isfinite(x).all():
            found.append(f"samples have shape {x.shape} or are not finite")
        else:
            found += self.check_moments(lattice, cov, x)
        cov_digest = sha256(cov.matrix)
        if self.cov_digest is None:
            self.cov_digest = cov_digest
            time_extent, extents, mass = problems.LATTICES[self.problem]
            self.eig_bound = weyl_eig_bound(time_extent, extents, mass, cov.matrix)
        elif cov_digest != self.cov_digest:
            found.append("covariance differs between invocations")
        digest = sha256(
            cov_digest.encode(), pq.c_p, pq.c_q, x,
            repr((inv, rpr, pq.report_p, pq.report_q)).encode(),
        )
        return Outcome(found, digest, self.eig_bound)

    def check_moments(self, lattice, cov, x):
        """E|T|^2 = trace C and E<T+, theta T+> = trace B, each within 5 standard errors."""
        plus, mirror = lattice.plus_sites, lattice.theta_perm[lattice.plus_sites]
        norms, cross = [], []
        for r0 in range(0, x.shape[0], 256):
            rows = x[r0:r0 + 256]
            norms.append(np.einsum("ij,ij->i", rows, rows))
            cross.append(np.einsum("ij,ij->i", rows[:, plus], rows[:, mirror]))
        found = []
        targets = (
            ("trace C", np.concatenate(norms), np.trace(cov.matrix)),
            ("trace B", np.concatenate(cross), float(cov.matrix[plus, mirror].sum())),
        )
        for label, values, target in targets:
            stderr = values.std(ddof=1) / math.sqrt(values.size)
            if abs(values.mean() - target) > SIGMAS * stderr:
                found.append(f"{label}: sample mean {values.mean():.6g} vs {target:.6g}")
        return found


def make_workload(name, lib):
    if name == "rp_direct":
        mc = {"n_samples": 200_000, "n_outer": 256, "n_inner": 64}
        return CliWorkload(lib, name, "verify-rp", "criterion4", mc, sweep=10, isolates="gram_direct")
    if name == "rp_factorized":
        mc = {"n_samples": 4096, "n_outer": 2048, "n_inner": 1000}
        return CliWorkload(lib, name, "verify-rp", "criterion4", mc, sweep=4, isolates="gram_factorized")
    if name == "gaussian_check":
        mc = {"n_samples": 100_000}
        # One seed per run: each distinct seed is an independent 5-sigma test of
        # 2080 moments, which by the Gaussian tail a correct free field fails
        # about once in 800 tries; repeats of the seed are compared bit for bit.
        return CliWorkload(lib, name, "check-gaussian", "criterion1", mc, sweep=1)
    return DenseWorkload(lib)


WORKLOADS = ("rp_direct", "rp_factorized", "gaussian_check", "exact_dense")


class Run:
    """Invocations of one workload with their gates; invocation i uses seed i mod sweep."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.digests = {}
        self.eig_bound = 0.0
        self.report_bytes = []

    def once(self, slot, tracer=None):
        """Time one invocation, then gate it; returns (seconds, passed)."""
        wl = self.workload
        index = slot % wl.sweep
        started = time.perf_counter()
        try:
            if tracer is None:
                result = wl.invoke(index)
            else:
                with tracer.invocation(self.attempted):
                    result = wl.invoke(index)
            elapsed = time.perf_counter() - started
            outcome = wl.check(result, index)
            del result
        except Exception as exc:  # an invocation that crashes counts as failed
            elapsed = time.perf_counter() - started
            outcome = Outcome([f"{type(exc).__name__}: {exc}"])
        if outcome.digest is not None:
            if self.digests.setdefault(index, outcome.digest) != outcome.digest:
                outcome.found.append("output differs from an earlier run with the same seed")
        if outcome.eig_bound is not None:
            self.eig_bound = max(self.eig_bound, outcome.eig_bound)
        self.report_bytes.append(outcome.report_bytes)
        self.attempted += 1
        if outcome.found:
            self.failed += 1
            self.messages.append(f"invocation {self.attempted - 1} (seed {wl.seeds[index]}): "
                                 + "; ".join(outcome.found))
        return elapsed, not outcome.found

    def measure(self, seconds, first_slot, tracer=None):
        """Invocations for at least ``seconds`` and one full seed sweep.

        Returns the times of the invocations that passed their gate (all
        times if none did, so a failed run still reports a number) and the
        next slot.
        """
        passing, failing = [], []
        started = time.perf_counter()
        slot = first_slot
        while slot - first_slot < self.workload.sweep or time.perf_counter() - started < seconds:
            elapsed, passed = self.once(slot, tracer)
            (passing if passed else failing).append(elapsed)
            slot += 1
        return passing or failing, slot


def setup(run, seed, workdir, import_s):
    """Median over SETUP_REPEATS of import + input generation + one untimed warm-up call."""
    totals = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        run.workload.prepare(seed, workdir)
        prepared = time.perf_counter() - started
        warm, _ = run.once(0)
        totals.append(import_s + prepared + warm)
    return statistics.median(totals)


def end_to_end(run, seconds, setup_s):
    times, _ = run.measure(seconds, first_slot=0)
    print(f"verdict_s over {len(times)} invocations: median {statistics.median(times):.4f} s, "
          f"fastest {min(times):.4f} s, slowest {max(times):.4f} s")
    return {
        "setup_s": (setup_s, "s"),
        "verdict_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "eig_error_bound": (run.eig_bound, "1"),
    }


def per_layer(run, seconds, trace_path):
    untraced, slot = run.measure(seconds / 2.0, first_slot=0)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    first_traced = run.attempted
    traced, _ = run.measure(seconds / 2.0, first_slot=slot, tracer=tracer)
    n = run.attempted - first_traced
    tracer.dump(trace_path)
    seconds_by, self_by, counts, top_level = tracing.layer_totals(tracer)
    metrics = {}
    for name in PER_LAYER_SPANS:
        metrics[f"{name}.s"] = (seconds_by.get(name, 0.0) / n, "s")
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (self_by.get(name, 0.0) / n, "s")
    for key in PER_LAYER_COUNTS:
        metrics[key] = (counts.get(key, 0) / n, "count")
    metrics["cli.report_bytes"] = (statistics.mean(run.report_bytes[first_traced:]), "bytes")
    for routine in tracing.LINALG:
        calls = sum(1 for _, r, _ in tracer.linalg if r == routine)
        metrics[f"linalg.{routine}.calls"] = (calls / n, "count")
    dims = [d for _, _, d in tracer.linalg]
    metrics["linalg.max_dim"] = (max(dims, default=0), "count")
    metrics["linalg.flops_computed"] = (sum(float(d) ** 3 for d in dims) / n, "flop")
    metrics["trace.coverage"] = (top_level / n / statistics.median(untraced), "ratio")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    print(f"traced {n} invocations after {len(untraced)} untraced ones; spans in {trace_path}")
    return metrics


def openblas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    sources = sorted((ROOT / "src" / "rplattice").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": openblas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": sha256(*(p.read_bytes() for p in sources)),
    }


def run_workload(args):
    lib, import_s = load_rplattice()
    print("env " + json.dumps(environment(), sort_keys=True))
    run = Run(make_workload(args.workload, lib))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        setup_s = setup(run, args.seed, workdir, import_s)
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics = per_layer(run, args.seconds, trace_path)
        else:
            metrics = end_to_end(run, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in run.messages[:10]:
        print("FAILED " + message)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} error_rate {run.failed}/{run.attempted} invocations")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }


def run_all(args):
    """Every workload in a fresh process of its own, one after another; prints one table."""
    rows = []
    correct = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            correct = False
            continue
        if not rows:
            print(lines[0])  # the env line
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        for metric, body in result["metrics"].items():
            rows.append((name, metric, f"{body['value']:.6g}", body["unit"]))
        rows.append((name, "error_rate", f"{result['failed'] / result['attempted']:.6g}",
                     f"of {result['attempted']}"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)] if rows else []
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return 0 if run_all(args) else 1
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
