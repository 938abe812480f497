"""Write bench/reference.json: the key values the benchmark's gates compare to.

The values are seed-independent properties of the three problems the
workloads run. The deterministic ones (cross-block and decomposition
eigenvalue floors) are computed exactly as the library computes them; the
weight mean E[exp F] of the criterion-4 density is a long Monte Carlo run
with its standard error. Run from the repository root:

    python3 bench/make_reference.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import rplattice as rp  # noqa: E402

import problems  # noqa: E402

WEIGHT_SAMPLES = 4_000_000
WEIGHT_SEED = 20230801


def exact_values(time_extent, extents, mass):
    lattice = rp.build_lattice(time_extent, extents)
    cov = rp.free_field_covariance(lattice, mass)
    pq = rp.decompose_pq(cov, lattice)
    return {
        "gaussian_rp_min_eigenvalue": rp.check_gaussian_rp(cov, lattice).min_eigenvalue,
        "pq_p_min_eigenvalue": pq.report_p.min_eigenvalue,
        "pq_q_min_eigenvalue": pq.report_q.min_eigenvalue,
    }


def main():
    ref = {}
    for name, (time_extent, extents, mass) in problems.LATTICES.items():
        ref[name] = exact_values(time_extent, extents, mass)
    time_extent, extents, mass = problems.LATTICES["criterion4"]
    lattice = rp.build_lattice(time_extent, extents)
    cov = rp.free_field_covariance(lattice, mass)
    density = rp.potential_from_obj(lattice, problems.phi4_obj(time_extent, extents))
    # With only the zero test function the Gram matrix is the weight mean.
    gram = rp.gram_mc_direct(
        cov, lattice, density, [np.zeros(lattice.site_count)],
        rp.McParams(WEIGHT_SAMPLES, seed=WEIGHT_SEED),
    )
    ref["criterion4"].update(
        weight_mean=float(gram.matrix[0, 0].real),
        weight_mean_stderr=float(gram.stderr[0, 0]),
        weight_samples=WEIGHT_SAMPLES,
        weight_seed=WEIGHT_SEED,
    )
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    out = {"commit": commit, "numpy": np.__version__, "problems": ref}
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(out, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
