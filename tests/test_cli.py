import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rplattice
from rplattice import build_lattice, cli, density, free_field_covariance, gaussian, phi4, potential_to_obj, rp_verify
from rplattice.cli import main, read_matrix_csv, write_matrix_csv


def write_config(path, obj):
    path.write_text(json.dumps(obj, indent=2), encoding="utf-8")
    return str(path)


def load_report(path):
    return json.loads(path.read_text(encoding="utf-8"))


def report_bytes_without_wall_time(path):
    obj = load_report(path)
    obj.pop("wall_time_s")
    return json.dumps(obj, indent=2, sort_keys=True)


def free_field_config(n_samples=20_000, seed=1):
    return {
        "lattice": {"time_extent": 2, "spatial_extents": [4]},
        "covariance": {"kind": "free_field", "mass": 1.0},
        "mc": {"n_samples": n_samples, "seed": seed},
    }


def phi4_density_obj():
    lat = build_lattice(2, [4])
    return potential_to_obj(lat, phi4(lat, 0.1))


def test_check_gaussian_free_field_passes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", free_field_config())
    out = tmp_path / "report.json"
    code = main(["check-gaussian", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    report = load_report(out)
    assert report["verdict"] == "pass"
    assert report["checks"]["theta_invariance"]["passed"]
    assert report["checks"]["gaussian_rp"]["passed"]
    assert report["checks"]["pq_decomposition"]["sum_exact"]
    assert report["checks"]["convolution_identity"]["passed"]
    assert report["config"]["mc"]["n_samples"] == 20_000


def test_check_gaussian_writes_matrix_csvs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", free_field_config(n_samples=5_000))
    csv_dir = tmp_path / "csvs"
    code = main(["check-gaussian", "--config", cfg, "--csv-dir", str(csv_dir), "--quiet"])
    assert code == 0
    cov = read_matrix_csv(csv_dir / "covariance.csv")
    block = read_matrix_csv(csv_dir / "cross_block.csv")
    assert cov.shape == (16, 16)
    assert block.shape == (8, 8)


def test_check_gaussian_flags_non_rp_covariance(tmp_path):
    write_matrix_csv(tmp_path / "cov.csv", np.array([[1.0, -0.5], [-0.5, 1.0]]))
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"time_extent": 1, "spatial_extents": []},
            "covariance": {"kind": "explicit", "matrix_file": "cov.csv"},
            "mc": {"n_samples": 5_000, "seed": 2},
        },
    )
    out = tmp_path / "report.json"
    code = main(["check-gaussian", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 1
    report = load_report(out)
    assert report["verdict"] == "fail"
    assert report["checks"]["gaussian_rp"]["min_eigenvalue"] == pytest.approx(-0.5, abs=1e-12)
    assert "gaussian-rp" in report["failure_reasons"]


def explicit_half_config(tmp_path, a, b):
    """T=1, L=[2] with C = [[A, B], [B, A]] and the zero density, for every command."""
    write_matrix_csv(tmp_path / "cov.csv", np.block([[a, b], [b, a]]))
    return write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"time_extent": 1, "spatial_extents": [2]},
            "covariance": {"kind": "explicit", "matrix_file": "cov.csv"},
            "density": {"terms": [], "constant": 0},
            "mc": {"n_samples": 20_000, "seed": 1, "n_outer": 256, "n_inner": 64},
        },
    )


def test_an_inexact_split_of_psd_summands_passes_both_commands(tmp_path):
    # B/A = -6 off the diagonal, outside the Sterbenz range: c_p + c_q misses A by an ulp
    cfg = explicit_half_config(
        tmp_path, np.array([[1.0, 0.05], [0.05, 1.0]]), np.array([[0.35, -0.3], [-0.3, 0.35]])
    )
    entries = []
    for command in ("check-gaussian", "verify-rp"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
        entries.append(load_report(out)["checks"]["pq_decomposition"])
    assert entries[0]["passed"] is True and entries[0]["sum_exact"] is False
    assert entries[0] == entries[1]


def test_a_non_psd_split_still_fails_check_gaussian(tmp_path):
    cfg = explicit_half_config(tmp_path, np.eye(2), -0.5 * np.eye(2))
    out = tmp_path / "report.json"
    assert main(["check-gaussian", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    report = load_report(out)
    assert "pq-decomposition" in report["failure_reasons"]
    assert report["checks"]["pq_decomposition"]["passed"] is False


def test_a_large_explicit_free_field_passes_check_gaussian(tmp_path):
    # at entries up to 3.3e5, c_q and the cross block differ by 9.1e-12 of rounding,
    # which an absolute 1e-12 gate once failed
    lat = build_lattice(2, [4])
    write_matrix_csv(tmp_path / "cov.csv", free_field_covariance(lat, 1.0).matrix * 1e6)
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"time_extent": 2, "spatial_extents": [4]},
            "covariance": {"kind": "explicit", "matrix_file": "cov.csv"},
        },
    )
    out = tmp_path / "report.json"
    assert main(["check-gaussian", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert load_report(out)["failure_reasons"] == []


def test_check_gaussian_wire_format_keys(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", free_field_config(n_samples=2_000))
    out = tmp_path / "report.json"
    assert main(["check-gaussian", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    checks = load_report(out)["checks"]
    assert set(checks["convolution_identity"]) == {"passed", "max_sigma_deviation", "n_samples", "seed"}
    assert set(checks["pq_decomposition"]) == {"passed", "sum_exact", "p", "q"}


def _count_split_work(monkeypatch, count_linalg):
    """Record decompose_pq calls wherever a module holds it, then eigh and eigvalsh shapes."""
    calls = []
    original = gaussian.decompose_pq

    def counted_split(cov, lattice):
        calls.append(("decompose_pq", None))
        return original(cov, lattice)

    for module in (gaussian, cli, rp_verify):
        if getattr(module, "decompose_pq", None) is original:
            monkeypatch.setattr(module, "decompose_pq", counted_split)
    return count_linalg(("eigh", "eigvalsh"), calls)


@pytest.mark.parametrize("command", ["check-gaussian", "verify-rp"])
def test_each_command_splits_the_half_lattice_once(tmp_path, monkeypatch, count_linalg, command):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            **free_field_config(n_samples=2_000),
            "density": phi4_density_obj(),
            "mc": {"n_samples": 2_000, "seed": 1, "n_outer": 64, "n_inner": 16},
        },
    )
    calls = _count_split_work(monkeypatch, count_linalg)
    assert main([command, "--config", cfg, "--quiet"]) == 0
    half = (8, 8)  # n_plus on T=2, L=[4]
    assert calls.count(("decompose_pq", None)) == 1
    # one batch of 4 spatial momenta, T x T each: the cross block's spectrum alone, then c_p and
    # c_q with their roots; the draws read those roots and decompose nothing themselves
    assert calls.count(("eigvalsh", (4, 2, 2))) == 1
    assert [call for call in calls if call[0] == "eigh"] == [("eigh", (4, 2, 2))] * 2
    assert calls.count(("eigvalsh", half)) == 0


@pytest.mark.parametrize("command", ["check-gaussian", "verify-rp"])
def test_an_explicit_covariance_splits_on_the_dense_blocks(tmp_path, monkeypatch, count_linalg, command):
    # the free field's matrix, given as an explicit covariance, has no column table
    lat = build_lattice(2, [4])
    write_matrix_csv(tmp_path / "cov.csv", free_field_covariance(lat, 1.0).matrix)
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            **free_field_config(n_samples=2_000),
            "covariance": {"kind": "explicit", "matrix_file": "cov.csv"},
            "density": phi4_density_obj(),
            "mc": {"n_samples": 2_000, "seed": 1, "n_outer": 64, "n_inner": 16},
        },
    )
    calls = _count_split_work(monkeypatch, count_linalg)
    # the linalg calls tilted_gaussian makes are named apart
    tilt_calls, tilt = [], rp_verify.tilted_gaussian

    def counted_tilt(cov, q):
        start = len(calls)
        try:
            return tilt(cov, q)
        finally:
            tilt_calls.extend(calls[start:])
            del calls[start:]

    monkeypatch.setattr(rp_verify, "tilted_gaussian", counted_tilt)
    assert main([command, "--config", cfg, "--quiet"]) == 0
    half = (8, 8)
    assert calls.count(("decompose_pq", None)) == 1
    # the cross block's spectrum alone, then c_p and c_q with their roots, and none in the estimator
    assert calls.count(("eigvalsh", half)) == 1
    assert calls.count(("eigh", half)) == 2
    # the dense tilt of c_q takes the Covariance eigh of its c_q', once per non-zero tilt the
    # factorized estimator tries; the direct estimator's tilts of C are 16 x 16, one per non-zero
    # tilt it tries and one more, C'_alpha, the damping of the tilt it picks
    tilts = len(rp_verify._TILT_GRID) - 1 if command == "verify-rp" else 0
    assert tilt_calls.count(("eigh", half)) == tilts
    assert tilt_calls.count(("eigh", (16, 16))) == tilts + (command == "verify-rp")


def _reject_constant(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


def test_a_zero_gate_with_no_difference_gives_a_finite_gate_ratio(tmp_path):
    # with independent inner draws and zero density, the zero function's entries are exactly 1 in
    # both estimates: gate 0 and difference 0, which once made max_gate_ratio Infinity
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            **free_field_config(),
            "density": potential_to_obj(build_lattice(2, [4]), rplattice.ZERO_POTENTIAL),
            "mc": {"n_samples": 2_000, "seed": 1, "n_outer": 64, "n_inner": 16, "share_inner": False},
        },
    )
    out = tmp_path / "report.json"
    assert main(["verify-rp", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    agreement = report["checks"]["estimator_agreement"]
    assert agreement["passed"] and 0.0 <= agreement["max_gate_ratio"] <= 1.0


def test_a_zero_standard_error_that_misses_is_written_as_null(tmp_path):
    # C = [[0, e], [e, 0]] is PSD within psd_tol; its split draws y with variance e at a
    # site of variance 0, so the joint-law entry has standard error 0 and misses by about e
    write_matrix_csv(tmp_path / "cov.csv", np.array([[0.0, 5e-11], [5e-11, 0.0]]))
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"time_extent": 1, "spatial_extents": []},
            "covariance": {"kind": "explicit", "matrix_file": "cov.csv"},
            "mc": {"n_samples": 1_000, "seed": 0},
        },
    )
    out = tmp_path / "report.json"
    assert main(["check-gaussian", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    report = json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    assert report["checks"]["convolution_identity"]["max_sigma_deviation"] is None
    assert not report["checks"]["convolution_identity"]["passed"]
    assert report["failure_reasons"] == ["convolution-identity"]


def test_a_zero_gate_with_a_difference_writes_a_null_gate_ratio(tmp_path, monkeypatch):
    # the zero function's entries have standard error 0 in both estimates; shifting the
    # factorized estimate gives them a difference at gate 0, which has no finite ratio
    def shifted(*args, **kwargs):
        rep = rp_verify.gram_mc_factorized(*args, **kwargs)
        return dataclasses.replace(rep, matrix=rep.matrix + 1e-3)

    monkeypatch.setattr(cli, "gram_mc_factorized", shifted)
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            **free_field_config(),
            "density": potential_to_obj(build_lattice(2, [4]), rplattice.ZERO_POTENTIAL),
            "mc": {"n_samples": 2_000, "seed": 1, "n_outer": 64, "n_inner": 16, "share_inner": False},
        },
    )
    out = tmp_path / "report.json"
    assert main(["verify-rp", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    report = json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    agreement = report["checks"]["estimator_agreement"]
    assert agreement["max_gate_ratio"] is None and not agreement["passed"]
    assert report["failure_reasons"] == ["estimator-agreement"]


def test_reports_are_strict_json():
    with pytest.raises(ValueError):
        cli.render_report({"max_gate_ratio": float("inf")})
    with pytest.raises(ValueError):
        cli.render_report({"value": np.float64("nan")})


def test_numpy_scalars_are_written_as_their_python_values():
    assert cli.render_report({"count": np.int64(3), "flag": np.bool_(True)}) == '{\n  "count": 3,\n  "flag": true\n}\n'


def test_an_object_json_cannot_hold_is_a_type_error():
    with pytest.raises(TypeError, match="^object is not JSON serializable$"):
        cli.render_report({"value": object()})


def test_malformed_config_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["check-gaussian", "--config", str(bad), "--quiet"]) == 2
    assert main(["check-gaussian", "--config", str(tmp_path / "missing.json"), "--quiet"]) == 2
    cfg = write_config(tmp_path / "nolattice.json", {"covariance": {"kind": "free_field", "mass": 1.0}})
    assert main(["check-gaussian", "--config", cfg, "--quiet"]) == 2


def test_explicit_matrix_shape_mismatch_exits_two(tmp_path):
    write_matrix_csv(tmp_path / "cov.csv", np.eye(3))
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"time_extent": 1, "spatial_extents": []},
            "covariance": {"kind": "explicit", "matrix_file": "cov.csv"},
        },
    )
    assert main(["check-gaussian", "--config", cfg, "--quiet"]) == 2


# explicit covariances whose draws' second moments overflow binary64, or that are not finite
OVERFLOWING_COVARIANCES = {
    "diagonal-1e308": ("1e308,0\n0,1e308\n", "too large"),
    "full-1e308": ("1e308,1e308\n1e308,1e308\n", "too large"),
    "diagonal-1e200": ("1e200,0\n0,1e200\n", "too large"),
    "infinite": ("inf,0\n0,1\n", "must be finite"),
}


@pytest.mark.parametrize("with_out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("csv, reason", OVERFLOWING_COVARIANCES.values(), ids=OVERFLOWING_COVARIANCES.keys())
def test_overflowing_explicit_covariance_exits_two_with_one_line(tmp_path, capsys, csv, reason, with_out):
    (tmp_path / "cov.csv").write_text(csv, encoding="utf-8")
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"time_extent": 1, "spatial_extents": []},
            "covariance": {"kind": "explicit", "matrix_file": "cov.csv"},
            "mc": {"n_samples": 1_000, "seed": 0},
        },
    )
    out = tmp_path / "report.json"
    argv = ["check-gaussian", "--config", cfg, "--quiet"] + (["--out", str(out)] if with_out else [])
    assert main(argv) == 2  # tests fail on warnings, so none was raised on the way
    err = capsys.readouterr().err
    assert err.startswith("error: invalid covariance: ") and reason in err and err.count("\n") == 1, err
    assert not out.exists()


def test_explicit_test_functions_must_have_positive_support(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"time_extent": 1, "spatial_extents": []},
            "covariance": {"kind": "free_field", "mass": 1.0},
            "density": {"terms": [], "constant": 0},
            "test_functions": {"kind": "explicit", "vectors": [[1.0, 0.0]]},
            "mc": {"n_samples": 1000, "seed": 0},
        },
    )
    assert main(["verify-rp", "--config", cfg, "--quiet"]) == 2


def test_check_density_phi4_emits_witness(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"time_extent": 2, "spatial_extents": [4]},
            "density": phi4_density_obj(),
        },
    )
    out = tmp_path / "report.json"
    code = main(["check-density", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    report = load_report(out)
    witness = report["checks"]["split"]["witness"]
    assert witness is not None
    assert len(witness["terms"]) == 8
    assert all(t["coefficient"] == -0.1 for t in witness["terms"])
    assert all(t["factors"][0]["site"][0] >= 1 for t in witness["terms"])


def test_check_density_rejects_cross_plane_coupling(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"time_extent": 1, "spatial_extents": []},
            "density": {
                "terms": [
                    {
                        "coefficient": 0.7,
                        "factors": [
                            {"site": [-1], "power": 1},
                            {"site": [1], "power": 1},
                        ],
                    }
                ],
                "constant": 0,
            },
        },
    )
    out = tmp_path / "report.json"
    code = main(["check-density", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 1
    report = load_report(out)
    assert report["failure_reasons"] == ["split:mixed-support"]


def test_check_density_rejects_one_sided_quartic(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"time_extent": 1, "spatial_extents": []},
            "density": {
                "terms": [{"coefficient": -1, "factors": [{"site": [1], "power": 4}]}],
                "constant": 0,
            },
        },
    )
    code = main(["check-density", "--config", cfg, "--quiet"])
    assert code == 1


def _density_obj(terms, constant=0):
    """Config form of a density on a lattice with one spatial axis: terms as (coefficient, ((t, x, power), ...))."""
    return {
        "terms": [
            {"coefficient": c, "factors": [{"site": [t, x], "power": p} for t, x, p in factors]}
            for c, factors in terms
        ],
        "constant": constant,
    }


_PHI4_TERMS = [(-0.1, ((t, x, 4),)) for t in (-2, -1, 1, 2) for x in range(4)]
# criterion 4's lattice; name -> (density, exit code)
CHECK_DENSITY_CASES = {
    "phi4": (_density_obj(_PHI4_TERMS), 0),
    # a two-site product with an odd power in each half and a nonzero constant: the witness has
    # multi-factor terms, each renamed from half indices back to sites when it is written
    "split-products": (
        _density_obj(
            [(0.5, ((s, 0, 1), (2 * s, 1, 3))) for s in (1, -1)]
            + [(-0.25, ((s, 3, 2), (2 * s, 2, 2))) for s in (1, -1)]
            + [(0.125, ((s, 2, 1),)) for s in (1, -1)],
            0.75,
        ),
        0,
    ),
    # -1.2 sum_x T(1, x) T(-1, x) plus phi^4: four terms across the plane
    "mixed-support": (_density_obj([(-1.2, ((1, x, 1), (-1, x, 1))) for x in range(4)] + _PHI4_TERMS), 1),
    # mirrored coefficients that disagree, and a two-site term on the positive half alone
    "unmatched-mirror": (
        _density_obj([(-0.1, ((1, 0, 4),)), (-0.2, ((-1, 0, 4),)), (0.3, ((2, 1, 1), (1, 2, 1)))]),
        1,
    ),
}
# sha256 of each check-density report without its wall_time_s line; the reports are symbolic and
# read no BLAS, so the bytes are the same at every thread count
CHECK_DENSITY_DIGESTS = {
    "phi4": "2202f8c35c50830d0d78f3386953474a69d15aebe62045a7719c9ec2d5261a98",
    "split-products": "af61be32ba26084fc0d00aea4cd71027f4d07616b0a4c50da06f733dcbbd37de",
    "mixed-support": "175108ef5d7995299a552ef8b225cd588b10733a031b13df1fe55537c10c5e53",
    "unmatched-mirror": "d01695355ba6656ff425873a00af8e65ad7e6ec2678408a6ffc39115610142af",
}


@pytest.mark.parametrize("name", sorted(CHECK_DENSITY_CASES))
def test_check_density_report_bytes_are_pinned(tmp_path, name):
    density_obj, code = CHECK_DENSITY_CASES[name]
    cfg = write_config(
        tmp_path / "cfg.json", {"lattice": {"time_extent": 2, "spatial_extents": [4]}, "density": density_obj}
    )
    out = tmp_path / "report.json"
    assert main(["check-density", "--config", cfg, "--out", str(out), "--quiet"]) == code
    lines = out.read_bytes().splitlines(keepends=True)
    body = b"".join(line for line in lines if not line.lstrip().startswith(b'"wall_time_s"'))
    assert len(body) < sum(map(len, lines))
    assert hashlib.sha256(body).hexdigest() == CHECK_DENSITY_DIGESTS[name]


def test_verify_rp_full_pipeline_passes(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"time_extent": 2, "spatial_extents": [4]},
            "covariance": {"kind": "free_field", "mass": 1.0},
            "density": phi4_density_obj(),
            "test_functions": {"kind": "random", "count": 2, "seed": 6},
            "mc": {"n_samples": 20_000, "seed": 1, "n_outer": 1_000, "n_inner": 200},
        },
    )
    out = tmp_path / "report.json"
    code = main(["verify-rp", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    report = load_report(out)
    checks = report["checks"]
    assert checks["gram_direct"]["verdict"] in ("pass", "inconclusive")
    assert checks["gram_factorized"]["min_eigenvalue"] >= -1e-10
    assert checks["structural_psd"]["passed"]
    assert checks["estimator_agreement"]["passed"]


def test_verify_rp_stops_at_split_gate(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"time_extent": 1, "spatial_extents": []},
            "covariance": {"kind": "free_field", "mass": 1.0},
            "density": {
                "terms": [
                    {
                        "coefficient": 0.3,
                        "factors": [
                            {"site": [-1], "power": 1},
                            {"site": [1], "power": 1},
                        ],
                    }
                ],
                "constant": 0,
            },
            "mc": {"n_samples": 100_000, "seed": 0},
        },
    )
    out = tmp_path / "report.json"
    code = main(["verify-rp", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 1
    report = load_report(out)
    assert report["failure_reasons"] == ["split:mixed-support"]
    # the gate ordering spares the Monte Carlo budget
    assert "gram_direct" not in report["checks"]


def test_verify_rp_stops_at_gaussian_gate(tmp_path):
    write_matrix_csv(tmp_path / "cov.csv", np.array([[1.0, -0.5], [-0.5, 1.0]]))
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"time_extent": 1, "spatial_extents": []},
            "covariance": {"kind": "explicit", "matrix_file": "cov.csv"},
            "density": {"terms": [], "constant": 0},
            "mc": {"n_samples": 100_000, "seed": 0},
        },
    )
    out = tmp_path / "report.json"
    code = main(["verify-rp", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 1
    report = load_report(out)
    assert report["failure_reasons"] == ["gaussian-gate"]
    assert "split" not in report["checks"]


def test_reports_are_byte_identical_modulo_wall_time(tmp_path):
    cfg_obj = {
        "lattice": {"time_extent": 1, "spatial_extents": []},
        "covariance": {"kind": "free_field", "mass": 1.0},
        "density": {
            "terms": [
                {"coefficient": -0.2, "factors": [{"site": [-1], "power": 4}]},
                {"coefficient": -0.2, "factors": [{"site": [1], "power": 4}]},
            ],
            "constant": 0,
        },
        "test_functions": {"kind": "random", "count": 2, "seed": 3},
        "mc": {"n_samples": 10_000, "seed": 5, "n_outer": 400, "n_inner": 100},
    }
    cfg = write_config(tmp_path / "cfg.json", cfg_obj)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify-rp", "--config", cfg, "--out", str(out_a), "--quiet"]) == 0
    assert main(["verify-rp", "--config", cfg, "--out", str(out_b), "--quiet"]) == 0
    assert report_bytes_without_wall_time(out_a) == report_bytes_without_wall_time(out_b)


def test_seed_override_is_echoed(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", free_field_config(n_samples=2_000, seed=1))
    out = tmp_path / "report.json"
    assert main(["check-gaussian", "--config", cfg, "--out", str(out), "--seed", "99", "--quiet"]) == 0
    assert load_report(out)["config"]["mc"]["seed"] == 99


@pytest.mark.parametrize("override", [2.7, True], ids=["fraction", "bool"])
def test_a_seed_override_that_is_not_an_integer_is_refused(tmp_path, override):
    # never truncated to 2 or read as 1
    raw = free_field_config(n_samples=2_000, seed=1)
    with pytest.raises(cli.ConfigError, match="^invalid mc section: seed must be an integer"):
        cli.resolve_config(raw, tmp_path, seed_override=override)


def test_selftest_passes_and_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["selftest", "--out", str(out_a), "--quiet"]) == 0
    assert main(["selftest", "--out", str(out_b), "--quiet"]) == 0
    assert report_bytes_without_wall_time(out_a) == report_bytes_without_wall_time(out_b)


def _selftest_entry(name):
    checks, _ = cli.cmd_selftest()
    return next(e for e in checks["selftest"] if e["name"] == name)


def test_selftest_checks_an_even_direct_estimate_against_the_closed_form(monkeypatch):
    entry = _selftest_entry("mc-direct-even-vs-exact")
    assert entry["passed"] and 0.0 < entry["measured"] <= entry["gate"] == 5.0

    def off_by(shift, imag=0.0):
        def estimate(*args, **kwargs):
            rep = rp_verify.gram_mc_direct(*args, **kwargs)
            return dataclasses.replace(rep, matrix=rep.matrix + shift * rep.stderr + 1j * imag)
        return estimate

    # six standard errors off, or a nonzero imaginary part, fails the entry
    monkeypatch.setattr(cli, "gram_mc_direct", off_by(6.0))
    assert not _selftest_entry("mc-direct-even-vs-exact")["passed"]
    monkeypatch.setattr(cli, "gram_mc_direct", off_by(0.0, imag=1e-300))
    assert not _selftest_entry("mc-direct-even-vs-exact")["passed"]


def test_selftest_checks_free_field_draws_against_the_dense_factor(monkeypatch):
    entry = _selftest_entry("sampler-momentum-vs-dense")
    assert entry["passed"] and 0.0 < entry["measured"] <= entry["gate"] == 1e-14
    draw = gaussian.Covariance.draw
    monkeypatch.setattr(gaussian.Covariance, "draw", lambda cov, rng, count: draw(cov, rng, count) * (1.0 + 1e-13))
    assert not _selftest_entry("sampler-momentum-vs-dense")["passed"]


def test_selftest_checks_the_free_field_basis_against_c(monkeypatch):
    # draws and factor share the basis; two swapped columns of different momenta move both alike
    basis = gaussian._real_fourier_basis

    def swapped(n):
        columns, momenta = basis(n)
        return (columns[:, [1, 0, *range(2, n)]] if n > 1 else columns), momenta

    monkeypatch.setattr(gaussian, "_real_fourier_basis", swapped)
    assert not _selftest_entry("sampler-momentum-vs-dense")["passed"]


def test_selftest_checks_the_split_draws_against_c_p_and_c_q(monkeypatch):
    entry = _selftest_entry("split-momentum-vs-dense")
    assert entry["passed"] and 0.0 < entry["measured"] <= entry["gate"] == 1e-14
    psd_root = gaussian._psd_root

    def perturbed(blocks, tol):
        report, root = psd_root(blocks, tol)
        return report, root * (1.0 + 1e-13)

    # draws and factor share the perturbed root, so only F F^T against the split can see it
    monkeypatch.setattr(gaussian, "_psd_root", perturbed)
    assert not _selftest_entry("split-momentum-vs-dense")["passed"]


def test_selftest_checks_the_polynomial_closed_form_against_the_quadratic_derivative(monkeypatch):
    entry = _selftest_entry("gaussian-polynomial-closed-form")
    assert entry["passed"] and 0.0 <= entry["measured"] <= entry["gate"] == 1e-12
    exact = gaussian.gaussian_polynomial_gram
    monkeypatch.setattr(cli, "gaussian_polynomial_gram", lambda *args: exact(*args) * (1.0 + 1e-11))
    assert not _selftest_entry("gaussian-polynomial-closed-form")["passed"]


@pytest.mark.parametrize("part", ["table", "log_z"])
def test_selftest_checks_the_tilt_per_momentum(monkeypatch, part):
    entry = _selftest_entry("tilted-free-field")
    assert entry["passed"] and 0.0 <= entry["measured"] <= entry["gate"] == 1e-14
    exact = gaussian.tilted_gaussian

    def off(cov, q):
        tilted, log_z = exact(cov, q)
        if cov.momentum_roots is None:
            return tilted, log_z
        if part == "log_z":
            return tilted, log_z * (1.0 + 1e-13)
        return gaussian.Covariance.from_columns(tilted.columns * (1.0 + 1e-13), tilted.momentum_roots), log_z

    monkeypatch.setattr(cli, "tilted_gaussian", off)
    assert not _selftest_entry("tilted-free-field")["passed"]


def test_selftest_with_zero_tolerance_reports_failures(tmp_path):
    out = tmp_path / "report.json"
    code = main(["selftest", "--psd-tol", "0", "--out", str(out), "--quiet"])
    assert code == 1
    report = load_report(out)
    assert report["failure_reasons"]
    assert any(not e["passed"] for e in report["checks"]["selftest"])


def test_matrix_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(9)
    m = rng.standard_normal((5, 7))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    assert np.array_equal(read_matrix_csv(path), m)


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--seed", "5"],
        ["selftest", "--csv-dir", "CSV"],
        ["selftest", "--seed", "5", "--csv-dir", "CSV"],
        ["check-density", "--config", "CFG", "--csv-dir", "CSV"],
        ["verify-rp", "--config", "CFG", "--csv-dir", "CSV"],
        ["selftest", "--psd-tol", "nan"],
        ["selftest", "--psd-tol", "inf"],
        ["selftest", "--psd-tol", "-1"],
        ["check-density", "--config", "CFG", "--seed", "5"],
        ["check-gaussian", "--config", "NO-MC", "--seed", "5", "--csv-dir", "CSV"],
    ],
    ids=["selftest-seed", "selftest-csv-dir", "selftest-both", "check-density-csv-dir", "verify-rp-csv-dir",
         "selftest-psd-tol-nan", "selftest-psd-tol-inf", "selftest-psd-tol-negative", "check-density-seed",
         "check-gaussian-seed-without-mc"],
)
def test_flags_a_subcommand_does_not_use_are_usage_errors(tmp_path, capsys, argv):
    config = free_field_config(n_samples=1_000)
    cfg = write_config(tmp_path / "cfg.json", config)
    # a seed has nothing to override without an mc section; this is known only once the config is read
    no_mc = write_config(tmp_path / "no-mc.json", {key: config[key] for key in ("lattice", "covariance")})
    csv_dir = tmp_path / "csvs"
    given = {"CSV": str(csv_dir), "CFG": cfg, "NO-MC": no_mc}
    argv = [given.get(a, a) for a in argv]
    try:
        code = main(argv + ["--quiet"])
    except SystemExit as exc:  # argparse rejects the flags it knows a subcommand lacks
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err.count("error:") == 1
    assert not csv_dir.exists()


NAN, INF = float("nan"), float("inf")

MALFORMED_CONFIGS = {
    "psd_tol-not-a-number": {"tolerances": {"psd_tol": "abc"}},
    "seed-not-a-number": {"mc": {"n_samples": 1_000, "seed": "x"}},
    "tolerances-not-an-object": {"tolerances": []},
    "psd_tol-nan": {"tolerances": {"psd_tol": float("nan")}},
    "n_samples-not-a-number": {"mc": {"n_samples": "many"}},
    "mc-not-an-object": {"mc": []},
    "mass-not-a-number": {"covariance": {"kind": "free_field", "mass": "heavy"}},
    "n_samples-fractional": {"mc": {"n_samples": 1000.9}},
    "seed-fractional": {"mc": {"n_samples": 1_000, "seed": 1.5}},
    "n_inner-boolean": {"mc": {"n_samples": 1_000, "n_inner": True}},
    "time_extent-fractional": {"lattice": {"time_extent": 2.7, "spatial_extents": [4]}},
    "spatial_extent-fractional": {"lattice": {"time_extent": 2, "spatial_extents": [4.9]}},
    "density-site-fractional": {
        "density": {"terms": [{"coefficient": -0.1, "factors": [{"site": [1, 0.7], "power": 4}]}]}
    },
    "density-not-an-object": {"density": [{"coefficient": -0.1}]},
    "density-site-too-many-coordinates": {
        "density": {"terms": [{"coefficient": -0.1, "factors": [{"site": [1, 0, 0], "power": 4}]}]}
    },
    "density-site-time-zero": {
        "density": {"terms": [{"coefficient": -0.1, "factors": [{"site": [0, 0], "power": 4}]}]}
    },
    "density-site-time-beyond-extent": {
        "density": {"terms": [{"coefficient": -0.1, "factors": [{"site": [-3, 0], "power": 4}]}]}
    },
    "density-site-spatial-out-of-range": {
        "density": {"terms": [{"coefficient": -0.1, "factors": [{"site": [1, 4], "power": 4}]}]}
    },
    "density-power-fractional": {
        "density": {"terms": [{"coefficient": -0.1, "factors": [{"site": [1, 0], "power": 2.9}]}]}
    },
    "share_inner-string": {"mc": {"n_samples": 1_000, "share_inner": "false"}},
    "mass-boolean": {"covariance": {"kind": "free_field", "mass": True}},
    "psd_tol-boolean": {"tolerances": {"psd_tol": True}},
    "invariance_tol-boolean": {"tolerances": {"invariance_tol": True}},
    "density-coefficient-boolean": {
        "density": {"terms": [{"coefficient": True, "factors": [{"site": [1, 0], "power": 4}]}]}
    },
    "density-constant-boolean": {"density": {"terms": [], "constant": False}},
    "seed-numeric-string": {"mc": {"n_samples": 1_000, "seed": "5"}},
    "n_samples-numeric-string": {"mc": {"n_samples": "1000"}},
    "time_extent-numeric-string": {"lattice": {"time_extent": "2", "spatial_extents": [4]}},
    "spatial_extent-numeric-string": {"lattice": {"time_extent": 2, "spatial_extents": ["4"]}},
    "density-power-numeric-string": {
        "density": {"terms": [{"coefficient": -0.1, "factors": [{"site": [1, 0], "power": "4"}]}]}
    },
    "test_functions-count-numeric-string": {"test_functions": {"kind": "random", "count": "4"}},
    # json.loads reads NaN and Infinity; a 16-site vector that is zero on the negative half
    "test_functions-nan": {"test_functions": {"kind": "explicit", "vectors": [[0.0] * 8 + [NAN] + [0.0] * 7]}},
    "test_functions-infinity": {"test_functions": {"kind": "explicit", "vectors": [[0.0] * 8 + [INF] + [0.0] * 7]}},
    "test_functions-entry-string": {"test_functions": {"kind": "explicit", "vectors": [[0.0] * 8 + ["1"] + [0.0] * 7]}},
    "test_functions-entry-bool": {"test_functions": {"kind": "explicit", "vectors": [[0.0] * 8 + [True] + [0.0] * 7]}},
    "density-coefficient-nan": {
        "density": {"terms": [{"coefficient": NAN, "factors": [{"site": [1, 0], "power": 4}]}]}
    },
    "density-constant-infinity": {"density": {"terms": [], "constant": INF}},
    "mass-nan": {"covariance": {"kind": "free_field", "mass": NAN}},
    "mass-infinity": {"covariance": {"kind": "free_field", "mass": INF}},
    "matrix_file-number": {"covariance": {"kind": "explicit", "matrix_file": 5}},
    "matrix_file-list": {"covariance": {"kind": "explicit", "matrix_file": ["a"]}},
    "mc-without-n_samples": {"mc": {"seed": 1}},
    "free_field-without-mass": {"covariance": {"kind": "free_field"}},
    "covariance-kind-unknown": {"covariance": {"kind": "wishart", "mass": 1.0}},
    "test_functions-count-zero": {"test_functions": {"kind": "random", "count": 0}},
    "test_functions-vectors-empty": {"test_functions": {"kind": "explicit", "vectors": []}},
    "test_functions-vectors-not-a-list": {"test_functions": {"kind": "explicit", "vectors": {"0": [0.0] * 16}}},
    "test_functions-kind-unknown": {"test_functions": {"kind": "fourier"}},
}


@pytest.mark.parametrize("override", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
def test_malformed_config_values_exit_two_with_one_line(tmp_path, capsys, override):
    cfg = write_config(tmp_path / "cfg.json", {**free_field_config(n_samples=1_000), **override})
    out = tmp_path / "report.json"
    assert main(["check-gaussian", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


TWO_SITES = {"lattice": {"time_extent": 1, "spatial_extents": []}}
EXPLICIT_TWO_SITES = {**TWO_SITES, "covariance": {"kind": "explicit", "matrix_file": "cov.csv"}}
# name -> (command, config: an object, or JSON text that is not one; cov.csv's text or None; the error)
MALFORMED_INPUTS = {
    "config-not-an-object": ("check-gaussian", "[1, 2]", None, "must be a JSON object"),
    "matrix-ragged": ("check-gaussian", EXPLICIT_TWO_SITES, "1,0.5\n0.5\n", "is ragged or empty"),
    "matrix-non-numeric": ("check-gaussian", EXPLICIT_TWO_SITES, "1,0.5\n0.5,x\n", "has a non-numeric entry"),
    "check-gaussian-without-covariance": ("check-gaussian", TWO_SITES, None, "needs a 'covariance' section"),
    "check-density-without-density": ("check-density", TWO_SITES, None, "needs a 'density' section"),
    "verify-rp-without-sections": (
        "verify-rp",
        {**TWO_SITES, "covariance": {"kind": "free_field", "mass": 1.0}},
        None,
        "needs 'covariance', 'density' and 'mc' sections",
    ),
}


@pytest.mark.parametrize("command, config, csv, message", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_inputs_exit_two_with_one_line(tmp_path, capsys, command, config, csv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    if csv is not None:
        (tmp_path / "cov.csv").write_text(csv, encoding="utf-8")
    out = tmp_path / "report.json"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("reader", ["config", "matrix_file"])
def test_an_input_file_that_is_not_utf8_exits_two_with_one_line(tmp_path, capsys, reader):
    # bytes a UTF-8 decoder rejects, at the start of the config or of an explicit covariance's CSV
    config = {
        "lattice": {"time_extent": 1, "spatial_extents": []},
        "covariance": {"kind": "explicit", "matrix_file": "cov.csv"},
    }
    csv = b"1,0.5\n0.5,1\n"
    cfg = tmp_path / "cfg.json"
    cfg_bytes = json.dumps(config).encode("utf-8")
    cfg.write_bytes(b"\xff\xfe" + cfg_bytes if reader == "config" else cfg_bytes)
    (tmp_path / "cov.csv").write_bytes(b"\xff\xfe" + csv if reader == "matrix_file" else csv)
    out = tmp_path / "report.json"
    assert main(["check-gaussian", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize(
    "time_extent, extents, mass",
    [
        pytest.param(2, [3], 1e-200, id="1e-200"),
        pytest.param(2, [3], 1e-9, id="1e-09"),
        # the Cholesky succeeds, but the table misses the inverse by 2.6e13; this used to exit 1
        pytest.param(2, [4], 2e-8, id="T2-L4-2e-08"),
    ],
)
@pytest.mark.parametrize("command", ["check-gaussian", "verify-rp"])
def test_singular_free_field_exits_two_with_one_line(tmp_path, capsys, command, time_extent, extents, mass):
    # each mass is too small for binary64 to invert -laplacian + mass^2 on its lattice
    lat = build_lattice(time_extent, extents)
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"time_extent": time_extent, "spatial_extents": extents},
            "covariance": {"kind": "free_field", "mass": mass},
            "density": potential_to_obj(lat, phi4(lat, 0.1)),
            "mc": {"n_samples": 1_000, "seed": 0},
        },
    )
    out = tmp_path / "report.json"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid covariance: mass {mass} is too small: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_integral_floats_count_as_integers(tmp_path):
    as_ints = free_field_config(n_samples=5_000)
    as_floats = {
        **as_ints,
        "lattice": {"time_extent": 2.0, "spatial_extents": [4.0]},
        "mc": {"n_samples": 5e3, "seed": 1.0},
    }
    bodies = []
    for name, cfg in (("ints", as_ints), ("floats", as_floats)):
        out = tmp_path / f"{name}.json"
        assert main(["check-gaussian", "--config", write_config(tmp_path / f"{name}-cfg.json", cfg),
                     "--out", str(out), "--quiet"]) == 0
        bodies.append(report_bytes_without_wall_time(out))
    assert bodies[0] == bodies[1]


def test_verify_rp_reports_overflowing_weights(tmp_path):
    runaway = [{"coefficient": 1000, "factors": [{"site": [t], "power": 2}]} for t in (1, -1)]
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"time_extent": 1, "spatial_extents": []},
            "covariance": {"kind": "free_field", "mass": 1.0},
            "density": {"terms": runaway, "constant": 0},
            "mc": {"n_samples": 1_000, "seed": 0},
        },
    )
    out = tmp_path / "report.json"
    # an unusable estimate is not a verified failure: exit 3, not 1
    assert main(["verify-rp", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    report = load_report(out)
    assert report["failure_reasons"] == ["ill-conditioned-weights"]
    assert report["checks"]["gram_direct"] is None
    assert (report["verdict"], report["exit_code"]) == ("inconclusive", 3)


def _raise_in_the_estimator(*args, **kwargs):
    raise RuntimeError("estimator bug")


_RENAMED = density._renamed


def _renamed_with_a_shifted_constant(p, index):
    # every renaming adds 1 to the constant, so the witness's two renamed halves miss the density's
    renamed = _RENAMED(p, index)
    return density.Potential(renamed.terms, renamed.constant + 1.0)


# a two-site verify-rp run that passes every check in well under a second
SMALL_VERIFY_RP = {
    **TWO_SITES,
    "covariance": {"kind": "free_field", "mass": 1.0},
    "density": {"terms": [], "constant": 0},
    "mc": {"n_samples": 1_000, "seed": 0, "n_outer": 64, "n_inner": 16},
}
RUNAWAY_DENSITY = {
    "terms": [{"coefficient": 1000, "factors": [{"site": [t], "power": 2}]} for t in (1, -1)],
    "constant": 0,
}
CRITERION_4 = {"lattice": {"time_extent": 2, "spatial_extents": [4]}, "density": phi4_density_obj()}
# name -> (config overrides, or None for a missing config; (module, name, replacement) to patch, or None;
# exit code; stderr)
EXIT_CASES = {
    "missing-config": (None, None, 2, "error: cannot read config "),
    "malformed-value": ({"mc": {"n_samples": "1000"}}, None, 2, "error: invalid mc section: n_samples must be an integer"),
    "ill-conditioned-weights": ({"density": RUNAWAY_DENSITY}, None, 3, ""),
    # one direct sample, or one outer draw: no error to gate on or to compare the estimators with, where a
    # fail read as stable and exited 1, and one shared outer draw, PSD by construction, exited 0
    "one-direct-sample": (
        {**CRITERION_4, "mc": {"n_samples": 1, "seed": 0, "n_outer": 64, "n_inner": 16}},
        None,
        3,
        "",
    ),
    "one-outer-draw": (
        {**CRITERION_4, "mc": {"n_samples": 1_000, "seed": 0, "n_outer": 1, "n_inner": 16, "share_inner": False}},
        None,
        3,
        "",
    ),
    "one-shared-outer-draw": (
        {**CRITERION_4, "mc": {"n_samples": 1_000, "seed": 0, "n_outer": 1, "n_inner": 16}},
        None,
        3,
        "",
    ),
    "internal-error": (
        {},
        (cli, "gram_mc_direct", _raise_in_the_estimator),
        4,
        "internal error: RuntimeError('estimator bug')",
    ),
    "witness-rebuild-misses": (
        {},
        (density, "_renamed", _renamed_with_a_shifted_constant),
        4,
        "internal error: AssertionError('witness reconstruction failed to reproduce the density exactly')",
    ),
}


@pytest.mark.parametrize("overrides, patch, code, err", EXIT_CASES.values(), ids=EXIT_CASES.keys())
def test_exit_codes_keep_errors_apart_from_verified_failures(tmp_path, capsys, monkeypatch, overrides, patch, code, err):
    cfg = str(tmp_path / "missing.json")
    if overrides is not None:
        cfg = write_config(tmp_path / "cfg.json", {**SMALL_VERIFY_RP, **overrides})
    if patch is not None:
        monkeypatch.setattr(*patch)
    out = tmp_path / "report.json"
    assert main(["verify-rp", "--config", cfg, "--out", str(out), "--quiet"]) == code
    stderr = capsys.readouterr().err
    if err:
        # one line, and no report: nothing was verified
        assert stderr.startswith(err) and stderr.count("\n") == 1, stderr
        assert not out.exists()
    else:
        report = load_report(out)
        assert stderr == "" and (report["exit_code"], report["verdict"]) == (code, "inconclusive")


@pytest.mark.parametrize("name, stage", [("one-direct-sample", "gram_direct"), ("one-shared-outer-draw", "gram_factorized")])
def test_an_estimate_of_one_sample_is_written_inconclusive(tmp_path, name, stage):
    # one direct sample at seed 8 clears its gate, and one shared outer draw is PSD by construction:
    # each entry read pass before an estimate of fewer than two samples became inconclusive
    overrides = dict(EXIT_CASES[name][0], mc={**EXIT_CASES[name][0]["mc"], "seed": 8})
    cfg = write_config(tmp_path / "cfg.json", {**SMALL_VERIFY_RP, **overrides})
    out = tmp_path / "report.json"
    assert main(["verify-rp", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    report = load_report(out)
    assert report["checks"][stage]["verdict"] == "inconclusive"
    assert report["failure_reasons"] == [stage.replace("_", "-") + "-too-few-samples"]


def test_summary_names_the_verdict_and_the_failure_reasons(tmp_path, capsys):
    write_matrix_csv(tmp_path / "cov.csv", np.array([[1.0, -0.5], [-0.5, 1.0]]))
    failing = write_config(
        tmp_path / "fail.json",
        {
            "lattice": {"time_extent": 1, "spatial_extents": []},
            "covariance": {"kind": "explicit", "matrix_file": "cov.csv"},
            "density": {"terms": [], "constant": 0},
            "mc": {"n_samples": 1_000, "seed": 0},
        },
    )
    passing = write_config(tmp_path / "pass.json", free_field_config(n_samples=1_000))

    assert main(["check-gaussian", "--config", passing]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("rplattice ") and lines[0].endswith("check-gaussian")
    assert "  gaussian_rp              PASS" in lines
    assert lines[-1] == "overall: PASS (exit 0)"
    assert not any(line.startswith("failure reasons:") for line in lines)

    assert main(["verify-rp", "--config", failing]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  gaussian_rp              FAIL" in lines
    assert lines[-2:] == ["failure reasons: gaussian-gate", "overall: FAIL (exit 1)"]


BLAS_THREAD_CONFIGS = {
    "check-gaussian": {
        "lattice": {"time_extent": 4, "spatial_extents": [8]},
        "covariance": {"kind": "free_field", "mass": 0.5},
        "mc": {"n_samples": 100_000, "seed": 1},
    },
    "verify-rp": {
        "lattice": {"time_extent": 2, "spatial_extents": [4]},
        "covariance": {"kind": "free_field", "mass": 1.0},
        "density": phi4_density_obj(),
        "test_functions": {"kind": "random", "count": 4, "seed": 2024},
        "mc": {"n_samples": 200_000, "seed": 1, "n_outer": 256, "n_inner": 64},
    },
}


@pytest.mark.parametrize(
    "command, one_cpu",
    [
        pytest.param(command, one_cpu, id=command + ("-one-cpu" if one_cpu else ""))
        for one_cpu in (False, True)
        for command in BLAS_THREAD_CONFIGS
    ],
)
def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, command, one_cpu):
    # second moments are BLAS matrix products; a thread split of their sums would show here,
    # and so would a factorized run whose worker thread shares a single CPU with the draws
    if one_cpu and not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is not available")
    cfg = write_config(tmp_path / "cfg.json", BLAS_THREAD_CONFIGS[command])
    src = str(Path(rplattice.__file__).resolve().parents[1])
    runs = [("1", None), ("2", None)]
    if one_cpu:
        cpu = {min(os.sched_getaffinity(0))}
        runs = [("1", None), ("1", cpu), ("2", cpu)]
    digests = set()
    for i, (threads, cpus) in enumerate(runs):
        out = tmp_path / f"report-{i}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "rplattice.cli", command, "--config", cfg, "--out", str(out), "--quiet"],
            env=env, capture_output=True, text=True,
            preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_bytes().splitlines(keepends=True)
        body = b"".join(line for line in lines if not line.lstrip().startswith(b'"wall_time_s"'))
        assert len(body) < sum(map(len, lines))
        digests.add(hashlib.sha256(body).hexdigest())
    assert len(digests) == 1


def test_verify_rp_echoes_explicit_test_functions(tmp_path):
    lat = build_lattice(1, [])
    vectors = [rplattice.embed_plus(lat, [0.7]).tolist(), [0.0, 0.0]]
    cfg = write_config(
        tmp_path / "cfg.json", {**SMALL_VERIFY_RP, "test_functions": {"kind": "explicit", "vectors": vectors}}
    )
    out = tmp_path / "report.json"
    assert main(["verify-rp", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = load_report(out)
    assert report["config"]["test_functions"] == {"kind": "explicit", "vectors": vectors}
    assert np.shape(report["checks"]["gram_direct"]["matrix_re"]) == (2, 2)


@pytest.mark.parametrize("invariance_tol, code", [(1e-7, 1), (1e-5, 0)], ids=["beyond", "within"])
def test_check_gaussian_flags_a_covariance_that_is_not_theta_invariant(tmp_path, invariance_tol, code):
    # theta swaps the two sites, and their variances differ by 1e-6
    write_matrix_csv(tmp_path / "cov.csv", np.array([[1.0, 0.2], [0.2, 1.0 + 1e-6]]))
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            **EXPLICIT_TWO_SITES,
            "tolerances": {"invariance_tol": invariance_tol},
            "mc": {"n_samples": 1_000, "seed": 0},
        },
    )
    out = tmp_path / "report.json"
    assert main(["check-gaussian", "--config", cfg, "--out", str(out), "--quiet"]) == code
    report = load_report(out)
    assert report["checks"]["theta_invariance"]["passed"] == (code == 0)
    if code:
        assert report["failure_reasons"][0] == "theta-invariance"
        assert report["checks"]["gaussian_rp"]["failure_kind"] == "not-theta-invariant"


def test_an_ill_conditioned_factorized_estimate_after_a_usable_direct_one_exits_three(tmp_path, monkeypatch):
    def overflow(*args):
        raise rp_verify.IllConditionedWeightsError("the weighted moments overflowed")

    monkeypatch.setattr(cli, "gram_mc_factorized", overflow)
    cfg = write_config(tmp_path / "cfg.json", SMALL_VERIFY_RP)
    out = tmp_path / "report.json"
    assert main(["verify-rp", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    report = load_report(out)
    assert report["checks"]["gram_direct"]["verdict"] == "pass"
    assert report["checks"]["gram_factorized"] is None
    assert "estimator_agreement" not in report["checks"]
    assert (report["failure_reasons"], report["verdict"]) == (["ill-conditioned-weights"], "inconclusive")


def test_an_ill_conditioned_estimate_is_summarized_as_skipped(tmp_path, monkeypatch, capsys):
    def overflow(*args):
        raise rp_verify.IllConditionedWeightsError("the weighted moments overflowed")

    monkeypatch.setattr(cli, "gram_mc_factorized", overflow)
    cfg = write_config(tmp_path / "cfg.json", SMALL_VERIFY_RP)
    assert main(["verify-rp", "--config", cfg]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert f"  {'gram_factorized':<24} SKIPPED" in lines
    assert lines[-2:] == ["failure reasons: ill-conditioned-weights", "overall: INCONCLUSIVE (exit 3)"]


def test_a_split_that_is_not_psd_stops_verify_rp_before_the_factorized_estimate(tmp_path, monkeypatch):
    split = gaussian.decompose_pq

    def failing_split(cov, lattice):
        pq = split(cov, lattice)
        return dataclasses.replace(pq, report_q=dataclasses.replace(pq.report_q, passed=False))

    monkeypatch.setattr(cli, "decompose_pq", failing_split)
    cfg = write_config(tmp_path / "cfg.json", SMALL_VERIFY_RP)
    out = tmp_path / "report.json"
    assert main(["verify-rp", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    report = load_report(out)
    assert report["checks"]["gram_direct"]["verdict"] == "pass"
    assert not report["checks"]["pq_decomposition"]["passed"]
    assert "gram_factorized" not in report["checks"] and "estimator_agreement" not in report["checks"]
    assert report["failure_reasons"] == ["pq-decomposition"]


def test_a_shared_estimate_below_the_structural_floor_is_its_own_reason(tmp_path, monkeypatch):
    estimate = rp_verify.gram_mc_factorized
    monkeypatch.setattr(
        cli, "gram_mc_factorized", lambda *args: dataclasses.replace(estimate(*args), min_eigenvalue=-1e-9)
    )
    cfg = write_config(tmp_path / "cfg.json", SMALL_VERIFY_RP)
    out = tmp_path / "report.json"
    assert main(["verify-rp", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    report = load_report(out)
    assert report["checks"]["structural_psd"] == {"passed": False, "min_eigenvalue": -1e-9, "floor": -1e-10}
    assert report["checks"]["estimator_agreement"]["passed"]
    assert report["failure_reasons"] == ["structural-psd"]


def test_the_structural_floor_is_the_psd_tolerance(tmp_path, monkeypatch):
    estimate = rp_verify.gram_mc_factorized
    monkeypatch.setattr(
        cli, "gram_mc_factorized", lambda *args: dataclasses.replace(estimate(*args), min_eigenvalue=-5e-9)
    )
    cfg = write_config(tmp_path / "cfg.json", {**SMALL_VERIFY_RP, "tolerances": {"psd_tol": 1e-8}})
    out = tmp_path / "report.json"
    assert main(["verify-rp", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = load_report(out)
    assert report["checks"]["structural_psd"] == {"passed": True, "min_eigenvalue": -5e-9, "floor": -1e-8}


def test_draws_whose_controls_overflow_exit_three_with_nothing_on_stderr(tmp_path):
    # C = 1e80 I on four sites: the run exited 4 on a LinAlgError, after LAPACK printed on stdout
    write_matrix_csv(tmp_path / "cov.csv", 1e80 * np.eye(4))
    quartic = [{"coefficient": -0.1, "factors": [{"site": [t], "power": 4}]} for t in (-2, -1, 1, 2)]
    cfg = write_config(tmp_path / "cfg.json", {
        "lattice": {"time_extent": 2, "spatial_extents": []},
        "covariance": {"kind": "explicit", "matrix_file": "cov.csv"},
        "density": {"terms": quartic},
        "mc": {"n_samples": 2000, "seed": 1, "n_outer": 64, "n_inner": 16},
    })
    out = tmp_path / "report.json"
    src = str(Path(rplattice.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "rplattice.cli", "verify-rp", "--config", cfg, "--out", str(out), "--quiet"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "")
    assert load_report(out)["failure_reasons"] == ["ill-conditioned-weights"]


@pytest.mark.parametrize("estimator", ["direct", "factorized"])
def test_a_stable_fail_of_either_estimate_is_its_own_reason(tmp_path, monkeypatch, estimator):
    estimate = getattr(rp_verify, f"gram_mc_{estimator}")
    monkeypatch.setattr(cli, f"gram_mc_{estimator}", lambda *args: dataclasses.replace(estimate(*args), verdict="fail"))
    cfg = write_config(tmp_path / "cfg.json", SMALL_VERIFY_RP)
    out = tmp_path / "report.json"
    assert main(["verify-rp", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    report = load_report(out)
    assert report["checks"][f"gram_{estimator}"]["verdict"] == "fail"
    assert report["failure_reasons"] == [f"gram-{estimator}-stable-fail"]
    # the stage reports the fail and the pipeline goes on to the agreement check
    assert report["checks"]["estimator_agreement"]["passed"]


def test_out_into_a_missing_directory_exits_two_with_one_line(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {**TWO_SITES, "density": {"terms": [], "constant": 0}})
    out = tmp_path / "missing" / "report.json"
    assert main(["check-density", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report: ") and err.count("\n") == 1, err
    assert not out.parent.exists()


def test_selftest_summary_has_one_line_per_entry(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["selftest", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    entries = load_report(out)["checks"]["selftest"]
    assert lines[0].endswith(" — selftest") and lines[-1] == "overall: PASS (exit 0)"
    assert len(lines) == len(entries) + 2
    for line, entry in zip(lines[1:-1], entries):
        assert line.split(None, 2) == [entry["name"], "PASS", f"measured={entry['measured']}"]
