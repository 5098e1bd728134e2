"""End-to-end acceptance gate: ten empirical criteria, one test each.

Every test prints a single pass/fail line so `pytest -v -s` (or the raw
`pytest -v` verbose listing) shows one status per criterion. Expected
values come from the independent oracles in `abqlab.verify`; nothing here
re-tunes tolerances at run time.
"""

import json
import time

import pytest

from abqlab import cli, verify


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} {detail}".rstrip())


@pytest.fixture(scope="module")
def matrix_runs():
    return verify.matrix_runs()


def test_criterion_01_projection_identity_oracle():
    start = time.perf_counter()
    ok, detail = verify.check_projection_identity()
    elapsed = time.perf_counter() - start
    report("criterion-01 projection identity",
           ok and elapsed < 30,
           f"max_rel_err={detail['max_relative_error']:.2e} t={elapsed:.1f}s")
    assert ok, detail
    assert elapsed < 30


def test_criterion_02_outer_function_concavity():
    ok, detail = verify.check_psi_inequality()
    report("criterion-02 outer-function concavity constant", ok,
           f"max_violation={detail['max_violation']:.2e}")
    assert ok, detail


def test_criterion_03_weak_greedy_certificates(matrix_runs):
    start = time.perf_counter()
    ok, detail = verify.check_certificates(matrix_runs)
    elapsed = time.perf_counter() - start
    worst = min(r["min_ratio"] - r["gamma_hat"] for r in detail["runs"])
    report("criterion-03 weak-greedy certificates",
           ok and elapsed < 120,
           f"runs={len(detail['runs'])} worst_margin={worst:.2e} t={elapsed:.1f}s")
    assert ok, detail
    assert len(detail["runs"]) == 8
    assert elapsed < 120


def test_criterion_04_quadrature_error_bound():
    ok, detail = verify.check_error_bound()
    worst = max(r["max_lhs_over_rhs"] for r in detail["runs"])
    report("criterion-04 quadrature error bound", ok,
           f"runs={len(detail['runs'])} max_lhs/rhs={worst:.3f}")
    assert ok, detail
    assert len(detail["runs"]) == 15  # 5 integrands x 3 transforms


def test_criterion_05_rate_form_infinite_smoothness():
    start = time.perf_counter()
    ok, detail = verify.check_rate_infinite()
    elapsed = time.perf_counter() - start
    report("criterion-05 rate form (infinitely smooth kernel)",
           ok and elapsed < 60,
           f"d1_R2={detail['d1']['r_squared']:.3f} "
           f"d2_R2={detail['d2']['r_squared']:.3f} t={elapsed:.1f}s")
    assert detail["d1"]["r_squared"] >= 0.95, detail
    assert detail["d1"]["slope"] < 0
    assert detail["d2"]["r_squared"] >= 0.90, detail
    assert detail["d2"]["slope"] < 0
    assert elapsed < 60


def test_criterion_06_rate_form_finite_smoothness():
    ok, detail = verify.check_rate_finite()
    report("criterion-06 rate form (finite smoothness)", ok,
           f"slope={detail['slope']:.3f} (required <= -1.2)")
    assert detail["slope"] <= -1.2, detail


def test_criterion_07_weak_adaptivity_envelopes(matrix_runs):
    ok, detail = verify.check_adaptivity_envelopes(matrix_runs)
    report("criterion-07 weak-adaptivity envelopes", ok,
           f"runs={len(detail['runs'])}")
    assert ok, detail


def test_criterion_08_moment_estimator_against_monte_carlo():
    ok, detail = verify.check_moment_estimator()
    report("criterion-08 closed-form moments vs Monte Carlo", ok,
           f"worst_sigma={detail['worst_sigma']:.2f} "
           f"identity_gap={detail['identity_gap']:.1e}")
    assert detail["worst_sigma"] <= 3.0, detail
    assert detail["identity_gap"] <= 1e-12, detail


def test_criterion_09_byte_identical_reruns(tmp_path):
    raw = {
        "version": "1",
        "seed": 0,
        "domain": {"lower": [0.0], "upper": [1.0]},
        "kernel": {"family": "matern", "nu": 1.5, "ell": 0.25},
        "mean": {"kind": "constant", "value": 0.0},
        "transform": {"kind": "identity"},
        "integrand": {"kind": "builtin", "name": "two-bumps"},
        "pi": {"kind": "uniform"},
        "acquisition": {
            "outer": {"kind": "power", "delta": 1.0},
            "q": {"kind": "uniform"},
            "b": {"kind": "constant", "value": 1.0},
            "gamma_tilde": 1.0,
        },
        "budget": 12,
        "grids": {"certificate": 512},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "r1")]) == 0
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "r2")]) == 0
    t1 = (tmp_path / "r1" / "trace.csv").read_bytes()
    t2 = (tmp_path / "r2" / "trace.csv").read_bytes()
    ok = t1 == t2
    report("criterion-09 byte-identical rerun", ok, f"bytes={len(t1)}")
    assert ok


def test_criterion_10_squared_mean_inconsistency_finding():
    ok, detail = verify.check_inconsistency_caveat()
    report("criterion-10 squared-mean weighting stalls without envelope", ok,
           f"stall_factor={detail['stall_factor_observed']:.1f} "
           f"envelope_absent={detail['envelope_absent']}")
    assert detail["envelope_absent"], detail
    assert ok, detail
