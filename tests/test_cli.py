import json

import numpy as np
import pytest

from abqlab import cli
from abqlab.config import build_problem, expand_matrix, load_config, validate_config
from abqlab.domain import SyntheticIntegrand
from abqlab.exceptions import ConfigError

MINIMAL = {
    "version": "1",
    "seed": 0,
    "domain": {"lower": [0.0], "upper": [1.0]},
    "kernel": {"family": "squared-exponential", "gamma": 0.5},
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
    "budget": 10,
    "grids": {"shared_certificate": True},
}


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_validate_config_reports_field_path():
    bad = dict(MINIMAL)
    bad.pop("seed")
    with pytest.raises(ConfigError, match="seed"):
        validate_config(bad)
    bad = json.loads(json.dumps(MINIMAL))
    bad["kernel"]["family"] = "mystery"
    with pytest.raises(ConfigError, match="kernel/family"):
        validate_config(bad)


def test_load_config_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(ConfigError, match="broken.json:2"):
        load_config(str(path))


def test_expand_matrix_cartesian_product():
    raw = json.loads(json.dumps(MINIMAL))
    raw["matrix"] = {
        "acquisition.b.kind": ["wsabi_l", "wsabi_m", "mmlt"],
        "acquisition.gamma_tilde": [1.0, 0.5],
    }
    combos = expand_matrix(raw)
    assert len(combos) == 6
    tags = [tag for tag, _ in combos]
    assert len(set(tags)) == 6
    for _, cfg in combos:
        assert "matrix" not in cfg
    assert combos[0][1]["acquisition"]["b"]["kind"] == "wsabi_l"


def test_build_problem_resolves_objects():
    problem, spec, selector = build_problem(MINIMAL)
    assert problem.domain.dim == 1
    assert spec.gamma_tilde == 1.0
    assert selector.seed == 0
    X = np.array([[0.2], [0.8]])
    assert np.all(np.isfinite(problem.integrand(X)))


def test_square_alpha_defaults_from_latent_floor():
    raw = json.loads(json.dumps(MINIMAL))
    raw["transform"] = {"kind": "square", "alpha": None}
    raw["mean"] = {"kind": "constant", "value": 5.0}
    problem, _, _ = build_problem(raw)
    assert problem.transform.alpha > 0
    # zero mean: latent touches zero, so the default has no positive floor
    raw["mean"] = {"kind": "constant", "value": 0.0}
    with pytest.raises(ConfigError, match="alpha"):
        build_problem(raw)


def test_cli_run_writes_artifacts_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["run", cfg, "--out", out1]) == 0
    assert cli.main(["run", cfg, "--out", out2]) == 0
    t1 = (tmp_path / "a" / "trace.csv").read_bytes()
    t2 = (tmp_path / "b" / "trace.csv").read_bytes()
    assert t1 == t2
    lines = t1.decode().splitlines()
    assert lines[0] == "# abqlab-trace v1"
    assert lines[1].split(",")[:2] == ["n", "x0"]
    assert len(lines) == 2 + MINIMAL["budget"]
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["schema"] == "abqlab-report v1"
    assert report["iterations"] == MINIMAL["budget"]
    # monotone error column for uncertainty sampling
    e = report["e_series"]
    assert all(b <= a + 1e-12 for a, b in zip(e, e[1:]))


def test_cli_matrix_produces_six_artifact_sets(tmp_path, monkeypatch):
    raw = json.loads(json.dumps(MINIMAL))
    raw["kernel"] = {"family": "matern", "nu": 1.5, "ell": 0.25}
    raw["mean"] = {"kind": "constant", "value": 5.0}
    raw["transform"] = {"kind": "square", "alpha": 2.0}
    raw["budget"] = 5
    raw["matrix"] = {
        "acquisition.b.kind": ["wsabi_l", "wsabi_m", "mmlt"],
        "acquisition.gamma_tilde": [1.0, 0.5],
    }
    monkeypatch.setenv("ABQ_LAB_THREADS", "2")
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "matrix"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    dirs = sorted(p.name for p in out.iterdir())
    assert len(dirs) == 6
    for d in dirs:
        assert (out / d / "trace.csv").exists()
        assert (out / d / "report.json").exists()


def test_cli_exit_code_2_on_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"version": "1"})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exit_code_3_on_non_finite_integrand(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(SyntheticIntegrand, "__call__",
                        lambda self, X: np.full(len(X), np.nan))
    cfg = write_config(tmp_path, MINIMAL)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "non-finite integrand value" in capsys.readouterr().err


def test_cli_run_requires_output_dir(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    assert cli.main(["run", cfg]) == 2


def test_cli_seed_override_changes_nothing_for_fixed_grids(tmp_path):
    # deterministic candidate scheme: the seed only matters for random pools
    cfg = write_config(tmp_path, MINIMAL)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "s1"), "--seed", "9"]) == 0
    report = json.loads((tmp_path / "s1" / "report.json").read_text())
    assert report["config"]["seed"] == 9


def test_cli_rates_refits_from_trace(tmp_path, capsys):
    raw = json.loads(json.dumps(MINIMAL))
    raw["budget"] = 40
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "r")]) == 0
    trace = str(tmp_path / "r" / "trace.csv")
    summary = str(tmp_path / "fits.json")
    assert cli.main(["rates", trace, "--out", summary]) == 0
    out = capsys.readouterr().out
    assert "slope" in out
    fits = json.loads(open(summary).read())
    assert fits[0]["dim"] == 1
    assert fits[0]["fits"]["exponential"]["slope"] < 0


def test_cli_rates_rejects_foreign_csv(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b\n1,2\n")
    assert cli.main(["rates", str(path)]) == 2
