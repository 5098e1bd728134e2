import copy
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abqlab import BLAS_THREAD_VARIABLES, analysis, cli, config, engine, runner, verify
from abqlab.config import (CONFIG_SCHEMA, build_problem, expand_matrix, load_config,
                           validate_config)
from abqlab.domain import Domain, SyntheticIntegrand, rkhs_norm
from abqlab.exceptions import ConfigError, NumericalDegradationError

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
    "grids": {"certificate": 512},
}


def box_config(dim, budget):
    """The benchmark's run config in `dim` dimensions: Matern 2.5, constant
    mean 5 under the square warp, WSABI-M, default grids, and
    three kernel bumps fixed by the dimension."""
    rng = np.random.default_rng(dim)
    return {
        "version": "1", "seed": 0,
        "domain": {"lower": [0.0] * dim, "upper": [1.0] * dim},
        "kernel": {"family": "matern", "nu": 2.5, "ell": 0.3},
        "mean": {"kind": "constant", "value": 5.0},
        "transform": {"kind": "square", "alpha": 2.0},
        "integrand": {"kind": "synthetic",
                      "centers": rng.uniform(0.05, 0.95, (3, dim)).tolist(),
                      "weights": rng.uniform(-0.4, 0.4, 3).tolist()},
        "pi": {"kind": "uniform"},
        "acquisition": {"outer": {"kind": "power", "delta": 1.0},
                        "q": {"kind": "uniform"}, "b": {"kind": "wsabi_m"},
                        "gamma_tilde": 1.0},
        "budget": budget,
    }


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_validate_config_reports_field_path():
    bad = dict(MINIMAL)
    bad.pop("budget")
    with pytest.raises(ConfigError, match="<root>: 'budget' is a required property"):
        validate_config(bad)
    seedless = dict(MINIMAL)
    seedless.pop("seed")  # no run reads the seed, so it may be left out
    validate_config(seedless)
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


@st.composite
def matrix_axes(draw):
    """A matrix block of 1 to 3 axes over distinct config keys, each axis
    1 to 3 distinct values."""
    keys = draw(st.lists(st.sampled_from(["seed", "budget", "acquisition.gamma_tilde",
                                          "kernel.gamma", "mean.value"]),
                         min_size=1, max_size=3, unique=True))
    return {key: draw(st.lists(st.integers(1, 50), min_size=1, max_size=3,
                               unique=True))
            for key in keys}


def _get_dotted(cfg, dotted):
    for part in dotted.split("."):
        cfg = cfg[part]
    return cfg


@given(matrix_axes())
def test_expand_matrix_is_the_cartesian_product_of_its_axes(matrix):
    raw = json.loads(json.dumps(MINIMAL))
    raw["matrix"] = matrix
    combos = expand_matrix(raw)
    assert len(combos) == int(np.prod([len(v) for v in matrix.values()]))
    picks = [tuple(_get_dotted(cfg, key) for key in matrix) for _, cfg in combos]
    assert len(set(picks)) == len(picks)
    assert len({tag for tag, _ in combos}) == len(combos)
    for pick in picks:
        assert all(value in axis for value, axis in zip(pick, matrix.values()))


def test_build_problem_resolves_objects():
    problem, spec = build_problem(MINIMAL)
    assert problem.domain.dim == 1
    assert spec.gamma_tilde == 1.0
    X = np.array([[0.2], [0.8]])
    assert np.all(np.isfinite(problem.integrand(X)))


def test_square_alpha_defaults_from_latent_floor():
    raw = json.loads(json.dumps(MINIMAL))
    raw["transform"] = {"kind": "square", "alpha": None}
    raw["mean"] = {"kind": "constant", "value": 5.0}
    problem, _ = build_problem(raw)
    assert problem.integrand.transform.alpha > 0
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
    assert lines[0] == "# abqlab-trace v2"
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
    cfg = write_config(tmp_path, raw)
    artifacts = []
    for workers in ("1", "2"):
        monkeypatch.setenv("ABQ_LAB_THREADS", workers)
        out = tmp_path / f"matrix{workers}"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        dirs = sorted(p.name for p in out.iterdir())
        assert len(dirs) == 6
        artifacts.append({d: [(out / d / name).read_bytes()
                              for name in ("trace.csv", "report.json")]
                          for d in dirs})
    # one worker process or two, every combo's artifacts are the same bytes
    assert artifacts[0] == artifacts[1]


def test_cli_exit_code_2_on_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"version": "1"})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exit_code_2_on_multiquadric_kernel(tmp_path, capsys):
    # conditionally positive definite with a negative diagonal: no covariance
    raw = json.loads(json.dumps(MINIMAL))
    raw["kernel"] = {"family": "multiquadric", "beta": 0.5, "c": 1.0}
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "kernel/family" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    pytest.param("kernel", {"family": "matern", "nu": 2.0}, id="matern-nu"),
    pytest.param("kernel", {"family": "squared-exponential", "gamma": 0},
                 id="se-gamma"),
    pytest.param("pi", {"kind": "tabulated"}, id="tabulated-no-values"),
    pytest.param("domain", {"lower": [0.5], "upper": [0.5]}, id="degenerate-box"),
    pytest.param("domain", {"lower": [0.0, 0.0], "upper": [1.0]},
                 id="box-lengths"),
    pytest.param("acquisition.outer", {"kind": "power", "delta": 0},
                 id="outer-delta"),
    pytest.param("pi", {"kind": "truncated-gaussian", "scale": [0]},
                 id="gaussian-scale"),
    pytest.param("acquisition.b", {"kind": "constant", "value": 0},
                 id="constant-b"),
    pytest.param("integrand", {"kind": "synthetic", "centers": [[0.2, 0.7]],
                               "weights": [0.5]}, id="centers-columns"),
    pytest.param("mean", {"kind": "affine", "slope": [1.0, 2.0]}, id="slope-length"),
    pytest.param("pi", {"kind": "tabulated", "values": [1.0]},
                 id="tabulated-one-value-axis"),
    # a Matern length scale means nothing to the squared-exponential family
    pytest.param("kernel", {"family": "squared-exponential", "ell": 0.05},
                 id="se-with-matern-ell"),
])
def test_cli_exit_code_2_on_invalid_config_value(tmp_path, capsys, key, value):
    raw = json.loads(json.dumps(MINIMAL))
    node = raw
    *parents, last = key.split(".")
    for part in parents:
        node = node[part]
    node[last] = value
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("token, shown", [
    *[pytest.param(t, t, id=t) for t in ("NaN", "Infinity", "-Infinity", "1e400")],
    # 10^400 overflows where it meets a float; int() refuses 5001 digits
    *[pytest.param("1" + "0" * (n - 1), f"100000000000... ({n} chars)",
                   id=f"{n}-digit-integer") for n in (401, 5001)],
])
def test_cli_exit_code_2_on_a_non_finite_number(tmp_path, capsys, token, shown):
    # json reads NaN and +-Infinity, and 1e400 overflows to inf
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(MINIMAL).replace('"delta": 1.0', f'"delta": {token}'))
    assert f'"delta": {token}' in cfg.read_text()
    cfg = str(cfg)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {cfg}: non-finite number {shown}" in err
    assert len(err) < 500
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value, bad", [
    pytest.param("kernel", {"family": "squared-exponential", "gama": 0.2}, "gama",
                 id="kernel"),
    pytest.param("grids", {"certifcate": 512}, "certifcate", id="grids"),
    pytest.param("pi", {"kind": "truncated-gaussian", "centre": [0.2]}, "centre",
                 id="density"),
    pytest.param("grid", {"certificate": 64}, "grid", id="top-level"),
    # retired keys of the candidate pool: selection runs on the certificate grid
    pytest.param("selector", {"candidate_count": 512}, "selector", id="selector"),
    pytest.param("grids", {"shared_certificate": True}, "shared_certificate",
                 id="shared-certificate"),
    # retired: every certificate grid is Sobol
    pytest.param("grids", {"certificate_layout": "uniform"}, "certificate_layout",
                 id="certificate-layout"),
])
def test_cli_exit_code_2_on_misspelled_key(tmp_path, capsys, key, value, bad):
    raw = json.loads(json.dumps(MINIMAL))
    raw[key] = value
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Additional properties are not allowed" in err
    assert f"'{bad}' was unexpected" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, values", [
    ("acquisition.b.kind", ["wsabi_m", "wsabi-l"]),
    ("kernel.family", ["matern", "matérn"]),
])
def test_cli_validates_every_matrix_combo_before_running(tmp_path, capsys, key,
                                                         values):
    raw = json.loads(json.dumps(MINIMAL))
    raw["mean"] = {"kind": "constant", "value": 5.0}
    raw["matrix"] = {key: values}
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: config field " + key.replace(".", "/") in (
        capsys.readouterr().err)
    assert not (tmp_path / "o").exists()  # the valid combo did not run either


def test_validate_config_keeps_the_error_jsonschema_picks(monkeypatch):
    import jsonschema

    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    bad = json.loads(json.dumps(MINIMAL))
    bad["kernel"] = {"family": "mystery", "gamma": "x"}
    bad["budget"] = -1
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(bad, CONFIG_SCHEMA)
    path = "/".join(str(p) for p in expected.value.absolute_path)

    def no_schema_check(*args, **kwargs):
        raise AssertionError("the schema is checked once, not per config")

    monkeypatch.setattr(cls, "check_schema", no_schema_check)
    with pytest.raises(ConfigError) as got:
        validate_config(bad)
    assert str(got.value) == f"config field {path}: {expected.value.message}"


# values a mutation swaps in: a bool is not a number, 1.0 is an integer
SWAPS = [0, -1, 2.5, 1.0, True, None, "x", [], {}]
CONFIG_BASES = [MINIMAL, *(raw for _, raw in verify.builtin_matrix()),
                {**MINIMAL, "matrix": {"seed": [0, 1], "acquisition.b.kind": ["mmlt"]}}]


def _nodes(node, path=()):
    """(path, node) for every node of a config, the root first."""
    yield path, node
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


@st.composite
def mutated_configs(draw):
    """MINIMAL, one of verify's builtin configs or a matrix config, with one
    to three mutations: a key dropped, one or two keys added or a value
    swapped."""
    raw = copy.deepcopy(draw(st.sampled_from(CONFIG_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(_nodes(raw))))
        swap = copy.deepcopy(draw(st.sampled_from(SWAPS)))
        action = draw(st.sampled_from(["drop", "add", "swap"]))
        if action == "drop" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
        elif action == "add" and isinstance(node, dict):
            for key in draw(st.lists(st.sampled_from(["unknown", "values", "seed"]),
                                     min_size=1, max_size=2, unique=True)):
                node[key] = swap
        elif path:
            parent = raw
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = swap
    return raw


@pytest.fixture(scope="module")
def jsonschema():
    return pytest.importorskip("jsonschema")


def _paths_and_messages(errors):
    return sorted((tuple(map(str, path)), message) for path, message in errors)


@settings(max_examples=500)
@given(raw=mutated_configs())
def test_validate_config_raises_what_jsonschema_best_match_picks(jsonschema, raw):
    validator = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)
    expected = list(validator.iter_errors(raw))
    errors = config._schema_errors(raw, CONFIG_SCHEMA)
    # the same errors, and the same one picked
    assert _paths_and_messages((path, message) for path, message, _ in errors) == (
        _paths_and_messages((e.absolute_path, e.message) for e in expected))
    best = jsonschema.exceptions.best_match(expected)
    if best is None:
        validate_config(raw)
        return
    path = "/".join(str(p) for p in best.absolute_path) or "<root>"
    with pytest.raises(ConfigError) as got:
        validate_config(raw)
    assert str(got.value) == f"config field {path}: {best.message}"


@pytest.mark.parametrize("schema, values", [
    ({"type": "array", "minItems": 2, "maxItems": 0}, [[], [1], [1, 2, 3]]),
    ({"type": "array", "minItems": 1, "maxItems": 2}, [[], [1, 2, 3], {}]),
    ({"type": ["number", "null"], "minimum": 0, "maximum": 1,
      "exclusiveMinimum": 0}, [True, -1, 0, 0.5, 2.0, None, "x"]),
    ({"enum": [1, "a", None]}, [True, 1.0, "a", "b", None, [1]]),
    ({"const": 0}, [False, 0.0, 1]),
])
def test_schema_errors_match_jsonschema_beyond_the_config_schema(jsonschema, schema,
                                                                  values):
    # bounds and values CONFIG_SCHEMA does not use yet, in jsonschema's order
    validator = jsonschema.validators.validator_for(schema)(schema)
    for value in values:
        assert [message for _, message, _ in config._schema_errors(value, schema)] == [
            e.message for e in validator.iter_errors(value)]


def _subschemas(schema):
    yield schema
    for keyword, rule in schema.items():
        if keyword == "properties":
            for sub in rule.values():
                yield from _subschemas(sub)
        elif isinstance(rule, dict):  # items, additionalProperties, if, then
            yield from _subschemas(rule)


def test_config_schema_uses_the_keywords_the_checker_implements():
    # a keyword the checker does not know would pass every config unchecked
    used = {keyword for sub in _subschemas(CONFIG_SCHEMA) for keyword in sub}
    assert used == config._KEYWORDS


def test_cli_error_at_report_time_writes_no_artifact(tmp_path, monkeypatch, capsys):
    def failing(record, state):
        raise NumericalDegradationError("posterior variance below its floor")

    monkeypatch.setattr(analysis, "error_bound_check", failing)
    cfg = write_config(tmp_path, MINIMAL)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "NumericalDegradationError" in capsys.readouterr().err
    assert not (tmp_path / "o" / "trace.csv").exists()


def test_cli_runs_the_inconsistency_config_with_a_vacuous_certificate(tmp_path):
    # zero prior mean under WSABI-L: b = m^2 starts at 0, so b_min = 0
    cfg = write_config(tmp_path, verify._inconsistency_config(0.0))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    cert = report["certificate"]
    assert cert["gamma_hat"] == 0.0
    assert cert["failures"] == []
    assert 0.0 < cert["min_ratio"] <= 1.0
    assert any("certificate vacuous: b_min = 0" in f for f in report["findings"])


def test_cli_runs_a_config_whose_b_is_zero_everywhere(tmp_path):
    # an empty integrand under a zero mean: WSABI-L's b = m^2 stays 0 on the
    # whole grid, so b_max = 0 too and the certificate is vacuous
    raw = json.loads(json.dumps(MINIMAL))
    raw["kernel"] = {"family": "matern", "nu": 2.5, "ell": 0.3}
    raw["transform"] = {"kind": "square", "alpha": 2.0}
    raw["integrand"] = {"kind": "synthetic", "centers": [], "weights": []}
    raw["acquisition"]["b"] = {"kind": "wsabi_l"}
    raw["budget"] = 8
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["iterations"] == 8
    assert report["certificate"]["gamma_hat"] == 0.0
    assert report["certificate"]["failures"] == []
    assert "weak-greedy certificate vacuous: b_min = 0 gives gamma_hat = 0" in (
        report["findings"])


def test_cli_exit_code_2_on_a_box_over_ten_dimensions(tmp_path, capsys):
    # the certificate grid's Sobol' table stops at d = 10
    cfg = write_config(tmp_path, box_config(11, 4))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: config field domain/" in err and "is too long" in err
    assert not (tmp_path / "o").exists()


def test_cli_exit_code_2_on_a_malformed_thread_count(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ABQ_LAB_THREADS", "abc")
    cfg = write_config(tmp_path, MINIMAL)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: ABQ_LAB_THREADS must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_report_records_the_jitter_the_first_point_fixes():
    state, record = runner.execute(MINIMAL)
    report = runner.build_report(MINIMAL, state, record)
    # SE kernel, k(x, x) = 1: the jitter is 1e-12 k(x, x) from the first point on
    assert report["jitter_events"] == [[0, 1e-12]]
    assert state.jitter_used == 1e-12


def test_run_validates_each_matrix_combo_once(tmp_path, monkeypatch):
    raw = json.loads(json.dumps(MINIMAL))
    raw["budget"] = 3
    raw["matrix"] = {"acquisition.gamma_tilde": [1.0, 0.5]}
    validated = []

    def counting(flat):
        validated.append(flat["acquisition"]["gamma_tilde"])
        return validate_config(flat)

    monkeypatch.setattr(runner, "validate_config", counting)
    monkeypatch.delenv("ABQ_LAB_THREADS", raising=False)
    assert len(runner.run_experiment(raw, str(tmp_path / "out"))) == 2
    assert validated == [1.0, 0.5]


def test_execute_reads_the_grids_block():
    for dim, oracle in ((1, 256), (2, 64)):
        raw = json.loads(json.dumps(MINIMAL))
        raw["domain"] = {"lower": [0.0] * dim, "upper": [1.0] * dim}
        raw["grids"] = {"oracle": 32, "certificate": 100}
        rec = runner.execute(raw)[1]
        dom = rec.problem.domain
        assert rec.n == raw["budget"]
        assert rec.oracle_resolution == 32
        assert np.array_equal(rec.cert_grid, engine.certificate_grid(dom, 100))
        assert rec.cert_grid.shape == (128, dim)
        del raw["grids"]
        rec = runner.execute(raw)[1]
        assert rec.oracle_resolution == oracle
        assert np.array_equal(rec.cert_grid, engine.certificate_grid(dom))
        assert rec.cert_grid.shape == (2048 * dim, dim)


# the benchmark's d=2 run config at seed 0, with default grids
RUN_D2_SEED0 = {
    "version": "1", "seed": 0,
    "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "kernel": {"family": "matern", "nu": 2.5, "ell": 0.3},
    "mean": {"kind": "constant", "value": 5.0},
    "transform": {"kind": "square", "alpha": 2.0},
    "integrand": {"kind": "synthetic",
                  "centers": [[0.732159, 0.428514], [0.283025, 0.510147],
                              [0.414441, 0.755419], [0.322981, 0.478937]],
                  "weights": [0.066706, 0.32649, 0.003749, -0.17453]},
    "pi": {"kind": "uniform"},
    "acquisition": {"outer": {"kind": "power", "delta": 1.0},
                    "q": {"kind": "uniform"}, "b": {"kind": "wsabi_m"},
                    "gamma_tilde": 1.0},
    "budget": 60,
}


@pytest.mark.parametrize("gamma_tilde", [1.0, 0.5])
def test_selection_on_the_certificate_grid_is_weak_greedy(tmp_path, gamma_tilde):
    # b_min, b_max and the argmax all come from the one grid, so every step
    # is the grid's exact argmax and the certificate cannot fail on it; the
    # trace keeps no per-step greedy ratio, which would be 1 at every step
    raw = json.loads(json.dumps(RUN_D2_SEED0))
    raw["acquisition"]["gamma_tilde"] = gamma_tilde
    runner.run_experiment(raw, str(tmp_path))
    report = json.loads((tmp_path / "report.json").read_text())
    header = (tmp_path / "trace.csv").read_text().splitlines()[1].split(",")
    assert report["iterations"] == 60
    assert "greedy_ratio" not in header
    assert report["certificate"]["failures"] == []
    assert report["error_bound"]["ok"]


def test_error_bound_sups_are_the_runs_e_n():
    # the bound's dense solve on the certificate grid and the engine's
    # incremental grid posterior give the same sup q sqrt(k_X) per step
    state, record = runner.execute(RUN_D2_SEED0)
    rows = analysis.error_bound_check(record, state).rows
    assert len(rows) == record.n == 60
    assert np.allclose([row["sup_qk"] for row in rows], record.sup_qk,
                       rtol=1e-10, atol=0.0)


def test_execute_rejects_a_misspelled_key():
    raw = json.loads(json.dumps(MINIMAL))
    raw["grids"] = {"oracel": 32}  # meant: "oracle"
    with pytest.raises(ConfigError, match="oracel"):
        runner.execute(raw)


def test_every_verify_run_is_a_valid_config(monkeypatch):
    execute = runner.execute
    seen = []

    def validating(raw):
        validate_config(raw)
        seen.append(raw)
        return execute(raw)

    monkeypatch.setattr(runner, "execute", validating)
    verify.matrix_runs()
    verify.check_error_bound()
    verify.check_rate_infinite()
    verify.check_rate_finite()
    verify.check_inconsistency_caveat()
    # 8 matrix runs, 15 bound runs, 3 P-greedy runs, 2 inconsistency runs
    assert len(seen) == 28


def test_cli_exit_code_3_on_non_finite_integrand(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(SyntheticIntegrand, "__call__",
                        lambda self, X: np.full(len(X), np.nan))
    cfg = write_config(tmp_path, MINIMAL)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "non-finite integrand value" in capsys.readouterr().err


def test_cli_exit_code_3_on_value_outside_transform_range(tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.setattr(SyntheticIntegrand, "__call__",
                        lambda self, X: np.full(len(X), -1.0))
    raw = json.loads(json.dumps(MINIMAL))
    raw["transform"] = {"kind": "exponential"}
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "nonpositive value" in capsys.readouterr().err


def test_d3_run_keeps_every_tensor_grid_small(tmp_path, monkeypatch):
    uniform_grid = Domain.uniform_grid

    def guarded(self, points_per_dim):
        assert points_per_dim ** self.dim <= 2 ** 18, (points_per_dim, self.dim)
        return uniform_grid(self, points_per_dim)

    monkeypatch.setattr(Domain, "uniform_grid", guarded)
    raw = json.loads(json.dumps(MINIMAL))
    raw["domain"] = {"lower": [0.0] * 3, "upper": [1.0] * 3}
    raw["mean"] = {"kind": "constant", "value": 5.0}
    raw["transform"] = {"kind": "square", "alpha": None}
    raw["budget"] = 3
    raw["grids"] = {"oracle": 16}
    runner.run_experiment(raw, str(tmp_path / "d3"))
    report = json.loads((tmp_path / "d3" / "report.json").read_text())
    assert report["iterations"] == 3
    assert report["error_bound"]["ok"]


def test_cli_rejects_an_oracle_over_the_guard_before_any_evaluation(tmp_path,
                                                                  monkeypatch, capsys):
    # the report integrates at twice the resolution: with default grids in
    # d=6, 16^6 is over the 1e7 guard though 8^6 is not, and the run must
    # not spend its budget first
    calls = []
    original = SyntheticIntegrand.__call__
    monkeypatch.setattr(SyntheticIntegrand, "__call__",
                        lambda self, X: calls.append(len(X)) or original(self, X))
    cfg = write_config(tmp_path, box_config(6, 4))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "16^6 exceeds the 1e7 evaluation guard" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


def test_report_finds_an_oracle_too_coarse_for_the_bound():
    # a rough Matern 0.5 integrand on 8 Gauss nodes: the self-error is about
    # 4e-2 of the smallest right-hand side, though the bound still holds
    raw = json.loads(json.dumps(MINIMAL))
    raw["kernel"] = {"family": "matern", "nu": 0.5, "ell": 0.05}
    raw["grids"] = {"oracle": 8, "certificate": 512}
    state, record = runner.execute(raw)
    bound = analysis.error_bound_check(record, state)
    smallest = min(row["rhs"] for row in bound.rows)
    assert bound.reference_self_error > 10 * analysis.ORACLE_TOL * smallest
    report = runner.build_report(raw, state, record)
    assert report["error_bound"]["ok"]
    assert [f for f in report["findings"] if f.startswith("oracle self-error")] == [
        f"oracle self-error {bound.reference_self_error:g} exceeds 0.001 of the "
        f"smallest bound {smallest:g}: the reference is too coarse to check it "
        f"(raise grids.oracle)"]


def test_d3_default_oracle_is_fine_enough_for_the_bound():
    raw = box_config(3, 4)
    state, record = runner.execute(raw)
    assert record.oracle_resolution == 16
    report = runner.build_report(raw, state, record)
    assert report["error_bound"]["ok"]
    assert report["reference_self_error"] < 1e-6
    assert not any(f.startswith("oracle self-error") for f in report["findings"])


def test_default_grids_run_in_d1_to_d5_in_time_and_memory(tmp_path):
    # one child process runs all five, so its peak RSS bounds each run's
    for dim in range(1, 6):
        write_config(tmp_path, box_config(dim, 8), name=f"d{dim}.json")
    code = textwrap.dedent("""
        import json, resource, sys, time
        from abqlab import cli
        runs = []
        for dim in range(1, 6):
            start = time.perf_counter()
            code = cli.main(["run", f"{sys.argv[1]}/d{dim}.json",
                             "--out", f"{sys.argv[1]}/d{dim}"])
            runs.append((code, time.perf_counter() - start))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps({"runs": runs, "peak_mb": peak_mb}))
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], check=True,
                         text=True, capture_output=True,
                         env={**os.environ, "PYTHONPATH": src})
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["peak_mb"] < 500, result
    for dim, (code, seconds) in enumerate(result["runs"], start=1):
        assert code == 0 and seconds < 30, (dim, result)
        report = json.loads((tmp_path / f"d{dim}" / "report.json").read_text())
        assert report["iterations"] == 8 and report["error_bound"]["ok"], dim


def test_cli_run_computes_the_reference_integral_once(tmp_path, monkeypatch):
    # one reference: the integrand's integral at the oracle resolution (256
    # in d=1) and at twice it, for the self-error, each node evaluated once;
    # the run itself evaluates only the points it selects
    call = SyntheticIntegrand.__call__
    sizes = []
    monkeypatch.setattr(SyntheticIntegrand, "__call__",
                        lambda self, X: sizes.append(len(X)) or call(self, X))
    path = write_config(tmp_path, MINIMAL)
    assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 0
    assert [size for size in sizes if size > 1] == [256, 512]


def test_cli_run_requires_output_dir(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    assert cli.main(["run", cfg]) == 2


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
    fits = json.loads(Path(summary).read_text())
    assert fits[0]["dim"] == 1
    assert fits[0]["fits"]["exponential"]["slope"] < 0


def test_cli_rates_reads_a_v1_trace(tmp_path, capsys):
    # v1 traces carry a greedy_ratio column; rates reads columns by name
    cfg = write_config(tmp_path, MINIMAL)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "r")]) == 0
    schema, header, *rows = (tmp_path / "r" / "trace.csv").read_text().splitlines()
    assert schema == f"# {runner.TRACE_SCHEMA}"
    v1 = ["# abqlab-trace v1",
          header.replace(",fill_distance", ",greedy_ratio,fill_distance")]
    v1 += [",1.0,".join(row.rsplit(",", 1)) for row in rows]
    (tmp_path / "v1.csv").write_text("\n".join(v1) + "\n")
    out = []
    summary = str(tmp_path / "fits.json")
    for name in ("r/trace.csv", "v1.csv"):
        assert cli.main(["rates", str(tmp_path / name), "--out", summary]) == 0
        out.append(json.loads(Path(summary).read_text())[0]["fits"])
    assert out[0] == out[1]


def test_report_vbmc_envelope_from_the_density_on_the_probe_grid(tmp_path):
    raw = box_config(2, budget=4)
    density = {"kind": "truncated-gaussian", "center": [0.3, 0.6], "scale": [0.2, 0.3]}
    raw["acquisition"]["b"] = {"kind": "vbmc", "density": density, "delta2": 1.5,
                               "delta3": 0.5}
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "r")]) == 0
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    # [C_L, C_U] = [min pi^d2 e^-w, max pi^d2 e^w], w = d3 (sup|m| + 2||g|| sqrt(sup k))
    problem, _ = build_problem(raw)
    pvals = config.build_density(density, problem.domain)(problem.domain.probe_grid())
    width = 0.5 * (5.0 + 2.0 * rkhs_norm(problem.integrand) * 1.0)
    clcu = report["clcu"]
    assert clcu["present"]
    assert clcu["c_l"] == pytest.approx(np.min(pvals) ** 1.5 * np.exp(-width), rel=1e-12)
    assert clcu["c_u"] == pytest.approx(np.max(pvals) ** 1.5 * np.exp(width), rel=1e-12)
    weak = report["weak_adaptivity"]
    assert set(weak) == {"b_min", "b_max", "within_envelope"}
    assert weak["within_envelope"]


def test_report_bound_reads_the_trace_estimates(tmp_path, monkeypatch):
    # the bound's left side is |reference - est_plugin|, the trace's column;
    # one walk at the run's resolution gives the coarse reference and the
    # integral of pi/q, and one at the refined resolution (2 * 256) gives
    # the reference and the plug-in curve
    runner.run_experiment(MINIMAL, str(tmp_path))
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    column = lines[1].split(",").index("abs_error_plugin")
    traced = [float(line.split(",")[column]) for line in lines[2:]]
    state, record = runner.execute(MINIMAL)
    walk, walks = analysis.weighted_integrals, []

    def counting(dom, resolution, pi, *terms, **kwargs):
        values = walk(dom, resolution, pi, *terms, **kwargs)
        walks.append((resolution, len(values)))
        return values

    monkeypatch.setattr(analysis, "weighted_integrals", counting)
    lhs = [row["lhs"] for row in analysis.error_bound_check(record, state).rows]
    assert len(traced) == record.n and lhs == traced
    assert walks == [(256, 2), (512, 1 + record.n)]


def test_cli_rates_rejects_foreign_csv(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b\n1,2\n")
    assert cli.main(["rates", str(path)]) == 2


def blas_unset_env():
    """This process's environment without the BLAS thread variables, which
    importing abqlab has set here."""
    return {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}


def test_run_artifacts_identical_across_blas_threads(tmp_path):
    raw = json.loads(json.dumps(MINIMAL))
    raw["domain"] = {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}
    raw["kernel"] = {"family": "matern", "nu": 2.5, "ell": 0.3}
    raw["mean"] = {"kind": "constant", "value": 5.0}
    raw["transform"] = {"kind": "square", "alpha": 2.0}
    raw["acquisition"]["b"] = {"kind": "wsabi_m"}
    raw["budget"] = 12
    raw["grids"] = {"oracle": 32}
    cfg = write_config(tmp_path, raw)
    src = str(Path(cli.__file__).resolve().parents[1])
    artifacts = []
    # unset is the default pin to one thread; "2" opts back into threads
    for threads in (None, "1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**blas_unset_env(), "PYTHONPATH": src}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        subprocess.run([sys.executable, "-m", "abqlab.cli", "run", cfg,
                        "--out", str(out)], env=env, check=True,
                       capture_output=True)
        artifacts.append([(out / name).read_bytes()
                          for name in ("trace.csv", "report.json")])
    assert artifacts[0] == artifacts[1] == artifacts[2]


def test_importing_abqlab_starts_no_blas_thread():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import os, abqlab.cli; "
            "print(*(os.environ.get(k) for k in "
            "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'))); "
            "task = '/proc/self/task'; "
            "print(len(os.listdir(task)) if os.path.isdir(task) else 0)")

    def child(**blas):
        env = {**blas_unset_env(), **blas, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             text=True, capture_output=True)
        variables, tasks = out.stdout.splitlines()
        return variables.split(), int(tasks)

    variables, tasks = child()
    assert variables == ["1", "1", "1"]
    # with two CPUs an unpinned OpenBLAS starts a second thread at import
    if sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2:
        assert tasks == 1
    # a caller's own setting is kept
    variables, _ = child(OPENBLAS_NUM_THREADS="2")
    assert variables == ["2", "1", "1"]


def test_cli_import_loads_no_jsonschema_numpy_random_or_scipy():
    # the config check is in the package; numpy.random is imported by
    # `verify` alone; only a tabulated density imports scipy, when it is
    # built (a d > 10 certificate grid raises DomainError without it).
    # Counted over what `import numpy` loads, since numpy < 2 imports
    # numpy.random itself.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, numpy; numpy_alone = set(sys.modules); import abqlab.cli; "
            "print(sorted(m for m in set(sys.modules) - numpy_alone "
            "if m.split('.')[0] in ('jsonschema', 'scipy') "
            "or m.startswith('numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_truncated_gaussians_and_the_projection_check_load_no_scipy():
    # the truncated Gaussian's normaliser is computed on math.erf/erfc
    src = str(Path(cli.__file__).resolve().parents[1])
    code = textwrap.dedent("""
        import sys
        from abqlab import verify
        from abqlab.domain import Domain, TruncatedGaussianDensity

        TruncatedGaussianDensity(Domain((0.0, -1.0), (1.0, 2.0)),
                                 center=[3.0, 0.5], scale=[0.3, 2.0])
        assert verify.check_projection_identity()[0]
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_cli_runs_load_no_module_the_import_did_not(tmp_path):
    # a numpy submodule first touched inside a run (numpy.polynomial by
    # leggauss, numpy.ma by np.unique) costs its import in the command's own
    # time; only `verify` imports numpy.random
    configs = [write_config(tmp_path, box_config(dim, 3), f"d{dim}.json")
               for dim in (2, 3)]
    src = str(Path(cli.__file__).resolve().parents[1])
    code = textwrap.dedent("""
        import sys
        import abqlab.cli

        def loaded():
            return {m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")}

        before = loaded()
        for path in sys.argv[1:]:
            assert abqlab.cli.main(["run", path, "--out", path + ".out"]) == 0
        print(sorted(loaded() - before))
    """)
    out = subprocess.run([sys.executable, "-c", code, *configs], check=True,
                         text=True, capture_output=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines()[-1] == "[]"
