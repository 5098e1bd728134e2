import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abqlab import (BLAS_THREAD_VARIABLES, analysis, cli, config, engine, gp, runner,
                    verify)
from abqlab.config import (CONFIG_SCHEMA, build_problem, expand_matrix, load_config,
                           validate_config)
from abqlab.domain import Domain, SyntheticIntegrand, rkhs_norm
from abqlab.exceptions import BudgetExceededError, ConfigError, NumericalDegradationError

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


@pytest.mark.parametrize("block, registry, kinds, keys", [
    (("acquisition", "outer"), config._OUTERS, ["power", "expm1"], {"delta": 0.5}),
    (("acquisition", "b"), config._RULES, ["constant", "wsabi_l", "wsabi_m", "mmlt", "vbmc"],
     {"value": 2.0, "delta2": 0.5, "delta3": 0.25,
      "density": {"kind": "truncated-gaussian", "center": [0.4], "scale": [0.2]}}),
    (("mean",), config._MEANS, ["constant", "affine"],
     {"value": 3.0, "slope": [1.5], "offset": 4.0}),
], ids=["outer", "b", "mean"])
def test_every_kind_builds_from_a_block_that_holds_every_key_of_its_block(
        block, registry, kinds, keys):
    # a matrix that swaps the kind leaves the other kinds' keys in the block:
    # the schema takes them and each class is built from its own fields alone
    schema = CONFIG_SCHEMA
    for part in block:
        schema = schema["properties"][part]
    assert list(registry) == kinds and schema["properties"]["kind"]["enum"] == kinds
    assert list(schema["properties"]) == ["kind", *(
        f.name for cls in registry.values() for f in dataclasses.fields(cls))]
    assert set(schema["properties"]) == {"kind", *keys}
    for kind, cls in registry.items():
        raw = json.loads(json.dumps(MINIMAL))
        parent = raw
        for part in block[:-1]:
            parent = parent[part]
        parent[block[-1]] = {"kind": kind, **keys}
        validate_config(raw)
        problem, spec = build_problem(raw)
        built = {"outer": spec.outer, "b": spec.b,
                 "mean": problem.integrand.prior_mean}[block[-1]]
        assert type(built) is cls
        for f in dataclasses.fields(cls):
            value = getattr(built, f.name)
            if f.name == "density":
                assert (value.center.tolist(), value.scale.tolist()) == ([0.4], [0.2])
            else:
                assert value == (tuple(keys[f.name]) if f.name == "slope" else keys[f.name])


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


def mixed_density_config():
    """A d=2 config whose pi is tabulated, whose q is a truncated Gaussian
    and whose b is VBMC: densities that pickle, though a worker process
    inherits them and is never sent them pickled."""
    raw = box_config(2, 6)
    raw["pi"] = {"kind": "tabulated", "values": [[1.0, 2.0, 0.5], [3.0, 1.5, 1.0]]}
    raw["acquisition"]["q"] = {"kind": "truncated-gaussian", "center": [0.4, 0.6],
                               "scale": [0.3, 0.5]}
    raw["acquisition"]["b"] = {"kind": "vbmc", "delta2": 1.5, "delta3": 0.5}
    raw["grids"] = {"certificate": 256, "oracle": 16}
    return raw


def test_a_prepared_config_pickles_and_evaluates_bit_equal():
    prepared = runner.prepare(mixed_density_config())
    copied = pickle.loads(pickle.dumps(prepared))
    assert copied[2:] == prepared[2:] == (6, 256, 16)
    (problem, spec), (twin, twin_spec) = prepared[:2], copied[:2]
    points = problem.domain.probe_grid()
    for f, g in ((problem.integrand, twin.integrand), (problem.pi, twin.pi),
                 (spec.q, twin_spec.q), (spec.b.density, twin_spec.b.density)):
        assert np.array_equal(f(points), g(points))
    one, two = engine.run_abq(*prepared)[1], engine.run_abq(*copied)[1]
    assert np.array_equal(one.state.X, two.state.X)
    assert (one.sup_qk, one.b_min, one.b_max, one.est_plugin) == (
        two.sup_qk, two.b_min, two.b_max, two.est_plugin)


def test_two_workers_write_the_bytes_of_one(tmp_path, monkeypatch):
    raw = mixed_density_config()
    raw["matrix"] = {"acquisition.gamma_tilde": [1.0, 0.5]}
    artifacts = []
    for workers in ("1", "2"):
        monkeypatch.setenv("ABQ_LAB_THREADS", workers)
        written = runner.run_experiment(raw, str(tmp_path / workers))
        assert [findings for _, findings in written] == [0, 0]
        artifacts.append([Path(target, name).read_bytes() for target, _ in written
                          for name in ("trace.csv", "report.json")])
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


@pytest.mark.parametrize("dim, code", [(4, 2), (3, 0)], ids=["d4", "d3"])
def test_cli_wendland_kernel_runs_up_to_d3_only(tmp_path, capsys, dim, code):
    # minimal-degree Wendland functions are positive definite in d <= 3 only
    raw = json.loads(json.dumps(MINIMAL))
    raw["domain"] = {"lower": [0.0] * dim, "upper": [1.0] * dim}
    raw["kernel"] = {"family": "wendland", "smoothness_index": 1, "radius": 0.5}
    raw.update(budget=4, grids={"certificate": 512, "oracle": 8})
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    if code:
        assert err.count("\n") == 1 and err.startswith("config error: kernel family "
                                                        "wendland") and "d = 4" in err
        assert not (tmp_path / "o").exists()
    else:
        assert err == "" and (tmp_path / "o" / "report.json").exists()


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
    # [] and [[]] are no centers, so one weight has none to go with
    pytest.param("integrand", {"kind": "synthetic", "centers": [], "weights": [1.0]},
                 id="no-centers-one-weight"),
    pytest.param("integrand", {"kind": "synthetic", "centers": [[]], "weights": [1.0]},
                 id="empty-center-one-weight"),
    pytest.param("integrand", {"kind": "synthetic", "centers": [[0.3]], "weights": []},
                 id="one-center-no-weights"),
    pytest.param("mean", {"kind": "affine", "slope": [1.0, 2.0]}, id="slope-length"),
    pytest.param("pi", {"kind": "tabulated", "values": [1.0]},
                 id="tabulated-one-value-axis"),
    # a Matern length scale means nothing to the squared-exponential family
    pytest.param("kernel", {"family": "squared-exponential", "ell": 0.05},
                 id="se-with-matern-ell"),
    # a matrix key whose path passes through a number or a list
    pytest.param("matrix", {"budget.x": [1]}, id="matrix-key-through-a-number"),
    pytest.param("matrix", {"domain.lower.0": [0.5]}, id="matrix-key-through-a-list"),
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
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    if key == "integrand":
        centers, weights = sum(1 for c in value["centers"] if c), len(value["weights"])
        if centers != weights:
            assert err == f"config error: {centers} centers for {weights} weights\n"
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


@pytest.mark.parametrize("part, message", [
    ({"kernel": {"family": "matern", "nu": 2.5, "ell": 0.0}}, "ell must be positive"),
    ({"kernel": {"family": "matern", "nu": 2.5, "ell": -0.3}}, "ell must be positive"),
    ({"kernel": {"family": "inverse-multiquadric", "beta": 0.0, "c": 1.0}},
     "beta must be positive"),
    ({"kernel": {"family": "inverse-multiquadric", "beta": 0.5, "c": 0.0}},
     "c must be positive"),
    ({"kernel": {"family": "wendland", "smoothness_index": 1, "radius": 0.0}},
     "radius must be positive"),
    ({"pi": {"kind": "truncated-gaussian", "center": [0.3, 0.4]}},
     "center/scale dimension mismatch"),
], ids=["matern-ell-0", "matern-ell-negative", "imq-beta-0", "imq-c-0",
        "wendland-radius-0", "truncated-gaussian-center-length"])
def test_cli_exit_code_2_on_a_parameter_the_object_rejects(tmp_path, capsys, part,
                                                           message):
    # each value passes the schema; the kernel or density built from it
    # raises, and the CLI prints its message as one config error
    cfg = write_config(tmp_path, {**MINIMAL, **part})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_cli_fits_the_exponential_rate_of_an_inverse_multiquadric_run(tmp_path):
    # an infinitely smooth kernel: the report fits exp(-D n^(1/d)) to e_n
    raw = {**MINIMAL, "budget": 20,
           "kernel": {"family": "inverse-multiquadric", "beta": 0.5, "c": 0.3}}
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["iterations"] == 20 and report["findings"] == []
    fit = report["rate_fits"]["exponential"]
    assert list(report["rate_fits"]) == ["exponential"]
    assert fit["n_range"] == [5, 20] and fit["slope"] < 0 and fit["r_squared"] > 0.9


def test_cli_builds_every_matrix_combo_before_running(tmp_path, capsys):
    # nu = 2.0 passes the schema but not the Matern kernel: no combo runs,
    # not even nu=2.5, which comes first
    raw = json.loads(json.dumps(MINIMAL))
    raw["kernel"] = {"family": "matern", "nu": 2.5, "ell": 0.3}
    raw["matrix"] = {"kernel.nu": [2.5, 2.0]}
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "nu must be one of" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("budget, rows", [(0, 0), (1, 1)])
def test_cli_runs_budgets_below_two_without_a_certificate(tmp_path, budget, rows):
    # the certificate needs two points; the error bound is checked from one
    raw = json.loads(json.dumps(MINIMAL))
    raw["budget"] = budget
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    lines = (tmp_path / "o" / "trace.csv").read_text().splitlines()
    assert report["iterations"] == rows and len(lines) == 2 + rows
    assert report["certificate"] is None
    if budget == 0:
        assert report["error_bound"] is None
    else:
        assert report["error_bound"]["ok"]


@pytest.mark.parametrize("matrix, message", [
    ({"seed": [0, 0]}, "matrix gives two combos the directory 'seed=0'"),
    ({"budget.x": [1]}, "matrix key 'budget.x': 'budget' is not an object"),
    ({"domain.lower.0": [0.5]},
     "matrix key 'domain.lower.0': 'lower' is not an object"),
])
def test_cli_names_the_matrix_key_or_directory_it_rejects(tmp_path, capsys,
                                                          monkeypatch, matrix,
                                                          message):
    # rejected before any run starts, so no two workers share a directory
    monkeypatch.setenv("ABQ_LAB_THREADS", "2")
    raw = json.loads(json.dumps(MINIMAL))
    raw["matrix"] = matrix
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_whole_number_floats_in_integer_fields_run_as_integers(tmp_path):
    # the schema's integer type takes 3.0, as jsonschema's does
    traces = []
    for number in (int, float):
        raw = json.loads(json.dumps(MINIMAL))
        raw["budget"] = number(3)
        raw["grids"] = {"certificate": number(512), "oracle": number(32)}
        cfg = write_config(tmp_path, raw, name=f"{number.__name__}.json")
        out = tmp_path / number.__name__
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


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
# the builtin matrix: four published rules, two certificate slacknesses each
MATRIX_CONFIGS = [{**raw, "acquisition": {**raw["acquisition"], "gamma_tilde": gt}}
                  for _, raw in verify._rules() for gt in verify.GAMMA_TILDES]
CONFIG_BASES = [MINIMAL, *MATRIX_CONFIGS,
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
    def failing(certs):
        raise NumericalDegradationError("posterior variance below its floor")

    monkeypatch.setattr(analysis.Certificates, "bound", property(failing))
    cfg = write_config(tmp_path, MINIMAL)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "NumericalDegradationError" in capsys.readouterr().err
    assert not (tmp_path / "o" / "trace.csv").exists()


def test_a_node_variance_below_the_floor_exits_3(tmp_path, monkeypatch, capsys):
    # every state the run records has its last Cholesky diagonal halved; the
    # grid posterior the loop selects on is left as it is, so only the
    # estimates' pass over the oracle nodes, after the loop, sees a variance
    # far below its clamp floor
    add = gp.GridPosterior.add

    def corrupting_add(self, index, z):
        state = add(self, index, z)
        chol = state.chol.copy()
        chol[-1, -1] *= 0.5
        return dataclasses.replace(state, chol=chol)

    monkeypatch.setattr(gp.GridPosterior, "add", corrupting_add)
    cfg = write_config(tmp_path, MINIMAL)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("abort (NumericalDegradationError): posterior variance ")
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_thread_count_below_one_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                    command, threads):
    monkeypatch.setenv("ABQ_LAB_THREADS", threads)
    argv = {"run": ["run", write_config(tmp_path, MINIMAL), "--out", str(tmp_path / "o")],
            "verify": ["verify", "--out", str(tmp_path / "v.json")]}[command]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.err == (f"config error: ABQ_LAB_THREADS must be an integer of at "
                       f"least 1, not {threads!r}\n")
    assert out.out == "" and list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_pool_width_is_the_thread_count_capped_at_the_tasks(monkeypatch):
    monkeypatch.setenv("ABQ_LAB_THREADS", "64")
    assert [runner.pool_width(tasks) for tasks in (0, 1, 8, 100)] == [1, 1, 8, 64]
    monkeypatch.setenv("ABQ_LAB_THREADS", "3")
    assert [runner.pool_width(tasks) for tasks in (1, 2, 8)] == [1, 2, 3]
    monkeypatch.delenv("ABQ_LAB_THREADS")
    cpus = len(os.sched_getaffinity(0))
    assert runner.pool_width(10 ** 6) == cpus and runner.pool_width(1) == 1


def test_report_records_the_jitter_the_first_point_fixes():
    record = runner.execute(MINIMAL)
    report = runner.build_report(MINIMAL, record)
    # SE kernel, k(x, x) = 1: the jitter is 1e-12 k(x, x) from the first point on
    assert report["jitter_events"] == [[0, 1e-12]]
    assert record.state.jitter_used == 1e-12


def test_early_stop_finding_names_the_budget_the_run_was_given():
    # a whole-number float budget runs as the integer, and the finding says so
    raw = json.loads(json.dumps(MINIMAL))
    raw["budget"] = 40.0
    record = runner.execute(raw)
    assert record.budget == 40 and record.n == 12
    assert runner.build_report(raw, record)["findings"][0] == (
        f"run stopped after 12 of 40 steps: {engine.STOP_SPANNED}")


def test_a_budget_beyond_the_grid_allocates_rows_for_the_grid(tmp_path, posteriors):
    # each step spans a grid point the design did not, so a run on the
    # 512-point grid takes at most 512 steps, however large its budget
    cfg = write_config(tmp_path, {**MINIMAL, "budget": 1e9})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    # the run's posterior, then the report's n-width walk for its 12 steps
    assert [post._rows.shape[0] for post in posteriors] == [512, 12]
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["iterations"] == 12
    assert report["findings"][0].startswith("run stopped after 12 of 1000000000 steps")


def test_an_oversize_certificate_grid_exits_3_before_making_points(
        tmp_path, monkeypatch, capsys):
    made = []
    monkeypatch.setattr(engine, "_sobol",
                        lambda d, n: made.append(n) or np.zeros((1, d)))
    cfg = write_config(tmp_path, {**MINIMAL, "grids": {"certificate": 1e9}})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "BudgetExceededError" in err
    assert f"{2 ** 30} points exceeds the 1e7-point guard" in err
    assert made == []
    assert not (tmp_path / "o").exists()
    # the largest grid under the guard is 2^23 points
    dom = build_problem(MINIMAL)[0].domain
    engine.certificate_grid(dom, 2 ** 23)
    with pytest.raises(BudgetExceededError):
        engine.certificate_grid(dom, 2 ** 23 + 1)
    assert made == [2 ** 23]


def test_a_posterior_over_the_float_guard_exits_3_under_a_memory_cap(tmp_path):
    # 30 rows on 2^23 grid points would take 1.88 GiB; under a 1.5 GB
    # address-space cap the guard must fire before numpy tries
    cfg = write_config(tmp_path, {**MINIMAL, "budget": 30,
                                  "grids": {"certificate": 2 ** 23}})
    code = ("import resource, sys; "
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
            "resource.setrlimit(resource.RLIMIT_AS, (1500 * 2 ** 20, hard)); "
            "from abqlab import cli; sys.exit(cli.main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code, "run", cfg,
                           "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 3, done.stderr
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert done.stderr.startswith("abort (BudgetExceededError): a posterior of 30 "
                                  "rows on 8388608 points exceeds"), done.stderr
    assert not (tmp_path / "o").exists()


def test_a_q_that_underflows_on_the_oracle_makes_the_bound_vacuous(tmp_path, capsys):
    # q underflows to 0 at the oracle nodes near the box's edges, so the
    # integral of pi/q is inf: a finding and a null in strict JSON, with no
    # warning
    raw = json.loads(json.dumps(MINIMAL))
    raw["acquisition"]["q"] = {"kind": "truncated-gaussian", "center": [0.5],
                               "scale": [0.01]}
    assert_vacuous_bound_and_no_warning(tmp_path, capsys, raw)


def assert_vacuous_bound_and_no_warning(tmp_path, capsys, raw):
    cfg = write_config(tmp_path, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads((tmp_path / "o" / "report.json").read_text(),
                        parse_constant=reject)
    assert report["error_bound"]["constants"]["pi_over_q"] is None
    assert ("error bound vacuous: \u222b\u03c0/q is not finite on the oracle rule"
            in report["findings"])


# configs a seeded random-config sweep drew, each a d=2 run on a 256-point
# certificate grid: a pi and a q that both underflow to 0 at oracle nodes, and
# an integrand that is its affine prior mean (no centres, so ||g|| = 0)
SWEEP_UNDERFLOW = {
    "version": "1", "seed": 0, "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "kernel": {"family": "inverse-multiquadric", "beta": 0.28, "c": 0.0429},
    "mean": {"kind": "constant", "value": 5.0}, "transform": {"kind": "identity"},
    "integrand": {"kind": "synthetic",
                  "centers": [[0.9353, 0.7808], [0.847, 0.042], [0.4873, 0.1466]],
                  "weights": [0.8202, -0.4189, -0.0264]},
    "pi": {"kind": "truncated-gaussian", "center": [-0.145, 0.794],
           "scale": [0.0227, 0.3426]},
    "acquisition": {"outer": {"kind": "power", "delta": 1.0},
                    "q": {"kind": "truncated-gaussian", "center": [-0.2, 0.479],
                          "scale": [1.2654, 0.0108]},
                    "b": {"kind": "constant", "value": 1.0}, "gamma_tilde": 0.5},
    "budget": 18, "grids": {"certificate": 256},
}
SWEEP_NO_CENTRES = {
    "version": "1", "seed": 0, "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "kernel": {"family": "squared-exponential", "gamma": 0.5814},
    "mean": {"kind": "affine", "slope": [2.609, 2.865], "offset": 5.784},
    "transform": {"kind": "identity"},
    "integrand": {"kind": "synthetic", "centers": [], "weights": []},
    "pi": {"kind": "truncated-gaussian", "center": [0.775, 0.904], "scale": [0.3084, 2.7054]},
    "acquisition": {"outer": {"kind": "power", "delta": 1.0},
                    "q": {"kind": "truncated-gaussian", "center": [0.292, 0.251],
                          "scale": [0.3458, 0.029]},
                    "b": {"kind": "mmlt"}, "gamma_tilde": 0.5},
    "budget": 19, "grids": {"certificate": 256},
}


def test_a_pi_and_q_that_both_underflow_make_the_bound_vacuous_with_no_warning(
        tmp_path, capsys):
    # pi/q is 0 * inf, NaN, at the nodes where both underflow: a finding, with
    # no "invalid value" RuntimeWarning on the way
    assert_vacuous_bound_and_no_warning(tmp_path, capsys, SWEEP_UNDERFLOW)


def test_the_bound_allows_for_rounding_when_the_integrand_is_its_prior_mean(tmp_path):
    # ||g|| = 0, so the rhs is the slack alone; without the rounding allowance
    # the estimates' rounding (lhs 5.3e-14 at n = 18 against a slack of
    # 3.6e-15) reads as 4 violations and the oracle's self-error as too coarse
    cfg = write_config(tmp_path, SWEEP_NO_CENTRES)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    bound = report["error_bound"]
    assert report["iterations"] == 19 and bound["constants"]["gnorm"] == 0.0
    assert bound["ok"] and bound["violations"] == [], report["findings"]
    assert report["findings"] == []


def test_run_validates_every_matrix_combo_before_running_any(tmp_path, monkeypatch):
    raw = json.loads(json.dumps(MINIMAL))
    raw["budget"] = 3
    raw["matrix"] = {"acquisition.gamma_tilde": [1.0, 0.5]}
    events = []

    def counting(flat):
        events.append(("validate", flat["acquisition"]["gamma_tilde"]))
        return validate_config(flat)

    def building(flat):
        events.append(("build", flat["acquisition"]["gamma_tilde"]))
        return build_problem(flat)

    monkeypatch.setattr(runner, "validate_config", counting)
    monkeypatch.setattr(runner, "build_problem", building)
    monkeypatch.delenv("ABQ_LAB_THREADS", raising=False)
    assert len(runner.run_experiment(raw, str(tmp_path / "out"))) == 2
    # every combo's schema, then every combo's objects, once and before any
    # runs; the runs take the objects as built
    assert events == [("validate", 1.0), ("validate", 0.5),
                      ("build", 1.0), ("build", 0.5)]


def test_execute_reads_the_grids_block():
    for dim, oracle in ((1, 256), (2, 64)):
        raw = json.loads(json.dumps(MINIMAL))
        raw["domain"] = {"lower": [0.0] * dim, "upper": [1.0] * dim}
        raw["grids"] = {"oracle": 32, "certificate": 100}
        rec = runner.execute(raw)
        dom = rec.problem.domain
        assert rec.n == raw["budget"]
        assert rec.oracle_resolution == 32
        assert np.array_equal(rec.cert_grid, engine.certificate_grid(dom, 100))
        assert rec.cert_grid.shape == (128, dim)
        del raw["grids"]
        rec = runner.execute(raw)
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
    record = runner.execute(RUN_D2_SEED0)
    rows = analysis.Certificates(record).bound.rows
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
    # 4 matrix runs (one per rule, certified at each gamma_tilde), 15 bound
    # runs, 3 P-greedy runs, 2 inconsistency runs
    assert len(seen) == 24
    # the matrix's eight configs, each gamma_tilde's included, are valid too
    assert len(MATRIX_CONFIGS) == 8
    for raw in MATRIX_CONFIGS:
        validate_config(raw)


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
    record = runner.execute(raw)
    bound = analysis.Certificates(record).bound
    smallest = min(row["rhs"] for row in bound.rows)
    assert bound.reference_self_error > 10 * analysis.ORACLE_TOL * smallest
    report = runner.build_report(raw, record)
    assert report["error_bound"]["ok"]
    assert [f for f in report["findings"] if f.startswith("oracle self-error")] == [
        f"oracle self-error {bound.reference_self_error:g} exceeds 0.001 of the "
        f"smallest bound {smallest:g}: the reference is too coarse to check it "
        f"(raise grids.oracle)"]


def test_d3_default_oracle_is_fine_enough_for_the_bound():
    raw = box_config(3, 4)
    record = runner.execute(raw)
    assert record.oracle_resolution == 16
    report = runner.build_report(raw, record)
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


def test_cli_run_computes_the_reference_once(tmp_path, monkeypatch):
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


@pytest.mark.parametrize("command", ["run-onto-a-file", "config-missing",
                                     "rates-trace-missing", "rates-out-under-a-file",
                                     "verify-out-under-a-file"])
def test_cli_exit_code_2_on_a_path_it_cannot_read_or_write(tmp_path, capsys,
                                                           monkeypatch, command):
    monkeypatch.setattr(verify, "run_all", lambda: [])
    cfg = write_config(tmp_path, MINIMAL)
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(trace_lines()) + "\n")
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    missing = tmp_path / "missing"
    argv, path = {
        "run-onto-a-file": (["run", cfg, "--out", str(a_file)], a_file),
        "config-missing": (["run", str(missing), "--out", str(tmp_path / "o")], missing),
        "rates-trace-missing": (["rates", str(missing)], missing),
        "rates-out-under-a-file": (["rates", str(trace), "--out", f"{a_file}/x.json"],
                                   a_file),
        "verify-out-under-a-file": (["verify", "--out", f"{a_file}/x.json"], a_file),
    }[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and err.count("\n") == 1
    assert repr(str(path)) in err


@pytest.mark.parametrize("command", ["run", "rates", "rates-row"])
def test_cli_exit_code_2_on_a_file_that_is_not_utf8(tmp_path, capsys, command):
    # \xff starts no UTF-8 sequence: the first byte of a config or trace, or
    # one in a trace row past the lines the trace's checks read first
    path = tmp_path / "not-utf8"
    lines = [line.encode() for line in trace_lines()]
    lines[6] += b"\xff"
    path.write_bytes(b"\n".join(lines) if command == "rates-row" else b"\xff\xfe{}")
    argv = (["run", str(path), "--out", str(tmp_path / "o")] if command == "run"
            else ["rates", str(path)])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (f"config error: {path}: not UTF-8 text "
                                       "(invalid start byte)\n")
    assert not (tmp_path / "o").exists()


def test_rates_and_verify_out_make_their_parent_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "run_all", lambda: [])
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(trace_lines()) + "\n")
    rates_out, verify_out = tmp_path / "new" / "a" / "x.json", tmp_path / "new" / "v.json"
    assert cli.main(["rates", str(trace), "--out", str(rates_out)]) == 0
    assert cli.main(["verify", "--out", str(verify_out)]) == 0
    assert json.loads(rates_out.read_text())[0]["dim"] == 1
    assert json.loads(verify_out.read_text()) == {"checks": [], "all_ok": True}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_experiment_returns_each_directory_and_its_findings(tmp_path, capsys,
                                                               monkeypatch, threads):
    # at budget 40 the run stops early, a finding; at budget 5 it does not
    monkeypatch.setenv("ABQ_LAB_THREADS", threads)
    raw = json.loads(json.dumps(MINIMAL))
    raw["matrix"] = {"budget": [5, 40]}
    written = runner.run_experiment(raw, str(tmp_path / "r"))
    assert written == [(str(tmp_path / "r" / "budget=5"), 0),
                       (str(tmp_path / "r" / "budget=40"), 1)]
    for target, findings in written:
        report = json.loads((Path(target) / "report.json").read_text())
        assert len(report["findings"]) == findings
    assert cli.main(["run", write_config(tmp_path, raw), "--out", str(tmp_path / "c")]) == 0
    assert capsys.readouterr().out.endswith("2 experiment(s), 1 finding(s)\n")


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
    # the SE kernel's model refits from the trace as the report fit it
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert fits[0]["fits"]["exponential"] == report["rate_fits"]["exponential"]


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


def truncnorm_pdf(x, center, scale):
    """scipy's truncated-Gaussian density on [0, 1]^d at the point x."""
    from scipy.stats import truncnorm

    lo, hi = -np.asarray(center) / scale, (1 - np.asarray(center)) / scale
    return float(np.prod(truncnorm.pdf(x, lo, hi, loc=center, scale=scale)))


# each density with its (inf, sup), which no point of the 256^2 probe grid
# (multiples of 1/255) reaches: the Gaussian's peak at (0.3, 0.6), and the
# tabulated nodes (1/7, 1/2) and (5/7, 1/2), the interpolant's extremes
TABULATED = np.ones((8, 3))
TABULATED[1, 1], TABULATED[5, 1] = 3.0, 0.25
VBMC_DENSITIES = {
    "truncated-gaussian": (
        {"kind": "truncated-gaussian", "center": [0.3, 0.6], "scale": [0.2, 0.3]},
        # each factor is least at its endpoint farther from the centre
        lambda: (truncnorm_pdf([1.0, 0.0], [0.3, 0.6], [0.2, 0.3]),
                 truncnorm_pdf([0.3, 0.6], [0.3, 0.6], [0.2, 0.3]))),
    "tabulated": ({"kind": "tabulated", "values": TABULATED.tolist()},
                  lambda: (0.25, 3.0)),
}


@pytest.mark.parametrize("name", list(VBMC_DENSITIES))
def test_report_vbmc_envelope_from_the_density_extremes(tmp_path, name):
    density, extremes = VBMC_DENSITIES[name]
    inf, sup = extremes()
    raw = box_config(2, budget=4)
    raw["acquisition"]["b"] = {"kind": "vbmc", "density": density, "delta2": 1.5,
                               "delta3": 0.5}
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "r")]) == 0
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    # [C_L, C_U] = [inf pi^d2 e^-w, sup pi^d2 e^w], w = d3 (sup|m| + 2||g|| sqrt(sup k))
    problem, _ = build_problem(raw)
    probe = config.build_density(density, problem.domain)(problem.domain.probe_grid())
    assert inf < np.min(probe) or np.max(probe) < sup
    width = 0.5 * (5.0 + 2.0 * rkhs_norm(problem.integrand) * 1.0)
    clcu = report["clcu"]
    assert clcu["present"]
    assert clcu["c_l"] == pytest.approx(inf ** 1.5 * np.exp(-width), rel=1e-12)
    assert clcu["c_u"] == pytest.approx(sup ** 1.5 * np.exp(width), rel=1e-12)
    weak = report["weak_adaptivity"]
    assert set(weak) == {"b_min", "b_max", "within_envelope"}
    assert weak["within_envelope"]
    # Power(1.0) and gamma_tilde 1: gamma = sqrt(psi(C_L / C_U)), psi(c) = c
    gamma = report["certificate"]["gamma_theoretical"]
    assert gamma == np.sqrt(clcu["c_l"] / clcu["c_u"])


def matern_d1_config(mean, transform, b, centers, weights):
    """A d=1 run on [0, 1]: Matern 2.5/0.3, uniform pi and q, budget 10 on
    the 512-point certificate grid."""
    return {**MINIMAL, "kernel": {"family": "matern", "nu": 2.5, "ell": 0.3},
            "mean": mean, "transform": transform,
            "integrand": {"kind": "synthetic", "centers": centers, "weights": weights},
            "acquisition": {**MINIMAL["acquisition"], "b": b}}


def test_a_sign_changing_affine_mean_has_no_wsabi_envelope(tmp_path):
    # m = 1000 x - 500.5 crosses 0 at x = 0.5005, between the probe grid's
    # points, where |m| is at least 0.478: inf |m| over the box is 0, so the
    # WSABI hypothesis inf|m| > 2||g|| sqrt(sup k) fails
    raw = matern_d1_config({"kind": "affine", "slope": [1000.0], "offset": -500.5},
                           {"kind": "square", "alpha": 2.0}, {"kind": "wsabi_l"},
                           [[0.3]], [0.05])
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "r")]) == 0
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert report["clcu"] == {"present": False,
                              "reason": "hypothesis inf|m| > 2||g||sqrt(sup k) fails "
                                        "(0.0 <= 0.1)"}
    assert report["certificate"]["gamma_theoretical"] is None


# MMLT's b = exp(var + 2 m) passes the exp limit 700 at its first step, under
# the prior variance 1: at m = 400 (exponent 801) and at m = 352 (705)
@pytest.mark.parametrize("mean, transform", [(400.0, "exponential"),
                                             (352.0, "identity")])
def test_an_mmlt_exponent_past_the_exp_limit_exits_3(tmp_path, capsys, mean, transform):
    raw = matern_d1_config({"kind": "constant", "value": mean}, {"kind": transform},
                           {"kind": "mmlt"}, [[0.3], [0.7]], [2.0, -1.5])
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("abort (SaturationError): mmlt: exp overflow for exponent ")
    assert err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def test_an_envelope_whose_c_u_overflows_is_absent(tmp_path, capsys):
    # sup |m| = 352: C_U = exp(sup k + 2 sup|m| + 2 spread), an exponent of
    # about 713; m = -352 keeps the run's own b = exp(var + 2 m) near 0
    raw = matern_d1_config({"kind": "constant", "value": -352.0}, {"kind": "identity"},
                           {"kind": "mmlt"}, [[0.3], [0.7]], [2.0, -1.5])
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "r")]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    clcu = report["clcu"]
    assert not clcu["present"] and "c_u" not in clcu
    assert clcu["reason"].startswith("C_U's exponent 71")
    assert clcu["reason"].endswith("passes the exp limit 700.0")
    assert report["certificate"]["gamma_theoretical"] is None


def test_report_of_a_vbmc_envelope_with_c_l_zero(tmp_path):
    # the density vanishes at one corner, so C_L = 0 and the theoretical
    # gamma is 0 (a vacuous certificate), as gamma_hat is for b_min = 0
    raw = box_config(2, budget=10)
    raw["acquisition"]["b"] = {"kind": "vbmc", "density": {
        "kind": "tabulated", "values": [[1.0, 1.0], [1.0, 0.0]]}}
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "r")]) == 0
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert report["iterations"] == 10
    assert report["clcu"]["present"] and report["clcu"]["c_l"] == 0.0
    assert report["certificate"]["gamma_theoretical"] == 0.0


def test_report_bound_reads_the_trace_estimates(tmp_path, monkeypatch):
    # the bound's left side is |reference - est_plugin|, the trace's column;
    # one walk at the run's resolution gives the coarse reference, the
    # integral of |f| pi the rounding allowance reads and the integral of
    # pi/q, and one at the refined resolution (2 * 256) gives the reference
    # and the plug-in curve
    runner.run_experiment(MINIMAL, str(tmp_path))
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    column = lines[1].split(",").index("abs_error_plugin")
    traced = [float(line.split(",")[column]) for line in lines[2:]]
    record = runner.execute(MINIMAL)
    walk, walks = analysis.weighted_integrals, []

    def counting(dom, resolution, pi, *terms, **kwargs):
        values = walk(dom, resolution, pi, *terms, **kwargs)
        walks.append((resolution, len(values)))
        return values

    monkeypatch.setattr(analysis, "weighted_integrals", counting)
    lhs = [row["lhs"] for row in analysis.Certificates(record).bound.rows]
    assert len(traced) == record.n and lhs == traced
    assert walks == [(256, 3), (512, 1 + record.n)]


def test_cli_rates_rejects_foreign_csv(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b\n1,2\n")
    assert cli.main(["rates", str(path)]) == 2


def trace_lines():
    """A d=1 trace of 12 rows whose sup_q_sqrt_k halves at each step."""
    header = ("n,x0,sup_q_sqrt_k,plugin_estimate,expectation_estimate,"
              "abs_error_plugin,abs_error_expectation,b_min,b_max,fill_distance")
    rows = [f"{n},0.5,{0.5 ** n!r},1.0,1.0,0.1,0.1,1.0,1.0,0.5" for n in range(1, 13)]
    return [f"# {runner.TRACE_SCHEMA}", header, *rows]


def replace_cell(line, column, cell):
    cells = line.split(",")
    cells[column] = cell
    return ",".join(cells)


@pytest.mark.parametrize("edit, lineno", [
    pytest.param(lambda t: t[1].replace("sup_q_sqrt_k", "e"), 2, id="no-sup-column"),
    pytest.param(lambda t: t[1].replace("n,", "step,", 1), 2, id="no-n-column"),
    pytest.param(lambda t: t[1].replace("x0,", "y0,"), 2, id="no-x-column"),
    pytest.param(lambda t: replace_cell(t[6], 2, "abc"), 7, id="non-numeric"),
    pytest.param(lambda t: replace_cell(t[6], 7, "nan"), 7, id="nan"),
    pytest.param(lambda t: replace_cell(t[9], 0, "inf"), 10, id="inf"),
    pytest.param(lambda t: t[4].rsplit(",", 1)[0], 5, id="short-row"),
    pytest.param(lambda t: t[4] + ",1.0", 5, id="long-row"),
])
def test_cli_rates_names_the_line_of_a_malformed_trace(tmp_path, capsys, edit, lineno):
    path = tmp_path / "trace.csv"
    lines = trace_lines()
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["rates", str(path)]) == 0
    lines[lineno - 1] = edit(lines)
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["rates", str(path)]) == 2
    assert f"config error: {path}:{lineno}: " in capsys.readouterr().err


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
    # the config check is in the package; no abqlab command imports
    # numpy.random; no density imports scipy, a truncated Gaussian and a
    # tabulated one built and evaluated included (a d > 10 certificate grid
    # raises DomainError).
    # Counted over what `import numpy` loads, since numpy < 2 imports
    # numpy.random itself.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, numpy; numpy_alone = set(sys.modules); import abqlab.cli; "
            "from abqlab.domain import Domain, TabulatedDensity, "
            "TruncatedGaussianDensity; "
            "TruncatedGaussianDensity(Domain((0.0,), (1.0,)), center=[3.0], "
            "scale=[0.3])([0.5]); "
            "TabulatedDensity(Domain((0.0, 0.0), (1.0, 2.0)), "
            "[[1.0, 2.0], [0.5, 3.0]])([0.5, 1.0]); "
            "print(sorted(m for m in set(sys.modules) - numpy_alone "
            "if m.split('.')[0] in ('jsonschema', 'scipy') "
            "or m.startswith('numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_verify_and_a_matrix_run_at_width_two_load_no_pool_module(tmp_path):
    # runner.pool_map forks its own workers: neither command loads
    # multiprocessing or concurrent.futures, and each writes the bytes it
    # writes at width 1 (verify's but for its seconds)
    raw = json.loads(json.dumps(MINIMAL))
    raw["budget"] = 5
    raw["matrix"] = {"acquisition.gamma_tilde": [1.0, 0.5]}
    cfg = write_config(tmp_path, raw)
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, abqlab.cli; code = abqlab.cli.main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing' "
            "or m.startswith('concurrent.futures'))); sys.exit(code)")
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        for argv in (["verify", "--out", str(out / "verify.json")],
                     ["run", cfg, "--out", str(out / "run")]):
            done = subprocess.run([sys.executable, "-c", code, *argv], check=True,
                                  text=True, capture_output=True,
                                  env={**os.environ, "PYTHONPATH": src,
                                       "ABQ_LAB_THREADS": threads})
            assert done.stdout.splitlines()[-1] == "[]", (argv, threads)
        lines = (out / "verify.json").read_bytes().splitlines(keepends=True)
        runs = sorted((out / "run").glob("*/*"))
        assert len(runs) == 4
        written.append(([line for line in lines if b'"seconds": ' not in line],
                        [(path.relative_to(out), path.read_bytes()) for path in runs]))
    assert b'"all_ok": true' in b"".join(written[0][0])
    assert written[0] == written[1]


def test_truncated_gaussians_and_the_projection_check_load_no_scipy():
    # the truncated Gaussian's normaliser is computed on math.erf/erfc, and
    # a tabulated density interpolates with numpy alone
    src = str(Path(cli.__file__).resolve().parents[1])
    code = textwrap.dedent("""
        import sys
        from abqlab import verify
        from abqlab.domain import Domain, TabulatedDensity, TruncatedGaussianDensity

        dom = Domain((0.0, -1.0), (1.0, 2.0))
        TruncatedGaussianDensity(dom, center=[3.0, 0.5], scale=[0.3, 2.0])
        TabulatedDensity(dom, [[1.0, 2.0, 0.5], [3.0, 0.0, 1.0]]).bounds()
        TabulatedDensity(dom, [[1.0, 2.0, 0.5], [3.0, 0.0, 1.0]])(dom.probe_grid())
        assert verify.check_projection_identity()[0]
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


NO_SCIPY = textwrap.dedent("""
    import sys

    class NoScipy:
        \"\"\"An import finder that makes every scipy module unimportable.\"\"\"

        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"scipy is blocked: {name}")
            return None

    sys.meta_path.insert(0, NoScipy())
    import abqlab.cli

    code = abqlab.cli.main(sys.argv[1:])
    try:
        import scipy  # noqa: F401
    except ImportError:
        sys.exit(code)
    sys.exit("the finder let scipy through")
""")


def test_tabulated_vbmc_run_needs_no_scipy(tmp_path):
    # tabulated pi, q and VBMC density: the run's artifacts with scipy
    # unimportable are those of a run that may import it
    rng = np.random.default_rng(3)
    raw = box_config(2, budget=12)
    pi, q, density = (rng.uniform(low, 2.0, shape).tolist()
                      for low, shape in ((0.5, (4, 3)), (0.5, (3, 5)), (0.2, (5, 4))))
    raw["pi"] = {"kind": "tabulated", "values": pi}
    raw["acquisition"]["q"] = {"kind": "tabulated", "values": q}
    raw["acquisition"]["b"] = {"kind": "vbmc", "delta2": 1.5, "delta3": 0.5,
                               "density": {"kind": "tabulated", "values": density}}
    cfg = write_config(tmp_path, raw)
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", NO_SCIPY, "run", cfg,
                          "--out", str(tmp_path / "blocked")],
                         text=True, capture_output=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert cli.main(["run", cfg, "--out", str(tmp_path / "free")]) == 0
    for name in ("trace.csv", "report.json"):
        blocked = (tmp_path / "blocked" / name).read_bytes()
        assert blocked == (tmp_path / "free" / name).read_bytes(), name


def test_cli_runs_load_no_module_the_import_did_not(tmp_path):
    # a numpy submodule first touched inside a run (numpy.ma by np.unique)
    # costs its import in the command's own time; no command imports
    # numpy.random
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
