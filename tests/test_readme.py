"""README's code blocks run as written: the library sketch and the minimal
config through `abqlab run`; and the module names its prose cites exist."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import abqlab
from abqlab import analysis, cli, config, engine, runner

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(after, lang):
    """The first fenced `lang` block that follows the line `after`."""
    match = re.search(rf"^{re.escape(after)}\n+```{lang}\n(.*?)^```", README,
                      re.MULTILINE | re.DOTALL)
    assert match, f"no {lang} block after {after!r} in README.md"
    return match.group(1)


def test_readme_library_sketch_runs(capsys):
    namespace = {}
    exec(block("## Library sketch", "python"), namespace)
    record, cert, bound = namespace["record"], namespace["cert"], namespace["bound"]
    assert record.n == 20
    assert cert.ok and bound.ok
    assert len(capsys.readouterr().out.split()) == 4


def test_readme_minimal_config_runs(tmp_path):
    raw = json.loads(block("Minimal config:", "json"))
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["iterations"] == 12 and report["converged_early"]
    assert report["error_bound"]["ok"]
    assert "skipped_dependent" not in report
    stops = [f for f in report["findings"] if f.startswith("run stopped after")]
    assert stops == ["run stopped after 12 of 30 steps: every candidate is "
                     "spanned by the design"]


def test_rates_refits_the_minimal_runs_trace_to_its_report_fit(tmp_path):
    # e_12 is above the report's 1e-7 floor, so `abqlab rates` (floor 1e-12)
    # fits the same series and gives the report's fit, bit for bit
    raw = json.loads(block("Minimal config:", "json"))
    (tmp_path / "minimal.json").write_text(json.dumps(raw))
    assert cli.main(["run", str(tmp_path / "minimal.json"), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert list(report["rate_fits"]) == ["exponential"]
    fit = report["rate_fits"]["exponential"]
    assert fit["slope"] == -1.3449454329009658 and fit["n_range"] == [5, 12]
    rates = runner.trace_rate_fits(str(tmp_path / "trace.csv"))
    assert rates["fits"]["exponential"] == fit


def test_readme_minimal_config_evaluates_only_kept_points(monkeypatch):
    # SE gamma 0.5 on a 512-point uniform grid: after 12 points the design
    # spans every grid point, so the run stops without evaluating any of them
    raw = json.loads(block("Minimal config:", "json"))
    integrand_type = type(config.build_problem(raw)[0].integrand)
    call = integrand_type.__call__
    calls = []
    monkeypatch.setattr(integrand_type, "__call__",
                        lambda self, X: calls.append(len(X)) or call(self, X))
    record = runner.execute(raw)
    assert record.n == 12 and record.stop_cause == engine.STOP_SPANNED
    assert sum(calls) == 12


def test_readme_minimal_config_refuses_a_default_alpha_under_a_negative_latent(
        tmp_path, capsys):
    # mean -2 keeps the two-bumps latent negative on the whole box; the square
    # warp's inverse takes the nonnegative root, so the run would condition on
    # |m + g| under prior mean m
    raw = json.loads(block("Minimal config:", "json"))
    raw["mean"] = {"kind": "constant", "value": -2.0}
    raw["transform"] = {"kind": "square"}
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert "alpha" in err and "not positive everywhere" in err, err
    assert not (tmp_path / "out").exists()


def test_readme_minimal_config_with_no_centres_has_no_oracle_finding(tmp_path):
    # the integrand is the prior mean 5, so ||g|| = 0 and the bound's rhs is
    # its slack alone: the rounding allowance keeps the oracle's 1.8e-15
    # self-error within ORACLE_TOL of it
    raw = json.loads(block("Minimal config:", "json"))
    raw["mean"] = {"kind": "constant", "value": 5.0}
    raw["integrand"] = {"kind": "synthetic", "centers": [], "weights": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    bound = report["error_bound"]
    assert bound["ok"] and bound["violations"] == [], report["findings"]
    eps = float(np.finfo(float).eps)
    assert bound["constants"]["rounding"] == pytest.approx(analysis.ROUNDING * eps * 5.0)
    assert not [f for f in report["findings"] if f.startswith("oracle self-error")]


def cited_names():
    """Each `<module>.<name>` inside a backticked span of README prose, code
    fences left out, where <module> is an abqlab module and <name> is
    called, capitalized or private: a function, class, constant or helper
    the prose cites, not a config key such as `domain.lower`."""
    prose = re.sub(r"^```.*?^```", "", README, flags=re.MULTILINE | re.DOTALL)
    modules = {info.name for info in pkgutil.iter_modules(abqlab.__path__)}
    for span in re.findall(r"`([^`]+)`", prose):
        for match in re.finditer(r"(?<![\w.])(\w+)\.(\w+)(\()?", span):
            module, name, call = match.groups()
            if module in modules and (call or name[0].isupper() or name[0] == "_"):
                yield module, name


def test_readme_names_resolve():
    cited = sorted(set(cited_names()))
    assert len(cited) > 30
    missing = [f"{module}.{name}" for module, name in cited
               if not hasattr(importlib.import_module(f"abqlab.{module}"), name)]
    assert missing == []
