"""README's code blocks run as written: the library sketch and the minimal
config through `abqlab run`."""

import json
import re
from pathlib import Path

from abqlab import cli, config, engine, runner

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
