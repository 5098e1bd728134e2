"""The verification suite's own machinery: the streamed Monte Carlo moment
check against a dense reference, its memory bound, the builtin matrix's
one run per rule, how `run_all` bills the shared matrix runs, and its
process pool: the same summary at every width, a check's error raised as
in process, and no numpy.random module loaded by any check."""

import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from abqlab import analysis, cli, gp, kernels, runner, transforms, verify
from abqlab.domain import BLOCK_POINTS, ConstantMean
from abqlab.exceptions import SaturationError


def dense_worst_sigma(seed, n_mc, n_query):
    """The moment check's worst |closed - MC| / se, over one array of all
    n_mc draws, replaying the check's generator calls."""
    rng = random.Random(seed)
    X = verify._uniform(rng, 0.1, 0.9, (6, 1))
    z = 0.3 + 0.5 * verify._normal(rng, 6)
    state = gp.build_state(kernels.Matern(nu=2.5, ell=0.3), ConstantMean(0.2), X, z)
    queries = verify._uniform(rng, 0.0, 1.0, (n_query, 1))
    post = gp.GridPosterior(state, queries)
    draws = verify._normal(rng, n_mc)
    worst = 0.0
    for t in (transforms.Square(alpha=1.0), transforms.Exponential()):
        for mu, v in zip(post.mean, post.var):
            samples = t.forward(mu + np.sqrt(v) * draws)
            se = np.std(samples, ddof=1) / np.sqrt(n_mc)
            if se > 0:
                closed = t.posterior_expectation(mu, v)
                worst = max(worst, float(abs(closed - np.mean(samples)) / se))
    return worst


def test_streamed_moment_check_equals_the_dense_one():
    n_mc, n_query = 100_003, 20
    assert n_mc % (BLOCK_POINTS // n_query) != 0  # a partial last block
    ok, detail = verify.check_moment_estimator(n_mc=n_mc, n_query=n_query)
    dense = dense_worst_sigma(5, n_mc, n_query)
    assert ok and detail["mc_samples"] == n_mc
    assert abs(detail["worst_sigma"] - dense) <= 1e-9 * dense


def test_normals_drawn_in_even_blocks_replay_one_call_and_uniforms_stay_in_range():
    whole = verify._normal(random.Random(5), 10_001)
    rng = random.Random(5)
    blocks = [verify._normal(rng, n) for n in (2, 3276, 6552, 170, 1)]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()
    assert abs(np.mean(whole)) < 0.05 and abs(np.std(whole) - 1.0) < 0.05
    u = verify._uniform(random.Random(3), -0.4, 0.4, (500, 4))
    assert u.shape == (500, 4) and np.all((-0.4 <= u) & (u < 0.4))

    class Extremes:
        """Eight zero bytes, then eight all-ones bytes."""

        def randbytes(self, n):
            assert n == 16
            return b"\x00" * 8 + b"\xff" * 8

    # 53 bits of each word: the extremes are 0 and the largest double below 1
    assert verify._uniform(Extremes(), 0.0, 1.0, 2).tolist() == [0.0, 1.0 - 2.0 ** -53]


def test_moment_check_memory_stays_under_one_array_of_draws():
    n_mc = 1_000_000
    tracemalloc.start()
    try:
        ok, detail = verify.check_moment_estimator()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and detail["mc_samples"] == n_mc
    assert peak < 8 * n_mc, peak


def test_gamma_tilde_changes_no_matrix_run_so_each_rule_runs_once(monkeypatch):
    # gamma_tilde is the slack of an approximate maximiser, and the engine's
    # grid argmax is exact: a rule's run at each gamma_tilde is one record.
    # Should the engine come to read gamma_tilde, this fails first.
    configs = {f"{name}__gamma_tilde={gt}":
               {**raw, "acquisition": {**raw["acquisition"], "gamma_tilde": gt}}
               for name, raw in verify._rules() for gt in verify.GAMMA_TILDES}
    for name, _ in verify._rules():
        one, half = (runner.execute(configs[f"{name}__gamma_tilde={gt}"])
                     for gt in verify.GAMMA_TILDES)
        assert (one.spec.gamma_tilde, half.spec.gamma_tilde) == verify.GAMMA_TILDES
        for part in ("X", "chol", "beta"):
            assert np.array_equal(getattr(one.state, part), getattr(half.state, part))
        for part in ("sup_qk", "b_min", "b_max", "est_plugin", "est_expectation",
                     "clamp_events", "stop_cause"):
            assert getattr(one, part) == getattr(half, part), (name, part)
    execute, calls = runner.execute, []
    monkeypatch.setattr(runner, "execute", lambda raw: calls.append(raw) or execute(raw))
    runs = verify.matrix_runs()
    assert len(calls) == 4
    assert [name for name, _ in runs] == list(configs)
    assert len({id(certs.record.state) for _, certs in runs}) == 4
    for name, certs in runs:
        gt = configs[name]["acquisition"]["gamma_tilde"]
        assert certs.record.spec.gamma_tilde == gt
        assert certs.greedy.gamma_hat == analysis.weak_greedy_gamma(
            certs.record.spec, *certs.b_range)
    # the constant rule's b is 1, so its gamma_hat is sqrt(gamma_tilde)
    gammas = [certs.greedy.gamma_hat for _, certs in runs[:2]]
    assert gammas == [1.0, float(np.sqrt(0.5))]


def test_an_absent_envelope_fails_the_envelope_check():
    # the inconsistency check's zero-mean run: WSABI-L's b = m^2 has no
    # lower envelope, so its row names the reason and the check fails
    certs = analysis.Certificates(runner.execute(verify._inconsistency_config(0.0)))
    assert not certs.clcu.present
    ok, detail = verify.check_adaptivity_envelopes([("zero-mean", certs)])
    assert not ok
    assert detail == {"runs": [{"run": "zero-mean", "envelope": "absent",
                                "reason": certs.clcu.reason}]}


def test_the_whole_suite_loads_no_numpy_random():
    # every check in one process, at width 1; counted over what `import
    # numpy` loads, since numpy < 2 imports numpy.random itself
    code = ("import sys, numpy; numpy_alone = set(sys.modules); "
            "from abqlab import verify; "
            "assert all(r.ok for r in verify.run_all()); "
            "print(sorted(m for m in set(sys.modules) - numpy_alone "
            "if m.startswith('numpy.random')))")
    src = str(Path(verify.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": src, "ABQ_LAB_THREADS": "1"})
    assert out.stdout.strip() == "[]"


def test_run_all_bills_the_matrix_runs_to_the_certificate_check(monkeypatch):
    def slow_matrix():
        time.sleep(0.2)
        return []

    monkeypatch.setattr(verify, "matrix_runs", slow_matrix)
    for name in ("check_projection_identity", "check_psi_inequality",
                 "check_certificates", "check_adaptivity_envelopes",
                 "check_error_bound", "check_rate_infinite", "check_rate_finite",
                 "check_moment_estimator", "check_inconsistency_caveat"):
        monkeypatch.setattr(verify, name, lambda *args: (True, {}))
    results = verify.run_all()
    seconds = {r.tag: r.seconds for r in results}
    assert [r.tag for r in results][2] == "weak-greedy-certificate"
    assert seconds["weak-greedy-certificate"] >= 0.2
    assert sum(seconds.values()) - seconds["weak-greedy-certificate"] < 0.2


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_all_bills_the_matrix_runs_the_same_at_each_width(monkeypatch, threads):
    monkeypatch.setenv("ABQ_LAB_THREADS", threads)
    test_run_all_bills_the_matrix_runs_to_the_certificate_check(monkeypatch)


def test_verify_summary_but_its_seconds_is_the_same_at_every_width(tmp_path,
                                                                   monkeypatch):
    summaries = []
    for threads in ("1", "2", None):
        if threads is None:  # the default, the CPUs this process may run on
            monkeypatch.delenv("ABQ_LAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("ABQ_LAB_THREADS", threads)
        out = tmp_path / f"{threads}.json"
        assert cli.main(["verify", "--out", str(out)]) == 0
        lines = out.read_bytes().splitlines(keepends=True)
        summaries.append(b"".join(line for line in lines if b'"seconds": ' not in line))
    assert b'"all_ok": true' in summaries[0]
    assert summaries[0] == summaries[1] == summaries[2]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_check_raising_in_a_worker_exits_as_in_process(tmp_path, monkeypatch, capsys,
                                                         threads):
    ran_in = tmp_path / "pid"

    def overflowing():
        ran_in.write_text(str(os.getpid()))
        raise SaturationError("exp overflow in a planted check")

    for _, name in verify.TASKS:
        monkeypatch.setattr(verify, name, lambda: (True, {}))
    monkeypatch.setattr(verify, "matrix_runs", lambda: [])
    monkeypatch.setattr(verify, "check_psi_inequality", overflowing)
    monkeypatch.setenv("ABQ_LAB_THREADS", threads)
    assert cli.main(["verify"]) == 3
    out = capsys.readouterr()
    assert out.err == "abort (SaturationError): exp overflow in a planted check\n"
    assert out.out == ""
    pid = int(ran_in.read_text())
    assert (pid == os.getpid()) == (threads == "1")
    # every worker was reaped: none is left, and the one that raised is gone
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if pid != os.getpid():
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
