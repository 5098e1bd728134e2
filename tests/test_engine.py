import copy
import dataclasses
import importlib.util
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from abqlab import analysis, engine, gp, runner, verify
from abqlab.acquisition import (AcquisitionSpec, ConstantRule, Power, Vbmc,
                                WsabiL, WsabiM)
from abqlab.config import build_problem
from abqlab.domain import (
    ConstantMean,
    Domain,
    SyntheticIntegrand,
    UniformDensity,
    quadrature_nodes,
    weighted_integrals,
)
from abqlab.exceptions import (BudgetExceededError, DomainError, LinearDependenceError,
                               NonFiniteIntegrandError, NumericalDegradationError)
from abqlab.kernels import Matern, SquaredExponential
from abqlab.transforms import Identity, Square

DOM = Domain((0.0,), (1.0,))


def make_problem(kernel=None, mean_value=0.0):
    kernel = kernel or Matern(1.5, 0.25)
    integrand = SyntheticIntegrand(
        centers=np.array([[0.3], [0.7]]), weights=np.array([0.6, -0.4]),
        prior_mean=ConstantMean(mean_value), kernel=kernel, transform=Identity(),
    )
    return engine.Problem(integrand=integrand, pi=UniformDensity(DOM), domain=DOM)


def p_greedy_spec():
    return AcquisitionSpec(outer=Power(1.0), q=UniformDensity(DOM),
                           b=ConstantRule(1.0), gamma_tilde=1.0)


def test_run_abq_picks_the_oracle_resolution_by_dimension():
    # at most 4096 nodes in total and 256 per dim, never below 8 per dim,
    # so the report's rule at twice the resolution stays under the 1e7 guard
    for dim, expected in ((1, 256), (2, 64), (3, 16), (4, 8), (5, 8)):
        dom = Domain((0.0,) * dim, (1.0,) * dim)
        integrand = SyntheticIntegrand(
            centers=np.full((1, dim), 0.4), weights=np.array([0.5]),
            prior_mean=ConstantMean(0.0), kernel=Matern(1.5, 0.25),
            transform=Identity(),
        )
        problem = engine.Problem(integrand=integrand, pi=UniformDensity(dom),
                                 domain=dom)
        spec = AcquisitionSpec(outer=Power(1.0), q=UniformDensity(dom),
                               b=ConstantRule(1.0), gamma_tilde=1.0)
        _, rec = engine.run_abq(problem, spec, 2)
        assert rec.n == 2
        assert rec.oracle_resolution == expected


def test_certificate_grid_is_pow2_sobol():
    grid = engine.certificate_grid(DOM, size=100)
    assert grid.shape == (128, 1)
    assert np.array_equal(grid, engine.certificate_grid(DOM, size=100))


@pytest.mark.parametrize("dim", range(1, 11))
def test_certificate_grid_is_scipy_sobol_byte_for_byte(dim):
    # the Joe-Kuo table of d <= 10
    from scipy.stats import qmc

    dom = Domain(tuple(-0.5 + 0.1 * i for i in range(dim)),
                 tuple(1.0 + 0.3 * i for i in range(dim)))
    for n in (1, 2, 64, 1024, engine._next_pow2(2048 * dim)):
        grid = engine.certificate_grid(dom, n)
        want = qmc.scale(qmc.Sobol(dim, scramble=False).random(n),
                         dom.lower, dom.upper)
        assert grid.dtype == want.dtype and grid.shape == want.shape
        assert grid.tobytes() == want.tobytes()


def test_certificate_grid_stops_at_d_10():
    dom = Domain((0.0,) * 11, (1.0,) * 11)
    with pytest.raises(DomainError, match="d = 11"):
        engine.certificate_grid(dom, 64)


def test_select_matches_exhaustive_argmax():
    problem = make_problem()
    spec = p_greedy_spec()
    state = gp.build_state(problem.integrand.kernel, problem.integrand.prior_mean,
                           np.array([[0.4]]), [0.1])
    grid = DOM.uniform_grid(101)
    post = gp.GridPosterior(state, grid)
    a, _, _ = spec.evaluate(grid, post.mean, post.var)
    spanned = post.spanned()
    assert spanned[40] and np.count_nonzero(spanned) == 1  # the design point 0.4
    best = post.select(a)
    assert not spanned[best]
    assert all(a[best] >= value for value in a[~spanned])


def test_certificate_grid_is_a_net_at_the_covering_radius():
    # Sobol' dimension j is a (t_j)-sequence with t_j = deg p_j - 1 (the
    # first, van der Corput, has t = 0): each elementary box of volume
    # 2^(t-m), in the shape covering_radius takes on the unit cube, holds
    # exactly 2^t of the first 2^m points
    t = 0
    for d, poly in enumerate(engine._SOBOL_POLY, start=1):
        t += max(poly.bit_length() - 2, 0)
        unit = Domain((0.0,) * d, (1.0,) * d)
        points = engine._sobol(d, 2 ** 15)
        for m in range(max(t, 4), 16):
            r = m - t
            k = np.array([r // d + (i < r % d) for i in range(d)])
            cells = np.ravel_multi_index(
                np.floor(points[:2 ** m] * 2.0 ** k).astype(int).T, tuple(2 ** k))
            assert np.all(np.bincount(cells, minlength=2 ** r) == 2 ** t), (d, m)
            assert engine.covering_radius(unit, 2 ** m) == np.linalg.norm(2.0 ** -k)
    # the widest side is halved first; with m < t the box is the whole box
    assert engine.covering_radius(Domain((0.0, 0.0), (4.0, 1.0)), 4) == np.sqrt(2)
    assert engine.covering_radius(Domain((0.0,) * 4, (1.0,) * 4), 4) == 2.0


def test_run_records_the_grid_and_its_covering_radius():
    _, rec = engine.run_abq(make_problem(), p_greedy_spec(), 2, cert_points=100)
    assert np.array_equal(rec.cert_grid, engine.certificate_grid(DOM, 100))
    assert rec.cert_radius == engine.covering_radius(DOM, 128) == 2.0 ** -7


def test_flat_acquisition_breaks_ties_by_lowest_index():
    # empty state, constant-diagonal kernel, uniform q: all candidates tie
    spec = p_greedy_spec()
    state = gp.empty_state(SquaredExponential(0.5), ConstantMean(0.0), 1)
    grid = DOM.uniform_grid(16)
    post = gp.GridPosterior(state, grid)
    a, _, _ = spec.evaluate(grid, post.mean, post.var)
    assert np.all(a == a[0])
    assert post.select(a) == 0


def test_run_abq_is_deterministic():
    problem = make_problem()
    spec = p_greedy_spec()
    _, rec1 = engine.run_abq(problem, spec, 8, cert_points=128)
    _, rec2 = engine.run_abq(problem, spec, 8, cert_points=128)
    assert np.array_equal(rec1.state.X, rec2.state.X)
    assert rec1.sup_qk == rec2.sup_qk


def test_run_record_monotone_error_and_shapes():
    problem = make_problem()
    spec = p_greedy_spec()
    _, rec = engine.run_abq(problem, spec, 10, cert_points=128)
    assert rec.n == 10
    assert rec.state.X.shape == (10, 1)
    e = [rec.e0] + rec.sup_qk
    assert all(b <= a + 1e-12 for a, b in zip(e, e[1:]))


@pytest.mark.parametrize("budget, steps", [(6, 6), (100, 8)])
def test_run_record_carries_the_final_state_and_the_budget(budget, steps):
    # 8 grid points: a budget of 100 stops once the design spans all 8
    state, rec = engine.run_abq(make_problem(), p_greedy_spec(), budget, cert_points=8)
    assert state is rec.state
    assert rec.budget == budget and rec.n == state.n == steps
    assert rec.converged == (steps < budget)
    assert len(rec.sup_qk) == len(rec.est_plugin) == steps
    assert not hasattr(rec, "points") and not hasattr(rec, "design")


def test_identity_estimators_agree():
    problem = make_problem()
    spec = p_greedy_spec()
    _, rec = engine.run_abq(problem, spec, 6, cert_points=128)
    assert np.allclose(rec.est_plugin, rec.est_expectation, atol=1e-12)


def test_plugin_estimate_converges_to_reference():
    problem = make_problem()
    spec = p_greedy_spec()
    _, rec = engine.run_abq(problem, spec, 25, cert_points=256)
    (ref,) = weighted_integrals(DOM, 256, problem.pi, problem.integrand, functions=1)
    assert abs(rec.est_plugin[-1] - ref) < 1e-4


def test_exhausted_candidates_mark_convergence():
    problem = make_problem()
    spec = p_greedy_spec()
    _, rec = engine.run_abq(problem, spec, 10, cert_points=4)
    assert rec.converged and rec.stop_cause == engine.STOP_SPANNED
    assert rec.n <= 4


def test_full_budget_run_has_no_stop_cause():
    _, rec = engine.run_abq(make_problem(), p_greedy_spec(), 5)
    assert rec.n == 5 and rec.stop_cause is None and not rec.converged


def test_underflowing_acquisition_stops_with_its_own_cause():
    # zero integrand and zero mean: b = m^2 = 0 is lifted to the 1e-300
    # floor, and F(y) = y^20 times it underflows to 0 once every
    # unspanned candidate's variance is below about 0.2, far above the
    # spanned floor
    integrand = SyntheticIntegrand(
        centers=np.zeros((0, 1)), weights=np.zeros(0),
        prior_mean=ConstantMean(0.0), kernel=Matern(1.5, 0.25),
        transform=Identity(),
    )
    problem = engine.Problem(integrand=integrand, pi=UniformDensity(DOM),
                             domain=DOM)
    spec = AcquisitionSpec(outer=Power(20.0), q=UniformDensity(DOM), b=WsabiL())
    state, rec = engine.run_abq(problem, spec, 30, cert_points=64)
    assert 0 < rec.n < 30
    assert rec.stop_cause == engine.STOP_ZERO_ACQUISITION
    var = gp.GridPosterior(state, rec.cert_grid).var
    assert np.any(var > gp.dependence_floor(state.jitter_used, 1.0))


def test_masked_candidates_are_those_extend_rejects(monkeypatch, posteriors):
    # an 8-point grid, 1/8 apart at lengthscale 0.25: each step's design
    # points sit on the grid and the rest stay well separated from them.
    # At each selection, probe copies of the run's own grid posterior.
    probes = []
    select = gp.GridPosterior.select

    def spy(post, a):
        rejected = []
        for j in range(len(a)):
            try:
                copy.deepcopy(post).add(j, 0.0)
                rejected.append(False)
            except LinearDependenceError:
                rejected.append(True)
        probes.append((post.spanned(), np.array(rejected), post.state.n))
        index = select(post, a)
        assert index is None or not rejected[index]
        return index

    monkeypatch.setattr(gp.GridPosterior, "select", spy)
    _, rec = engine.run_abq(make_problem(), p_greedy_spec(), 10, cert_points=8)
    assert rec.n == 8 and rec.stop_cause == engine.STOP_SPANNED
    assert len(posteriors) == 1 and len(probes) == 9
    for ell, (masked, rejected, n) in enumerate(probes):
        assert np.array_equal(masked, rejected)
        assert rejected.sum() == n == ell


@pytest.mark.parametrize("budget, cert_points, cause",
                         [(12, 128, None), (10, 8, engine.STOP_SPANNED)],
                         ids=["full-budget", "spanned"])
def test_integrand_is_called_only_at_kept_points(monkeypatch, budget, cert_points,
                                                 cause):
    calls = []
    call = SyntheticIntegrand.__call__
    monkeypatch.setattr(SyntheticIntegrand, "__call__",
                        lambda self, X: calls.append(np.copy(X)) or call(self, X))
    _, rec = engine.run_abq(make_problem(), p_greedy_spec(), budget,
                            cert_points=cert_points)
    assert rec.stop_cause == cause
    assert len(calls) == rec.n == (budget if cause is None else 8)
    assert np.array_equal(np.vstack(calls), rec.state.X)


def test_adaptive_rule_records_b_range():
    problem = make_problem(mean_value=5.0)
    spec = AcquisitionSpec(outer=Power(1.0), q=UniformDensity(DOM), b=WsabiL(),
                           gamma_tilde=1.0)
    _, rec = engine.run_abq(problem, spec, 5, cert_points=128)
    assert all(lo <= hi for lo, hi in zip(rec.b_min, rec.b_max))
    assert min(rec.b_min) > 10.0  # squared mean near 25 throughout


def wsabi_m_problem():
    square = Square(alpha=2.0)
    integrand = SyntheticIntegrand(
        centers=np.array([[0.3], [0.7]]), weights=np.array([0.6, -0.4]),
        prior_mean=ConstantMean(5.0), kernel=Matern(1.5, 0.25), transform=square,
    )
    problem = engine.Problem(integrand=integrand, pi=UniformDensity(DOM),
                             domain=DOM)
    spec = AcquisitionSpec(outer=Power(1.0), q=UniformDensity(DOM), b=WsabiM(),
                           gamma_tilde=1.0)
    return problem, spec


# The engine's moments come from posteriors updated row by row, the replay
# from one built afresh on each state; they agree to rounding, not bit for bit.
REPLAY_RTOL = 1e-12
REPLAY_ATOL = 1e-12


def test_record_replays_from_its_design():
    problem, spec = wsabi_m_problem()
    _, rec = engine.run_abq(problem, spec, 8, cert_points=128, oracle_resolution=64)
    assert rec.n == 8
    grid, t, pi = rec.cert_grid, problem.integrand.transform, problem.pi
    pts, w = quadrature_nodes(DOM, 64)
    state = gp.empty_state(problem.integrand.kernel, problem.integrand.prior_mean, 1)
    for ell, x in enumerate(rec.state.X):
        on_grid = gp.GridPosterior(state, grid)
        b = spec.b.evaluate(grid, on_grid.mean, on_grid.var)
        assert np.allclose([b.min(), b.max()], [rec.b_min[ell], rec.b_max[ell]],
                           rtol=REPLAY_RTOL, atol=REPLAY_ATOL)
        z = t.inverse(np.asarray(problem.integrand(x[None, :]), dtype=float))[0]
        state = gp.GridPosterior(state, x, capacity=1).add(0, z)
        sup = np.max(spec.q(grid) * np.sqrt(gp.GridPosterior(state, grid).var))
        at_nodes = gp.GridPosterior(state, pts)
        plugin = np.sum(w * t.forward(at_nodes.mean) * pi(pts))
        expectation = np.sum(w * t.posterior_expectation(at_nodes.mean, at_nodes.var)
                             * pi(pts))
        assert np.allclose(
            [sup, plugin, expectation],
            [rec.sup_qk[ell], rec.est_plugin[ell], rec.est_expectation[ell]],
            rtol=REPLAY_RTOL, atol=REPLAY_ATOL,
        )


def _bench_config(dim, budget, seed):
    """perfbench's run config: Matern 2.5, mean 5, square warp, WSABI-M."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench.run_config(dim, budget, seed)


def _readme_minimal():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(re.search(r"Minimal config:\s*```json\n(.*?)```", readme,
                                re.S).group(1))


def _warped(raw, transform):
    return {**raw, "transform": {"kind": transform}}


@pytest.mark.parametrize("raw, steps", [
    (_readme_minimal(), 12),  # identity warp; the run stops early
    (_warped(_readme_minimal(), "exponential"), 12),
    (_warped(_bench_config(1, 20, 3), "identity"), 20),
    (_bench_config(1, 20, 3), 20),  # square warp
    (_warped(_bench_config(1, 20, 3), "exponential"), 20),
    (_bench_config(2, 60, 0), 60),  # run-d2
], ids=["readme-minimal", "readme-exponential", "identity-d1", "square-d1",
        "exponential-d1", "run-d2"])
def test_every_prefix_estimate_equals_a_dense_replay(raw, steps):
    # the estimates come from one slab pass after the loop; a dense replay
    # builds each prefix's state afresh and its moments on the oracle rule
    problem, spec = build_problem(raw)
    _, rec = engine.run_abq(problem, spec, raw["budget"],
                            cert_points=raw.get("grids", {}).get("certificate"))
    assert rec.n == steps
    assert len(rec.est_plugin) == len(rec.est_expectation) == rec.n
    model, t = problem.integrand, problem.integrand.transform
    nodes, w = quadrature_nodes(problem.domain, rec.oracle_resolution)
    dens = problem.pi(nodes)
    for i in range(1, rec.n + 1):
        state = gp.build_state(model.kernel, model.prior_mean, rec.state.X[:i],
                               rec.state.z[:i])
        post = gp.GridPosterior(state, nodes)
        plugin = np.sum(w * t.forward(post.mean) * dens)
        expectation = np.sum(w * t.posterior_expectation(post.mean, post.var) * dens)
        assert rec.est_plugin[i - 1] == pytest.approx(plugin, rel=1e-13), i
        assert rec.est_expectation[i - 1] == pytest.approx(expectation, rel=1e-13), i


def _with_acquisition(raw, **parts):
    return {**raw, "acquisition": {**raw["acquisition"], **parts}}


@pytest.mark.parametrize("raw", [
    _readme_minimal(),
    _with_acquisition(_readme_minimal(), q={"kind": "truncated-gaussian"}),
    dict(verify._rules())["constant"],
], ids=["readme-minimal", "readme-gaussian-q", "verify-constant"])
def test_expm1_and_power_one_outers_pick_the_same_design(raw):
    # F = expm1 and F(y) = y are both increasing, so under a constant b the
    # argmax of F(q^2 var) b is the same point: the runs match bit for bit.
    # A log-space ranking of the acquisition must keep this.
    expm1, power = (runner.execute(_with_acquisition(raw, outer=outer))
                    for outer in ({"kind": "expm1"}, {"kind": "power", "delta": 1.0}))
    assert expm1.n == power.n > 1
    assert expm1.state.X.tobytes() == power.state.X.tobytes()
    assert expm1.sup_qk == power.sup_qk and expm1.stop_cause == power.stop_cause


def test_a_node_variance_below_the_floor_raises():
    # the slab pass clamps each prefix's variance at the nodes as a
    # posterior does: far below zero is a degraded factor, not rounding
    problem, spec = wsabi_m_problem()
    state, _ = engine.run_abq(problem, spec, 4, cert_points=64, oracle_resolution=32)
    chol = state.chol.copy()
    chol[-1, -1] *= 0.5  # doubles the last Newton row
    broken = dataclasses.replace(state, chol=chol)
    t, pi = problem.integrand.transform, problem.pi
    engine.estimate_series(state, t, pi, DOM, 32)
    with pytest.raises(NumericalDegradationError, match="below clamp tolerance"):
        engine.estimate_series(broken, t, pi, DOM, 32)


def count_posteriors(monkeypatch):
    """Record each GridPosterior construction as (point set, state.n,
    capacity), and count adds by point set and the size of the state they
    return."""
    built, adds = [], Counter()
    grid_posterior, add = gp.GridPosterior, gp.GridPosterior.add

    def counting_add(self, index, z):
        state = add(self, index, z)
        adds[self.P.tobytes(), state.n] += 1
        return state

    def counting_grid(state, P, capacity=0):
        P = np.atleast_2d(np.asarray(P, dtype=float))
        built.append((P, state.n, capacity))
        return grid_posterior(state, P, capacity)

    monkeypatch.setattr(gp.GridPosterior, "add", counting_add)
    monkeypatch.setattr(gp, "GridPosterior", counting_grid)
    return built, adds


def test_run_abq_computes_each_posterior_once(monkeypatch):
    built, adds = count_posteriors(monkeypatch)
    problem, spec = wsabi_m_problem()
    _, rec = engine.run_abq(problem, spec, 8, cert_points=128, oracle_resolution=64)
    assert rec.n == 8
    # one posterior on the certificate grid alone, built before the first
    # point with rows for the budget and one add per design point; nothing
    # else is built, and the estimates read no posterior
    assert len(built) == 1
    P, n, capacity = built[0]
    assert np.array_equal(P, rec.cert_grid)
    assert (len(P), n, capacity) == (128, 0, 8)
    assert adds == {(P.tobytes(), k): 1 for k in range(1, rec.n + 1)}


def test_vbmc_density_runs_once_per_step_on_the_grid():
    calls = Counter()
    uniform = UniformDensity(DOM)

    def density(X):
        calls[np.asarray(X).shape[0]] += 1
        return uniform(X)

    problem, _ = wsabi_m_problem()
    spec = AcquisitionSpec(outer=Power(1.0), q=uniform, b=Vbmc(density),
                           gamma_tilde=1.0)
    _, rec = engine.run_abq(problem, spec, 6, cert_points=128, oracle_resolution=64)
    assert rec.n == 6
    # once per step on the certificate grid, and nowhere else
    assert calls == {128: rec.n}


def test_the_posterior_float_guard_fires_before_the_integrand_is_called(monkeypatch):
    calls = []
    call = SyntheticIntegrand.__call__
    monkeypatch.setattr(SyntheticIntegrand, "__call__",
                        lambda self, X: calls.append(len(X)) or call(self, X))
    # 8 rows on 64 grid points are 512 floats; the oracle nodes hold none
    monkeypatch.setattr(gp, "GUARD_FLOATS", 511)
    problem = make_problem()
    with pytest.raises(BudgetExceededError, match="8 rows on 64 points"):
        engine.run_abq(problem, p_greedy_spec(), 8, cert_points=64)
    assert calls == []
    # the report's n-width walk allocates its rows under the same guard
    grid = engine.certificate_grid(DOM, 512)
    with pytest.raises(BudgetExceededError, match="5 rows on 512 points"):
        analysis.nwidth_surrogate(problem.integrand.kernel, UniformDensity(DOM), grid, 5)


def test_non_finite_integrand_raises_typed_error():
    base = make_problem().integrand

    class BlackBox:
        """A black-box integrand exposes the model the run conditions with."""
        kernel, prior_mean, transform = base.kernel, base.prior_mean, Identity()

        def __call__(self, X):
            return np.full(len(X), np.nan)

    problem = engine.Problem(integrand=BlackBox(), pi=UniformDensity(DOM), domain=DOM)
    with pytest.raises(NonFiniteIntegrandError, match="x = "):
        engine.run_abq(problem, p_greedy_spec(), 3, cert_points=16)
