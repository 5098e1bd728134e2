from collections import Counter

import numpy as np
import pytest

from abqlab import engine, gp
from abqlab.acquisition import AcquisitionSpec, ConstantRule, Power, WsabiL, WsabiM
from abqlab.domain import (
    ConstantMean,
    Domain,
    SyntheticIntegrand,
    UniformDensity,
    quadrature_nodes,
)
from abqlab.exceptions import NonFiniteIntegrandError
from abqlab.kernels import Matern, SquaredExponential
from abqlab.transforms import Identity, Square

DOM = Domain((0.0,), (1.0,))


def make_problem(kernel=None, mean_value=0.0):
    kernel = kernel or Matern(1.5, 0.25)
    integrand = SyntheticIntegrand(
        centers=np.array([[0.3], [0.7]]), weights=np.array([0.6, -0.4]),
        prior_mean=ConstantMean(mean_value), kernel=kernel, transform=Identity(),
    )
    return engine.Problem(integrand=integrand, pi=UniformDensity(DOM),
                          domain=DOM, transform=Identity())


def p_greedy_spec():
    return AcquisitionSpec(outer=Power(1.0), q=UniformDensity(DOM),
                           b=ConstantRule(1.0), gamma_tilde=1.0)


def test_selector_config_validation():
    with pytest.raises(ValueError):
        engine.SelectorConfig(candidate_count=1)
    with pytest.raises(ValueError):
        engine.SelectorConfig(candidate_scheme="magic")
    with pytest.raises(ValueError):
        engine.SelectorConfig(local_refinement_steps=-1)


def test_candidate_pool_schemes():
    for scheme in ("uniform-grid", "low-discrepancy", "uniform-random"):
        cfg = engine.SelectorConfig(candidate_count=64, candidate_scheme=scheme,
                                    seed=5)
        pool = engine.candidate_pool(DOM, cfg)
        assert pool.shape[1] == 1
        assert pool.shape[0] >= 64
        assert np.all((pool >= 0) & (pool <= 1))


def test_certificate_grid_is_pow2_sobol():
    grid = engine.certificate_grid(DOM, size=100)
    assert grid.shape == (128, 1)
    assert np.array_equal(grid, engine.certificate_grid(DOM, size=100))


def test_select_next_matches_exhaustive_argmax():
    problem = make_problem()
    spec = p_greedy_spec()
    cfg = engine.SelectorConfig(candidate_count=101, seed=0)
    state = gp.build_state(problem.model_kernel(), problem.model_mean(),
                           np.array([[0.4]]), [0.1])
    grid = DOM.uniform_grid(101)
    a, _ = spec.evaluate(grid, *gp.posterior(state, grid), 1)
    x, cert = engine.select_next(spec, cfg, state, 1, DOM, grid, a, np.max(a))
    assert np.allclose(x, grid[np.argmax(a)])
    assert cert["ratio"] == pytest.approx(1.0)


def test_flat_acquisition_breaks_ties_by_lowest_index():
    # empty state, constant-diagonal kernel, uniform q: all candidates tie
    spec = p_greedy_spec()
    cfg = engine.SelectorConfig(candidate_count=16, seed=0)
    state = gp.empty_state(SquaredExponential(0.5), ConstantMean(0.0), 1)
    grid = DOM.uniform_grid(16)
    a, _ = spec.evaluate(grid, *gp.posterior(state, grid), 0)
    x, _ = engine.select_next(spec, cfg, state, 0, DOM, grid, a, np.max(a))
    assert np.allclose(x, grid[0])


def test_run_abq_is_deterministic():
    problem = make_problem()
    spec = p_greedy_spec()
    cfg = engine.SelectorConfig(candidate_count=128, seed=3)
    _, rec1 = engine.run_abq(problem, spec, cfg, 8, share_candidate_grid=True)
    _, rec2 = engine.run_abq(problem, spec, cfg, 8, share_candidate_grid=True)
    assert np.array_equal(rec1.design(), rec2.design())
    assert rec1.sup_qk == rec2.sup_qk


def test_run_record_monotone_error_and_shapes():
    problem = make_problem()
    spec = p_greedy_spec()
    cfg = engine.SelectorConfig(candidate_count=128, seed=0)
    _, rec = engine.run_abq(problem, spec, cfg, 10, share_candidate_grid=True)
    assert rec.n == 10
    assert rec.design().shape == (10, 1)
    assert rec.design(upto=3).shape == (3, 1)
    e = [rec.e0] + rec.sup_qk
    assert all(b <= a + 1e-12 for a, b in zip(e, e[1:]))


def test_identity_estimators_agree():
    problem = make_problem()
    spec = p_greedy_spec()
    cfg = engine.SelectorConfig(candidate_count=128, seed=0)
    _, rec = engine.run_abq(problem, spec, cfg, 6, share_candidate_grid=True)
    assert np.allclose(rec.est_plugin, rec.est_expectation, atol=1e-12)


def test_plugin_estimate_converges_to_reference():
    from abqlab.domain import reference_integral

    problem = make_problem()
    spec = p_greedy_spec()
    cfg = engine.SelectorConfig(candidate_count=256, seed=0)
    _, rec = engine.run_abq(problem, spec, cfg, 25, share_candidate_grid=True)
    ref = reference_integral(problem.integrand, problem.pi, DOM, 256)
    assert abs(rec.est_plugin[-1] - ref) < 1e-4


def test_exhausted_candidates_mark_convergence():
    problem = make_problem()
    spec = p_greedy_spec()
    cfg = engine.SelectorConfig(candidate_count=4, seed=0)
    _, rec = engine.run_abq(problem, spec, cfg, 10, share_candidate_grid=True)
    assert rec.converged
    assert rec.n <= 4


def test_adaptive_rule_records_b_range():
    problem = make_problem(mean_value=5.0)
    spec = AcquisitionSpec(outer=Power(1.0), q=UniformDensity(DOM), b=WsabiL(),
                           gamma_tilde=1.0)
    cfg = engine.SelectorConfig(candidate_count=128, seed=0)
    _, rec = engine.run_abq(problem, spec, cfg, 5, share_candidate_grid=True)
    assert all(lo <= hi for lo, hi in zip(rec.b_min, rec.b_max))
    assert min(rec.b_min) > 10.0  # squared mean near 25 throughout


def test_local_refinement_never_decreases_acquisition():
    problem = make_problem()
    spec = p_greedy_spec()
    state = gp.build_state(problem.model_kernel(), problem.model_mean(),
                           np.array([[0.4]]), [0.1])
    grid = DOM.uniform_grid(33)
    coarse_cfg = engine.SelectorConfig(candidate_count=33, seed=0)
    refined_cfg = engine.SelectorConfig(candidate_count=33,
                                        local_refinement_steps=4, seed=0)
    a, _ = spec.evaluate(grid, *gp.posterior(state, grid), 1)
    _, cert0 = engine.select_next(spec, coarse_cfg, state, 1, DOM, grid, a,
                                  np.max(a))
    _, cert1 = engine.select_next(spec, refined_cfg, state, 1, DOM, grid, a,
                                  np.max(a))
    assert cert1["a_chosen"] >= cert0["a_chosen"] - 1e-15


def wsabi_m_problem():
    square = Square(alpha=2.0)
    integrand = SyntheticIntegrand(
        centers=np.array([[0.3], [0.7]]), weights=np.array([0.6, -0.4]),
        prior_mean=ConstantMean(5.0), kernel=Matern(1.5, 0.25), transform=square,
    )
    problem = engine.Problem(integrand=integrand, pi=UniformDensity(DOM),
                             domain=DOM, transform=square)
    spec = AcquisitionSpec(outer=Power(1.0), q=UniformDensity(DOM), b=WsabiM(),
                           gamma_tilde=1.0)
    return problem, spec


def test_record_replays_from_its_design():
    # candidates (64-point grid) and certificate grid (128 Sobol points) differ
    problem, spec = wsabi_m_problem()
    cfg = engine.SelectorConfig(candidate_count=64, seed=0)
    _, rec = engine.run_abq(problem, spec, cfg, 8, cert_grid_size=128,
                            oracle_resolution=64)
    assert rec.n == 8
    grid, t, pi = rec.cert_grid, problem.transform, problem.pi
    pts, w = quadrature_nodes(DOM, 64)
    state = gp.empty_state(problem.model_kernel(), problem.model_mean(), 1)
    for ell, x in enumerate(rec.design()):
        b = spec.eval_b(grid, gp.posterior_mean(state, grid),
                        gp.posterior_var(state, grid), ell)
        assert np.array_equal([b.min(), b.max()], [rec.b_min[ell], rec.b_max[ell]])
        z = t.inverse(np.asarray(problem.integrand(x[None, :]), dtype=float))[0]
        state = gp.extend(state, x, z)
        sup = np.max(spec.q(grid) * np.sqrt(gp.posterior_var(state, grid)))
        mean, var = gp.posterior_mean(state, pts), gp.posterior_var(state, pts)
        plugin = np.sum(w * t.forward(mean) * pi(pts))
        expectation = np.sum(w * t.posterior_expectation(mean, var) * pi(pts))
        assert np.array_equal(
            [sup, plugin, expectation],
            [rec.sup_qk[ell], rec.est_plugin[ell], rec.est_expectation[ell]],
        )


@pytest.mark.parametrize("shared", [False, True])
def test_run_abq_computes_each_posterior_once(monkeypatch, shared):
    seen = Counter()
    posterior = gp.posterior

    def counting(state, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        seen[state.X.tobytes(), X.shape, X.tobytes()] += 1
        return posterior(state, X)

    monkeypatch.setattr(gp, "posterior", counting)
    problem, spec = wsabi_m_problem()
    cfg = engine.SelectorConfig(candidate_count=64, seed=0)
    _, rec = engine.run_abq(problem, spec, cfg, 8, cert_grid_size=128,
                            oracle_resolution=64, share_candidate_grid=shared)
    assert rec.n == 8
    assert max(seen.values()) == 1
    # per state: grid and nodes, candidates unless shared; extend adds one point
    per_state = 2 if shared else 3
    assert sum(seen.values()) == per_state * rec.n + 2 + (rec.n - 1)


def test_non_finite_integrand_raises_typed_error():
    base = make_problem()
    problem = engine.Problem(integrand=lambda X: np.full(len(X), np.nan),
                             pi=base.pi, domain=DOM, transform=Identity(),
                             kernel=base.model_kernel(), mean=base.model_mean())
    cfg = engine.SelectorConfig(candidate_count=16, seed=0)
    with pytest.raises(NonFiniteIntegrandError, match="x = "):
        engine.run_abq(problem, p_greedy_spec(), cfg, 3, share_candidate_grid=True)
