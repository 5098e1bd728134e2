import copy
from collections import Counter

import numpy as np
import pytest

from abqlab import analysis, engine, gp
from abqlab.acquisition import (AcquisitionSpec, ConstantRule, Power, Vbmc,
                                WsabiL, WsabiM)
from abqlab.domain import (
    ConstantMean,
    Domain,
    SyntheticIntegrand,
    UniformDensity,
    quadrature_nodes,
    weighted_integrals,
)
from abqlab.exceptions import (BudgetExceededError, DomainError, LinearDependenceError,
                               NonFiniteIntegrandError)
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


def test_select_next_matches_exhaustive_argmax():
    problem = make_problem()
    spec = p_greedy_spec()
    state = gp.build_state(problem.integrand.kernel, problem.integrand.prior_mean,
                           np.array([[0.4]]), [0.1])
    grid = DOM.uniform_grid(101)
    post = gp.GridPosterior(state, grid)
    a, _, _ = spec.evaluate(grid, post.mean, post.var)
    best = engine.select_next(a)
    assert all(a[best] >= value for value in a)


def test_select_next_returns_none_on_a_vanishing_acquisition():
    assert engine.select_next(np.zeros(4)) is None
    assert engine.select_next(np.array([0.0, 1e-300, 0.0])) == 1


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
    assert engine.select_next(a) == 0


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
    select = engine.select_next

    def spy(a):
        post = posteriors[0]
        rejected = []
        for j in range(len(a)):
            try:
                copy.deepcopy(post).add(j, 0.0)
                rejected.append(False)
            except LinearDependenceError:
                rejected.append(True)
        probes.append((a == 0.0, np.array(rejected), post.spanned()[:len(a)],
                       post.state.n))
        return select(a)

    monkeypatch.setattr(engine, "select_next", spy)
    _, rec = engine.run_abq(make_problem(), p_greedy_spec(), 10, cert_points=8)
    assert rec.n == 8 and rec.stop_cause == engine.STOP_SPANNED
    assert len(posteriors) == 1 and len(probes) == 9
    for ell, (masked, rejected, spanned, n) in enumerate(probes):
        assert np.array_equal(masked, rejected)
        assert np.array_equal(spanned, rejected)
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
    # one posterior on the grid stacked over the oracle nodes, built before
    # the first point with rows for the budget and one add per design
    # point; nothing else is built
    assert len(built) == 1
    P, n, capacity = built[0]
    nodes, _ = quadrature_nodes(DOM, 64)
    assert np.array_equal(P, np.vstack([rec.cert_grid, nodes]))
    assert (len(P), n, capacity) == (128 + 64, 0, 8)
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
    # 8 rows on 64 grid points and 256 oracle nodes are 2560 floats
    monkeypatch.setattr(gp, "GUARD_FLOATS", 2559)
    problem = make_problem()
    with pytest.raises(BudgetExceededError, match="8 rows on 320 points"):
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
