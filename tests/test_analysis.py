import ast
import dataclasses
import importlib.util
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from abqlab import analysis, domain, engine, gp, kernels, runner, verify
from abqlab.acquisition import AcquisitionSpec, ConstantRule, Power, WsabiM
from abqlab.domain import (BLOCK_POINTS, ConstantMean, Domain, SyntheticIntegrand,
                           TabulatedDensity, TruncatedGaussianDensity,
                           UniformDensity, quadrature_nodes, weighted_integrals)
from abqlab.exceptions import DomainError
from abqlab.kernels import Matern, RatePrediction, SquaredExponential, Wendland
from abqlab.transforms import Identity, Square

DOM = Domain((0.0,), (1.0,))
Q = UniformDensity(DOM)


def test_projection_distance_equals_scaled_posterior_variance():
    rng = np.random.default_rng(0)
    kernel = Matern(2.5, 0.3)
    X = np.array([[0.15], [0.4], [0.8]])
    xq = rng.uniform(0, 1, size=(20, 1))
    state = gp.build_state(kernel, ConstantMean(0.0), X, np.zeros(3))
    lhs = np.asarray(Q(xq)) ** 2 * gp.GridPosterior(state, xq).var
    rhs = analysis.Projector(kernel, Q, X)(xq)[-1]
    assert np.allclose(lhs, rhs, atol=1e-10)


# Row i of the curve and a dense solve on the prefix X[:i] are equal in exact
# arithmetic. They round differently, by at most VAR_TOL * eps * kappa times
# the largest squared norm (kappa the condition number of the prefix's
# jittered scaled Gram matrix, as in test_gp.py). Under a non-uniform q the
# jitter j chosen for the whole design differs from the prefix's jitter j_i,
# which moves the distance by |j - j_i| * ||(G_i + j_i I)^{-1} v||^2 to
# first order; the tolerance allows twice that.
EPS = np.finfo(float).eps
VAR_TOL = 1e2


@st.composite
def prefix_cases(draw):
    """Up to 8 distinct points of a 16-point (1-D) or 8x8 (2-D) lattice, a
    uniform or truncated-Gaussian q, and probe points that include the
    design itself."""
    dim = draw(st.sampled_from([1, 2]))
    per_dim = 16 if dim == 1 else 8
    cells = draw(st.lists(st.integers(0, per_dim ** dim - 1), min_size=1,
                          max_size=8, unique=True))
    X = np.stack(np.unravel_index(np.array(cells), (per_dim,) * dim), axis=1)
    X = X / (per_dim - 1.0)
    dom = Domain((0.0,) * dim, (1.0,) * dim)
    q = (UniformDensity(dom) if draw(st.booleans())
         else TruncatedGaussianDensity(dom, center=[0.3] * dim, scale=[0.4] * dim))
    axis = np.linspace(0.0, 1.0, 33 if dim == 1 else 9)
    probe = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), -1).reshape(-1, dim)
    return X, q, np.vstack([probe, X])


@given(kernel=st.sampled_from((Matern(2.5, 0.3), SquaredExponential(0.3),
                               Wendland(1, 0.8))),
       case=prefix_cases())
def test_projection_distance_curve_matches_per_prefix_solves(kernel, case):
    X, q, x = case
    curve = analysis.Projector(kernel, q, X)(x)
    assert curve.shape == (len(X) + 1, len(x))
    qX, qx = q(X), q(x)
    norm_sq = qx ** 2 * kernel.sup_diag()
    assert np.array_equal(curve[0], norm_sq)
    G = np.outer(qX, qX) * kernel.pairwise(X, X)
    _, jitter = kernels.chol_with_jitter(G)
    for i in range(1, len(X) + 1):
        _, jitter_i = kernels.chol_with_jitter(G[:i, :i])
        G_i = G[:i, :i] + jitter_i * np.eye(i)
        V = np.outer(qX[:i], qx) * kernel.pairwise(X[:i], x)
        A = np.linalg.solve(G_i, V)
        dense = np.maximum(norm_sq - np.sum(V * A, axis=0), 0.0)
        tol = (VAR_TOL * EPS * np.linalg.cond(G_i) * np.max(norm_sq)
               + 2.0 * abs(jitter - jitter_i) * np.sum(A * A, axis=0))
        assert np.all(np.abs(curve[i] - dense) <= tol)


def test_projection_distance_empty_design_is_norm():
    xq = np.array([[0.3]])
    kernel = SquaredExponential(0.5)
    d2 = analysis.Projector(kernel, Q, np.zeros((0, 1)))(xq)
    assert d2[0] == pytest.approx(Q(xq)[0] ** 2)


def _p_greedy_record(budget=10, kernel=None):
    kernel = kernel or Matern(1.5, 0.25)
    integrand = SyntheticIntegrand(
        centers=np.zeros((0, 1)), weights=np.zeros(0),
        prior_mean=ConstantMean(0.0), kernel=kernel, transform=Identity(),
    )
    problem = engine.Problem(integrand=integrand, pi=Q, domain=DOM)
    spec = AcquisitionSpec(outer=Power(1.0), q=Q, b=ConstantRule(1.0),
                           gamma_tilde=1.0)
    _, rec = engine.run_abq(problem, spec, budget, cert_points=128)
    return rec, problem, spec


def test_greedy_certificate_exact_argmax_ratio_one():
    rec, problem, spec = _p_greedy_record()
    cert = analysis.Certificates(rec).greedy
    assert cert.ok
    assert np.min(cert.ratios) >= 1.0 - 1e-9
    assert cert.gamma_hat == pytest.approx(1.0)


@pytest.mark.parametrize("lower, upper, gamma_tilde, want", [
    (2.0, 4.0, 1.0, np.sqrt(0.5)),  # Power(1.0): psi(c) = c
    (4.0, 4.0, 0.5, np.sqrt(0.5)),
    (4.0, 2.0, 1.0, 1.0),  # c is capped at 1
    (0.0, 4.0, 1.0, 0.0),  # C_L = 0: vacuous, psi(0) is never asked for
    (0.0, 0.0, 1.0, 0.0),
    (1e-300, 1e300, 1.0, 0.0),  # the ratio underflows to 0
])
def test_weak_greedy_gamma(lower, upper, gamma_tilde, want):
    spec = AcquisitionSpec(outer=Power(1.0), q=Q, b=ConstantRule(1.0),
                           gamma_tilde=gamma_tilde)
    assert analysis.weak_greedy_gamma(spec, lower, upper) == want


def test_greedy_certificate_needs_two_points():
    rec = _p_greedy_record(budget=1)[0]
    certs = analysis.Certificates(rec)
    assert certs.greedy is None
    assert certs.bound.ok and len(certs.bound.rows) == 1


def test_fill_distance_single_center():
    assert analysis.fill_distance(np.array([[0.5]]), DOM)[0] == pytest.approx(
        0.5, abs=1e-2
    )
    with pytest.raises(DomainError):
        analysis.fill_distance(np.zeros((0, 1)), DOM)


@pytest.mark.parametrize("dom, per_dim", [(DOM, 256),
                                          (Domain((0.0, -1.0), (2.0, 1.0)), 64),
                                          (Domain((0.0, -1.0, 0.5), (2.0, 1.0, 0.75)), 40),
                                          (Domain((0.0,) * 4, (1.0, 2.0, 1.0, 0.5)), 16),
                                          (Domain((0.0, -0.5, 0.0, 0.0, 1.0),
                                                  (1.0, 0.5, 2.0, 0.5, 1.5)), 9)])
def test_fill_distance_curve_matches_brute_force(dom, per_dim):
    rng = np.random.default_rng(3)
    lo, hi = np.asarray(dom.lower), np.asarray(dom.upper)
    X = lo + (hi - lo) * rng.uniform(size=(9, dom.dim))
    grid = dom.uniform_grid(per_dim)
    curve = analysis.fill_distance(X, dom)
    brute = [float(np.max(np.min(cdist(grid, X[:i]), axis=1)))
             for i in range(1, len(X) + 1)]
    assert np.array_equal(curve, brute)
    assert analysis.fill_distance(X[:1], dom) == brute[:1]


def test_nwidth_surrogate_nonincreasing():
    kernel = Matern(1.5, 0.25)
    vals = analysis.nwidth_surrogate(kernel, Q, engine.certificate_grid(DOM, 512), 11)
    assert len(vals) == 11
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        analysis.nwidth_surrogate(kernel, Q, DOM.uniform_grid(8), 0)


def test_nwidth_surrogate_is_p_greedy_on_the_grid(monkeypatch):
    # each design point is the first grid argmax of q^2 times the dense
    # posterior variance of the points before it, and each value is the
    # running minimum of the dense grid suprema over the design's prefixes
    dom = Domain((0.0, 0.0), (1.0, 1.0))
    kernel, grid = Matern(2.5, 0.3), engine.certificate_grid(dom, 256)
    q = TruncatedGaussianDensity(dom, center=[0.3, 0.6], scale=[0.4, 0.5])
    design = []
    add = gp.GridPosterior.add
    monkeypatch.setattr(gp.GridPosterior, "add", lambda post, j, z:
                        design.append(post.P[j]) or add(post, j, z))
    vals = analysis.nwidth_surrogate(kernel, q, grid, 10)
    assert len(design) == 10
    sups = []
    for m, x in enumerate(design):
        dist = analysis.Projector(kernel, q, np.array(design[:m + 1]))(grid)
        assert np.array_equal(x, grid[np.argmax(dist[m])])
        sups.append(np.sqrt(np.max(dist[m + 1])))
    assert np.allclose(vals, np.minimum.accumulate(sups), rtol=1e-12, atol=0.0)


def test_nwidth_surrogate_holds_rows_for_the_grid_not_the_budget():
    # a walk spans a new grid point per step, so it fills at most |grid|
    # rows: a budget of 40000 on 4096 points needs no 40000-row buffer
    grid = engine.certificate_grid(DOM, 4096)
    vals = analysis.nwidth_surrogate(Matern(2.5, 0.3), Q, grid, 40000)
    assert len(vals) == 40000


def test_nwidth_surrogate_stops_when_the_grid_is_spanned():
    # four grid points span every function on the grid: the fifth step
    # finds every point spanned, and the rest repeat the last value
    vals = analysis.nwidth_surrogate(Matern(1.5, 0.25), Q, DOM.uniform_grid(4), 6)
    assert len(vals) == 6
    assert vals[3] < 1e-5 and vals[3:] == [vals[3]] * 3


def test_nwidth_surrogate_of_a_walk_that_selects_no_point():
    # q underflows to 0 at every grid point, so no step scores above 0: each
    # entry is e_0, the empty design's sup, which is 0 here
    grid = engine.certificate_grid(DOM, 512)
    q = TruncatedGaussianDensity(DOM, center=[0.5 + 2 ** -10], scale=[1e-5])
    assert not np.any(q(grid))
    assert analysis.nwidth_surrogate(Matern(1.5, 0.25), q, grid, 5) == [0.0] * 5


@pytest.mark.parametrize("dim, grid_points", [(1, 512), (2, 1024)])
def test_nwidth_surrogate_equals_the_p_greedy_run(dim, grid_points):
    # on a P-greedy run (constant b) the surrogate's walk is the run's: the
    # same greedy step `GridPosterior.select` on the same posterior updates,
    # read by the same sup q sqrt(k_X) formula, so it is the engine's e_n
    # bit for bit, for every q. Both walks condition a `GridPosterior` on the
    # grid alone, so they span the same point set
    qs = {"uniform": {"kind": "uniform"},
          "broad": {"kind": "truncated-gaussian", "center": [0.3] * dim,
                    "scale": [0.4] * dim},
          "default": {"kind": "truncated-gaussian"},
          "peaked": {"kind": "truncated-gaussian", "center": [0.5] * dim,
                     "scale": [0.01] * dim}}
    for kernel in ({"family": "matern", "nu": 1.5, "ell": 0.25},
                   {"family": "squared-exponential", "gamma": 0.5}):
        for name, q in qs.items():
            raw = verify._config(kernel, {"kind": "synthetic", "centers": [],
                                          "weights": []},
                                 budget=60, dim=dim, grid_points=grid_points)
            raw["acquisition"]["q"] = q
            record = runner.execute(raw)
            vals = analysis.nwidth_surrogate(record.problem.integrand.kernel,
                                             record.spec.q, record.cert_grid, record.n)
            if kernel["family"] == "matern" or dim == 2:
                assert record.n == 60, (kernel, name)
            elif name == "peaked":
                # the peaked q underflows to 0 on the points SE in d=1 leaves
                assert record.stop_cause == engine.STOP_ZERO_ACQUISITION, name
            else:
                # SE in d=1 spans the 512-point grid within a dozen steps
                assert record.stop_cause == engine.STOP_SPANNED, (kernel, name)
            # e_n never rises, so it is its own running minimum
            assert vals == record.sup_qk, (kernel, name)
            assert vals == np.minimum.accumulate(record.sup_qk).tolist(), (kernel, name)


def test_fit_rate_recovers_exact_exponential_series():
    n = np.arange(1, 40)
    e = 3.0 * np.exp(-0.7 * n)
    fit = analysis.fit_rate(e, RatePrediction("exponential", 1.0))
    assert fit.slope == pytest.approx(-0.7, abs=1e-9)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_recovers_exact_polynomial_series():
    n = np.arange(1, 40)
    e = 2.0 * n ** -1.5
    fit = analysis.fit_rate(e, RatePrediction("polynomial", -1.5))
    assert fit.slope == pytest.approx(-1.5, abs=1e-9)


@pytest.mark.parametrize("model", [RatePrediction("exponential", 0.5),
                                   RatePrediction("polynomial", -1.5)])
@pytest.mark.parametrize("seed", range(5))
def test_fit_rate_is_the_polyfit_line(model, seed):
    # the closed-form centred line is np.polyfit's least-squares line
    rng = np.random.default_rng(seed)
    n = np.arange(1, 60)
    e = np.exp(rng.normal(-0.3, 0.2) * model.regressor(n) + rng.normal(0, 0.3, n.size))
    fit = analysis.fit_rate(e, model)
    x, y = model.regressor(n[4:]), np.log(e[4:])
    slope, intercept = np.polyfit(x, y, 1)
    assert fit.slope == pytest.approx(slope, rel=1e-12)
    assert fit.intercept == pytest.approx(intercept, rel=1e-12)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - np.sum(resid ** 2) / np.sum((y - y.mean()) ** 2)
    assert fit.r_squared == pytest.approx(r2, rel=1e-12)


def test_fit_rate_truncates_at_floor_and_guards_length():
    e = list(3.0 * np.exp(-0.7 * np.arange(1, 20)))
    e[12:] = [1e-16] * (len(e) - 12)  # numerical noise tail
    fit = analysis.fit_rate(e, RatePrediction("exponential", 1.0), floor=1e-10)
    assert fit.n_range[1] <= 12
    assert fit.slope == pytest.approx(-0.7, abs=1e-9)
    with pytest.raises(DomainError):
        analysis.fit_rate([1.0, 0.5, 0.25], RatePrediction("exponential", 1.0))


def slack_cases():
    """q of each family on a d = 1, 2, 3 box."""
    for d in (1, 2, 3):
        dom = Domain((-1.0, 0.0, 0.5)[:d], (2.0, 1.0, 0.75)[:d])
        yield UniformDensity(dom)
        yield TruncatedGaussianDensity(dom, center=[0.3, 0.6, 0.7][:d],
                                       scale=[0.8, 0.3, 0.1][:d])
        values = np.random.default_rng(d).uniform(0.5, 2.0, size=(5, 4, 3)[:d])
        yield TabulatedDensity(dom, values)


@pytest.mark.parametrize("q", list(slack_cases()),
                         ids=lambda q: f"{type(q).__name__}-{q.domain.dim}")
def test_grid_slack_bounds_the_supremum_off_the_grid(q):
    # sup over the box of q sqrt(k_X) is at most its maximum over the grid
    # plus the slack at the grid's covering radius, for every prefix design
    dom = q.domain
    rng = np.random.default_rng(dom.dim)
    kernel = Matern(2.5, 0.3)
    X = rng.uniform(dom.lower, dom.upper, size=(6, dom.dim))
    grid = engine.certificate_grid(dom, 256)
    slack = analysis.grid_slack(kernel, q, engine.covering_radius(dom, 256))
    projector = analysis.Projector(kernel, q, X)
    on_grid = np.sqrt(np.max(projector(grid), axis=1))
    points = rng.uniform(dom.lower, dom.upper, size=(200_000, dom.dim))
    off_grid = np.sqrt(np.max(projector(points), axis=1))
    assert slack > 0
    assert np.all(off_grid <= on_grid + slack)


def test_error_bound_holds_on_small_run():
    rec = _p_greedy_record(budget=8)[0]
    report = analysis.Certificates(rec).bound
    assert report.ok
    assert len(report.rows) == rec.n
    assert report.constant_transform == 1.0


def test_error_bound_check_reports_the_reference_self_error():
    # a run of no steps still gets its reference, at twice a coarse oracle
    # resolution, and a self-error that covers its distance to the integral
    integrand = SyntheticIntegrand(
        centers=np.array([[0.3], [0.7]]), weights=np.array([0.6, -0.4]),
        prior_mean=ConstantMean(0.0), kernel=Matern(2.5, 0.05), transform=Identity(),
    )
    problem = engine.Problem(integrand=integrand, pi=Q, domain=DOM)
    spec = AcquisitionSpec(outer=Power(1.0), q=Q, b=ConstantRule(1.0),
                           gamma_tilde=1.0)
    _, rec = engine.run_abq(problem, spec, 0, oracle_resolution=8)
    report = analysis.Certificates(rec).bound
    assert report.rows == [] and report.ok
    assert report.reference == weighted_integrals(DOM, 16, Q, integrand, functions=1)[0]
    exact = weighted_integrals(DOM, 1024, Q, integrand, functions=1)[0]
    assert report.reference_self_error > 1e-6
    assert abs(report.reference - exact) <= report.reference_self_error


def square_warp_problem():
    square = Square(alpha=2.0)
    integrand = SyntheticIntegrand(
        centers=np.array([[0.3], [0.7]]), weights=np.array([0.6, -0.4]),
        prior_mean=ConstantMean(5.0), kernel=Matern(1.5, 0.25), transform=square,
    )
    pi = TruncatedGaussianDensity(DOM, center=[0.4], scale=[0.3])
    problem = engine.Problem(integrand=integrand, pi=pi, domain=DOM)
    spec = AcquisitionSpec(outer=Power(1.0), q=Q, b=WsabiM(), gamma_tilde=1.0)
    return problem, spec


def bound_check_inputs(budget=8, oracle=64):
    problem, spec = square_warp_problem()
    _, rec = engine.run_abq(problem, spec, budget, cert_points=64,
                            oracle_resolution=oracle)
    assert rec.n == budget
    return problem, spec, rec


def test_error_bound_rows_match_a_dense_replay():
    problem, spec, rec = bound_check_inputs()
    state = rec.state
    report = analysis.Certificates(rec).bound
    assert report.ok
    # the reference is the oracle integral at twice the run's resolution,
    # its self-error the distance to the integral at that resolution
    (reference,) = weighted_integrals(DOM, 128, problem.pi, problem.integrand, functions=1)
    (coarse,) = weighted_integrals(DOM, 64, problem.pi, problem.integrand, functions=1)
    ref_err = abs(reference - coarse)
    assert (report.reference, report.reference_self_error) == (reference, ref_err)
    # 64 Sobol points in d=1 are the multiples of 1/64; uniform q is flat, so
    # the slack is sqrt(2 (k(0) - k(h))) at h = 1/64
    grid = rec.cert_grid
    assert np.array_equal(np.sort(grid[:, 0]), np.arange(64) / 64)
    assert rec.cert_radius == 1 / 64
    k_h = state.kernel.pairwise(np.zeros((1, 1)), np.full((1, 1), 1 / 64))[0, 0]
    assert report.grid_slack == pytest.approx(np.sqrt(2 * (1 - k_h)), rel=1e-14)
    # the posterior variance is at most k(x, x), so sup q sqrt(sup k) caps
    # the grid supremum plus its slack
    cap = spec.q.bounds()[1] * np.sqrt(state.kernel.sup_diag())
    assert report.cap == cap
    t = problem.integrand.transform
    const = report.constant_transform * report.constant_pi_over_q * report.gnorm
    replay = gp.empty_state(state.kernel, state.mean, 1)
    for row, x, z in zip(report.rows, state.X, state.z, strict=True):
        replay = gp.GridPosterior(replay, x, capacity=1).add(0, z)
        sup = np.max(spec.q(grid) * np.sqrt(gp.GridPosterior(replay, grid).var))

        def plugin(P):
            return t.forward(gp.GridPosterior(replay, P).mean)

        (plug,) = weighted_integrals(DOM, 64, problem.pi, plugin, functions=1)
        (fine,) = weighted_integrals(DOM, 128, problem.pi, plugin, functions=1)
        slack = ref_err + abs(fine - plug)
        expected = {"n": replay.n, "lhs": abs(reference - plug),
                    "rhs": const * min(sup + report.grid_slack, cap) + slack,
                    "sup_qk": sup,
                    "slack": slack}
        assert row.keys() == expected.keys()
        # lhs and slack are differences of integrals of size |reference|,
        # so their rounding is relative to that size
        assert np.allclose([row[k] for k in expected], list(expected.values()),
                           rtol=1e-12, atol=1e-12 * abs(reference))


def test_the_cap_binds_in_d4_and_the_bound_still_holds():
    # in d=4 the default grid's proved slack exceeds sup q sqrt(k), so the
    # design-free cap sets the right-hand side from the first step on
    dom = Domain((0.0,) * 4, (1.0,) * 4)
    integrand = SyntheticIntegrand(
        centers=np.array([[0.732159, 0.428514, 0.283025, 0.614201],
                          [0.510147, 0.414441, 0.755419, 0.207883],
                          [0.322981, 0.478937, 0.575044, 0.861310]]),
        weights=np.array([0.204643, -0.199595, 0.327797]),
        prior_mean=ConstantMean(5.0), kernel=Matern(2.5, 0.3),
        transform=Square(alpha=2.0),
    )
    q = UniformDensity(dom)
    problem = engine.Problem(integrand=integrand, pi=q, domain=dom)
    spec = AcquisitionSpec(outer=Power(1.0), q=q, b=WsabiM(), gamma_tilde=1.0)
    _, rec = engine.run_abq(problem, spec, 12)
    report = analysis.Certificates(rec).bound
    assert report.ok and len(report.rows) == 12
    assert report.cap == 1.0  # uniform q on the unit cube, k(x, x) = 1
    const = report.constant_transform * report.constant_pi_over_q * report.gnorm
    for row in report.rows:
        assert row["sup_qk"] + report.grid_slack > report.cap
        assert row["rhs"] == const * report.cap + row["slack"]


def test_report_checks_read_the_run_instead_of_replaying_it(monkeypatch):
    rec = bound_check_inputs()[2]
    short = bound_check_inputs(budget=4)[2]
    calls = Counter()
    integrand_sizes = []
    call = SyntheticIntegrand.__call__

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def integrand(self, X):
        integrand_sizes.append(len(X))
        return call(self, X)

    monkeypatch.setattr(SyntheticIntegrand, "__call__", integrand)
    monkeypatch.setattr(gp.GridPosterior, "add", counting("add", gp.GridPosterior.add))
    monkeypatch.setattr(kernels, "chol_with_jitter",
                        counting("chol", kernels.chol_with_jitter))
    analysis.Certificates(rec).bound
    # the integrand is evaluated only on the reference's two node sets
    assert integrand_sizes == [64, 128]
    assert calls["add"] == 0
    # one factorization for the certificate grid and the chosen points,
    # whatever the number of steps
    chols = []
    for record in (short, rec):
        calls.clear()
        analysis.Certificates(record).greedy
        chols.append(calls["chol"])
    assert chols == [1, 1]


def plug_in(state, t):
    """The error bound's plug-in term: T of every prefix's posterior mean."""
    return gp.prefix_term(state, lambda V, pts: t.forward(gp.prefix_means(state, V, pts)))


def test_plugin_curve_matches_a_one_shot_evaluation():
    # 48^3 oracle nodes and 6 functions: 16 slabs of quadrature_blocks, each
    # three 48^2 tiles
    dom = Domain((-0.3, 0.0, 0.5), (1.0, 2.0, 0.75))
    rng = np.random.default_rng(5)
    X = np.asarray(dom.lower) + dom.widths * rng.uniform(size=(6, 3))
    state = gp.build_state(Matern(2.5, 0.3), ConstantMean(5.0), X,
                           5.0 + rng.uniform(-0.5, 0.5, size=6))
    pi = TruncatedGaussianDensity(dom, center=[0.3, 1.0, 0.6], scale=[0.5, 0.8, 0.2])
    t = Square(alpha=2.0)
    curve = weighted_integrals(dom, 48, pi, plug_in(state, t), functions=6)
    pts, w = quadrature_nodes(dom, 48)
    rows = solve_triangular(state.chol, state.kernel.pairwise(pts, state.X).T,
                            lower=True)
    beta = solve_triangular(state.chol, state.z - state.mean(state.X), lower=True)
    dens = pi(pts)
    mean = state.mean(pts)
    dense = []
    for row, b in zip(rows, beta):
        mean = mean + b * row
        dense.append(np.sum(w * t.forward(mean) * dens))
    assert np.allclose(curve, dense, rtol=1e-13, atol=0.0)


def test_error_bound_check_memory_does_not_grow_with_the_oracle():
    # oracle 64 in d=3: the reference integral takes 128^3 = 2.1M nodes,
    # which as one (N, 3) array alone would take 48 MiB
    dom = Domain((0.0,) * 3, (1.0,) * 3)
    q = UniformDensity(dom)
    integrand = SyntheticIntegrand(
        centers=np.array([[0.3, 0.4, 0.6], [0.7, 0.5, 0.3]]),
        weights=np.array([0.3, -0.2]), prior_mean=ConstantMean(5.0),
        kernel=Matern(2.5, 0.3), transform=Square(alpha=2.0),
    )
    problem = engine.Problem(integrand=integrand, pi=q, domain=dom)
    spec = AcquisitionSpec(outer=Power(1.0), q=q, b=WsabiM(), gamma_tilde=1.0)
    _, rec = engine.run_abq(problem, spec, 3, oracle_resolution=64)
    tracemalloc.start()
    try:
        report = analysis.Certificates(rec).bound
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and len(report.rows) == 3
    assert peak < 32 * 2 ** 20


# the run-d2 benchmark config: Matern 2.5, constant mean 5, square warp,
# WSABI-M with Power(1), uniform pi and q, default grids, budget 60
RUN_D2 = {
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


@pytest.fixture(scope="module")
def run_d2():
    rec = runner.execute(RUN_D2)
    assert rec.n == 60 and rec.n * len(rec.cert_grid) > BLOCK_POINTS
    return rec


def test_streamed_plugin_walk_equals_a_dense_per_row_sum(monkeypatch):
    # 32^3 nodes and 7 functions: slabs of 8192 nodes, so four of them,
    # whose tree sum has the bits of one np.sum per row over the whole rule
    dom = Domain((-0.3, 0.0, 0.5), (1.0, 2.0, 0.75))
    rng = np.random.default_rng(5)
    X = np.asarray(dom.lower) + dom.widths * rng.uniform(size=(6, 3))
    state = gp.build_state(Matern(2.5, 0.3), ConstantMean(5.0), X,
                           5.0 + rng.uniform(-0.5, 0.5, size=6))
    pi = TruncatedGaussianDensity(dom, center=[0.3, 1.0, 0.6], scale=[0.5, 0.8, 0.2])
    t = Square(alpha=2.0)
    slabs = []
    blocks = domain.quadrature_blocks
    monkeypatch.setattr(domain, "quadrature_blocks", lambda *args: [
        slabs.append(len(pts)) or (pts, w) for pts, w in blocks(*args)])
    f = SyntheticIntegrand(centers=X[:2], weights=np.array([0.4, -0.3]),
                           prior_mean=ConstantMean(5.0), kernel=Matern(2.5, 0.3),
                           transform=t)
    curve = weighted_integrals(dom, 32, pi, f, plug_in(state, t), functions=7)
    assert slabs == [8192] * 4
    pts, w = quadrature_nodes(dom, 32)
    rows = kernels.solve_lower(state.chol, state.kernel.pairwise(state.X, pts))
    dens = pi(pts)
    mean = state.mean(pts)
    dense = [np.sum(w * f(pts) * dens)]
    for row, b in zip(rows, state.beta):
        mean = mean + b * row
        dense.append(np.sum(w * t.forward(mean) * dens))
    assert curve == dense


# Projector.chunks solves BLOCK_POINTS // (n + 1) columns at a time, and BLAS
# may round a product's last columns differently when its width changes
# (on run-d2 the chunked and one-call curves differ by up to 4.4e-16 on
# OpenBLAS 0.3.31), so chunked maxima match one call's to rounding only. The
# curve's values are q^2 k <= 1 here. Slices of whole SOLVE_CHUNKs are one
# solve's columns bit for bit.
SUP_ATOL = 1e3 * np.finfo(float).eps


def test_chunked_sups_equal_the_dense_maxima(run_d2, monkeypatch):
    # the certificate, the error bound and the n-width surrogate take their
    # suprema over column chunks; n |grid| is over BLOCK_POINTS here
    rec, X = run_d2, run_d2.state.X
    kernel, q, grid = rec.problem.integrand.kernel, rec.spec.q, rec.cert_grid
    projector = analysis.Projector(kernel, q, X)
    dense = np.max(projector(grid), axis=1)
    chunked = projector.sups(grid)
    assert np.allclose(chunked, dense, rtol=0, atol=SUP_ATOL)
    certs = analysis.Certificates(rec)
    assert [row["sup_qk"] for row in certs.bound.rows] == np.sqrt(chunked[1:]).tolist()
    # the certificate reads rows 0..n-1 of the same factor of the design
    d_chosen = np.sqrt(np.diagonal(projector(X)))
    sup = np.maximum(np.sqrt(chunked[:-1]), d_chosen)
    assert np.array_equal(certs.greedy.ratios, d_chosen / sup)
    # chunks of whole SOLVE_CHUNKs give one call's maxima bit for bit
    monkeypatch.setattr(kernels, "SOLVE_CHUNK", 512)
    monkeypatch.setattr(analysis, "BLOCK_POINTS", 512 * projector.rows)
    assert [start for start, _ in projector.chunks(grid)] == list(range(0, 4096, 512))
    assert np.array_equal(projector.sups(grid), np.max(projector(grid), axis=1))


def test_build_report_factors_each_design_once(run_d2, monkeypatch):
    # one Certificates of the run does each job once: one Projector of the
    # run's design, one pass of it over the certificate grid for the
    # certificate and the error bound, and one native norm for the envelope
    # and the bound's C_T, whose |m| extremes are closed forms read on no
    # probe grid; the n-width surrogate reads the posterior of its P-greedy
    # walk and factors nothing
    rec = run_d2
    projectors, factored, passes, calls = [], [], [], Counter()
    init, chol = analysis.Projector.__init__, kernels.chol_with_jitter
    sups, probe_grid, rkhs_norm = (analysis.Projector.sups, Domain.probe_grid,
                                   domain.rkhs_norm)

    def recording_init(self, kernel, q, X):
        init(self, kernel, q, X)
        projectors.append(self)

    def recording_chol(K):
        factored.append(len(K))
        return chol(K)

    def recording_sups(self, x):
        passes.append((self, x))
        return sups(self, x)

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(analysis.Projector, "__init__", recording_init)
    monkeypatch.setattr(analysis.Projector, "sups", recording_sups)
    monkeypatch.setattr(kernels, "chol_with_jitter", recording_chol)
    monkeypatch.setattr(Domain, "probe_grid", counting("probe_grid", probe_grid))
    for module in (domain, analysis, runner):
        if getattr(module, "rkhs_norm", None) is rkhs_norm:
            monkeypatch.setattr(module, "rkhs_norm", counting("rkhs_norm", rkhs_norm))
    runner.build_report(RUN_D2, rec)
    assert len(projectors) == 1 and factored == [rec.n]
    assert np.array_equal(projectors[0].X, rec.state.X)
    assert [(p is projectors[0], x is rec.cert_grid) for p, x in passes] == [(True, True)]
    assert (calls["probe_grid"], calls["rkhs_norm"]) == (0, 1)


def test_reading_the_envelope_factors_no_design(run_d2, monkeypatch):
    # verify's envelope check reads clcu, b_range and inside alone, the
    # report gamma_theoretical, and the certificate gamma_hat and the bound
    # latent_sup: all six are set when Certificates is built
    built = []
    monkeypatch.setattr(analysis, "Projector", lambda *args: built.append(args))
    certs = analysis.Certificates(run_d2)
    assert {"clcu", "gamma_theoretical", "b_range", "inside", "gamma_hat",
            "latent_sup"} <= set(vars(certs))
    assert certs.clcu.present and certs.inside
    assert certs.b_range == (min(run_d2.b_min), max(run_d2.b_max))
    assert certs.gamma_theoretical == analysis.weak_greedy_gamma(
        run_d2.spec, certs.clcu.c_l, certs.clcu.c_u)
    assert certs.gamma_hat == analysis.weak_greedy_gamma(run_d2.spec, *certs.b_range)
    # sup |m| = 5 under the constant mean, spread = 2 ||g|| sqrt(sup k)
    k0 = run_d2.problem.integrand.kernel.sup_diag()
    assert certs.latent_sup == 5.0 + 2.0 * certs.gnorm * np.sqrt(k0)
    assert built == []


def test_run_d2_posteriors_hold_rows_for_the_budget(run_d2, posteriors):
    # the run and the report's 60-step P-greedy walk each allocate their
    # rows once, for the budget
    rec = runner.execute(RUN_D2)
    analysis.nwidth_surrogate(rec.state.kernel, rec.spec.q, rec.cert_grid, rec.n)
    assert [post._rows.shape[0] for post in posteriors] == [60, 60]


def test_report_passes_on_the_run_d2_config_stay_under_5_mib(run_d2):
    # each pass holds O(BLOCK_POINTS) values, not an (n, points) block: the
    # fine plug-in walk's 60 x 16384 block would take 7.5 MiB alone
    rec = run_d2
    kernel, q = rec.state.kernel, rec.spec.q
    passes = {
        "error bound": lambda: analysis.Certificates(rec).bound,
        "certificate": lambda: analysis.Certificates(rec).greedy,
        "n-width": lambda: analysis.nwidth_surrogate(kernel, q, rec.cert_grid, rec.n),
        "fill distance": lambda: analysis.fill_distance(rec.state.X,
                                                        rec.problem.domain),
    }
    peaks = {}
    for name, run in passes.items():
        tracemalloc.start()
        try:
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert all(peak < 5 * 2 ** 20 for peak in peaks.values()), peaks


def test_build_report_on_the_run_d3_config_traces_under_1_5_mib():
    # perfbench's run-d3 config: the envelope reads the extremes of |m| as
    # closed forms, so no 40^3-point probe grid is expanded (2.44 MiB traced
    # when it was); the error bound's and the fill distance's passes, about
    # 1.1 MiB each, set the peak
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    raw = bench.run_config(3, 4, 0)
    rec = runner.execute(raw)
    tracemalloc.start()
    try:
        runner.build_report(raw, rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20, peak


def test_a_b_range_that_leaves_the_envelope_is_a_finding():
    # run-d2's config at budget 8 keeps b inside [C_L, C_U]; the same record
    # with its first b_min at C_L / 2 leaves it
    raw = {**RUN_D2, "budget": 8}
    rec = runner.execute(raw)
    certs = analysis.Certificates(rec)
    c_l, c_u = certs.clcu.c_l, certs.clcu.c_u
    assert certs.inside
    low = dataclasses.replace(rec, b_min=[c_l / 2, *rec.b_min[1:]])
    report = runner.build_report(raw, low)
    b_max = max(rec.b_max)
    assert report["weak_adaptivity"] == {"b_min": c_l / 2, "b_max": b_max,
                                         "within_envelope": False}
    assert (f"monitored b range [{c_l / 2:g}, {b_max:g}] leaves the theoretical "
            f"envelope [{c_l:g}, {c_u:g}]") in report["findings"]


@pytest.mark.parametrize("delta, violated", [(0.0, False), (0.5, True)])
def test_a_posterior_drifting_from_its_data_violates_the_bound(monkeypatch, delta,
                                                               violated):
    # each add moves beta_n by delta and the mean by delta * v_n, so the
    # engine's mean is m + V^T beta for a beta that no longer fits the data.
    # The bound's plug-in curve solves against the run's own factor and
    # beta, so |fine - plug| stays the quadrature error and the drift shows
    # in lhs alone; a dense rebuild of the design's state would move it into
    # the slack and report no violation. The drift is written into the
    # posterior's beta buffer, of which every later state is a view
    class Drifting(gp.GridPosterior):
        def add(self, index, z):
            state = super().add(index, z)
            self._beta[state.n - 1] += delta
            self.mean += delta * self._rows[state.n - 1]
            return state

    monkeypatch.setattr(gp, "GridPosterior", Drifting)
    rec = runner.execute({**RUN_D2, "budget": 8})
    assert rec.n == 8
    # 7 of the 8 steps: the first step's drift does not outrun its slack
    assert len(analysis.Certificates(rec).bound.violations) == (7 if violated else 0)


def imported_modules(module):
    """The names of the abqlab modules that `module`'s source imports."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("abqlab.")}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "abqlab"):
            if node.module and node.module != "abqlab":
                names.add(node.module.split(".")[-1])
            else:
                names |= {a.name for a in node.names}
    return names


def test_analysis_imports_no_engine_and_the_engine_no_kernels():
    # the certificates are an oracle independent of the engine, and the
    # walk's kernel solves live in gp alone
    assert {"gp", "kernels", "domain"} <= imported_modules(analysis)
    assert "engine" not in imported_modules(analysis)
    assert "gp" in imported_modules(engine)
    assert "kernels" not in imported_modules(engine)
