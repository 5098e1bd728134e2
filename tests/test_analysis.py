import numpy as np
import pytest

from abqlab import analysis, engine, gp
from abqlab.acquisition import AcquisitionSpec, ConstantRule, Power
from abqlab.domain import ConstantMean, Domain, SyntheticIntegrand, UniformDensity
from abqlab.exceptions import DomainError
from abqlab.kernels import Matern, RatePrediction, SquaredExponential
from abqlab.transforms import Identity

DOM = Domain((0.0,), (1.0,))
Q = UniformDensity(DOM)


def test_projection_distance_equals_scaled_posterior_variance():
    rng = np.random.default_rng(0)
    kernel = Matern(2.5, 0.3)
    X = np.array([[0.15], [0.4], [0.8]])
    xq = rng.uniform(0, 1, size=(20, 1))
    state = gp.build_state(kernel, ConstantMean(0.0), X, np.zeros(3))
    lhs = np.asarray(Q(xq)) ** 2 * gp.posterior_var(state, xq)
    rhs = analysis.projection_distance_sq(kernel, Q, X, xq)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_projection_distance_empty_design_is_norm():
    xq = np.array([[0.3]])
    kernel = SquaredExponential(0.5)
    d2 = analysis.projection_distance_sq(kernel, Q, np.zeros((0, 1)), xq)
    assert d2[0] == pytest.approx(Q(xq)[0] ** 2)


def _p_greedy_record(budget=10, kernel=None):
    kernel = kernel or Matern(1.5, 0.25)
    integrand = SyntheticIntegrand(
        centers=np.zeros((0, 1)), weights=np.zeros(0),
        prior_mean=ConstantMean(0.0), kernel=kernel, transform=Identity(),
    )
    problem = engine.Problem(integrand=integrand, pi=Q, domain=DOM,
                             transform=Identity())
    spec = AcquisitionSpec(outer=Power(1.0), q=Q, b=ConstantRule(1.0),
                           gamma_tilde=1.0)
    cfg = engine.SelectorConfig(candidate_count=128, seed=0)
    _, rec = engine.run_abq(problem, spec, cfg, budget,
                            share_candidate_grid=True)
    return rec, problem, spec


def test_greedy_certificate_exact_argmax_ratio_one():
    rec, problem, spec = _p_greedy_record()
    cert = analysis.greedy_certificate(rec, problem.integrand.kernel, spec.q)
    assert cert.ok
    assert np.min(cert.ratios) >= 1.0 - 1e-9
    assert cert.gamma_hat == pytest.approx(1.0)


def test_greedy_certificate_needs_two_points():
    rec, problem, spec = _p_greedy_record(budget=1)
    with pytest.raises(DomainError):
        analysis.greedy_certificate(rec, problem.integrand.kernel, spec.q)


def test_fill_distance_single_center():
    assert analysis.fill_distance(np.array([[0.5]]), DOM) == pytest.approx(
        0.5, abs=1e-2
    )
    with pytest.raises(DomainError):
        analysis.fill_distance(np.zeros((0, 1)), DOM)


def test_nwidth_surrogate_nonincreasing():
    kernel = Matern(1.5, 0.25)
    vals = analysis.nwidth_surrogate(kernel, Q, DOM, 11)
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        analysis.nwidth_surrogate(kernel, Q, DOM, 0)


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


def test_fit_rate_truncates_at_floor_and_guards_length():
    e = list(3.0 * np.exp(-0.7 * np.arange(1, 20)))
    e[12:] = [1e-16] * (len(e) - 12)  # numerical noise tail
    fit = analysis.fit_rate(e, RatePrediction("exponential", 1.0), floor=1e-10)
    assert fit.n_range[1] <= 12
    assert fit.slope == pytest.approx(-0.7, abs=1e-9)
    with pytest.raises(DomainError):
        analysis.fit_rate([1.0, 0.5, 0.25], RatePrediction("exponential", 1.0))


def test_error_bound_holds_on_small_run():
    rec, problem, spec = _p_greedy_record(budget=8)
    report = analysis.error_bound_check(rec, problem.integrand, problem.pi,
                                        spec.q)
    assert report.ok
    assert len(report.rows) == rec.n
    assert report.constant_transform == 1.0


def test_sup_qk_fine_reports_modulus():
    rec, problem, spec = _p_greedy_record(budget=4)
    state = gp.build_state(problem.integrand.kernel, ConstantMean(0.0),
                           rec.design(), np.zeros(rec.n))
    sup, modulus = analysis.sup_qk_fine(state, spec.q, DOM, points_per_dim=512)
    assert sup > 0
    assert 0 <= modulus < sup
