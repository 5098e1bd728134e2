import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from abqlab import config, gp, verify
from abqlab.acquisition import (
    AcquisitionSpec,
    AdaptiveTermRule,
    ConstantRule,
    Expm1,
    Mmlt,
    Power,
    Vbmc,
    WsabiL,
    WsabiM,
)
from abqlab.domain import (
    ConstantMean,
    Domain,
    TabulatedDensity,
    TruncatedGaussianDensity,
    UniformDensity,
)
from abqlab.exceptions import DomainError, SaturationError, WeakAdaptivityViolation
from abqlab.kernels import Matern

DOM = Domain((0.0,), (1.0,))
Q = UniformDensity(DOM)


def make_state(mean_value=0.0, n=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.05, 0.95, size=(n, 1))
    z = mean_value + rng.normal(0, 0.2, size=n)
    return gp.build_state(Matern(1.5, 0.3), ConstantMean(mean_value), X, z)


def test_psi_exact_values():
    assert Power(2.0).psi(0.25) == pytest.approx(0.5)
    assert Expm1().psi(0.3) == pytest.approx(0.3)
    assert Power(1.0).psi(0.7) == pytest.approx(0.7)


def test_psi_domain_guard():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            Power(2.0).psi(bad)


def test_psi_of_an_array_is_psi_of_each_value_bit_for_bit():
    # the psi-inequality check's draws: per outer in turn, c then z
    rng = random.Random(3)
    for outer in (Power(1.0), Power(2.0), Power(0.5), Expm1()):
        c = verify._uniform(rng, 1e-3, 1.0, verify.PSI_SAMPLES)
        verify._uniform(rng, 0.0, 10.0, verify.PSI_SAMPLES)
        each = np.array([outer.psi(ci) for ci in c])
        assert np.array_equal(outer.psi(c).view(np.int64), each.view(np.int64)), outer


@pytest.mark.parametrize("outer", [Power(2.0), Expm1()])
@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, np.nan])
def test_psi_domain_guard_names_the_first_bad_value_of_an_array(outer, bad):
    c = np.array([0.5, 1.0, bad, 0.25, 2.0])
    with pytest.raises(DomainError, match=f"got {bad}$"):
        outer.psi(c)


@pytest.mark.parametrize("outer", [Power(1.0), Power(2.0), Power(0.5), Expm1()])
def test_psi_concavity_inequality(outer):
    rng = np.random.default_rng(42)
    c = rng.uniform(1e-3, 1.0, size=2000)
    z = rng.uniform(0.0, 10.0, size=2000)
    lhs = outer.inverse(c * z)
    rhs = np.array([outer.psi(ci) for ci in c]) * outer.inverse(z)
    assert np.all(lhs >= rhs - 1e-12)


def test_outer_function_inverses():
    y = np.linspace(0.0, 5.0, 11)
    for outer in (Power(2.0), Expm1()):
        assert np.allclose(outer.inverse(outer(y)), y, atol=1e-12)


def test_acquisition_vanishes_at_design_points():
    state = make_state(mean_value=5.0)
    spec = AcquisitionSpec(outer=Power(1.0), q=Q, b=WsabiL(), gamma_tilde=1.0)
    post = gp.GridPosterior(state, state.X)
    a, _, _ = spec.evaluate(state.X, post.mean, post.var)
    assert np.all(a < 1e-8)


def test_constant_rule_reduces_to_uncertainty_sampling():
    state = make_state()
    spec = AcquisitionSpec(outer=Power(1.0), q=Q, b=ConstantRule(2.0),
                           gamma_tilde=1.0)
    grid = DOM.uniform_grid(101)
    post = gp.GridPosterior(state, grid)
    a, _, _ = spec.evaluate(grid, post.mean, post.var)
    assert np.argmax(a) == np.argmax(np.asarray(Q(grid)) ** 2 * post.var)


def test_rule_values_match_definitions():
    state = make_state(mean_value=2.0)
    X = np.array([[0.5]])
    post = gp.GridPosterior(state, X)
    moments = post.mean, post.var
    m, v = post.mean[0], post.var[0]
    assert WsabiL().evaluate(X, *moments)[0] == pytest.approx(m ** 2)
    assert WsabiM().evaluate(X, *moments)[0] == pytest.approx(0.5 * v + m ** 2)
    assert Mmlt().evaluate(X, *moments)[0] == pytest.approx(np.exp(v + 2 * m))
    rule = Vbmc(Q, delta2=2.0, delta3=0.5)
    assert rule.evaluate(X, *moments)[0] == pytest.approx(
        Q(X)[0] ** 2 * np.exp(0.5 * m)
    )


def test_vbmc_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Vbmc(Q, delta2=-1.0)
    with pytest.raises(ValueError):
        Vbmc(Q, delta3=-1.0)


def test_vbmc_rejects_nonpositive_density():
    dens = TabulatedDensity(DOM, np.array([0.0, 2.0]))
    rule = Vbmc(dens)
    state = make_state()
    X = np.array([[0.0]])
    post = gp.GridPosterior(state, X)
    with pytest.raises(WeakAdaptivityViolation):
        rule.evaluate(X, post.mean, post.var)


def test_spec_validation():
    with pytest.raises(ValueError):
        AcquisitionSpec(outer=Power(1.0), q=Q, b=WsabiL(), gamma_tilde=0.0)
    not_positive = TabulatedDensity(DOM, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        AcquisitionSpec(outer=Power(1.0), q=not_positive, b=WsabiL(),
                        gamma_tilde=1.0)


# every envelope below is at ||g|| = 0.5 and sup k = 1: spread = 2 ||g||
# sqrt(sup k) = 1


def test_clcu_constant_rule():
    res = ConstantRule(3.0).envelope(0, 0, 1.0, 1.0)
    assert res.present and res.c_l == res.c_u == 3.0


def test_clcu_wsabi_shifted_mean():
    # inf|m| = 5, spread 1
    res = WsabiL().envelope(5.0, 5.0, 1.0, 1.0)
    assert res.present
    assert res.c_l == pytest.approx(16.0)
    assert res.c_u == pytest.approx(36.0)
    res_m = WsabiM().envelope(5.0, 5.0, 1.0, 1.0)
    assert res_m.c_l == pytest.approx(16.0)
    assert res_m.c_u == pytest.approx(36.5)  # + sup k / 2


def test_clcu_wsabi_absent_for_zero_mean():
    res = WsabiL().envelope(0.0, 0.0, 1.0, 1.0)
    assert not res.present
    assert "inf|m|" in res.reason


def test_clcu_mmlt():
    res = Mmlt().envelope(0.0, 1.0, 1.0, 1.0)
    assert res.present
    assert res.c_l == pytest.approx(np.exp(-4.0))
    assert res.c_u == pytest.approx(np.exp(5.0))


def test_clcu_vbmc_needs_density_bounds():
    # the density's inf and sup, its nodes' min and max: 0.5 and 2.0
    rule = Vbmc(TabulatedDensity(DOM, [0.5, 1.0, 2.0]), delta2=1.0, delta3=1.0)
    res = rule.envelope(0.0, 1.0, 1.0, 1.0)
    assert res.present
    assert res.c_l == pytest.approx(0.5 * np.exp(-2.0))
    assert res.c_u == pytest.approx(2.0 * np.exp(2.0))


# C_U's exponent: MMLT's sup k + 2 sup|m| + 2 spread = 2 sup|m| + 3, VBMC's
# delta3 (sup|m| + spread) = 2 sup|m| + 2 at delta3 = 2; sup|m| = 350 puts
# both past the exp limit 700, and 348 below it
EXP_RULES = [Mmlt(), Vbmc(UniformDensity(DOM), delta3=2.0)]


@pytest.mark.parametrize("rule", EXP_RULES)
def test_clcu_absent_when_c_u_overflows(rule):
    res = rule.envelope(0.0, 350.0, 1.0, 1.0)
    assert not res.present
    assert res.reason.startswith("C_U's exponent 70")
    assert res.reason.endswith("passes the exp limit 700.0")
    assert rule.envelope(0.0, 348.0, 1.0, 1.0).present


@pytest.mark.parametrize("rule", EXP_RULES)
def test_rules_raise_on_an_exponent_past_the_exp_limit(rule):
    # exponents var + 2 m (MMLT) and 2 m (VBMC): 349 gives at most 698.5, 351
    # at least 702
    X = DOM.uniform_grid(3)
    var = np.array([0.0, 0.5, 1.0])
    assert np.all(np.isfinite(rule.evaluate(X, np.array([0.0, 349.0, 0.0]), var)))
    with pytest.raises(SaturationError, match="exp overflow for exponent 70"):
        rule.evaluate(X, np.array([0.0, 351.0, 351.0]), var)


def test_clcu_absent_for_a_user_defined_rule():
    class HalfVariance(AdaptiveTermRule):
        def evaluate(self, X, mean, var):
            return 0.5 * var

    res = HalfVariance().envelope(1.0, 2.0, 1.0, 1.0)
    assert not res.present
    assert res.reason == "no known envelope for rule HalfVariance"


def test_every_registered_rule_defines_its_own_envelope():
    # a b kind is one class and one registry entry: its envelope lives in
    # its class, and no function branches on the rule's type
    assert [name for name, cls in config._RULES.items()
            if "envelope" not in vars(cls)] == []


def test_clamp_counting_at_zero_mean():
    state = gp.empty_state(Matern(1.5, 0.3), ConstantMean(0.0), 1)
    spec = AcquisitionSpec(outer=Power(1.0), q=Q, b=WsabiL(), gamma_tilde=1.0)
    grid = DOM.uniform_grid(5)
    post = gp.GridPosterior(state, grid)
    a, clamped, _ = spec.evaluate(grid, post.mean, post.var)
    assert clamped == 5  # b = m^2 = 0 everywhere before any data
    assert np.all(a >= 0)


# finite posterior moments at points of the box: |mean| <= 50, 0 <= var <= 100
# (exp(var + 2 mean) stays finite); no subnormal var, whose half rounds to 0
MOMENTS = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(-50.0, 50.0),
              st.floats(0.0, 100.0, allow_subnormal=False)),
    min_size=1, max_size=16,
)
RULES = st.one_of(
    st.builds(ConstantRule, st.floats(1e-6, 1e6)),
    st.just(WsabiL()),
    st.just(WsabiM()),
    st.just(Mmlt()),
    st.builds(lambda d2, d3: Vbmc(TruncatedGaussianDensity(DOM, [0.3], [0.2]), d2, d3),
              st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
)


@given(rule=RULES, moments=MOMENTS)
def test_adaptive_terms_are_finite_nonnegative_and_clamped_by_count(rule, moments):
    X, mean, var = (np.array(c) for c in zip(*moments))
    X = X[:, None]
    b = rule.evaluate(X, mean, var)
    assert b.shape == mean.shape
    assert np.all(np.isfinite(b)) and np.all(b >= 0.0)
    if not isinstance(rule, WsabiL):
        # m^2 alone vanishes at m = 0; every other rule is positive once var is
        assert np.all(b[var > 0] > 0.0)
    spec = AcquisitionSpec(outer=Power(1.0), q=Q, b=rule)
    _, clamped, b_spec = spec.evaluate(X, mean, var)
    assert np.array_equal(b_spec, b)
    assert clamped == int(np.count_nonzero(b < 1e-300))
