import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from abqlab.exceptions import DomainError, SaturationError
from abqlab.transforms import Exponential, Identity, Square

ALL = [Identity(), Square(alpha=0.8), Exponential()]


@pytest.mark.parametrize("t", ALL)
def test_roundtrip_on_valid_range(t):
    y = np.linspace(0.1, 3.0, 25)  # positive branch / positive values
    assert np.allclose(t.inverse(t.forward(y)), y, atol=1e-12)


@pytest.mark.parametrize("t", ALL)
def test_lipschitz_constant_bounds_finite_differences(t):
    # the error bound's constant is sup |T'| on |y| <= m + 2 g sqrt(k),
    # reached at the endpoint y = m + 2 g sqrt(k)
    h = 1e-6
    for m_inf, gnorm, k_inf in [(0.0, 0.5, 1.0), (0.5, 0.3, 1.0), (1.5, 0.2, 2.0)]:
        radius = m_inf + 2 * gnorm * np.sqrt(k_inf)
        y = np.linspace(-radius, radius, 41)
        fd = np.abs(t.forward(y + h) - t.forward(y - h)) / (2 * h)
        lip = t.lipschitz_constant(m_inf, gnorm, k_inf)
        assert np.all(fd <= lip * (1 + 1e-6))
        assert fd[-1] == pytest.approx(lip, rel=1e-6)


@pytest.mark.parametrize("t", [Square(alpha=0.5), Exponential()])
def test_posterior_expectation_matches_quadrature(t):
    for mu, var in [(0.3, 0.7), (-1.2, 0.05), (2.0, 1.5)]:
        sd = np.sqrt(var)
        oracle, _ = quad(
            lambda y: t.forward(np.array([y]))[0] * norm.pdf(y, mu, sd),
            mu - 12 * sd, mu + 12 * sd, limit=200,
        )
        assert t.posterior_expectation(mu, var) == pytest.approx(oracle, rel=1e-8)


def test_identity_expectation_is_mean():
    assert Identity().posterior_expectation(1.3, 0.5) == pytest.approx(1.3)


@pytest.mark.parametrize("t", [Square(alpha=0.5), Exponential()])
def test_jensen_gap_nonnegative_for_convex_warps(t):
    mu, var = 0.4, 0.9
    assert t.posterior_expectation(mu, var) >= t.forward(np.array([mu]))[0]


def test_square_inverse_rejects_values_below_alpha():
    with pytest.raises(DomainError):
        Square(alpha=1.0).inverse(np.array([0.5]))
    with pytest.raises(ValueError):
        Square(alpha=0.0)


@pytest.mark.parametrize("y", [np.random.default_rng(2).normal(0, 30, (7, 129)),
                               np.random.default_rng(3).normal(0, 1e-160, 50),
                               np.array(-1.7), 2.5], ids=["2d", "tiny", "0-d", "float"])
def test_square_forward_is_exact_and_leaves_its_argument(y):
    t = Square(alpha=0.8)
    before = np.copy(y)
    out = t.forward(y)
    assert np.array_equal(out, 0.8 + 0.5 * np.asarray(y, dtype=float) ** 2)
    assert np.shape(out) == np.shape(y)
    assert np.array_equal(y, before)


def test_exponential_guards():
    with pytest.raises(SaturationError):
        Exponential().forward(np.array([1000.0]))
    with pytest.raises(DomainError):
        Exponential().inverse(np.array([-1.0]))
    with pytest.raises(SaturationError):
        Exponential().posterior_expectation(600.0, 400.0)


def test_negative_variance_rejected():
    with pytest.raises(DomainError):
        Square(alpha=1.0).posterior_expectation(0.0, -0.1)


def test_lipschitz_constants():
    assert Identity().lipschitz_constant(5.0, 1.0, 1.0) == 1.0
    # sup |y| over the latent range m + 2 g sqrt(k)
    assert Square(alpha=1.0).lipschitz_constant(5.0, 0.5, 1.0) == pytest.approx(6.0)
    assert Exponential().lipschitz_constant(1.0, 0.5, 1.0) == pytest.approx(np.exp(2.0))
    with pytest.raises(SaturationError):
        Exponential().lipschitz_constant(800.0, 0.0, 1.0)
