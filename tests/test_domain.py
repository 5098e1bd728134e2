import numpy as np
import pytest

from abqlab.domain import (
    PROBE_POINTS,
    AffineMean,
    ConstantMean,
    Domain,
    SyntheticIntegrand,
    TabulatedDensity,
    TruncatedGaussianDensity,
    UniformDensity,
    quadrature_nodes,
    reference_integral,
    rkhs_norm,
)
from abqlab.exceptions import BudgetExceededError
from abqlab.kernels import SquaredExponential
from abqlab.transforms import Identity


def test_domain_rejects_degenerate_box():
    with pytest.raises(ValueError):
        Domain((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        Domain((0.0,), (1.0, 2.0))


def test_domain_geometry():
    dom = Domain((0.0, -1.0), (2.0, 1.0))
    assert dom.dim == 2
    assert dom.volume == pytest.approx(4.0)
    assert np.allclose(dom.widths, [2.0, 2.0])
    assert dom.contains([[1.0, 0.0]])[0]
    assert not dom.contains([[3.0, 0.0]])[0]
    assert np.allclose(dom.clip([[3.0, -5.0]]), [[2.0, -1.0]])


def test_uniform_grid_shapes_and_midpoints():
    dom = Domain((0.0,), (1.0,))
    g = dom.uniform_grid(5)
    assert g.shape == (5, 1)
    assert g[0, 0] == 0.0 and g[-1, 0] == 1.0
    mid = dom.uniform_grid(4, endpoint=False)
    assert np.allclose(mid[:, 0], [0.125, 0.375, 0.625, 0.875])
    dom2 = Domain((0.0, 0.0), (1.0, 1.0))
    assert dom2.uniform_grid(3).shape == (9, 2)


@pytest.mark.parametrize("dim, per_dim", [(1, 512), (2, 256), (3, 40), (4, 16)])
def test_probe_grid_has_a_total_budget_and_the_corners(dim, per_dim):
    dom = Domain(tuple(-1.0 - i for i in range(dim)),
                 tuple(2.0 + i for i in range(dim)))
    grid = dom.probe_grid()
    assert grid.shape == (per_dim ** dim, dim)
    assert grid.shape[0] <= PROBE_POINTS
    corners = {tuple(dom.lower), tuple(dom.upper)}
    assert corners <= set(map(tuple, grid))


def test_densities_normalize():
    dom = Domain((0.0, 0.0), (2.0, 2.0))
    for dens in (
        UniformDensity(dom),
        TruncatedGaussianDensity(dom, center=[1.0, 0.5], scale=[0.5, 1.0]),
    ):
        mass = reference_integral(lambda P: np.ones(len(P)), dens, dom, 64)
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert dens.strictly_positive


def test_tabulated_density_interpolates_and_flags_positivity():
    dom = Domain((0.0,), (1.0,))
    dens = TabulatedDensity(dom, np.array([1.0, 3.0]))
    assert dens(np.array([[0.5]]))[0] == pytest.approx(2.0)
    assert dens.strictly_positive
    dens0 = TabulatedDensity(dom, np.array([0.0, 1.0]))
    assert not dens0.strictly_positive
    with pytest.raises(ValueError):
        TabulatedDensity(dom, np.array([-1.0, 1.0]))


def test_mean_functions():
    assert ConstantMean(2.5)(np.zeros((3, 2)))[0] == 2.5
    m = AffineMean((1.0, -2.0), offset=0.5)
    assert m(np.array([[1.0, 1.0]]))[0] == pytest.approx(-0.5)


def test_synthetic_integrand_consistency():
    kernel = SquaredExponential(gamma=0.5)
    f = SyntheticIntegrand(
        centers=np.array([[0.3], [0.7]]), weights=np.array([1.0, -0.5]),
        prior_mean=ConstantMean(0.2), kernel=kernel, transform=Identity(),
    )
    X = np.linspace(0, 1, 7)[:, None]
    expect = 0.2 + kernel.pairwise(X, f.centers) @ np.array([1.0, -0.5])
    assert np.allclose(f.latent(X), expect)
    assert np.allclose(f(X), f.latent(X))  # identity warp
    assert np.allclose(f.g_tilde(X), expect - 0.2)


def test_rkhs_norm_single_center_closed_form():
    kernel = SquaredExponential(gamma=0.5)
    f = SyntheticIntegrand(
        centers=np.array([[0.4]]), weights=np.array([-0.7]),
        prior_mean=ConstantMean(0.0), kernel=kernel, transform=Identity(),
    )
    # ||w k(., y)|| = |w| sqrt(k(y, y))
    assert rkhs_norm(f) == pytest.approx(0.7)


def test_rkhs_norm_empty_expansion_is_zero():
    f = SyntheticIntegrand(
        centers=np.zeros((0, 1)), weights=np.zeros(0),
        prior_mean=ConstantMean(0.0), kernel=SquaredExponential(),
        transform=Identity(),
    )
    assert rkhs_norm(f) == 0.0
    assert np.allclose(f.g_tilde(np.array([[0.5]])), 0.0)


def test_quadrature_polynomial_exactness():
    dom = Domain((0.0,), (1.0,))
    val = reference_integral(lambda P: P[:, 0] ** 2, UniformDensity(dom), dom, 16)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_quadrature_budget_guard():
    dom = Domain((0.0,) * 3, (1.0,) * 3)
    with pytest.raises(BudgetExceededError):
        quadrature_nodes(dom, 500)

