"""Warping transforms linking the latent GP to the integrand.

Each transform provides the forward map, the inverse used to recover
latent observations from integrand values, the closed-form Lipschitz
constant used by the quadrature error bound, and the closed-form
Gaussian posterior expectation used by the moment-based estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, SaturationError

_EXP_LIMIT = 700.0


class Transform:
    def forward(self, y):
        raise NotImplementedError

    def inverse(self, f_val):
        raise NotImplementedError

    def posterior_expectation(self, mean, var):
        """E[T(Z)] for Z ~ N(mean, var)."""
        raise NotImplementedError

    def lipschitz_constant(self, m_inf, gnorm, k_inf):
        """sup |T'| over the latent range |y| <= m_inf + 2 gnorm sqrt(k_inf)."""
        raise NotImplementedError


def _check_var(var):
    var = np.asarray(var, dtype=float)
    if np.any(var < 0):
        raise DomainError("variance must be nonnegative")
    return var


@dataclass(frozen=True)
class Identity(Transform):
    def forward(self, y):
        return np.asarray(y, dtype=float)

    def inverse(self, f_val):
        return np.asarray(f_val, dtype=float)

    def posterior_expectation(self, mean, var):
        _check_var(var)
        return np.asarray(mean, dtype=float)

    def lipschitz_constant(self, m_inf, gnorm, k_inf):
        return 1.0


@dataclass(frozen=True)
class Square(Transform):
    """T(y) = alpha + y^2 / 2 with 0 < alpha < inf f.

    The inverse takes the nonnegative branch.
    """

    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def forward(self, y):
        y = np.asarray(y, dtype=float)
        return self.alpha + 0.5 * y ** 2

    def inverse(self, f_val):
        f_val = np.asarray(f_val, dtype=float)
        if np.any(f_val < self.alpha - 1e-12):
            bad = float(np.min(f_val))
            raise DomainError(
                f"square transform: value {bad} below alpha={self.alpha}"
            )
        return np.sqrt(np.maximum(2.0 * (f_val - self.alpha), 0.0))

    def posterior_expectation(self, mean, var):
        var = _check_var(var)
        mean = np.asarray(mean, dtype=float)
        return self.alpha + 0.5 * (mean ** 2 + var)

    def lipschitz_constant(self, m_inf, gnorm, k_inf):
        return m_inf + 2.0 * gnorm * np.sqrt(k_inf)


@dataclass(frozen=True)
class Exponential(Transform):
    def forward(self, y):
        y = np.asarray(y, dtype=float)
        if np.any(y > _EXP_LIMIT):
            raise SaturationError(f"exp overflow for latent value {float(np.max(y))}")
        return np.exp(y)

    def inverse(self, f_val):
        f_val = np.asarray(f_val, dtype=float)
        if np.any(f_val <= 0):
            raise DomainError(
                f"exponential transform: nonpositive value {float(np.min(f_val))}"
            )
        return np.log(f_val)

    def posterior_expectation(self, mean, var):
        var = _check_var(var)
        arg = np.asarray(mean, dtype=float) + 0.5 * var
        if np.any(arg > _EXP_LIMIT):
            raise SaturationError("exp overflow in log-normal moment")
        return np.exp(arg)

    def lipschitz_constant(self, m_inf, gnorm, k_inf):
        R = m_inf + 2.0 * gnorm * np.sqrt(k_inf)
        if R > _EXP_LIMIT:
            raise SaturationError("Lipschitz constant overflows double precision")
        return float(np.exp(R))
