"""The generic acquisition family a_l(x) = F(q^2(x) k_Xl(x,x)) b_l(x).

Covers the published adaptive terms (WSABI-L/M, MMLT, VBMC) plus a
constant rule that reduces selection to scaled uncertainty sampling
(P-greedy). The outer function F carries the concavity constant psi used
by the weak-greedy certificate, and each rule can report the theoretical
weak-adaptivity envelope [C_L, C_U] when its sufficient condition holds.

Rules are weakly adaptive: b_l depends on the data only through the
current posterior moments, so every evaluation takes the posterior mean
and variance at the points as inputs and never touches the GP itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, WeakAdaptivityViolation

_B_FLOOR = 1e-300


class OuterFunction:
    def __call__(self, y):
        raise NotImplementedError

    def inverse(self, y):
        raise NotImplementedError

    def psi(self, c):
        """Constant with F^{-1}(c y) >= psi(c) F^{-1}(y) for all y >= 0."""
        raise NotImplementedError


@dataclass(frozen=True)
class Power(OuterFunction):
    """F(y) = y^delta."""

    delta: float = 1.0

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    def __call__(self, y):
        return np.asarray(y, dtype=float) ** self.delta

    def inverse(self, y):
        return np.asarray(y, dtype=float) ** (1.0 / self.delta)

    def psi(self, c):
        _check_psi_arg(c)
        return c ** (1.0 / self.delta)


@dataclass(frozen=True)
class Expm1(OuterFunction):
    """F(y) = exp(y) - 1."""

    def __call__(self, y):
        return np.expm1(np.asarray(y, dtype=float))

    def inverse(self, y):
        return np.log1p(np.asarray(y, dtype=float))

    def psi(self, c):
        _check_psi_arg(c)
        return c


def _check_psi_arg(c):
    if not 0 < c <= 1:
        raise DomainError(f"psi is defined for c in (0, 1], got {c}")


class AdaptiveTermRule:
    name = "base"

    def evaluate(self, X, mean, var):
        """b_l over a batch of points with posterior moments (mean, var)
        there; must be strictly positive."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantRule(AdaptiveTermRule):
    value: float = 1.0
    name = "constant"

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("constant rule needs a positive value")

    def evaluate(self, X, mean, var):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.full(X.shape[0], float(self.value))


@dataclass(frozen=True)
class WsabiL(AdaptiveTermRule):
    """b_l(x) = m_{g,Xl}^2(x)."""

    name = "wsabi_l"

    def evaluate(self, X, mean, var):
        return mean ** 2


@dataclass(frozen=True)
class WsabiM(AdaptiveTermRule):
    """b_l(x) = k_Xl(x,x)/2 + m_{g,Xl}^2(x)."""

    name = "wsabi_m"

    def evaluate(self, X, mean, var):
        return 0.5 * var + mean ** 2


@dataclass(frozen=True)
class Mmlt(AdaptiveTermRule):
    """b_l(x) = exp(k_Xl(x,x) + 2 m_{g,Xl}(x))."""

    name = "mmlt"

    def evaluate(self, X, mean, var):
        return np.exp(var + 2.0 * mean)


@dataclass(frozen=True)
class Vbmc(AdaptiveTermRule):
    """b_l(x) = pi^{delta2}(x) exp(delta3 m_{g,Xl}(x)).

    The density is user supplied and fixed over the run; no variational
    loop runs here.
    """

    density: object
    delta2: float = 1.0
    delta3: float = 1.0
    name = "vbmc"

    def __post_init__(self):
        if self.delta2 < 0 or self.delta3 < 0:
            raise ValueError("delta2 and delta3 must be nonnegative")

    def evaluate(self, X, mean, var):
        pvals = self.density(X)
        if np.any(pvals <= 0):
            raise WeakAdaptivityViolation(
                "vbmc density is nonpositive somewhere on the evaluated points"
            )
        return pvals ** self.delta2 * np.exp(self.delta3 * mean)


@dataclass(frozen=True)
class AcquisitionSpec:
    outer: OuterFunction
    q: object  # strictly positive Density
    b: AdaptiveTermRule
    gamma_tilde: float = 1.0

    def __post_init__(self):
        if not 0 < self.gamma_tilde <= 1:
            raise ValueError("gamma_tilde must lie in (0, 1]")
        if not getattr(self.q, "strictly_positive", False):
            raise ValueError("q must be a strictly positive density")

    def evaluate(self, X, mean, var):
        """Acquisition values over a batch with posterior moments (mean, var)
        there; returns (a, clamp_count, b).

        b is the adaptive term `self.b`, evaluated once; clamp_count
        is the number of its values lifted to the 1e-300 floor before
        multiplication (b itself is returned unclamped).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        qv = self.q(X)
        bv = self.b.evaluate(X, mean, var)
        clamped = int(np.count_nonzero(bv < _B_FLOOR))
        return self.outer(qv ** 2 * var) * np.maximum(bv, _B_FLOOR), clamped, bv


@dataclass(frozen=True)
class ClcuResult:
    """Theoretical weak-adaptivity envelope, or the reason it is absent."""

    present: bool
    c_l: float = float("nan")
    c_u: float = float("nan")
    reason: str = ""


def theoretical_clcu(rule, m_inf_low, m_inf_high, gnorm, k_inf, probe=None):
    """[C_L, C_U] from the per-rule sufficient conditions.

    m_inf_low = inf |m|, m_inf_high = sup |m|, gnorm = native norm of the
    expansion part, k_inf = sup k(x,x). VBMC additionally bounds its
    density by its min and max on the (n, d) points `probe`.
    """
    if any(v < 0 for v in (m_inf_low, m_inf_high, gnorm, k_inf)):
        raise ValueError("all norm arguments must be nonnegative")
    spread = 2.0 * gnorm * np.sqrt(k_inf)
    if isinstance(rule, ConstantRule):
        return ClcuResult(True, rule.value, rule.value)
    if isinstance(rule, (WsabiL, WsabiM)):
        if m_inf_low <= spread:
            return ClcuResult(
                False,
                reason=f"hypothesis inf|m| > 2||g||sqrt(sup k) fails "
                       f"({m_inf_low} <= {spread})",
            )
        c_u = (m_inf_high + spread) ** 2
        if isinstance(rule, WsabiM):
            c_u = 0.5 * k_inf + c_u
        return ClcuResult(True, (m_inf_low - spread) ** 2, c_u)
    if isinstance(rule, Mmlt):
        return ClcuResult(
            True,
            float(np.exp(-2.0 * m_inf_high - 2.0 * spread)),
            float(np.exp(k_inf + 2.0 * m_inf_high + 2.0 * spread)),
        )
    if isinstance(rule, Vbmc):
        if probe is None:
            return ClcuResult(False, reason="no probe points to bound the vbmc density on")
        vals = rule.density(probe)
        width = rule.delta3 * (m_inf_high + spread)
        return ClcuResult(
            True,
            float(np.min(vals)) ** rule.delta2 * float(np.exp(-width)),
            float(np.max(vals)) ** rule.delta2 * float(np.exp(width)),
        )
    return ClcuResult(False, reason=f"no known envelope for rule {rule.name}")
