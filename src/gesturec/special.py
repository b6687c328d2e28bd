"""Tail probabilities for the Student t and F distributions.

Both reduce to the regularized incomplete beta function, evaluated here
with the continued-fraction expansion (modified Lentz iteration, as in the
classic Cephes/Numerical Recipes treatment).  Convergence tolerance is
1e-10; quadrature-based oracles in the test suite hold the results to
1e-8 absolute for degrees of freedom up to 200.
"""

from __future__ import annotations

import math

from .errors import DomainError

_EPS = 1e-10
_FPMIN = 1e-300
_MAX_ITER = 500


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # the even step, then the odd step; only the odd step's delta ends the iteration
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise DomainError(f"betainc requires finite a, b > 0, got a={a}, b={b}")
    if not 0 <= x <= 1:
        raise DomainError(f"betainc requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    try:
        log_beta = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    except OverflowError:
        raise DomainError(f"betainc shape parameters too large for lgamma: a={a}, b={b}") from None
    log_bt = log_beta + a * math.log(x) + b * math.log1p(-x)
    bt = math.exp(log_bt)
    # Use the expansion that converges fast; mirror for the other half.
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def student_t_two_tailed(t: float, df: float) -> float:
    """P(|T| >= |t|) for T ~ Student t with ``df`` degrees of freedom."""
    if not 0 < df < math.inf:
        raise DomainError(f"degrees of freedom must be finite and > 0, got {df}")
    if math.isnan(t):
        raise DomainError(f"t must not be NaN, got {t}")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return betainc(df / 2.0, 0.5, x)


def f_sf(f: float, df1: float, df2: float) -> float:
    """Upper tail P(F > f) for F ~ F(df1, df2)."""
    if not (0 < df1 < math.inf and 0 < df2 < math.inf):
        raise DomainError(f"degrees of freedom must be finite and > 0, got ({df1}, {df2})")
    if math.isnan(f):
        raise DomainError(f"F must not be NaN, got {f}")
    if f <= 0:
        return 1.0
    if math.isinf(f):
        return 0.0
    x = df2 / (df2 + df1 * f)
    return betainc(df2 / 2.0, df1 / 2.0, x)
