from __future__ import annotations

import math

import mpmath
import pytest

from gesturec.errors import DomainError
from gesturec.special import betainc, f_sf, student_t_two_tailed

mpmath.mp.dps = 40


def t_tail_by_quadrature(t: float, df: float) -> float:
    """P(T > t) by direct numerical integration of the density."""
    df = mpmath.mpf(df)
    norm = mpmath.gamma((df + 1) / 2) / (mpmath.sqrt(df * mpmath.pi) * mpmath.gamma(df / 2))

    def density(x):
        return norm * (1 + x * x / df) ** (-(df + 1) / 2)

    return float(mpmath.quad(density, [t, mpmath.inf]))


def f_tail_by_quadrature(f: float, d1: float, d2: float) -> float:
    d1, d2 = mpmath.mpf(d1), mpmath.mpf(d2)
    norm = (
        mpmath.gamma((d1 + d2) / 2)
        / (mpmath.gamma(d1 / 2) * mpmath.gamma(d2 / 2))
        * (d1 / d2) ** (d1 / 2)
    )

    def density(x):
        return norm * x ** (d1 / 2 - 1) * (1 + d1 * x / d2) ** (-(d1 + d2) / 2)

    return float(mpmath.quad(density, [f, mpmath.inf]))


T_CASES = [
    (0.5, 1), (1.0, 2), (2.147, 7), (2.5, 10), (0.05, 30),
    (3.2, 60), (1.7, 120), (4.0, 200), (0.9, 200),
]


@pytest.mark.parametrize("t,df", T_CASES)
def test_student_t_tail_against_quadrature(t, df):
    assert student_t_two_tailed(t, df) / 2 == pytest.approx(t_tail_by_quadrature(t, df), abs=1e-8)


F_CASES = [
    (0.5, 1, 8), (1.0, 2, 10), (2.3, 3, 40), (5.0, 1, 7),
    (0.8, 7, 152), (3.5, 21, 160), (1.2, 4, 200),
]


@pytest.mark.parametrize("f,d1,d2", F_CASES)
def test_f_tail_against_quadrature(f, d1, d2):
    assert f_sf(f, d1, d2) == pytest.approx(f_tail_by_quadrature(f, d1, d2), abs=1e-8)


def test_betainc_against_mpmath():
    for a, b, x in [(0.5, 0.5, 0.3), (2, 3, 0.7), (10, 2, 0.95), (35, 100, 0.25), (100, 0.5, 0.99)]:
        expected = float(mpmath.betainc(a, b, 0, x, regularized=True))
        assert betainc(a, b, x) == pytest.approx(expected, abs=1e-10)


def test_betainc_bounds_and_domain():
    assert betainc(2, 3, 0.0) == 0.0
    assert betainc(2, 3, 1.0) == 1.0
    with pytest.raises(DomainError):
        betainc(-1, 2, 0.5)
    with pytest.raises(DomainError):
        betainc(1, 2, 1.5)


def test_two_tailed_symmetry():
    for t in (0.3, 1.1, 2.9):
        assert student_t_two_tailed(t, 9) == pytest.approx(student_t_two_tailed(-t, 9))


def test_two_tailed_at_zero_is_one():
    assert student_t_two_tailed(0.0, 5) == 1.0


def test_tail_monotone_in_t():
    values = [student_t_two_tailed(t, 12) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert values == sorted(values, reverse=True)


def test_f_sf_edges():
    assert f_sf(0.0, 3, 10) == 1.0
    assert f_sf(math.inf, 3, 10) == 0.0
    with pytest.raises(DomainError):
        f_sf(1.0, 0, 10)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "tail, args, named",
    [
        (f_sf, (NAN, 1, 10), "F"),
        (f_sf, (2, NAN, 10), "nan"),
        (f_sf, (2, 1, NAN), "nan"),
        (f_sf, (2, INF, 10), "inf"),
        (f_sf, (2, 1, INF), "inf"),
        (student_t_two_tailed, (NAN, 5), "t"),
        (student_t_two_tailed, (1.0, NAN), "nan"),
        (student_t_two_tailed, (1.0, INF), "inf"),
        (betainc, (2, 3, NAN), "x=nan"),
        (betainc, (NAN, 3, 0.5), "a=nan"),
        (betainc, (2, INF, 0.5), "b=inf"),
    ],
    ids=["f-nan", "df1-nan", "df2-nan", "df1-inf", "df2-inf", "t-nan", "df-nan", "df-inf", "x-nan", "a-nan", "b-inf"],
)
def test_tails_reject_non_finite_arguments(tail, args, named):
    with pytest.raises(DomainError) as err:
        tail(*args)
    assert named in str(err.value)


def test_betainc_names_shape_parameters_lgamma_cannot_take():
    with pytest.raises(DomainError, match=r"a=1e\+308, b=1e\+308"):
        betainc(1e308, 1e308, 0.5)
    with pytest.raises(DomainError, match="too large"):
        f_sf(1.0, 1e308, 10)


def test_negative_t_tail_complements():
    # P(T > -1.3) is the complement of half the two-tailed probability
    upper = 1.0 - student_t_two_tailed(-1.3, 7) / 2
    assert upper == pytest.approx(t_tail_by_quadrature(-1.3, 7), abs=1e-8)
