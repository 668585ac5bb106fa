"""Modified Bessel functions against the quadrature oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bessel_oracle import bessel_k_oracle
from latticesum.specfun import bessel_k

_EULER_GAMMA = 0.5772156649015329


def test_frozen_reference_values():
    # frozen from the quadrature oracle; agree with published tables
    assert bessel_k(0, 1.0) == pytest.approx(0.42102443824070834, rel=1e-13)
    assert bessel_k(1, 1.0) == pytest.approx(0.6019072301972346, rel=1e-13)
    assert bessel_k(2, 2.0 * math.pi) == pytest.approx(1.2307549636886741e-3, rel=1e-13)


def test_oracle_sweep():
    # one array-valued call per order, as f_constant makes them
    xs = np.logspace(math.log10(0.05), math.log10(30.0), 50)
    worst = 0.0
    for n in (0, 1, 2):
        got = bessel_k(n, xs)
        assert got.shape == xs.shape
        for x, value in zip(xs, got):
            ref = bessel_k_oracle(n, float(x))
            worst = max(worst, abs(value - ref) / ref)
    assert worst <= 1e-12


def test_oracle_recurrence_self_consistency():
    # three independent quadratures must satisfy K2 = K0 + 2 K1 / x
    for x in (0.3, 1.7, 6.0):
        lhs = bessel_k_oracle(2, x)
        rhs = bessel_k_oracle(0, x) + 2.0 * bessel_k_oracle(1, x) / x
        assert lhs == pytest.approx(rhs, rel=1e-10)


@given(st.floats(0.01, 100.0))
def test_recurrence(x):
    lhs = bessel_k(2, x)
    rhs = bessel_k(0, x) + 2.0 * bessel_k(1, x) / x
    assert lhs == pytest.approx(rhs, rel=1e-13)


@given(st.floats(0.05, 50.0), st.floats(1.001, 2.0))
def test_monotone_decreasing_in_x(x, factor):
    for n in (0, 1, 2):
        assert bessel_k(n, x * factor) < bessel_k(n, x)


@given(st.floats(0.01, 300.0))
def test_increasing_in_order(x):
    k0, k1, k2 = (bessel_k(n, x) for n in (0, 1, 2))
    assert 0.0 < k0 < k1 < k2


def test_small_argument_limits():
    x = 1e-6
    assert x * bessel_k(1, x) == pytest.approx(1.0, abs=1e-9)
    assert x * x * bessel_k(0, x) < 2e-11
    assert bessel_k(0, x) == pytest.approx(-math.log(x / 2.0) - _EULER_GAMMA, rel=1e-9)


@pytest.mark.parametrize("n,x", [(3, 1.0), (-1, 1.0), (0, 0.0), (1, -2.0)])
def test_domain_rejected(n, x):
    with pytest.raises(ValueError):
        bessel_k(n, x)
    with pytest.raises(ValueError):
        bessel_k(n, np.array([1.0, x]))
    with pytest.raises(ValueError):
        bessel_k_oracle(n, x)


@pytest.mark.parametrize("x", [1e-160, 1e-200])
def test_k2_past_its_overflow_is_inf_without_warning(x):
    # K2(x) ~ 2 / x^2 passes the float range below about 1.06e-154; the
    # warning filter is "error", so any overflow warning fails the test
    assert bessel_k(2, x) == math.inf
    got = bessel_k(2, np.array([x, 1.0]))
    assert got[0] == math.inf and np.isfinite(got[1])
