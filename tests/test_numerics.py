"""Tail-function and signal-buffer foundation tests.

Frozen reference values were produced with two independent oracles
(scipy.stats / scipy.special and a 40-digit mpmath evaluation of the
regularized incomplete gamma and the Poisson-mixture series); both
oracles agreed to at least 12 significant digits before the numbers
were frozen here.  A small erfc-series oracle is also re-implemented
inline so the Gaussian tail is checked against something other than
the library erfc it is built on.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ncx2

from fbmcss.numerics import (
    ComplexSignal,
    chi2_tail,
    chi2_tail_inv,
    gaussian_q,
    gaussian_q_inv,
    noncentral_chi2_tail,
)

INV_REL = 1e-9  # inverse-function round trips


def erfc_series_oracle(x: float) -> float:
    """Independent Q(x) via the erfc continued fraction / Taylor series.

    Taylor series of erf for small arguments, Laplace continued fraction
    for the tail.  Good to ~1e-13 for |x| <= 8, which covers every frozen
    comparison below.
    """
    z = x / math.sqrt(2.0)
    if z < 0:
        return 1.0 - erfc_series_oracle(-x)
    if z < 2.0:
        # erf Taylor series
        total, term = z, z
        for n in range(1, 200):
            term *= -z * z / n
            total += term / (2 * n + 1)
        erf = 2.0 / math.sqrt(math.pi) * total
        return 0.5 * (1.0 - erf)
    # Laplace continued fraction for erfc
    f = 0.0
    for n in range(60, 0, -1):
        f = (n / 2.0) / (z + f)
    erfc = math.exp(-z * z) / math.sqrt(math.pi) / (z + f)
    return 0.5 * erfc


class TestGaussianQ:
    def test_zero_is_half(self):
        assert gaussian_q(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_decile_point(self):
        # spec point: Q(1.2815515655) = 0.10 within 1e-8
        assert gaussian_q(1.2815515655) == pytest.approx(0.10, abs=1e-8)

    def test_against_series_oracle(self):
        for x in (-3.0, -0.7, 0.3, 1.0, 2.5, 4.0, 6.0):
            assert gaussian_q(x) == pytest.approx(
                erfc_series_oracle(x), rel=1e-12
            )

    def test_frozen_values(self):
        # scipy.stats.norm.sf, cross-checked with mpmath erfc
        assert gaussian_q(2.0) == pytest.approx(0.022750131948179195, rel=1e-12)
        assert gaussian_q(6.0) == pytest.approx(9.865876450376946e-10, rel=1e-10)

    def test_symmetry(self):
        for x in (0.1, 1.3, 2.2):
            assert gaussian_q(-x) == pytest.approx(1.0 - gaussian_q(x), abs=1e-14)


class TestGaussianQInv:
    def test_half(self):
        assert gaussian_q_inv(0.5) == 0.0

    def test_frozen_values(self):
        assert gaussian_q_inv(1e-8) == pytest.approx(5.612001244174789, abs=1e-3)
        assert gaussian_q_inv(0.975) == pytest.approx(-1.959963984540054, abs=1e-6)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                gaussian_q_inv(bad)

    @given(st.floats(min_value=1e-10, max_value=1.0 - 1e-10))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, p):
        x = gaussian_q_inv(p)
        assert abs(gaussian_q(x) - p) <= INV_REL * p

    def test_round_trip_of_forward(self):
        assert gaussian_q_inv(gaussian_q(2.0)) == pytest.approx(2.0, abs=1e-9)


class TestChi2Tail:
    def test_dof2_closed_form(self):
        # dof=2 tail is exp(-x/2) exactly
        assert chi2_tail(2, 13.8155) == pytest.approx(math.exp(-13.8155 / 2), rel=1e-12)
        assert chi2_tail(2, 13.8155) == pytest.approx(1e-3, rel=1e-3)

    def test_frozen_values(self):
        # regularized incomplete gamma oracle (scipy + mpmath agree)
        assert chi2_tail(8, 26.1245) == pytest.approx(0.0009999927253796287, rel=1e-10)
        assert chi2_tail(1, 4.0) == pytest.approx(0.04550026389635857, rel=1e-12)
        assert chi2_tail(7, 20.5) == pytest.approx(0.004585143096104977, rel=1e-12)

    def test_at_zero(self):
        assert chi2_tail(4, 0.0) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            chi2_tail(0, 1.0)
        with pytest.raises(ValueError):
            chi2_tail(4, -0.5)

    @given(st.integers(min_value=1, max_value=200), st.floats(min_value=0, max_value=500))
    @settings(max_examples=200, deadline=None)
    def test_range_and_monotonicity(self, dof, x):
        q = chi2_tail(dof, x)
        assert 0.0 <= q <= 1.0
        assert chi2_tail(dof, x + 1.0) <= q + 1e-12


class TestChi2TailInv:
    def test_dof2_closed_form(self):
        assert chi2_tail_inv(2, 1e-3) == pytest.approx(-2.0 * math.log(1e-3), rel=1e-10)

    def test_frozen_values(self):
        assert chi2_tail_inv(8, 1e-3) == pytest.approx(26.124481558376143, rel=1e-9)
        # 2p = 80 and P_FA = 1e-8: the Table-I-scale operating point
        assert chi2_tail_inv(80, 1e-8) == pytest.approx(172.34660727016785, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            chi2_tail_inv(4, 0.0)
        with pytest.raises(ValueError):
            chi2_tail_inv(4, 1.0)

    @given(
        st.integers(min_value=1, max_value=120),
        st.floats(min_value=1e-10, max_value=1.0 - 1e-10),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, dof, p):
        x = chi2_tail_inv(dof, p)
        assert abs(chi2_tail(dof, x) - p) <= INV_REL * p


class TestNoncentralChi2Tail:
    def test_central_reduction(self):
        for dof, x in ((2, 1.0), (8, 26.1245), (40, 55.0)):
            assert noncentral_chi2_tail(dof, 0.0, x) == pytest.approx(
                chi2_tail(dof, x), abs=1e-10
            )

    def test_frozen_values(self):
        # scipy.stats.ncx2.sf, cross-checked against a 40-digit mpmath
        # Poisson-mixture evaluation (agreement to 15 digits)
        assert noncentral_chi2_tail(8, 40.96, 26.1245) == pytest.approx(
            0.9714752090224965, rel=1e-10
        )
        assert noncentral_chi2_tail(2, 5.0, 3.0) == pytest.approx(
            0.7796181907009099, rel=1e-10
        )
        assert noncentral_chi2_tail(16, 200.0, 180.0) == pytest.approx(
            0.8980717606277724, rel=1e-10
        )
        # large-lambda regime exercised by the Table-I-scale presets
        assert noncentral_chi2_tail(80, 1000.0, 900.0) == pytest.approx(
            0.9981655902693742, rel=1e-9
        )

    def test_monte_carlo_oracle(self):
        # 1e6 draws of sum of squared unit-variance normals with offset
        rng = np.random.default_rng(20240817)
        dof, lam, x = 8, 12.0, 24.0
        mu = np.zeros(dof)
        mu[0] = math.sqrt(lam)
        draws = rng.standard_normal((1_000_000, dof)) + mu
        stat = np.sum(draws**2, axis=1)
        emp = float(np.mean(stat > x))
        p = noncentral_chi2_tail(dof, lam, x)
        se = math.sqrt(p * (1 - p) / 1_000_000)
        assert abs(emp - p) < 3.0 * se + 1e-12

    def test_monotone_in_lambda(self):
        vals = [noncentral_chi2_tail(8, lam, 20.0) for lam in (0, 1, 5, 20, 100, 1000)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            noncentral_chi2_tail(8, -1.0, 5.0)

    def test_underflowed_tail_returns_promptly(self):
        # the Poisson-weighted terms are all zero here, so a relative stop
        # rule alone never fires and the sweep used to run to its cap
        t0 = time.perf_counter()
        assert noncentral_chi2_tail(2, 100.0, 9500.0) == 0.0
        assert time.perf_counter() - t0 < 0.1

    @pytest.mark.parametrize(
        "dof,lam,x",
        [(2, 5.0, 30.0), (8, 40.96, 90.0), (16, 200.0, 320.0), (80, 1000.0, 1250.0),
         (4, 0.5, 40.0), (60, 9000.0, 9500.0)],
    )
    def test_moderate_tail_matches_scipy(self, dof, lam, x):
        assert noncentral_chi2_tail(dof, lam, x) == pytest.approx(
            float(ncx2.sf(x, dof, lam)), rel=1e-10
        )

    @given(
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=0.0, max_value=9000.0),
        st.floats(min_value=0.0, max_value=9500.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_range_and_x_monotonicity(self, dof, lam, x):
        q = noncentral_chi2_tail(dof, lam, x)
        assert 0.0 <= q <= 1.0
        assert noncentral_chi2_tail(dof, lam, x + 5.0) <= q + 1e-11


class TestComplexSignal:
    def test_sample_rate_validation(self):
        for rate in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="sample_rate_hz"):
                ComplexSignal(np.array([1.0 + 0j]), rate)
