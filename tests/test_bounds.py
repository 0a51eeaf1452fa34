"""Bound-calculus checks; the independent oracle is the explicit running
product prod_{t=0}^{T-1} (t + rho) / (t + 1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probboost import bounds
from probboost.specfun import log_gamma


def product_F(T: int, rho: float) -> float:
    value = 1.0
    for t in range(T):
        value *= (t + rho) / (t + 1)
    return value


class TestRhoFromEpsilon:
    def test_perfect_classifier(self):
        assert bounds.rho_from_epsilon(0.5) == 0.0

    def test_vanishing_edge(self):
        assert bounds.rho_from_epsilon(1e-9) == pytest.approx(1.0, abs=1e-12)

    def test_paper_figure_edge(self):
        assert bounds.rho_from_epsilon(0.124) == pytest.approx(31 / 32, abs=1e-3)
        # exact inverse of rho = 31/32
        eps = 0.5 * math.sqrt(1.0 - (31 / 32) ** 2)
        assert bounds.rho_from_epsilon(eps) == pytest.approx(31 / 32, rel=1e-14)

    def test_domain(self):
        for bad in (0.0, -0.1, 0.51):
            with pytest.raises(ValueError):
                bounds.rho_from_epsilon(bad)


class TestBoundAdaboost:
    def test_values(self):
        assert bounds.bound_adaboost(1, 0.5) == 0.5
        assert bounds.bound_adaboost(3, 0.5) == 0.125
        assert bounds.bound_adaboost(10, 31 / 32) == pytest.approx(0.72798, abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.bound_adaboost(0, 0.5)
        with pytest.raises(ValueError):
            bounds.bound_adaboost(3, 1.0)


class TestBoundF:
    def test_single_node(self):
        assert bounds.bound_F(1, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_two_nodes(self):
        assert bounds.bound_F(2, 31 / 32) == pytest.approx(1953 / 2048, rel=1e-12)

    def test_four_nodes(self):
        assert bounds.bound_F(4, 0.5) == pytest.approx(35 / 128, rel=1e-12)

    @pytest.mark.parametrize("rho", [0.1, 0.25, 0.5, 0.75, 0.9, 31 / 32])
    @pytest.mark.parametrize("T", [1, 2, 3, 7, 16, 100, 555, 2048])
    def test_matches_product(self, T, rho):
        assert bounds.bound_F(T, rho) == pytest.approx(product_F(T, rho), rel=1e-12)

    def test_closed_form_via_beta(self):
        from probboost.specfun import beta as beta_fn

        for T in (1, 2, 9, 64):
            for rho in (0.3, 0.8):
                assert abs(bounds.bound_F(T, rho) * T * beta_fn(T, rho) - 1.0) <= 1e-12

    def test_rho_zero(self):
        assert bounds.bound_F(5, 0.0) == 0.0

    def test_non_integer_T(self):
        # Gamma form directly
        T, rho = 2.5, 0.6
        expected = math.exp(log_gamma(T + rho) - log_gamma(T + 1.0) - log_gamma(rho))
        assert bounds.bound_F(T, rho) == pytest.approx(expected, rel=1e-13)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_decreasing_in_T(self, rho, T):
        assert bounds.bound_F(T + 1, rho) < bounds.bound_F(T, rho)

    @given(
        st.floats(min_value=0.05, max_value=0.9),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_increasing_in_rho(self, rho, T):
        assert bounds.bound_F(T, rho + 0.05) > bounds.bound_F(T, rho)

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.bound_F(0.5, 0.5)
        with pytest.raises(ValueError):
            bounds.bound_F(4, 1.0)


class TestBoundFAsymptotic:
    def test_rho_near_one(self):
        assert bounds.bound_F_asymptotic(17, 1.0 - 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_hundred_half(self):
        expected = 100.0**-0.5 / math.sqrt(math.pi)
        assert bounds.bound_F_asymptotic(100, 0.5) == pytest.approx(expected, rel=1e-12)
        assert bounds.bound_F_asymptotic(100, 0.5) == pytest.approx(0.056419, abs=1e-6)

    def test_agreement_with_exact(self):
        assert bounds.bound_F_asymptotic(1000, 0.5) == pytest.approx(
            bounds.bound_F(1000, 0.5), rel=1e-3
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.bound_F_asymptotic(10, 0.0)


class TestBoundNested:
    def test_endpoints(self):
        f = bounds.bound_F(16, 0.5)
        assert bounds.bound_nested(16, 1, 0.5) == pytest.approx(f, rel=1e-12)
        assert bounds.bound_nested(16, 16, 0.5) == pytest.approx(f, rel=1e-12)

    def test_interior_value(self):
        inner = product_F(4, 0.5)
        expected = product_F(4, inner)
        assert bounds.bound_nested(16, 4, 0.5) == pytest.approx(expected, rel=1e-12)
        assert bounds.bound_nested(16, 4, 0.5) == pytest.approx(0.10797, abs=1e-5)

    def test_interior_improves(self):
        rho = 31 / 32
        for T in (64, 256, 1024):
            top = bounds.bound_F(T, rho)
            for T1 in range(2, T):
                if T % T1 == 0:
                    assert bounds.bound_nested(T, T1, rho) < top

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.bound_nested(16, 0.5, 0.5)
        with pytest.raises(ValueError):
            bounds.bound_nested(16, 17, 0.5)


class TestBoundIsoNested:
    def test_one_level_is_plain(self):
        assert bounds.bound_iso_nested(64, 1, 0.7) == pytest.approx(
            bounds.bound_F(64, 0.7), rel=1e-12
        )

    def test_two_levels_of_two(self):
        assert bounds.bound_iso_nested(4, 2, 0.5) == pytest.approx(0.2578125, rel=1e-12)

    def test_strictly_decreasing_in_L(self):
        rho = 31 / 32
        values = [bounds.bound_iso_nested(1024, L, rho) for L in range(1, 11)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.bound_iso_nested(4, 0, 0.5)


class TestBoundM2:
    def test_single_level(self):
        for rho in (0.2, 0.5, 0.9):
            assert bounds.bound_M2(2, rho) == rho * (1.0 + rho) / 2.0

    def test_zero_levels(self):
        assert bounds.bound_M2(1, 0.37) == 0.37

    def test_two_levels(self):
        assert bounds.bound_M2(4, 0.5) == pytest.approx(0.2578125, rel=1e-14)

    def test_recursion(self):
        for rho in (0.25, 0.5, 31 / 32):
            T = 2
            while T <= 1024:
                assert bounds.bound_M2(2 * T, rho) == bounds.bound_M2(
                    2, bounds.bound_M2(T, rho)
                )
                T *= 2

    def test_power_of_two_required(self):
        for bad in (0, 3, 6, 100):
            with pytest.raises(ValueError):
                bounds.bound_M2(bad, 0.5)


class TestOrdering:
    @pytest.mark.parametrize("rho", [31 / 32, 7 / 8, 3 / 4, 1 / 2, 1 / 4])
    def test_chain(self, rho):
        for k in range(1, 11):
            T = 2**k
            ada = bounds.bound_adaboost(T, rho)
            m2 = bounds.bound_M2(T, rho)
            f = bounds.bound_F(T, rho)
            assert ada <= m2 + 1e-12
            assert m2 <= f + 1e-12
            if T >= 4 and rho >= 0.5:
                assert m2 - ada > 1e-12
                assert f - m2 > 1e-12


class TestDerivatives:
    @pytest.mark.parametrize("T", [1.5, 2.0, 4.0, 10.0, 16.0])
    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.75, 0.95])
    def test_dT_finite_difference(self, T, rho):
        # T stays modest: the central difference divides the rounding noise
        # of bound_F by 2h, so huge T makes the oracle itself too coarse
        h = 1e-5
        fd = (bounds.bound_F(T + h, rho) - bounds.bound_F(T - h, rho)) / (2.0 * h)
        assert bounds.dF_dT(T, rho) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("T", [1.5, 2.0, 4.0, 10.0, 64.0])
    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.75, 0.95])
    def test_drho_finite_difference(self, T, rho):
        h = 1e-5
        fd = (bounds.bound_F(T, rho + h) - bounds.bound_F(T, rho - h)) / (2.0 * h)
        assert bounds.dF_drho(T, rho) == pytest.approx(fd, rel=1e-6)

    def test_signs(self):
        for T in (1.5, 3.0, 20.0):
            for rho in (0.2, 0.6, 0.9):
                assert bounds.dF_dT(T, rho) < 0.0
                assert bounds.dF_drho(T, rho) > 0.0

    def test_drho_at_T_one(self):
        # F(1, rho) = rho, so the rho-derivative is exactly 1
        assert bounds.dF_drho(1.0, 0.37) == pytest.approx(1.0, rel=1e-12)

    def test_dT_vanishes_as_rho_to_one(self):
        assert abs(bounds.dF_dT(8.0, 1.0 - 1e-10)) < 1e-8


class TestRates:
    def test_rate_matryoshka_flat(self):
        assert bounds.rate_matryoshka(1.0, 1.0) == 0.0
        assert bounds.rate_matryoshka(1.0, 57.0) == 0.0

    def test_rate_matryoshka_value(self):
        # closed form at C = 1/2: (1/2T)(1 - 2 ln 2)
        expected = 0.25 * (1.0 - 2.0 * math.log(2.0))
        assert bounds.rate_matryoshka(0.5, 2.0) == pytest.approx(expected, rel=1e-12)
        assert bounds.rate_matryoshka(0.5, 2.0) == pytest.approx(-0.09657, abs=1e-5)

    def test_rate_matryoshka_negative_below_one(self):
        for c in (0.1, 0.5, 0.99):
            assert bounds.rate_matryoshka(c, 4.0) < 0.0

    def test_rate_simple(self):
        assert bounds.rate_simple(1.0, 1.0) == 0.0
        assert bounds.rate_simple(0.5, 0.3125) == pytest.approx(-0.09375, rel=1e-14)
        assert bounds.rate_simple(0.4, 0.2) == pytest.approx(-0.1, rel=1e-14)

    def test_domains(self):
        with pytest.raises(ValueError):
            bounds.rate_matryoshka(0.0, 2.0)
        with pytest.raises(ValueError):
            bounds.rate_matryoshka(1.1, 2.0)
        with pytest.raises(ValueError):
            bounds.rate_simple(-0.1, 0.5)
