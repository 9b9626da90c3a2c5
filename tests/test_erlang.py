"""Tests for the Erlang-C core: exact, continuous, limit, and bounds."""
import itertools
import math
import random
import re
import types

import mpmath as mp
import pytest
import scipy.special as sc
from hypothesis import example, given, settings, strategies as st
from scipy.special import cython_special as cs

from qstaff import erlang
from qstaff.erlang import (
    BOUND_CHOICES,
    SATURATED,
    BoundPair,
    _erlang_c_exact_cached,
    _exact_no_wait_column,
    _no_wait_vector,
    _recursion_at_rate,
    _wait_vector,
    _stirlerr,
    erlang_c_exact,
    erlang_c_continuous,
    erlang_c_sqrt,
    halfin_whitt,
    hw_quantities,
    jvlz_bounds,
    jvlz_bounds_at,
    wait_curve,
    wait_probability,
)
from qstaff.errors import DomainError, QuadratureError, UnstableSystemError
from qstaff.frontier import solve_constrained

from .oracles import (
    gamma_identity_alpha_bar,
    hand_summation_erlang_c,
    mp_alpha_bar,
    mp_erlang_c,
    mp_gamma_alpha_bar,
    mp_halfin_whitt,
    mp_hw_a,
    mp_jvlz_bounds,
)

# Frozen oracle values (mpmath, 40 digits, independent quadrature).
ALPHA_BAR_FROZEN = {
    (5.0, 4.0): 0.554112554112554113,
    (20.0, 18.0): 0.550769004816117581,
    (100.0, 95.0): 0.506456853913020591,
}
ALPHA_SQRT_1E6_FROZEN = {0.5: 0.504654034713, 1.0: 0.223501824169, 2.0: 0.0269438524019}
HW_FROZEN = {0.5: 0.50453864099794502, 1.0: 0.22336127479826074, 2.0: 0.0268813624294322628}
# a bool, an int beyond float range, nan and a string: none is an input number
BAD_NUMBERS = (True, 10**400, math.nan, "3")
# traffic intensities from where 1 - rho rounds to 1 (below 2^-53) up to 1/2
LIGHT_LOADS = (1e-300, 1e-100, 1e-30, 1e-16, 1e-10, 1e-7, 1e-4, 0.01, 0.1, 0.3, 0.5)


def mpmath_sweep_points():
    """The seeded (n, lambda) sweep over the regimes the closed-form kernel
    treats apart, 206 points."""
    rng = random.Random(1974)
    points = []
    for _ in range(60):  # square-root staffing, lambda 1e-3 .. 1e6
        lam = 10.0 ** rng.uniform(-3.0, 6.0)
        n = max(lam + rng.uniform(0.01, 4.0) * math.sqrt(lam), 1.0 + rng.random())
        points.append((n, lam))
    for _ in range(40):  # n within 1/3 of lambda, where Q(n, lambda) < 1/2
        lam = 10.0 ** rng.uniform(0.0, 6.0)
        points.append((lam + rng.uniform(0.01, 1.0) / 3.0, lam))
    for _ in range(30):  # 1 <= n < 2 with small lambda/n, down to 1e-9
        n = rng.uniform(1.0, 2.0)
        points.append((n, n * 10.0 ** rng.uniform(-9.0, -0.3)))
    for _ in range(40):  # both sides of the stirlerr switch at n = 15
        n = rng.uniform(8.0, 25.0)
        points.append((n, n * rng.uniform(0.3, 0.99)))
    for _ in range(30):  # both sides of the ln(rho) switch at rho = 1/2
        n = 10.0 ** rng.uniform(0.0, 3.3)
        points.append((n, n * rng.uniform(0.4, 0.6)))
    return points + [(15.0 - 1e-9, 12.0), (15.0, 12.0), (15.0 + 1e-9, 12.0),
                     (100.0, 50.0 - 1e-9), (100.0, 50.0), (100.0, 50.0 + 1e-9)]


class TestExact:
    def test_mm1_is_rho(self):
        assert erlang_c_exact(1, 0.5) == pytest.approx(0.5, rel=1e-15)

    def test_two_servers_unit_load(self):
        assert erlang_c_exact(2, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_against_hand_summation(self):
        for n in (1, 2, 3, 7, 25, 80, 160):
            for rho in (0.3, 0.7, 0.95):
                lam = rho * n
                assert erlang_c_exact(n, lam) == pytest.approx(
                    hand_summation_erlang_c(n, lam), rel=1e-12)

    def test_twelve_digits_at_large_n(self):
        # the huge-n regime the recursion must survive; values chosen representable
        for n, lam in ((10**4, 9.9e3), (10**5, 0.999e5), (10**6, 999000.0)):
            want = float(mp_erlang_c(n, lam))
            assert erlang_c_exact(n, lam) == pytest.approx(want, rel=1e-12)

    def test_underflow_flushes_to_zero(self):
        # lambda = n/2 at n = 10^4 puts the true value near e^-1900
        assert erlang_c_exact(10**4, 5e3) == 0.0

    def test_rejects_unstable(self):
        with pytest.raises(UnstableSystemError):
            erlang_c_exact(5, 5.0)
        with pytest.raises(UnstableSystemError):
            erlang_c_exact(5, 6.0)

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            erlang_c_exact(0, 0.5)
        with pytest.raises(DomainError):
            erlang_c_exact(2.5, 1.0)
        with pytest.raises(DomainError):
            erlang_c_exact(3, -1.0)
        with pytest.raises(DomainError):
            erlang_c_exact(3, math.inf)
        for bad in BAD_NUMBERS:
            with pytest.raises(DomainError):
                erlang_c_exact(bad, 0.5)
            with pytest.raises(DomainError):
                erlang_c_exact(3, bad)

    @given(n=st.integers(min_value=1, max_value=400),
           rho=st.floats(min_value=0.5, max_value=0.99))
    @settings(max_examples=60, deadline=None)
    def test_range_property(self, n, rho):
        # rho >= 0.5 keeps the value far above the double underflow edge
        v = erlang_c_exact(n, rho * n)
        assert 0.0 < v <= 1.0

    @given(n=st.integers(min_value=2, max_value=300),
           rho=st.floats(min_value=0.6, max_value=0.995))
    @settings(max_examples=60, deadline=None)
    def test_decreasing_in_n(self, n, rho):
        lam = rho * n
        assert erlang_c_exact(n + 1, lam) < erlang_c_exact(n, lam)


class TestContinuous:
    def test_two_servers_unit_load(self):
        assert erlang_c_continuous(2.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_frozen_mpmath_values(self):
        for (n, lam), want in ALPHA_BAR_FROZEN.items():
            assert erlang_c_continuous(n, lam) == pytest.approx(want, rel=1e-10)

    def test_interpolates_exact_formula(self):
        # continuous extension must agree with the integer formula at integers
        for n in range(2, 201):
            lam = 0.9 * n
            exact = erlang_c_exact(n, lam)
            cont = erlang_c_continuous(float(n), lam)
            assert cont == pytest.approx(exact, rel=1e-8)

    def test_gamma_identity_route(self):
        # independent closed form through incomplete gamma functions
        for n, lam in ((2.5, 1.7), (17.25, 15.0), (120.5, 110.0),
                       (1057.3, 1000.0), (10500.0, 1e4)):
            assert erlang_c_continuous(n, lam) == pytest.approx(
                gamma_identity_alpha_bar(n, lam), rel=5e-11)

    def test_live_mpmath_quadrature_route(self):
        for n, lam in ((3.7, 2.0), (45.1, 40.0), (512.0, 480.5)):
            assert erlang_c_continuous(n, lam) == pytest.approx(
                float(mp_alpha_bar(n, lam)), rel=1e-10)

    def test_mpmath_gamma_oracle_matches_quadrature_oracle(self):
        # the two mpmath routes agree, so either can anchor the kernel
        for n, lam in ((1.3, 0.02), (3.7, 2.0), (16.4, 15.9)):
            assert mp.almosteq(mp_gamma_alpha_bar(n, lam), mp_alpha_bar(n, lam),
                               rel_eps=1e-25)

    def test_accuracy_against_mpmath_gamma_route(self):
        points = mpmath_sweep_points()
        assert len(points) == 206
        for n, lam in points:
            want = float(mp_gamma_alpha_bar(n, lam))
            # abs=0: pytest's default 1e-12 floor would hide errors in small values
            assert erlang_c_continuous(n, lam) == pytest.approx(
                want, rel=1e-10, abs=0.0), (n, lam)

    def test_stirling_remainder_across_series_switch(self):
        # the kernel's stirlerr(n) switches to an asymptotic series at n = 15
        for n in (1.0, 1.5, 7.3, 15.0 - 1e-9, 15.0, 15.0 + 1e-9, 40.0, 1e3, 1e6):
            nm = mp.mpf(n)
            want = mp.loggamma(nm + 1) - (nm * mp.log(nm) - nm + mp.log(2 * mp.pi * nm) / 2)
            assert _stirlerr(n) == pytest.approx(float(want), rel=1e-12, abs=1e-15), n

    def test_decreasing_along_sqrt_staffing(self):
        lam = 100.0
        betas = [0.1 + 4.9 * k / 30 for k in range(31)]
        vals = [erlang_c_continuous(lam + b * math.sqrt(lam), lam) for b in betas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_n_at_or_below_lambda(self):
        with pytest.raises(UnstableSystemError):
            erlang_c_continuous(100.0, 100.0)
        with pytest.raises(UnstableSystemError):
            erlang_c_continuous(99.0, 100.0)
        with pytest.raises(DomainError):
            erlang_c_continuous(0.9, 0.5)
        for bad in BAD_NUMBERS:
            with pytest.raises(DomainError):
                erlang_c_continuous(bad, 0.5)
            with pytest.raises(DomainError):
                erlang_c_continuous(10.0, bad)

    @pytest.mark.parametrize("q", [math.nan, 0.0])
    def test_unusable_q_raises_quadrature_error(self, monkeypatch, q):
        # a Q(n, lambda) that is not finite and positive stops every route
        # into the continuous kernel; the cache is cleared so that no
        # earlier value stands in for the patched Q. The dicts compare q
        # by identity first, so nan matches itself
        monkeypatch.setattr(erlang, "gammaincc", lambda n, lam: q)
        erlang._alpha_bar_cached.cache_clear()
        beta = 1.5
        level = 90.0 + beta * math.sqrt(90.0)
        for call, n in ((lambda: erlang_c_continuous(100.5, 90.0), 100.5),
                        (lambda: _wait_vector(100.5, [90.0]), 100.5),
                        (lambda: _no_wait_vector(100.5, [90.0]), 100.5),
                        (lambda: wait_curve(90.0)(beta), level)):
            with pytest.raises(QuadratureError) as info:
                call()
            assert info.value.diagnostics == {"q": q, "n": n, "lambda": 90.0}

    def test_tiny_margin_near_one(self):
        # n barely above lambda: probability must approach 1 from below
        v = erlang_c_continuous(100.0001, 100.0)
        assert 0.999 < v <= 1.0


class TestSqrtStaffing:
    def test_matches_continuous(self):
        lam = 450.0
        b = 2.15
        assert erlang_c_sqrt(b, lam) == erlang_c_continuous(lam + b * math.sqrt(lam), lam)

    def test_small_beta_saturates(self):
        assert erlang_c_sqrt(1e-7, 400.0) > 0.9999

    def test_staffing_below_one_server_rejected(self):
        # a sub-unit load with a small beta puts n = 0.3 below one server
        with pytest.raises(DomainError, match="below one server"):
            erlang_c_sqrt(0.1, 0.25)

    @given(beta=st.floats(min_value=0.01, max_value=8.0),
           lam=st.floats(min_value=1.0, max_value=2e4))
    @settings(max_examples=80, deadline=None)
    def test_range_property(self, beta, lam):
        # lam >= 1 keeps the staffing level n = lam + beta*sqrt(lam) >= 1
        v = erlang_c_sqrt(beta, lam)
        assert 0.0 < v <= 1.0

    @given(beta=st.floats(min_value=0.05, max_value=6.0),
           lam=st.floats(min_value=1.0, max_value=1e4),
           bump=st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing_in_beta(self, beta, lam, bump):
        assert erlang_c_sqrt(beta + bump, lam) < erlang_c_sqrt(beta, lam)


class TestHalfinWhitt:
    def test_frozen_values(self):
        for b, want in HW_FROZEN.items():
            assert halfin_whitt(b) == pytest.approx(want, rel=1e-14)

    def test_live_oracle(self):
        for b in (0.1, 0.77, 3.0, 10.0):
            assert halfin_whitt(b) == pytest.approx(mp_halfin_whitt(b), rel=1e-13)

    def test_small_beta_limit(self):
        assert halfin_whitt(1e-9) > 1.0 - 1e-8

    def test_no_overflow_at_large_beta(self):
        v = halfin_whitt(50.0)
        assert 0.0 <= v < 1e-300

    def test_limit_of_continuous_extension(self):
        # convergence of the square-root form at lambda = 1e6
        for b in (0.5, 1.0, 2.0):
            assert abs(halfin_whitt(b) - erlang_c_sqrt(b, 1e6)) <= 1e-3
            # and the lambda = 1e6 value itself against the frozen mpmath point
            assert erlang_c_sqrt(b, 1e6) == pytest.approx(ALPHA_SQRT_1E6_FROZEN[b], rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            halfin_whitt(0.0)
        with pytest.raises(DomainError):
            halfin_whitt(-1.0)
        for bad in BAD_NUMBERS:
            with pytest.raises(DomainError):
                halfin_whitt(bad)


class TestHWQuantities:
    def test_gamma_beta_identity(self):
        for n, lam in ((110.0, 100.0), (520.0, 450.0), (1.5, 1.0)):
            q = hw_quantities(n, lam)
            assert q.gamma == pytest.approx(q.beta * math.sqrt(q.rho), rel=1e-12)

    def test_a_zero_iff_balanced(self):
        assert hw_quantities(100.0, 100.0).a == 0.0
        assert hw_quantities(100.0001, 100.0).a > 0.0

    def test_a_against_mpmath_across_series_threshold(self):
        # the safe series takes over below |1-rho| = 1e-4; check both sides
        for x in (1e-7, 1e-5, 9e-5, 2e-4, 1e-3, 0.1, 0.5):
            n = 1000.0
            lam = n * (1.0 - x)
            assert hw_quantities(n, lam).a == pytest.approx(mp_hw_a(n, lam), rel=1e-11)

    @pytest.mark.parametrize("lam", (0.3, 5.0, 1000.0))
    @pytest.mark.parametrize("rho", LIGHT_LOADS)
    def test_a_at_light_load_against_mpmath(self, rho, lam):
        # ln rho from rho itself: 1 - rho would carry none of its digits
        n = lam / rho
        assert hw_quantities(n, lam).a == pytest.approx(mp_hw_a(n, lam), rel=1e-15, abs=0.0)

    @given(n=st.floats(min_value=1.0, max_value=1e5),
           drop=st.floats(min_value=1e-6, max_value=0.9))
    @settings(max_examples=60, deadline=None)
    def test_rho_range(self, n, drop):
        lam = n * (1.0 - drop)
        if lam <= 0.0:
            return
        q = hw_quantities(n, lam)
        assert 0.0 < q.rho < 1.0
        assert q.a >= 0.0


class TestBounds:
    def test_sandwich_grid(self):
        # 20 x 4 grid, zero violations allowed
        betas = [0.1 + (5.0 - 0.1) * k / 19 for k in range(20)]
        for lam in (10.0, 100.0, 1000.0, 10000.0):
            for b in betas:
                pair = jvlz_bounds(b, lam)
                mid = erlang_c_sqrt(b, lam)
                assert pair.lower <= mid <= pair.upper, (b, lam)
                assert 0.0 < pair.lower <= pair.upper <= 1.0

    @given(beta=st.floats(min_value=0.05, max_value=6.0),
           lam=st.floats(min_value=2.0, max_value=5e4))
    @settings(max_examples=80, deadline=None)
    def test_sandwich_property(self, beta, lam):
        pair = jvlz_bounds(beta, lam)
        mid = erlang_c_sqrt(beta, lam)
        assert pair.lower <= mid <= pair.upper

    def test_uniform_convergence(self):
        betas = [0.1 + (5.0 - 0.1) * k / 19 for k in range(20)]
        gaps = []
        for lam in (1e2, 1e3, 1e4, 1e5):
            gaps.append(max(jvlz_bounds(b, lam).upper - jvlz_bounds(b, lam).lower
                            for b in betas))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_upper_decreasing_in_lambda(self):
        for b in (0.5, 1.0, 2.0):
            ubs = [jvlz_bounds(b, lam).upper for lam in (10.0, 1e2, 1e3, 1e4, 1e5)]
            assert all(x > y for x, y in zip(ubs, ubs[1:]))

    def test_upper_decreasing_in_beta(self):
        for lam in (50.0, 1e3):
            betas = [0.1 + 0.25 * k for k in range(20)]
            ubs = [jvlz_bounds(b, lam).upper for b in betas]
            assert all(x > y for x, y in zip(ubs, ubs[1:]))

    def test_upper_tends_to_one_at_zero_beta(self):
        assert jvlz_bounds(1e-9, 100.0).upper == pytest.approx(1.0, abs=1e-6)

    def test_correction_term_vanishes(self):
        # the gamma/(12n-1) denominator term of the lower bound, maximized
        # over the beta grid, shrinks as lambda grows
        def max_term(lam):
            out = 0.0
            for k in range(20):
                b = 0.1 + 0.25 * k
                q = hw_quantities(lam + b * math.sqrt(lam), lam)
                out = max(out, q.gamma / (12.0 * (lam + b * math.sqrt(lam)) - 1.0))
            return out

        assert max_term(1e4) < max_term(1e2)

    @pytest.mark.parametrize("n", (1.0, 30.0))
    @pytest.mark.parametrize("rho", LIGHT_LOADS)
    def test_light_load_against_mpmath(self, rho, n):
        # e^(a^2/2) turns the rounding of a^2 (up to 1380) into about 1e-13
        lower, upper = mp_jvlz_bounds(n, rho * n)
        pair = jvlz_bounds_at(n, rho * n)
        assert pair.lower == pytest.approx(float(lower), rel=1e-12, abs=0.0)
        assert pair.upper == pytest.approx(float(upper), rel=1e-12, abs=0.0)

    def test_huge_beta_bounds_collapse(self):
        pair = jvlz_bounds(64.0, 1e4)
        assert 0.0 <= pair.lower <= pair.upper < 1e-100

    def test_domain(self):
        with pytest.raises(UnstableSystemError):
            jvlz_bounds_at(99.0, 100.0)
        with pytest.raises(DomainError):
            jvlz_bounds(-0.5, 100.0)
        with pytest.raises(DomainError):    # below one server, lower would exceed upper
            jvlz_bounds_at(0.05, 0.025)
        for bad in BAD_NUMBERS:
            for call in (lambda: jvlz_bounds(bad, 100.0), lambda: jvlz_bounds(1.0, bad),
                         lambda: jvlz_bounds_at(bad, 100.0), lambda: jvlz_bounds_at(120.0, bad)):
                with pytest.raises(DomainError):
                    call()


@pytest.mark.parametrize("bad", BAD_NUMBERS, ids=("bool", "huge-int", "nan", "str"))
@pytest.mark.parametrize("call", [
    lambda bad: erlang_c_sqrt(bad, 5.0),
    lambda bad: erlang_c_sqrt(1.0, bad),
    lambda bad: hw_quantities(bad, 0.5),
    lambda bad: hw_quantities(10.0, bad),
    lambda bad: wait_probability(bad, 0.5),
    lambda bad: wait_probability(10, bad),
    lambda bad: wait_probability(5, 10.0, bad),     # unstable, yet the bound is checked
    lambda bad: wait_curve(bad),
], ids=("sqrt-beta", "sqrt-lambda", "hw-n", "hw-lambda", "wait-n", "wait-lambda",
        "wait-bound-unstable", "curve"))
def test_rejects_what_is_not_a_number(call, bad):
    with pytest.raises(DomainError):
        call(bad)


@pytest.mark.parametrize("call, value", [
    (lambda: jvlz_bounds_at(1e20, 5.0), BoundPair(lower=0.0, upper=0.0)),
    (lambda: wait_probability(1e20, 5.0, "upper"), 0.0),
    (lambda: solve_constrained(1e-20, 0.1, bound="upper").beta, 1e-8),
    (lambda: jvlz_bounds_at(1e308, 1e-20), BoundPair(lower=0.0, upper=0.0)),  # rho is 0.0
], ids=("jvlz", "wait-upper", "solve-upper", "jvlz-rho-underflows"))
def test_bounds_finite_where_rho_rounds_away(call, value):
    assert call() == value


@pytest.mark.parametrize("call", [
    lambda bound: wait_probability(520.0, 450.0, bound),
    lambda bound: wait_curve(450.0, bound),
    lambda bound: _wait_vector(520.0, [450.0], bound),
], ids=("wait", "curve", "vector"))
def test_one_bound_message(call):
    message = "bound must be one of ('exact', 'upper', 'lower', 'hw'), got 'nope'"
    with pytest.raises(DomainError, match=re.escape(message)):
        call("nope")


class TestWaitProbability:
    def test_unstable_is_certain_wait(self):
        assert wait_probability(100, 150.0) == 1.0
        assert wait_probability(100, 100.0) == 1.0

    def test_integer_path_matches_continuous(self):
        for n, lam in ((496, 450.0), (235, 200.0), (10, 7.5)):
            assert wait_probability(n, lam) == pytest.approx(
                erlang_c_continuous(float(n), lam), rel=1e-10)

    def test_bound_routing(self):
        n, lam = 520.0, 450.0
        pair = jvlz_bounds_at(n, lam)
        assert wait_probability(n, lam, bound="upper") == pair.upper
        assert wait_probability(n, lam, bound="lower") == pair.lower
        exact = wait_probability(n, lam, bound="exact")
        assert pair.lower <= exact <= pair.upper
        hw = wait_probability(n, lam, bound="hw")
        assert 0.0 < hw < 1.0
        with pytest.raises(DomainError):
            wait_probability(n, lam, bound="nope")


def no_wait_box(lam, lower, upper):
    """_exact_no_wait_column(lam, lower), which runs until its entries
    have rounded to 1.0, padded with 1.0 or cut to the levels lower..upper."""
    column = _exact_no_wait_column(lam, lower)
    assert column[-1] == 1.0
    assert 1.0 - wait_probability(lower + len(column), lam) == 1.0
    size = upper - lower + 1
    return (column + [1.0] * size)[:size]


class TestExactNoWaitColumn:
    # (lambda, lower, upper): above 1, every box reaches below lambda,
    # where the no-wait probability is 0.0
    @pytest.mark.parametrize("lam,lower,upper", [
        (0.3, 1, 40),
        (7.5, 1, 60),
        (480.2, 400, 620),
        (6150.7, 6080, 6420),
    ])
    def test_bit_identical_to_scalar_kernel(self, lam, lower, upper):
        column = no_wait_box(lam, lower, upper)
        assert len(column) == upper - lower + 1
        for k, value in zip(range(lower, upper + 1), column):
            assert value == 1.0 - wait_probability(k, lam), k
        assert (column[0] == 0.0) == (lower <= lam)

    def test_overflow_gives_certain_no_wait(self):
        # far above lambda the inverse blocking recursion overflows and
        # the scalar kernel reports alpha = 0.0
        lam, lower, upper = 0.3, 1, 400
        column = no_wait_box(lam, lower, upper)
        assert wait_probability(upper, lam) == 0.0
        overflowed = [k for k in range(lower, upper + 1)
                      if wait_probability(k, lam) == 0.0]
        assert overflowed and overflowed[-1] == upper
        for k, value in zip(range(lower, upper + 1), column):
            assert value == 1.0 - wait_probability(k, lam), k
        assert column[-1] == 1.0

    # lower below the recursion's start (217 at 480.2), at and above lambda
    @pytest.mark.parametrize("lam,lower", [
        (480.2, 1), (480.2, 200), (480.2, 470), (480.2, 600), (7.5, 1), (6150.7, 6080),
    ])
    def test_top_cuts_the_column(self, lam, lower):
        full = _exact_no_wait_column(lam, lower)
        for top in (lower, lower + 1, lower + 2, lower + 20,
                    lower + len(full) - 1, lower + len(full) + 5):
            assert _exact_no_wait_column(lam, lower, top) == full[:top - lower + 1], top

    @st.composite
    def column_boxes(draw):
        # lam from 0.1 to 1e5 and lower from 1 to lam + 14 sqrt(lam), often
        # a few sqrt(lam) above lam, where the bound may saturate the first
        # entry; no top, or one inside the column or past its end
        lam = draw(st.floats(0.1, 1e5))
        root = math.sqrt(lam)
        high = max(math.floor(lam + 14.0 * root), 1)
        lower = draw(st.one_of(
            st.integers(1, high),
            st.floats(-12.0, 14.0).map(lambda d: min(max(math.floor(lam + d * root), 1), high))))
        top = draw(st.one_of(st.none(),
                             st.integers(lower, lower + math.ceil(14.0 * root) + 60)))
        return lam, lower, top

    @given(case=column_boxes())
    @settings(max_examples=300, deadline=None)
    # the first levels whose bound saturates (0.1 at 11, 480.2 at 678,
    # 6150.7 at 6828, 99999.5 at 102693) and the level below each
    @example(case=(0.1, 11, None))
    @example(case=(0.1, 10, 30))
    @example(case=(480.2, 678, 700))
    @example(case=(480.2, 677, None))
    @example(case=(6150.7, 6828, None))
    @example(case=(99999.5, 102692, 102800))
    @example(case=(99999.5, 102693, 102693))
    # columns that end long before their top
    @example(case=(0.3, 1, 400))
    @example(case=(7.5, 1, None))
    def test_padded_column_matches_the_recursion_from_its_start(self, case):
        lam, lower, top = case
        column = _exact_no_wait_column(lam, lower, top)
        reference = from_start_column(lam, lower, top)
        size = max(len(column), len(reference)) if top is None else top - lower + 1
        assert len(column) <= size and len(reference) <= size
        if len(column) < size:
            assert column[-1] == 1.0
        padded = [[x.hex() for x in c + [1.0] * (size - len(c))] for c in (column, reference)]
        assert padded[0] == padded[1]

    def test_saturated_column_skips_the_recursion(self):
        # 4891 is the first level where the bound saturates at this rate,
        # which no other test uses: the column there is [1.0] with or
        # without a top, and the rate's checkpoint is never computed
        lam, level = 4321.123456, 4891
        before = _recursion_at_rate.cache_info()
        assert _exact_no_wait_column(lam, level) == [1.0]
        assert _exact_no_wait_column(lam, level, level + 40) == [1.0]
        assert _recursion_at_rate.cache_info() == before
        below = _exact_no_wait_column(lam, level - 1, level + 40)
        assert _recursion_at_rate.cache_info().misses == before.misses + 1
        assert below[0] == 1.0 and below == from_start_column(lam, level - 1, level + 40)

    def test_unstable_column_skips_the_recursion(self):
        # a top at or below floor(lam) leaves only unstable levels, whose
        # entries are 0.0 without the rate's checkpoint; no other test uses
        # this rate, and the first stable level still computes it
        lam = 3579.246813
        before = _recursion_at_rate.cache_info()
        assert _exact_no_wait_column(lam, 3500, 3579) == [0.0] * 80
        assert _exact_no_wait_column(lam, 3579, 3579) == [0.0]
        assert _recursion_at_rate.cache_info() == before
        column = _exact_no_wait_column(lam, 3579, 3580)
        assert _recursion_at_rate.cache_info().misses == before.misses + 1
        assert column[0] == 0.0 and column == from_start_column(lam, 3579, 3580)


class TestWaitVector:
    @st.composite
    def levels_and_rates(draw):
        # an integer or real level, n < 1 included, against rates below,
        # at and above it
        n = draw(st.one_of(st.integers(1, 5000).map(float),
                           st.floats(0.05, 5000.0, allow_nan=False)))
        scales = st.one_of(st.floats(0.02, 1.6), st.just(1.0))
        rates = draw(st.lists(scales, min_size=1, max_size=9))
        return n, [n * x for x in rates]

    @given(case=levels_and_rates(), bound=st.sampled_from(BOUND_CHOICES))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_scalar_list(self, case, bound):
        n, rates = case
        scalar = [1.0 if r >= n else wait_probability(max(n, 1.0), r, bound)
                  for r in rates]
        assert _wait_vector(n, rates, bound) == scalar

    def test_unbounded_level_rejected_like_scalar(self):
        for n in (math.inf, math.nan):
            with pytest.raises(DomainError):
                _wait_vector(n, [3.0, 7.0])
        assert _wait_vector(-math.inf, [3.0]) == [1.0]


def saturation_margin(n, lam):
    """The delay exponent's lower bound at Q = 1/e, less SATURATED, in mpmath."""
    n, lam = mp.mpf(n), mp.mpf(lam)
    x = (n - lam) / n
    half_log = mp.log(2 * mp.pi * n) / 2
    stirl = mp.loggamma(n + 1) - (n * mp.log(n) - n + half_log)
    return mp.log(x) - n * (x + mp.log(lam / n)) + half_log + stirl - 1 - SATURATED


def saturation_rate(n):
    """The rate below level n >= 1 where saturation_margin crosses zero:
    it falls from +inf at rate 0 to -inf at rate n."""
    lo, hi = 0.0, n
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if saturation_margin(n, mid) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


class TestNoWaitVector:
    @st.composite
    def levels_and_rates(draw):
        # an integer or real level, n < 1 included, against rates within a
        # millionth of where the level's entries saturate, anywhere below
        # it, at it and above it
        n = draw(st.one_of(st.integers(1, 20000).map(float),
                           st.floats(0.05, 20000.0, allow_nan=False)))
        edge = saturation_rate(max(n, 1.0))
        near = st.floats(-1e-6, 1e-6).map(lambda d: edge * (1.0 + d))
        anywhere = st.floats(1e-3, 1.6).map(lambda x: n * x)
        return n, draw(st.lists(st.one_of(near, anywhere, st.just(n)), min_size=1, max_size=9))

    @given(case=levels_and_rates())
    @settings(max_examples=200, deadline=None)
    @example(case=(100.5, [10.0, 30.0, 60.0, 100.5, 120.0]))
    @example(case=(481.0, [480.2]))     # the first stable level: no column shortcut
    @example(case=(677.0, [480.2]))     # the last unsaturated level
    @example(case=(678.0, [480.2]))     # the first saturated level
    @example(case=(1.0, [0.3, 1.0]))
    def test_bit_identical_to_one_minus_wait_vector(self, case):
        n, rates = case
        assert _no_wait_vector(n, rates) == [1.0 - w for w in _wait_vector(n, rates)]

    def test_saturated_entries_skip_q(self, monkeypatch):
        # at level 100.5 the bound crosses SATURATED near rate 38: rates 10
        # and 30 are 1.0 without Q, and rate 30's entry is the Q route's bits
        assert 37.0 < saturation_rate(100.5) < 39.0
        calls = []
        monkeypatch.setattr(erlang, "gammaincc",
                            lambda n, lam: calls.append(lam) or cs.gammaincc(n, lam))
        no_wait = _no_wait_vector(100.5, [10.0, 30.0, 60.0, 90.0, 100.0, 120.0])
        assert calls == [60.0, 90.0, 100.0]
        assert no_wait[:2] == [1.0, 1.0] and no_wait[-1] == 0.0
        assert 1.0 - erlang_c_continuous(100.5, 30.0) == 1.0

    def test_saturated_integer_entries_skip_the_recursion(self, monkeypatch):
        # at level 100 the bound crosses SATURATED between rates 30 and 60:
        # rates 10 and 30 are 1.0 without the exact recursion
        recursion, calls = erlang._recursion_at_rate, []
        monkeypatch.setattr(erlang, "_recursion_at_rate",
                            lambda lam: calls.append(lam) or recursion(lam))
        rates = [10.0, 30.0, 60.0, 90.0, 100.0, 120.0]
        no_wait = _no_wait_vector(100.0, rates)
        assert calls == [60.0, 90.0]
        assert no_wait == [1.0 - wait_probability(100, r) for r in rates]
        assert no_wait[:2] == [1.0, 1.0] and no_wait[-2:] == [0.0, 0.0]

    def test_q_is_at_least_one_over_e_below_the_level(self):
        # Q(n, lambda) >= Q(n, n) >= Q(1, 1) = 1/e for 1 <= n and lambda < n,
        # the floor the saturation bound rests on
        rng = random.Random(38)
        points = [(n, n * (1.0 - 2.0 ** -k)) for n in (1.0, 1.5, 2.0, 10.0, 1e3, 1e6)
                  for k in (1, 10, 30, 52)]
        for _ in range(20000):
            n = 10.0 ** rng.uniform(0.0, 6.0)
            points.append((n, n * (1.0 - rng.random())))
        assert min(cs.gammaincc(n, lam) for n, lam in points) >= math.exp(-1.0)

    def test_q_near_one_server_against_mpmath(self):
        for n, lam in ((1.0, 1.0 - 1e-12), (1.0, 0.5), (1.0 + 1e-9, 1.0),
                       (1.2, 1.19), (1.5, 1.5 - 1e-9), (2.0, 1.999)):
            want = mp.gammainc(n, lam, mp.inf, regularized=True)
            assert want >= mp.exp(-1)
            assert cs.gammaincc(n, lam) == pytest.approx(float(want), rel=1e-13), (n, lam)


class TestNoWaitOrder:
    """At a fixed level every no-wait factor falls as its rate rises
    (Erlang C rises with the load): the order a rate grid's bracket rests
    on, here on the bits _no_wait_vector returns."""

    @st.composite
    def level_and_sorted_rates(draw):
        # an integer or real level in [1, 3000] against rates anywhere below
        # it, at it and above it, each perhaps beside a neighbour one ulp to
        # a thousandth above it
        n = draw(st.one_of(st.integers(1, 3000).map(float), st.floats(1.0, 3000.0)))
        rates = [n * x for x in draw(st.lists(st.floats(1e-3, 1.6), min_size=1, max_size=9))]
        rates.append(n)
        for r in draw(st.lists(st.sampled_from(rates), max_size=4)):
            step = draw(st.one_of(st.just(None), st.floats(1e-15, 1e-3)))
            rates.append(math.nextafter(r, math.inf) if step is None else r * (1.0 + step))
        return n, sorted(rates)

    @given(case=level_and_sorted_rates())
    @settings(max_examples=300, deadline=None)
    def test_non_increasing_in_the_rate(self, case):
        n, rates = case
        no_wait = _no_wait_vector(n, rates)
        assert all(a >= b for a, b in zip(no_wait, no_wait[1:])), (n, rates, no_wait)


def frozen_one_minus_rho_log_term(x, rho):
    # the kernel's per-rate chain as it stood before one loop took it in,
    # kept here as an oracle that does not move with the kernel
    if abs(x) < 1e-4:
        return -x * x * (0.5 + x * (1.0 / 3.0 + x * (0.25 + x * 0.2)))
    if x < 0.5:
        return x + math.log1p(-x)
    return x + (math.log(rho) if rho > 0.0 else -math.inf)


def frozen_inv_one_plus_exp(d):
    if d >= 0.0:
        e = math.exp(-d)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(d))


def frozen_exponent_head(n, lam, half_log, stirl, saturated):
    x = (n - lam) / n
    log_x = math.log(x)
    head = -n * frozen_one_minus_rho_log_term(x, lam / n) + half_log + stirl
    return None if log_x + head - 1.0 >= saturated else (log_x, head)


def frozen_alpha_bar_from(n, lam, half_log, stirl, saturated=math.inf):
    parts = frozen_exponent_head(n, lam, half_log, stirl, saturated)
    if parts is None:
        return 0.0
    log_x, head = parts
    q = cs.gammaincc(n, lam)
    assert math.isfinite(q) and q > 0.0
    return frozen_inv_one_plus_exp(log_x + (head + math.log(q)))


def frozen_vectors(n, rates):
    """(_wait_vector(n, rates), _no_wait_vector(n, rates)) from the frozen
    chain at a real level, from the scalar exact route at an integer one."""
    level = float(max(n, 1.0))
    if level.is_integer():
        waits = [1.0 if r >= n else wait_probability(level, r) for r in rates]
        return waits, [1.0 - w for w in waits]
    half_log, stirl = 0.5 * math.log(2.0 * math.pi * level), _stirlerr(level)
    waits = [1.0 if r >= n else frozen_alpha_bar_from(level, r, half_log, stirl)
             for r in rates]
    no_waits = [0.0 if r >= n else 1.0 - frozen_alpha_bar_from(level, r, half_log, stirl,
                                                               SATURATED)
                for r in rates]
    return waits, no_waits


class TestRealLevelKernel:
    """The one per-level loop, _real_level, that serves erlang_c_continuous,
    _wait_vector and _no_wait_vector, against the frozen chain above: bit
    for bit, where the scalar-against-vector tests compare the loop with
    itself."""

    @st.composite
    def levels_and_rates(draw):
        # a real level from 1 to 20,000, an integer one, or one below 1,
        # against rates at the saturation edge, at the level and above it,
        # about the series switch at x = 1e-4 and the ln rho switch at
        # x = 1/2, and anywhere below the level
        n = draw(st.one_of(st.floats(1.0, 20000.0), st.integers(1, 20000).map(float),
                           st.floats(0.05, 1.0, exclude_max=True)))
        level = max(n, 1.0)
        edge = saturation_rate(level)
        near = st.floats(-1e-6, 1e-6)
        rates = st.one_of(
            near.map(lambda d: edge * (1.0 + d)),
            st.just(n),
            st.floats(1.0, 1.6).map(lambda x: n * x),
            near.map(lambda d: level * (1.0 - 1e-4 * (1.0 + d))),
            near.map(lambda d: level * (0.5 + d)),
            st.floats(1e-3, 1.0, exclude_max=True).map(lambda x: n * x))
        return n, draw(st.lists(rates, min_size=1, max_size=9))

    @given(case=levels_and_rates())
    @settings(max_examples=200, deadline=None)
    @example(case=(1.0, [0.3, 1.0 - 1e-4, 0.5]))
    @example(case=(100.5, [10.0, 30.0, 60.0, 100.5 * (1.0 - 1e-4), 50.25, 120.0]))
    @example(case=(1e4 + 0.5, [5000.25, 9999.5, 1e4 + 0.5 - 1e-12]))
    def test_bit_identical_to_frozen_chain(self, case):
        n, rates = case
        waits, no_waits = frozen_vectors(n, rates)
        assert _wait_vector(n, rates) == waits
        assert _no_wait_vector(n, rates) == no_waits
        if n >= 1.0:
            half_log, stirl = 0.5 * math.log(2.0 * math.pi * n), _stirlerr(n)
            for r in rates:
                if r < n:
                    want = frozen_alpha_bar_from(n, r, half_log, stirl)
                    assert erlang._alpha_bar_cached.__wrapped__(n, r) == want, (n, r)
                    assert erlang_c_continuous(n, r) == want, (n, r)

    @given(n=st.floats(1.0, 20000.0),
           x=st.one_of(st.floats(1e-12, 1.0, exclude_max=True),
                       st.floats(1e-4 * (1.0 - 1e-6), 1e-4 * (1.0 + 1e-6)),
                       st.floats(0.5 - 1e-6, 0.5 + 1e-6)),
           q=st.floats(math.exp(-1.0), 1.0))
    @settings(max_examples=300, deadline=None)
    def test_saturation_and_exponent_are_exponent_heads(self, n, x, q):
        # the kernel's copy of _exponent_head: with Q patched to a drawn
        # value and math.exp recording its argument, the kernel calls Q
        # exactly when _exponent_head finds the exponent unsaturated, and
        # exponentiates that exponent, +-d, bit for bit
        lam = n * (1.0 - x)
        if not 0.0 < lam < n:
            return
        half_log, stirl = 0.5 * math.log(2.0 * math.pi * n), _stirlerr(n)
        for no_wait in (False, True):
            parts = erlang._exponent_head(n, lam, half_log, stirl,
                                          SATURATED if no_wait else math.inf)
            calls, args = [], []
            fake_math = types.SimpleNamespace(**{
                k: getattr(math, k) for k in dir(math) if not k.startswith("_")})
            fake_math.exp = lambda d: args.append(d) or math.exp(d)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(erlang, "gammaincc", lambda *a: calls.append(a) or q)
                patch.setattr(erlang, "math", fake_math)
                got = erlang._real_level(n, [lam], no_wait)
            if parts is None:
                assert (calls, args, got) == ([], [], [1.0 if no_wait else 0.0])
                continue
            d = parts[0] + (parts[1] + math.log(q))
            assert calls == [(n, lam)]
            assert args == [-d if d >= 0.0 else d]
            alpha = erlang._inv_one_plus_exp(d)
            assert got == [1.0 - alpha if no_wait else alpha]

    @pytest.mark.parametrize("bound", BOUND_CHOICES)
    def test_wait_curve_keeps_the_level_checks(self, bound):
        curve = wait_curve(90.0, bound)
        for beta in (math.nan, math.inf):
            with pytest.raises(DomainError, match="staffing level must be a finite real >= 1"):
                curve(beta)
        # a level below one server is clamped to one
        assert wait_curve(0.7, bound)(-math.inf) == wait_probability(1, 0.7, bound)
        assert wait_curve(0.7, bound)(-1.0) == wait_probability(1, 0.7, bound)
        if bound == "exact":
            assert wait_curve(0.7)(-math.inf) == erlang_c_exact(1, 0.7)


class TestWaitCurve:
    """wait_curve's one closure, for every bound, against the scalar curve."""

    @pytest.mark.parametrize("bound", BOUND_CHOICES)
    @given(lam=st.floats(0.05, 5000.0), beta=st.floats(-2.0, 12.0))
    @example(lam=100.0, beta=2.0)       # an integral level, n = 120.0
    @example(lam=0.7, beta=-1.0)        # a level below one server, clamped to one
    @example(lam=100.0, beta=1e-8)      # the ends of the solvers' beta bracket
    @example(lam=100.0, beta=64.0)
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_wait_probability(self, bound, lam, beta):
        level = max(lam + beta * math.sqrt(lam), 1.0)
        assert wait_curve(lam, bound)(beta) == wait_probability(level, lam, bound)

    def test_integer_levels_match_their_floats(self):
        # an int level takes _level's slow path to the float level's lists
        for k in (1, 2, 120, 4000):
            rates = [0.3 * k, k - 0.5, float(k), 1.7 * k]
            for bound in BOUND_CHOICES:
                assert _wait_vector(k, rates, bound) == _wait_vector(float(k), rates, bound)
            assert _no_wait_vector(k, rates) == _no_wait_vector(float(k), rates)


class TestCythonSpecial:
    """The package calls scipy's special functions through cython_special:
    the ufuncs' C routines, bit for bit, without the ufunc machinery."""

    @staticmethod
    def mismatches(scalar, ufunc, points):
        want = ufunc(*zip(*points)).tolist()
        return [(p, a, b) for p, a, b in zip(points, (scalar(*p) for p in points), want)
                if a != b]

    def test_gammaincc(self):
        # the mpmath sweep, then n within 12 sqrt(lambda) above lambda
        rng = random.Random(54)
        points = mpmath_sweep_points()
        for _ in range(50000):
            lam = 10.0 ** rng.uniform(-1.0, 6.0)
            points.append((lam + 12.0 * (1.0 - rng.random()) * math.sqrt(lam), lam))
        assert not self.mismatches(cs.gammaincc, sc.gammaincc, points)

    def test_erfcx_and_ndtr_on_the_bound_arguments(self):
        # jvlz_bounds_at passes erfcx a / sqrt(2), halfin_whitt passes ndtr beta
        rng = random.Random(26)
        pairs = []
        for _ in range(20000):
            lam = 10.0 ** rng.uniform(-1.0, 6.0)
            pairs.append((max(lam + rng.uniform(0.0, 40.0) * math.sqrt(lam), 1.0), lam))
        grid = [(k / 64.0,) for k in range(64 * 60)]
        halves = [(hw_quantities(n, lam).a / math.sqrt(2.0),) for n, lam in pairs]
        betas = [((n - lam) / math.sqrt(lam),) for n, lam in pairs]
        assert not self.mismatches(cs.erfcx, sc.erfcx, grid + halves)
        assert not self.mismatches(cs.ndtr, sc.ndtr, grid + betas)

    def test_stdtrit_at_the_simulator_quantile(self):
        points = [(float(df), 0.995) for df in range(1, 1001)]
        assert not self.mismatches(cs.stdtrit, sc.stdtrit, points)


def reference_inverse_blocking(lam, upper):
    """ib[k] = 1/B(k, lam) for k = 0..upper by the recursion from b_0 = 1."""
    ib = [1.0]
    for k in range(1, upper + 1):
        ib.append(1.0 + (k / lam) * ib[-1])
    return ib


def reference_no_wait(lam, k, ib):
    if lam >= k:
        return 0.0
    rho = lam / k
    return 1.0 - 1.0 / (rho + (1.0 - rho) * ib[k])


class TestWarmStartedRecursion:
    # the recursion starts at lam - 12 sqrt(lam); every value must equal
    # the one from b_0 = 1 bit for bit
    @given(lam=st.floats(math.log(0.5), math.log(2e4)).map(math.exp))
    @example(lam=1e5)
    @example(lam=2e5)
    @settings(max_examples=40, deadline=None)
    def test_exact_matches_recursion_from_one(self, lam):
        first, top = math.floor(lam) + 1, math.floor(lam + 15.0 * math.sqrt(lam))
        ib = reference_inverse_blocking(lam, top)
        column = no_wait_box(lam, 1, top)
        assert column == [reference_no_wait(lam, k, ib) for k in range(1, top + 1)]
        # erlang_c_exact at every level, past 2e4 at every level of the
        # first sqrt(lam) above lam, where the dropped terms weigh most,
        # and then every ceil(sqrt(lam))-th one
        stride = 1 if lam <= 2e4 else math.ceil(math.sqrt(lam))
        levels = sorted(set(range(first, top + 1, stride))
                        | set(range(first, min(first + stride, top + 1))))
        for k in levels:
            rho = lam / k
            assert erlang_c_exact(k, lam) == 1.0 / (rho + (1.0 - rho) * ib[k]), k

    @pytest.mark.parametrize("lam,stride", [(0.5, 1), (7.3, 1), (480.2, 1), (3e4, 97)])
    def test_exact_through_overflow(self, lam, stride):
        # far above lam ib overflows and alpha is 0.0; the recursion ends
        # with the first of its 512-step blocks that ends at inf
        top = math.floor(lam + 45.0 * math.sqrt(lam)) + 200
        ib = reference_inverse_blocking(lam, top)
        assert ib[-1] == math.inf
        for k in range(math.floor(lam) + 1, top + 1, stride):
            rho = lam / k
            assert erlang_c_exact(k, lam) == 1.0 / (rho + (1.0 - rho) * ib[k]), k

    @given(lam=st.floats(math.log(0.5), math.log(300.0)).map(math.exp),
           offset=st.integers(0, 400))
    @example(lam=0.3, offset=0)
    @example(lam=150.5, offset=250)
    @settings(max_examples=60, deadline=None)
    def test_column_far_above_small_rates(self, lam, offset):
        # boxes far above lam saturate at 1.0, where the pass stops early
        lower = math.floor(lam) + 1 + offset
        upper = lower + 600
        ib = reference_inverse_blocking(lam, upper)
        column = no_wait_box(lam, lower, upper)
        assert column == [reference_no_wait(lam, k, ib)
                          for k in range(lower, upper + 1)]
        assert column[-1] == 1.0


def from_start_alpha(n, lam):
    """Erlang C by the recursion run from k0 = floor(lam - 12 sqrt(lam)) on
    every call, in 512-step blocks: the reference that the checkpointed
    kernel must match bit for bit."""
    ib, k = 1.0, max(math.floor(lam - 12.0 * math.sqrt(lam)), 0)
    while k < n and ib < math.inf:
        for k in range(k + 1, min(k + 512, n) + 1):
            ib = 1.0 + (k / lam) * ib
    rho = lam / n
    return 1.0 / (rho + (1.0 - rho) * ib)


def from_start_column(lam, lower, top=None):
    """The no-wait column by the recursion run from k0 on every call."""
    start = max(math.floor(lam - 12.0 * math.sqrt(lam)), 0)
    first = max(lower, start + 1)
    if top is not None and top < first:
        return [0.0] * (top - lower + 1)
    out = [0.0] * (first - lower)
    ib = 1.0
    for k in range(start + 1, first):
        ib = 1.0 + (k / lam) * ib
    for k in itertools.count(first) if top is None else range(first, top + 1):
        ib = 1.0 + (k / lam) * ib
        if lam >= k:
            out.append(0.0)
            continue
        rho = lam / k
        tail = (1.0 - rho) * ib
        out.append(1.0 - 1.0 / (rho + tail))
        if tail >= 2.0 ** 60:
            break
    return out


class TestRecursionCheckpoint:
    # every rate's recursion resumes from its checkpoint at floor(lam);
    # each value must equal the one from k0 bit for bit, whichever kernel
    # fills the checkpoint first
    RATES = (0.3, 1.0, 7.0, 60.0, 499.5, 4500.3, 2e5)

    @staticmethod
    def levels(lam):
        # stable levels just above floor(lam), a few sqrt(lam) out, and
        # one where ib has overflowed and alpha flushed to 0.0
        base, root = math.floor(lam), math.ceil(math.sqrt(lam))
        flushed = math.floor(lam + 45.0 * math.sqrt(lam)) + 200
        assert from_start_alpha(flushed, lam) == 0.0
        return sorted({base + 1, base + 2, base + root, base + 5 * root, flushed})

    @staticmethod
    def boxes(lam):
        # (lower, top): from 1 across floor(lam), from the first stable
        # level to saturation, far above lam, and, from 1 up, a top below
        # the first stable level
        base, root = math.floor(lam), math.ceil(math.sqrt(lam))
        out = [(1, base + 3 * root), (base + 1, None), (base + 5 * root, None)]
        if base >= 1:
            out += [(max(base - root, 1), base), (1, None)]
        return out

    def exact_hex(self, lam):
        return [erlang_c_exact(n, lam).hex() for n in self.levels(lam)]

    def columns_hex(self, lam):
        return [[x.hex() for x in _exact_no_wait_column(lam, lo, top)]
                for lo, top in self.boxes(lam)]

    def reference_hex(self, lam):
        exact = [from_start_alpha(n, lam).hex() for n in self.levels(lam)]
        columns = [[x.hex() for x in from_start_column(lam, lo, top)]
                   for lo, top in self.boxes(lam)]
        return exact, columns

    @staticmethod
    def clear():
        _erlang_c_exact_cached.cache_clear()
        _recursion_at_rate.cache_clear()

    @pytest.mark.parametrize("lam", RATES)
    def test_exact_first_then_column(self, lam):
        self.clear()
        exact = self.exact_hex(lam)
        columns = self.columns_hex(lam)
        assert (exact, columns) == self.reference_hex(lam)
        assert (self.exact_hex(lam), self.columns_hex(lam)) == (exact, columns)

    @pytest.mark.parametrize("lam", RATES)
    def test_column_first_then_exact(self, lam):
        self.clear()
        columns = self.columns_hex(lam)
        exact = self.exact_hex(lam)
        assert (exact, columns) == self.reference_hex(lam)
        assert (self.columns_hex(lam), self.exact_hex(lam)) == (columns, exact)

    def test_checkpoint_cache_is_bounded(self):
        # two numbers per rate, never a column
        self.clear()
        maxsize = _recursion_at_rate.cache_info().maxsize
        assert maxsize == 1 << 12
        for i in range(maxsize + 100):
            wait_probability(2, 0.5 + i * 1e-6)
        assert _recursion_at_rate.cache_info().currsize == maxsize
        k, ib = _recursion_at_rate(499.5)
        assert (type(k), type(ib), k) == (int, float, 499)
