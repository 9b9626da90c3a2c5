"""Tests for the Erlang-C core: exact, continuous, limit, and bounds."""
import math
import random
import re

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from qstaff.erlang import (
    BOUND_CHOICES,
    BoundPair,
    _exact_no_wait_column,
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
from qstaff.errors import DomainError, UnstableSystemError
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
        # seeded sweep over the regimes the closed-form kernel treats apart
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
        points += [(15.0 - 1e-9, 12.0), (15.0, 12.0), (15.0 + 1e-9, 12.0),
                   (100.0, 50.0 - 1e-9), (100.0, 50.0), (100.0, 50.0 + 1e-9)]
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
