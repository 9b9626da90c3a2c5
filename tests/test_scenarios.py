"""Scenario container normalization and marginal derivation."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qstaff.errors import DomainError
from qstaff.scenarios import JointScenarioSet, ScenarioSet

EXAMPLE_VECTORS = (
    (450.0, 300.0), (450.0, 200.0), (450.0, 100.0),
    (350.0, 300.0), (350.0, 200.0), (350.0, 100.0),
)
EXAMPLE_PROBS = (0.03, 0.21, 0.10, 0.01, 0.17, 0.48)
# a bool, an int beyond float range, nan and a string: none is an input number
BAD_NUMBERS = (True, 10**400, math.nan, "3")


def random_scenario_sets():
    @st.composite
    def build(draw):
        k = draw(st.integers(min_value=1, max_value=6))
        rates = draw(st.lists(st.floats(min_value=1.0, max_value=1e4),
                              min_size=k, max_size=k, unique=True))
        weights = draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                                min_size=k, max_size=k))
        total = math.fsum(weights)
        return ScenarioSet(tuple(rates), tuple(w / total for w in weights))
    return build()


class TestScenarioSet:
    def test_sorts_and_merges(self):
        s = ScenarioSet((200.0, 100.0, 200.0), (0.25, 0.5, 0.25))
        assert s.rates == (100.0, 200.0)
        assert s.probs == (0.5, 0.5)

    def test_tail_sums(self):
        s = ScenarioSet((100.0, 200.0, 300.0), (0.58, 0.38, 0.04))
        tails = s.tail_sums()
        assert len(tails) == 4
        assert tails[0] == pytest.approx(1.0, abs=1e-12)
        assert tails[1] == pytest.approx(0.42, abs=1e-12)
        assert tails[2] == pytest.approx(0.04, abs=1e-12)
        assert tails[3] == 0.0

    def test_pairs_ascending(self):
        s = ScenarioSet((300.0, 100.0), (0.4, 0.6))
        assert list(s.pairs()) == [(100.0, 0.6), (300.0, 0.4)]

    def test_scaled(self):
        s = ScenarioSet((100.0, 200.0), (0.7, 0.3))
        t = s.scaled(10.0)
        assert t.rates == (1000.0, 2000.0)
        assert t.probs == s.probs

    @pytest.mark.parametrize("rates,probs", [
        ((), ()),
        ((100.0,), (0.5, 0.5)),
        ((100.0, 200.0), (0.5, 0.6)),          # sums to 1.1
        ((100.0, -5.0), (0.5, 0.5)),
        ((100.0, 200.0), (1.2, -0.2)),
        ((100.0, 200.0), (0.0, 1.0)),          # zero-probability scenario
        ((float("nan"), 200.0), (0.5, 0.5)),
        *(((bad, 200.0), (0.5, 0.5)) for bad in BAD_NUMBERS),
        *(((100.0,), (bad,)) for bad in BAD_NUMBERS),
        (5.0, 1.0),                            # no sequences
    ])
    def test_rejects_invalid(self, rates, probs):
        with pytest.raises(DomainError):
            ScenarioSet(rates, probs)

    @given(random_scenario_sets())
    def test_tails_decrease_from_one(self, s):
        tails = s.tail_sums()
        assert tails[0] == pytest.approx(1.0, abs=1e-9)
        for a, b in zip(tails, tails[1:]):
            assert a > b


class TestJointScenarioSet:
    def test_example_marginals(self):
        joint = JointScenarioSet(EXAMPLE_VECTORS, EXAMPLE_PROBS)
        assert joint.stations == 2
        m1, m2 = joint.marginals
        assert m1.rates == (350.0, 450.0)
        assert m1.probs == pytest.approx((0.66, 0.34), abs=1e-12)
        assert m2.rates == (100.0, 200.0, 300.0)
        assert m2.probs == pytest.approx((0.58, 0.38, 0.04), abs=1e-12)

    def test_merges_duplicate_vectors(self):
        joint = JointScenarioSet(((100.0, 50.0), (100.0, 50.0), (200.0, 60.0)),
                                 (0.25, 0.25, 0.5))
        assert len(joint) == 2
        assert joint.probs == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_from_product(self):
        a = ScenarioSet((100.0, 200.0), (0.7, 0.3))
        b = ScenarioSet((50.0, 60.0), (0.4, 0.6))
        joint = JointScenarioSet.from_product((a, b))
        assert len(joint) == 4
        got = dict(joint.pairs())
        assert got[(100.0, 50.0)] == pytest.approx(0.28, abs=1e-12)
        assert got[(200.0, 60.0)] == pytest.approx(0.18, abs=1e-12)
        # the factors come back as marginals
        assert joint.marginal(0).probs == pytest.approx((0.7, 0.3), abs=1e-12)
        assert joint.marginal(1).probs == pytest.approx((0.4, 0.6), abs=1e-12)
        with pytest.raises(DomainError):
            JointScenarioSet.from_product(5)
        with pytest.raises(DomainError, match="must be a ScenarioSet"):
            JointScenarioSet.from_product((5,))
        with pytest.raises(DomainError, match="at least one station"):
            JointScenarioSet.from_product([])

    @given(random_scenario_sets())
    def test_one_station_product_is_the_set_itself(self, s):
        # the one-station set the single-station solvers and the simulator
        # build, bit for bit
        one = JointScenarioSet.from_product((s,))
        by_hand = JointScenarioSet(tuple((r,) for r in s.rates), s.probs)
        assert one.rate_vectors == by_hand.rate_vectors == tuple((r,) for r in s.rates)
        assert [p.hex() for p in one.probs] == [p.hex() for p in by_hand.probs]

    def test_scaled(self):
        joint = JointScenarioSet(EXAMPLE_VECTORS, EXAMPLE_PROBS)
        bigger = joint.scaled(10.0)
        assert bigger.marginal(0).rates == (3500.0, 4500.0)
        assert bigger.probs == joint.probs

    @pytest.mark.parametrize("vectors,probs", [
        ((), ()),
        (((100.0, 50.0), (100.0,)), (0.5, 0.5)),        # ragged
        (((100.0, 50.0),), (0.9,)),                     # does not sum to 1
        (((100.0, 0.0),), (1.0,)),                      # zero rate
        *((((100.0, bad),), (1.0,)) for bad in BAD_NUMBERS),
        *((((100.0, 50.0),), (bad,)) for bad in BAD_NUMBERS),
        (5, (1.0,)),                                    # no sequence of vectors
        ((5.0,), (1.0,)),                               # a rate, not a vector
        (((1.0,),), 1.0),                               # no sequence of probs
    ])
    def test_rejects_invalid(self, vectors, probs):
        with pytest.raises(DomainError):
            JointScenarioSet(vectors, probs)

    @pytest.mark.parametrize("bad", (0.0, -2.0, math.inf, *BAD_NUMBERS), ids=(
        "zero", "negative", "inf", "bool", "huge-int", "nan", "str"))
    def test_scaled_rejects_bad_factor(self, bad):
        for scenarios in (ScenarioSet((100.0, 200.0), (0.7, 0.3)),
                          JointScenarioSet(EXAMPLE_VECTORS, EXAMPLE_PROBS)):
            with pytest.raises(DomainError):
                scenarios.scaled(bad)

    def test_marginal_index_checked(self):
        joint = JointScenarioSet(EXAMPLE_VECTORS, EXAMPLE_PROBS)
        assert joint.marginal(np.int64(1)) is joint.marginal(1)
        for bad in (2, -1, True, 1.5, "0", 1.0):
            with pytest.raises(DomainError):
                joint.marginal(bad)
