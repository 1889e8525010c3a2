import pytest
from hypothesis import given, strategies as st

from lospre.cost import CostVec, INFINITY, ZERO, format_cost, parse_cost
from lospre.dp import cost_keys

finite = st.builds(CostVec, st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
costs = st.one_of(finite, st.just(INFINITY))
unbounded = st.one_of(st.builds(CostVec, st.integers(), st.integers()), st.just(INFINITY))


def test_componentwise_addition():
    assert CostVec(1, 0) + CostVec(0, 1) == CostVec(1, 1)


def test_zero_is_identity():
    for x in (CostVec(3, -4), CostVec(0, 0), INFINITY):
        assert x + ZERO == x


def test_infinity_absorbs():
    assert INFINITY + CostVec(5, 3) == INFINITY
    assert CostVec(5, 3) + INFINITY == INFINITY


def test_lexicographic_order():
    assert CostVec(1, 9) < CostVec(2, 0)
    assert CostVec(1, 0) < CostVec(1, 1)
    assert not INFINITY < INFINITY
    assert CostVec(10**15, 10**15) < INFINITY


def test_addition_is_exact_at_any_size():
    total = CostVec(2**62, 0) + CostVec(2**62, 0)
    assert total == CostVec(2**63, 0)
    assert total.primary == 2**63


@given(costs, costs, costs)
def test_addition_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(costs, costs)
def test_total_order(a, b):
    assert (a < b) + (b < a) + (a == b) == 1


@given(finite, finite, costs)
def test_monotonicity(a, b, c):
    # strict order survives addition of any finite value and collapses only
    # at infinity
    if a < b:
        assert a + c < b + c or c == INFINITY


@given(costs)
def test_cost_text_roundtrip(a):
    assert parse_cost(format_cost(a)) == a


def test_parse_cost_formats():
    assert parse_cost("inf") == INFINITY
    assert parse_cost("[3,-2]") == CostVec(3, -2)
    assert parse_cost(" [ 3 , -2 ] ".replace(" ", "")) == CostVec(3, -2)
    with pytest.raises(ValueError):
        parse_cost("(3,2)")
    with pytest.raises(ValueError):
        parse_cost("[3]")


@given(st.lists(unbounded, min_size=1, max_size=8), st.data())
def test_cost_keys_order_and_add_exactly(cs, data):
    # two sums of distinct members of one solve's costs, as the DP forms them
    key, bound = cost_keys(cs)
    subsets = st.sets(st.integers(0, len(cs) - 1))
    a, b = data.draw(subsets), data.draw(subsets)
    ta, tb = (sum((cs[i] for i in s), ZERO) for s in (a, b))
    ka, kb = (sum(key(cs[i]) for i in s) for s in (a, b))
    # a key sum holding an infinity stays >= bound whatever the finite addends
    assert (ka >= bound) == ta.infinite
    assert (kb >= bound) == tb.infinite
    if not ta.infinite:
        assert ka == key(ta)
    if not (ta.infinite and tb.infinite):
        assert (ka < kb) == (ta < tb)
