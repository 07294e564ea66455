"""Differential tests: memoised array-DFS knapsack vs the frozen oracle.

The optimised solver changed the mechanics (parallel arrays, cons-list
paths, whole-solve memo, the early exit once the incumbent reaches the
class-level ceiling) but is required to preserve the original float
accumulation order, so solutions must be **bit-identical** to the
oracle — selected ids, total gain, total size and LP bound — on every
input, memo hit or miss, capped or not. A brute-force subset
enumeration additionally anchors both against ground truth on small
instances.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from repro.interleave.knapsack import (
    KnapsackItem,
    clear_knapsack_cache,
    solve_knapsack,
)

from tests.differential.oracle import oracle_solve_knapsack

_items = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),  # size
        st.floats(min_value=0.0, max_value=100.0),  # gain
    ),
    min_size=0,
    max_size=14,
).map(
    lambda raw: [
        KnapsackItem(item_id=i, size=size, gain=gain)
        for i, (size, gain) in enumerate(raw)
    ]
)


def _assert_bit_identical_cold_and_warm(items, capacity, max_nodes):
    expected = oracle_solve_knapsack(items, capacity, max_nodes)
    clear_knapsack_cache()
    cold = solve_knapsack(items, capacity, max_nodes)
    warm = solve_knapsack(items, capacity, max_nodes)  # memo hit
    for got in (cold, warm):
        assert got.selected == expected.selected
        assert got.total_gain == expected.total_gain
        assert got.total_size == expected.total_size
        assert got.lp_bound == expected.lp_bound


@given(
    items=_items,
    capacity=st.floats(min_value=0.0, max_value=120.0),
    max_nodes=st.sampled_from([50, 200_000]),
)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_optimised_solver_is_bit_identical_to_oracle(items, capacity, max_nodes):
    _assert_bit_identical_cold_and_warm(items, capacity, max_nodes)


#: Sizes and gains with few decimals, like the durations and gains of
#: real build operators, plus unrestricted floats.
_size = st.one_of(
    st.integers(min_value=1, max_value=1000).map(lambda k: k / 100),
    st.floats(min_value=0.0, max_value=10.0),
)
_gain = st.one_of(
    st.integers(min_value=1, max_value=5000).map(lambda k: k / 1000),
    st.floats(min_value=0.0, max_value=5.0),
)

#: One (size, gain) class: general (drawn twice as often), zero-size
#: or zero-gain.
_class = st.one_of(
    st.tuples(_size, _gain),
    st.tuples(_size, _gain),
    st.tuples(st.just(0.0), _gain),
    st.tuples(_size, st.just(0.0)),
)


@st.composite
def _repeated_classes(draw):
    """Up to 48 items drawn from 1-4 (size, gain) classes, and a capacity.

    Identical items are what the solver's early exit needs, so every
    item repeats a class. A class may copy an earlier one's density at
    a power-of-two multiple of its size (the density is then exactly
    equal). Items come grouped by class or shuffled; the stable density
    sort keeps equal-density items in input order, so shuffled items
    of two such classes interleave and a class no longer forms one
    contiguous run.
    """
    classes = [draw(_class)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if draw(st.booleans()):
            size, gain = draw(st.sampled_from(classes))
            scale = draw(st.sampled_from([0.5, 2.0, 4.0]))
            classes.append((size * scale, gain * scale))
        else:
            classes.append(draw(_class))
    counts = draw(
        st.lists(
            st.integers(min_value=1, max_value=12),
            min_size=len(classes),
            max_size=len(classes),
        )
    )
    picks = [c for c, count in enumerate(counts) for _ in range(count)]
    if draw(st.booleans()):
        picks = draw(st.permutations(picks))
    items = [
        KnapsackItem(item_id=i, size=classes[c][0], gain=classes[c][1])
        for i, c in enumerate(picks)
    ]
    # A few items of one class plus a remainder: the capacities at which
    # integrality, not density, decides the optimum.
    unit = max(draw(st.sampled_from(classes))[0], 0.5)
    capacity = unit * draw(st.integers(min_value=0, max_value=15)) + draw(
        st.floats(min_value=0.0, max_value=unit)
    )
    return items, capacity


_MIXED_CLASSES = (
    [KnapsackItem(item_id=0, size=0.572, gain=0.016571)]
    + [KnapsackItem(item_id=i, size=3.437, gain=0.091431) for i in range(1, 46)]
    + [KnapsackItem(item_id=i, size=3.437, gain=0.084397) for i in range(46, 120)]
)


@given(
    instance=_repeated_classes(),
    max_nodes=st.sampled_from([50, 2_000, 50_000]),
)
@example(
    # One class: optimal on the first dive (ids 0-14), long before the cap.
    instance=([KnapsackItem(item_id=i, size=3.437, gain=0.091431) for i in range(120)], 51.878),
    max_nodes=50_000,
)
@example(
    # The cap binds: the oracle returns 1.2966 (item 0 + 14 of the
    # second class) although 15 of the second class make 1.3715. The
    # solver must reproduce the capped answer, not improve on it.
    instance=(_MIXED_CLASSES, 51.878),
    max_nodes=50_000,
)
@example(
    # The optimum (four of the second class, 20.0) takes none of the
    # three denser items that the first dive packs (18.3).
    instance=(
        [KnapsackItem(item_id=i, size=6.0, gain=6.1) for i in range(3)]
        + [KnapsackItem(item_id=i, size=5.0, gain=5.0) for i in range(3, 7)],
        20.0,
    ),
    max_nodes=2_000,
)
@example(
    # The size fold meets ``capacity + 1e-12`` exactly: one item fits.
    instance=([KnapsackItem(item_id=i, size=1.0 + 1e-12, gain=1.0) for i in range(2)], 1.0),
    max_nodes=50,
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_repeated_classes_are_bit_identical_to_oracle(instance, max_nodes):
    items, capacity = instance
    _assert_bit_identical_cold_and_warm(items, capacity, max_nodes)


@given(
    items=_items.filter(lambda xs: len(xs) <= 10),
    capacity=st.floats(min_value=0.0, max_value=120.0),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_solver_gain_is_sandwiched_by_brute_force_optima(items, capacity):
    """Ground truth: exhaustive enumeration sandwiches the solver.

    The solver admits items within a 1e-12 fit slop, so its value lies
    between the strict-capacity optimum (it never does worse, modulo
    the bound-prune epsilon) and the slop-capacity optimum (it cannot
    conjure gain from nowhere).
    """
    best_strict = 0.0
    best_slop = 0.0
    for r in range(len(items) + 1):
        for combo in combinations(items, r):
            size = sum(it.size for it in combo)
            gain = sum(it.gain for it in combo)
            if size <= capacity:
                best_strict = max(best_strict, gain)
            if size <= capacity + 1e-12:
                best_slop = max(best_slop, gain)
    solution = solve_knapsack(items, capacity)
    assert solution.total_gain >= best_strict - 1e-9 * max(1.0, best_strict)
    assert solution.total_gain <= best_slop + 1e-9 * max(1.0, best_slop)
    assert solution.total_size <= capacity + 1e-9
