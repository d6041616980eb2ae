"""The auction's geometry set-up against a row-by-row build.

``auction._setup`` sums every vehicle's subset in one ``np.add.reduceat``
over a gather in which each row is led by a 0.0 slot. ``oracles.row_gains``
sums one row at a time, the way ``values[subset].sum()`` does, and every
initial gain must have its bits. The sorted rows and member lists must
equal a plain-Python build.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trafficmarket import auction
from trafficmarket.model import validate_instance

from conftest import build_instance
from oracles import row_gains


def cold_setup(instance):
    """``_setup`` of a validated instance on an emptied cache, which is put
    back afterwards."""
    validate_instance(instance)
    saved = auction._last_geometry
    auction._last_geometry = ((), None, None)
    try:
        return auction._setup(instance)[0]
    finally:
        auction._last_geometry = saved


def assert_setup_matches(instance):
    values, ordered, members, gains = cold_setup(instance)
    subsets = [v.task_subset for v in instance.vehicles]
    assert [x.hex() for x in values] == [t.appraisement.hex() for t in instance.tasks]
    assert ordered == [sorted(s) for s in subsets]
    assert members == [[v for v, s in enumerate(subsets) if t in s] for t in range(len(values))]
    assert all(type(g) is float for g in gains)
    assert [g.hex() for g in gains] == [g.hex() for g in row_gains(instance.task_values(), ordered)]


def value_draw(kind, rng, m):
    if kind == "unit":  # (0, 10], as the property gate draws them
        return 10.0 - rng.uniform(0.0, 10.0, size=m)
    if kind == "mixed":  # sixteen decades, so the grouping decides the rounding
        return rng.uniform(0.5, 1.0, size=m) * 10.0 ** rng.integers(-8, 9, size=m)
    return rng.uniform(0.5, 1.0, size=m) * 10.0 ** rng.integers(-300, 300, size=m)


@pytest.mark.parametrize("kind", ["unit", "mixed", "extreme"])
@pytest.mark.parametrize("seed", [0, 1])
def test_every_row_length_up_to_300(kind, seed):
    # rows of 0-300 entries (1-301 with the slot) cross the pairwise sum's
    # 8-wide unrolling, its 128-entry block and its split above that
    rng = np.random.default_rng([seed, 300])
    m = 300
    subsets = [rng.choice(m, size=k, replace=False).tolist() for k in range(m + 1)]
    rng.shuffle(subsets)
    instance = build_instance(value_draw(kind, rng, m), subsets, [1.0] * len(subsets), 1.0)
    assert sorted(map(len, subsets)) == list(range(m + 1))
    assert_setup_matches(instance)


@pytest.mark.parametrize(
    "values, subsets",
    [
        ([], []),  # no tasks, no vehicles
        ([1.5, 2.5], []),  # no vehicles
        ([], [[], []]),  # no tasks
        ([1.5, 2.5, 0.1], [[], [2], [], [0, 1, 2], []]),  # empty rows between others
        ([0.1, 0.2, 0.3], [[0, 1], [1, 2], [0, 2]]),  # rows of two, where order rounds
        ([1e-300, 1e300, 1.0], [[0, 1, 2], [0], [1], [2]]),
    ],
)
def test_empty_and_short_rows(values, subsets):
    assert_setup_matches(build_instance(values, subsets, [1.0] * len(subsets), 1.0))


@st.composite
def geometries(draw):
    m = draw(st.integers(0, 40))
    value = st.floats(1e-200, 1e200, allow_nan=False, allow_infinity=False)
    values = draw(st.lists(value, min_size=m, max_size=m))
    row = st.sets(st.integers(0, m - 1), max_size=m) if m else st.just(set())
    subsets = draw(st.lists(row, max_size=30))
    return build_instance(values, subsets, [1.0] * len(subsets), 1.0)


@given(instance=geometries())
def test_setup_matches_a_row_by_row_build(instance):
    assert_setup_matches(instance)
