"""Array scenario generation against the one-draw-at-a-time oracle.

``generate_scenario`` draws all tasks, then all placements, as matrices and
builds the distance mask a block of placements at a time. The oracle draws
every number with its own ``rng.uniform`` call and scans every task per
placement. The two must agree in every field's bits and type, and in the
iteration order of each task subset. Sizes around block edges (63/64/65
and 127/128/129 placements) and maps small enough that every placement
senses a task make a block mistake visible.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from trafficmarket.model import _BLOCK, ScenarioConfig, generate_scenario

from oracles import slow_generate_scenario

EDGES = (0, 1, 63, 64, 65, 127, 128, 129)


@st.composite
def configs(draw):
    lo = draw(st.floats(0.5, 80.0))
    hi = draw(st.one_of(st.just(lo), st.floats(lo, 160.0)))
    return ScenarioConfig(
        n_tasks=draw(st.one_of(st.sampled_from(EDGES), st.integers(0, 150))),
        n_vehicles=draw(
            st.one_of(st.sampled_from(EDGES + (256, 257)), st.integers(0, 300))
        ),
        budget=draw(st.floats(0.5, 500.0)),
        rng_seed=draw(st.integers(0, 2**63 - 1)),  # the largest seed the count rule takes
        city_side=draw(st.floats(1.0, 2000.0)),
        detection_range=(lo, hi),
        appraisement_max=draw(st.floats(1e-3, 1e3)),
        kappa_max=draw(st.floats(1e-3, 1e3)),
    )


def _fields_are_python_scalars(instance):
    for t in instance.tasks:
        assert type(t.id) is int
        assert {type(t.x), type(t.y), type(t.appraisement)} == {float}
    for v in instance.vehicles:
        assert type(v.id) is int and {type(t) for t in v.task_subset} == {int}
        floats = (v.x, v.y, v.detection_distance, v.true_cost, v.bid)
        assert {type(f) for f in floats} == {float}


@given(configs())
@example(ScenarioConfig(n_tasks=0, n_vehicles=0, budget=1.0))
@example(ScenarioConfig(n_tasks=0, n_vehicles=129, budget=1.0))
@example(ScenarioConfig(n_tasks=40, n_vehicles=0, budget=1.0))
@example(ScenarioConfig(n_tasks=129, n_vehicles=127, budget=1.0, city_side=60.0))
@example(ScenarioConfig(n_tasks=30, n_vehicles=128, budget=1.0, city_side=40.0))
@example(ScenarioConfig(n_tasks=64, n_vehicles=65, budget=1.0, city_side=40.0))
@example(ScenarioConfig(n_tasks=3, n_vehicles=3 * _BLOCK + 1, budget=1.0,
                        city_side=30.0))
@example(ScenarioConfig(n_tasks=127, n_vehicles=129, budget=1.0, city_side=50.0,
                        detection_range=(20.0, 20.0), appraisement_max=0.25,
                        kappa_max=40.0))
@example(ScenarioConfig(n_tasks=20, n_vehicles=200, budget=1.0, city_side=1e-170,
                        detection_range=(1e-170, 1e-170)))
@example(ScenarioConfig(n_tasks=200, n_vehicles=1000, budget=400.0, rng_seed=1))
def test_generate_scenario_matches_oracle(config):
    fast = generate_scenario(config)
    slow = slow_generate_scenario(config)
    assert repr(fast.tasks) == repr(slow.tasks)
    assert repr(fast.vehicles) == repr(slow.vehicles)
    assert [list(v.task_subset) for v in fast.vehicles] == [
        list(v.task_subset) for v in slow.vehicles
    ]
    assert (fast.budget, fast.city_side) == (slow.budget, slow.city_side)
    _fields_are_python_scalars(fast)
