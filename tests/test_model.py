import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trafficmarket.model import (
    AuctionInstance,
    ScenarioConfig,
    Task,
    Vehicle,
    coverage_value,
    dumps_scenario,
    generate_scenario,
    left_sum,
    loads_scenario,
    paper_example,
    validate_instance,
)

from conftest import build_instance, random_synthetic_instance
from oracles import rechecked_subset, union_coverage


def test_generation_is_deterministic_bytewise():
    config = ScenarioConfig(n_tasks=50, n_vehicles=20, budget=25.0, rng_seed=7)
    a = dumps_scenario(generate_scenario(config))
    b = dumps_scenario(generate_scenario(config))
    assert a == b


def test_different_seeds_differ():
    base = dict(n_tasks=50, n_vehicles=40, budget=25.0)
    a = generate_scenario(ScenarioConfig(rng_seed=1, **base))
    b = generate_scenario(ScenarioConfig(rng_seed=2, **base))
    assert dumps_scenario(a) != dumps_scenario(b)


def test_task_subsets_match_distance_rule():
    config = ScenarioConfig(
        n_tasks=50, n_vehicles=200, budget=25.0, rng_seed=3, city_side=300.0
    )
    instance = generate_scenario(config)
    assert instance.vehicles, "dense config should keep some vehicles"
    for v in instance.vehicles:
        assert v.task_subset == rechecked_subset(v, instance.tasks)


def test_task_at_exactly_the_detection_distance_is_not_sensed():
    # On a 1e-170 map every squared distance and d*d underflow to 0.0, so
    # each task ties its placement's circle exactly; strict < keeps none.
    config = ScenarioConfig(
        n_tasks=20, n_vehicles=300, budget=1.0, city_side=1e-170,
        detection_range=(1e-170, 1e-170),
    )
    assert generate_scenario(config).vehicles == ()


def test_generated_instances_validate():
    instance = generate_scenario(
        ScenarioConfig(n_tasks=30, n_vehicles=100, budget=10.0, rng_seed=11)
    )
    validate_instance(instance)
    for v in instance.vehicles:
        assert v.task_subset, "empty-coverage placements are dropped"
        assert v.true_cost > 0
        assert v.bid == v.true_cost
        kappa = v.true_cost / len(v.task_subset)
        assert 0.0 < kappa <= 5.0
    for t in instance.tasks:
        assert 0 < t.appraisement <= 10.0
    for v in instance.vehicles:
        assert 10.0 <= v.detection_distance < 30.0


def test_vehicle_ids_dense_after_dropping():
    instance = generate_scenario(
        ScenarioConfig(n_tasks=10, n_vehicles=300, budget=10.0, rng_seed=5)
    )
    assert [v.id for v in instance.vehicles] == list(range(len(instance.vehicles)))
    assert len(instance.vehicles) < 300  # sparse map, most placements dropped


def test_zero_vehicle_config():
    instance = generate_scenario(
        ScenarioConfig(n_tasks=5, n_vehicles=0, budget=1.0, rng_seed=0)
    )
    assert instance.vehicles == ()
    assert len(instance.tasks) == 5


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(n_tasks=5, n_vehicles=5, budget=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(n_tasks=-1, n_vehicles=5, budget=1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(n_tasks=5, n_vehicles=5, budget=1.0, city_side=-3.0)
    with pytest.raises(ValueError):
        ScenarioConfig(n_tasks=5, n_vehicles=5, budget=1.0, detection_range=(0.0, 5.0))


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_tasks", True),
        ("n_vehicles", False),
        ("rng_seed", True),
        ("n_tasks", 2.5),
        ("n_vehicles", 3.0),
        ("rng_seed", 1.5),
        ("rng_seed", -1),
        ("n_vehicles", -2),
        ("rng_seed", np.True_),
        ("n_tasks", "4"),
    ],
)
def test_config_rejects_non_integer_counts_and_seeds(field, value):
    fields = dict(n_tasks=5, n_vehicles=5, budget=1.0, rng_seed=0)
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(**{**fields, field: value})


def test_config_accepts_numpy_integers_as_plain_ints():
    config = ScenarioConfig(
        n_tasks=np.int64(20), n_vehicles=np.uint8(30), budget=5.0,
        rng_seed=np.int32(4),
    )
    counts = (config.n_tasks, config.n_vehicles, config.rng_seed)
    assert counts == (20, 30, 4) and all(type(c) is int for c in counts)
    plain = ScenarioConfig(n_tasks=20, n_vehicles=30, budget=5.0, rng_seed=4)
    assert config == plain
    assert dumps_scenario(generate_scenario(config)) == dumps_scenario(
        generate_scenario(plain)
    )


@pytest.mark.parametrize("detection_range", [(10.0,), (10.0, 20.0, 30.0), ()])
def test_config_rejects_detection_range_not_a_pair(detection_range):
    with pytest.raises(ValueError, match="pair"):
        ScenarioConfig(
            n_tasks=5, n_vehicles=5, budget=1.0, detection_range=detection_range
        )


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_budget(value):
    with pytest.raises(ValueError, match="finite"):
        ScenarioConfig(n_tasks=5, n_vehicles=5, budget=value)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_sampling_bounds(value):
    with pytest.raises(ValueError, match="finite"):
        ScenarioConfig(n_tasks=5, n_vehicles=5, budget=1.0, appraisement_max=value)
    with pytest.raises(ValueError, match="finite"):
        ScenarioConfig(n_tasks=5, n_vehicles=5, budget=1.0, detection_range=(1.0, value))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_validate_rejects_non_finite_numbers(value):
    instance = paper_example()
    with pytest.raises(ValueError, match="finite"):
        validate_instance(replace(instance, budget=value))
    tasks = (replace(instance.tasks[1], appraisement=value),) + instance.tasks[2:]
    with pytest.raises(ValueError, match="finite"):
        validate_instance(replace(instance, tasks=instance.tasks[:1] + tasks))
    with pytest.raises(ValueError, match="finite"):
        validate_instance(instance.with_bid(2, value))
    vehicles = instance.vehicles[:2] + (replace(instance.vehicles[2], true_cost=value),)
    with pytest.raises(ValueError, match="finite"):
        validate_instance(replace(instance, vehicles=vehicles))


def test_validate_rejects_mutable_containers():
    instance = paper_example()
    for tasks, vehicles in [
        (list(instance.tasks), instance.vehicles),
        (instance.tasks, list(instance.vehicles)),
    ]:
        with pytest.raises(ValueError, match="^tasks and vehicles must be tuples$"):
            validate_instance(replace(instance, tasks=tasks, vehicles=vehicles))
    for subset in [{0, 1}, [0, 1], (0, 1)]:
        loose = replace(instance.vehicles[1], task_subset=subset)
        vehicles = (instance.vehicles[0], loose, *instance.vehicles[2:])
        with pytest.raises(ValueError, match="^vehicle 1 task subset must be a frozenset$"):
            validate_instance(replace(instance, vehicles=vehicles))
    validate_instance(instance)


def with_id(records: tuple, position: int, new_id) -> tuple:
    return (*records[:position], replace(records[position], id=new_id), *records[position + 1:])


INEXACT_IDS = [(0, False), (1, True), (1, 1.0), (2, np.int64(2))]


@pytest.mark.parametrize("position, bad", INEXACT_IDS)
def test_validate_rejects_ids_that_are_not_ints(position, bad):
    # each equals the int at its position, so the dense-ids check alone
    # would pass it and it would reach the output as it is
    instance = paper_example()
    message = f"at position {position} has id {re.escape(repr(bad))}, not an int$"
    with pytest.raises(ValueError, match="^task " + message):
        validate_instance(replace(instance, tasks=with_id(instance.tasks, position, bad)))
    with pytest.raises(ValueError, match="^vehicle " + message):
        validate_instance(replace(instance, vehicles=with_id(instance.vehicles, position, bad)))
    validate_instance(replace(instance, tasks=with_id(instance.tasks, position, int(bad))))


def test_scenario_with_nan_appraisement_rejected():
    text = dumps_scenario(paper_example()).replace("task 1 100.0 0.0 3.0", "task 1 100.0 0.0 nan")
    assert "nan" in text
    with pytest.raises(ValueError, match="finite"):
        loads_scenario(text)


@pytest.mark.parametrize(
    "old, new",
    [("city 1000.0", "city inf"), ("city 1000.0", "city -5.0"),
     ("city 1000.0", "city 0.0"), ("task 1 100.0 0.0", "task 1 nan 0.0"),
     ("vehicle 2 200.0 50.0 0.0", "vehicle 2 200.0 50.0 -inf")],
)
def test_scenario_with_bad_place_rejected(old, new):
    text = dumps_scenario(paper_example())
    assert old in text
    with pytest.raises(ValueError, match="finite"):
        loads_scenario(text.replace(old, new))


def test_a_bad_city_is_reported_before_bad_positions():
    # the constructor checks positions right after the city side, so this
    # file names its city
    text = dumps_scenario(paper_example())
    assert "city 1000.0" in text and "task 1 100.0 0.0 3.0" in text
    text = text.replace("city 1000.0", "city nan").replace("task 1 100.0", "task 1 nan")
    with pytest.raises(ValueError, match="^city side must be finite and positive$"):
        loads_scenario(text)


def test_scenario_with_tasks_out_of_order_rejected():
    # task values are read by position, so a reordered file would silently
    # change the auction: tbsap picked (0, 2) instead of (0, 1)
    lines = dumps_scenario(paper_example()).splitlines()
    tasks = [line for line in lines if line.startswith("task")]
    rest = [line for line in lines if not line.startswith("task")]
    text = "\n".join(rest[:3] + tasks[::-1] + rest[3:]) + "\n"
    with pytest.raises(ValueError, match="in order"):
        loads_scenario(text)


def test_scenario_second_budget_record_rejected():
    text = dumps_scenario(paper_example()) + "budget 1.0\n"
    with pytest.raises(ValueError, match="second budget"):
        loads_scenario(text)


def test_scenario_second_city_record_rejected():
    text = dumps_scenario(paper_example()).replace("budget", "city 10.0\nbudget")
    with pytest.raises(ValueError, match="second city"):
        loads_scenario(text)


def test_scenario_repeated_subset_task_rejected():
    text = dumps_scenario(paper_example())
    assert " 0,2,4\n" in text
    with pytest.raises(ValueError, match="repeated task id"):
        loads_scenario(text.replace(" 0,2,4\n", " 0,0,2,4\n"))


def test_left_sum_is_a_left_fold_on_every_python():
    """Python 3.12's builtin sum keeps the 1.0 that a left fold rounds away
    at 1e16; pinned totals must not depend on the interpreter."""
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([]) == 0.0 and type(left_sum([])) is float
    assert left_sum(iter([0.1, 0.2, 0.3])).hex() == ((0.1 + 0.2) + 0.3).hex()


def test_example_coverage_values():
    # A({v1}) = 2+4+5, A({v1,v2}) adds task t2's 3.
    instance = paper_example()
    assert coverage_value([0], instance) == 11.0
    assert coverage_value([0, 1], instance) == 14.0
    assert coverage_value([], instance) == 0.0
    assert coverage_value([0, 1, 2], instance) == 16.0


def test_coverage_matches_union_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        instance = random_synthetic_instance(rng)
        ids = [v.id for v in instance.vehicles if rng.random() < 0.5]
        assert coverage_value(ids, instance) == pytest.approx(
            union_coverage(ids, instance), abs=1e-12
        )


def test_coverage_monotone():
    rng = np.random.default_rng(1)
    for _ in range(50):
        instance = random_synthetic_instance(rng)
        ids = [v.id for v in instance.vehicles]
        rng.shuffle(ids)
        last = 0.0
        for k in range(len(ids) + 1):
            value = coverage_value(ids[:k], instance)
            assert value >= last - 1e-9
            last = value


def test_scenario_roundtrip_exact():
    instance = generate_scenario(
        ScenarioConfig(n_tasks=25, n_vehicles=120, budget=17.5, rng_seed=9)
    )
    text = dumps_scenario(instance)
    again = loads_scenario(text)
    assert again == instance
    assert dumps_scenario(again) == text


def test_scenario_roundtrip_example():
    instance = paper_example()
    assert loads_scenario(dumps_scenario(instance)) == instance


def test_scenario_parse_errors():
    with pytest.raises(ValueError):
        loads_scenario("not a scenario\n")
    with pytest.raises(ValueError):
        loads_scenario("scenario v1\nbudget 5.0\nwhat 1 2 3\n")
    with pytest.raises(ValueError):
        loads_scenario("scenario v1\ncity 10.0\n")  # no budget
    with pytest.raises(ValueError):
        loads_scenario("scenario v1\nbudget 5.0\ntask 0 1.0 2.0\n")  # short row
    with pytest.raises(ValueError, match="task record has 5 fields, expected 4"):
        loads_scenario("scenario v1\nbudget 5.0\ntask 0 1.0 2.0 3.0 junk\n")
    with pytest.raises(ValueError, match="budget record has 2 fields, expected 1"):
        loads_scenario("scenario v1\nbudget 5.0 6.0\n")


def test_with_bid_and_with_budget():
    instance = paper_example()
    changed = instance.with_bid(1, 2.5)
    assert changed.vehicle(1).bid == 2.5
    assert changed.vehicle(1).true_cost == 2.0
    assert instance.vehicle(1).bid == 2.0  # original untouched
    assert instance.with_budget(9.0).budget == 9.0
    assert instance.with_budget(0.0).budget == 0.0  # zero buys nothing but is legal
    with pytest.raises(ValueError):
        instance.with_budget(-1.0)
    for budget in (float("nan"), float("inf"), float("-inf")):
        # a scenario file could not hold the result: load_scenario rejects it
        with pytest.raises(ValueError, match="^budget must be finite and nonnegative$"):
            instance.with_budget(budget)


@pytest.mark.parametrize("bad", [True, 1.0, np.int64(1), 3, -1],
                         ids=["bool", "float", "numpy", "past the end", "negative"])
def test_a_vehicle_id_that_is_not_an_id_is_unknown(bad):
    # True and 1.0 equal vehicle 1's id; as_id refuses them, as validate_ids does
    instance = paper_example()
    with pytest.raises(KeyError, match="no vehicle with id"):
        instance.vehicle(bad)
    with pytest.raises(KeyError, match="no vehicle with id"):
        instance.with_bid(bad, 9.0)
    assert instance.with_bid(1, 9.0).vehicles[1].bid == 9.0
    with pytest.raises(KeyError):
        instance.with_bid(99, 1.0)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_generation_deterministic_property(seed):
    config = ScenarioConfig(n_tasks=8, n_vehicles=15, budget=5.0, rng_seed=seed)
    assert dumps_scenario(generate_scenario(config)) == dumps_scenario(
        generate_scenario(config)
    )


_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_nonneg = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
_positive = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def scenario_instances(draw):
    m = draw(st.integers(0, 5))
    tasks = tuple(
        Task(id=j, x=draw(_finite), y=draw(_finite), appraisement=draw(_positive))
        for j in range(m)
    )
    vehicles = tuple(
        Vehicle(
            id=i,
            x=draw(_finite),
            y=draw(_finite),
            detection_distance=draw(_nonneg),
            true_cost=draw(_nonneg),
            task_subset=frozenset(draw(st.sets(st.integers(0, m - 1))) if m else ()),
            bid=draw(_nonneg),
        )
        for i in range(draw(st.integers(0, 5)))
    )
    return AuctionInstance(
        tasks=tasks, vehicles=vehicles, budget=draw(_nonneg), city_side=draw(_positive)
    )


def _loads_or_value_error(text):
    """Parse ``text``; a ValueError is an accepted outcome, any other
    exception fails the test."""
    try:
        return loads_scenario(text)
    except ValueError:
        return None


@given(instance=scenario_instances())
def test_scenario_fuzz_roundtrip_exact(instance):
    text = dumps_scenario(instance)
    again = loads_scenario(text)
    assert again == instance
    assert dumps_scenario(again) == text


@given(instance=scenario_instances(), cut=st.integers(0, 10**6))
def test_scenario_fuzz_truncated(instance, cut):
    text = dumps_scenario(instance)
    _loads_or_value_error(text[: cut % (len(text) + 1)])


@given(instance=scenario_instances(), data=st.data())
def test_scenario_fuzz_reordered_records(instance, data):
    # records other than the header may come in any order that keeps ids
    # readable; whatever parses must be the very same instance
    header, *records = dumps_scenario(instance).splitlines()
    shuffled = data.draw(st.permutations(records))
    loaded = _loads_or_value_error("\n".join([header, *shuffled]) + "\n")
    assert loaded is None or loaded == instance


@given(
    instance=scenario_instances(),
    junk=st.lists(
        st.one_of(
            st.text(max_size=30),
            st.lists(
                st.one_of(
                    st.sampled_from(["city", "budget", "task", "vehicle", "-", ",",
                                     "nan", "inf", "-1", "0", "1e400", "0,0", "1,"]),
                    st.text(max_size=6),
                ),
                max_size=9,
            ).map(" ".join),
        ),
        min_size=1,
        max_size=3,
    ),
    data=st.data(),
)
def test_scenario_fuzz_junk_lines(instance, junk, data):
    lines = dumps_scenario(instance).splitlines()
    for line in junk:
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    _loads_or_value_error("\n".join(lines) + "\n")
