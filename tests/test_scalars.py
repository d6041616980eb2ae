"""One hostile-value sweep over every public scalar boundary.

Counts, sizes and seeds follow ``model.as_count``; budgets, bounds, weights,
fractions, positions, detection distances, bids, true costs and
appraisements follow ``model.as_real``;
subset members are ids, exactly ``int``, each equal to a task id unless it
is NaN or infinite, so only the type refuses most of them. Each entry point
below is fed a ``bool``, an integral float, a numpy int, a numpy float, NaN, +-inf and
-0.0 in one field at a time. A value its rule refuses must raise a
``ValueError`` that names the field; any other must give exactly what the
same call gives on the plain Python value (``numpy`` scalars unwrapped),
error or result, compared as bytes or ``repr``. A real beyond the float
range and a count beyond numpy's ``int64`` (10**400, 2**63) are refused by
name in every field of their kind, with nothing written. Every auction
instance the sweep builds must write a scenario file that loads back to an
equal instance, which writes the same file again.
"""

import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from trafficmarket.consensus import ReputationParams, run_epochs, sample_population
from trafficmarket.crypto import HashStubScheme
from trafficmarket.experiments import run_experiment
from trafficmarket.model import (
    AuctionInstance,
    ScenarioConfig,
    as_count,
    as_real,
    dumps_scenario,
    generate_scenario,
    loads_scenario,
    paper_example,
    validate_budget,
)
from trafficmarket.trading import build_world, run_trading_round

HOSTILE = {
    "bool": lambda base: True,
    "integral float": lambda base: float(math.floor(base)),
    "numpy int": lambda base: np.int64(math.floor(base)),
    "numpy float": lambda base: np.float64(base),
    "nan": lambda base: math.nan,
    "inf": lambda base: math.inf,
    "-inf": lambda base: -math.inf,
    "-0.0": lambda base: -0.0,
}


@dataclass(frozen=True)
class Field:
    name: str  # the test id
    kind: str  # "count", "real" or "id"
    base: float  # a plain value the field takes
    call: Callable  # value -> something comparable by ==
    names: str  # regex the refusal must match


def refused(kind: str, value) -> bool:
    """What the field's rule must refuse, whatever the range checks say."""
    if kind == "id":
        return type(value) is not int
    if isinstance(value, (bool, np.bool_)):
        return True
    if kind == "count":
        return not isinstance(value, (int, np.integer))
    return not math.isfinite(value)


def plain(value):
    return value.item() if isinstance(value, np.generic) else value


def outcome(call, value):
    try:
        return "ok", call(value)
    except ValueError as exc:
        return "error", str(exc)


EXAMPLE = paper_example()
PLACES = "^positions and detection distances must be finite$"


def round_trip(instance):
    """The instance's scenario text, which must load back to an equal
    instance that writes the same text."""
    text = dumps_scenario(instance)
    loaded = loads_scenario(text)
    assert loaded == instance and dumps_scenario(loaded) == text
    return text


def with_vehicle(**changes):
    """The example with vehicle 1's fields changed, rebuilt."""
    vehicles = list(EXAMPLE.vehicles)
    vehicles[1] = replace(vehicles[1], **changes)
    return round_trip(replace(EXAMPLE, vehicles=tuple(vehicles)))


def with_member(value):
    """The example with ``value`` first in vehicle 1's subset in place of
    task 1, so that -0.0 is not dropped as a duplicate of task 0."""
    return with_vehicle(task_subset=frozenset({value, 0, 4}))


def with_task(**changes):
    """The example with task 1's fields changed, rebuilt."""
    tasks = list(EXAMPLE.tasks)
    tasks[1] = replace(tasks[1], **changes)
    return round_trip(replace(EXAMPLE, tasks=tuple(tasks)))


def config_bytes(**fields):
    config = ScenarioConfig(**{**dict(n_tasks=4, n_vehicles=6, budget=5.5,
                                      city_side=50.0), **fields})
    return repr(config), round_trip(generate_scenario(config))


def nodes():
    return sample_population(12, 0.25, np.random.default_rng(0))


def epochs(**sizes):
    args = {"committee_size": 5, "active_size": 2, "n_epochs": 2, "seed": 3, **sizes}
    history = run_epochs(nodes(), ReputationParams(), **args)
    return repr((history.rows, history.chain, history.committees))


def trade(seed):
    world = build_world(paper_example(), HashStubScheme(), seed=seed)
    return repr(world.seed), run_trading_round(world, paper_example()).block.hash


def funded_trade(balance):
    """The example's round with the authority funded by ``balance``: its
    quoted total is 5, so a balance below 5 settles no block."""
    world = build_world(paper_example(), HashStubScheme(), seed=7, authority_balance=balance)
    block = run_trading_round(world, paper_example()).block
    return repr(world.authority.account.balance), block and block.hash


def study(tmp_path, name, seeds, **params):
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    paths = run_experiment(name, seeds, out, params)
    return [(str(p.relative_to(out)), p.read_text()) for p in paths]


SMALL_RNW = dict(population=20, committee_size=10, active_size=3, grid=(0.25,))
SMALL_PROFIT = dict(budgets=(7.5,), vehicle_counts=(8,), n_tasks=6)
SMALL_SCATTER = dict(budget=7.5, vehicle_counts=(8,), n_tasks=6)


def fields(tmp_path: Path) -> dict[str, Field]:
    def rnw(key, value):
        return study(tmp_path, "rnw-vs-rafn", [0], **{**SMALL_RNW, key: value})

    def profit(key, value):
        return study(tmp_path, "profit-vs-budget", [0], **{**SMALL_PROFIT, key: value})

    listed = [
        Field("config n_tasks", "count", 4, lambda v: config_bytes(n_tasks=v), "n_tasks"),
        Field("config n_vehicles", "count", 6, lambda v: config_bytes(n_vehicles=v),
              "n_vehicles"),
        Field("config rng_seed", "count", 2, lambda v: config_bytes(rng_seed=v), "rng_seed"),
        Field("config budget", "real", 5.5, lambda v: config_bytes(budget=v), "budget"),
        Field("config city_side", "real", 50.0, lambda v: config_bytes(city_side=v),
              "city_side"),
        Field("config detection lo", "real", 10.5,
              lambda v: config_bytes(detection_range=(v, 30.0)), "detection_range|sampling"),
        Field("config detection hi", "real", 30.5,
              lambda v: config_bytes(detection_range=(10.0, v)), "detection_range|sampling"),
        Field("config appraisement_max", "real", 7.5,
              lambda v: config_bytes(appraisement_max=v), "sampling"),
        Field("config kappa_max", "real", 2.5, lambda v: config_bytes(kappa_max=v), "sampling"),
        Field("with_budget", "real", 4.5,
              lambda v: round_trip(paper_example().with_budget(v)), "budget"),
        Field("validate_budget", "real", 4.5, lambda v: repr(validate_budget(v)), "budget"),
        Field("AuctionInstance budget", "real", 4.5,
              lambda v: round_trip(AuctionInstance(EXAMPLE.tasks, EXAMPLE.vehicles, v)),
              "budget"),
        Field("replace budget", "real", 4.5,
              lambda v: round_trip(replace(EXAMPLE, budget=v)), "budget"),
        Field("AuctionInstance city_side", "real", 50.0,
              lambda v: round_trip(AuctionInstance(EXAMPLE.tasks, EXAMPLE.vehicles, 4.5,
                                                   city_side=v)), "city side"),
        Field("replace city_side", "real", 50.0,
              lambda v: round_trip(replace(EXAMPLE, city_side=v)), "city side"),
        Field("vehicle subset member", "id", 1, with_member, "^vehicle 1 "),
        Field("with_bid", "real", 2.5, lambda v: round_trip(EXAMPLE.with_bid(1, v)),
              "^vehicle 1 cost and bid"),
        Field("replace bid", "real", 2.5, lambda v: with_vehicle(bid=v),
              "^vehicle 1 cost and bid"),
        Field("replace true_cost", "real", 2.5, lambda v: with_vehicle(true_cost=v),
              "^vehicle 1 cost and bid"),
        Field("replace appraisement", "real", 3.5, lambda v: with_task(appraisement=v),
              "^task 1 appraisement"),
        *(Field(f"replace {kind} {name}", "real", base,
                lambda v, change=change, name=name: change(**{name: v}), PLACES)
          for kind, change, name, base in (
              ("task", with_task, "x", 100.5), ("task", with_task, "y", 0.5),
              ("vehicle", with_vehicle, "x", 100.5), ("vehicle", with_vehicle, "y", 50.5),
              ("vehicle", with_vehicle, "detection_distance", 0.5))),
        *(Field(f"params {name}", "real", base,
                lambda v, name=name: repr(ReputationParams(**{name: v})), name)
          for name, base in (("w_vote", 0.005), ("w_lead", 0.05), ("w_verify", 0.01),
                             ("theta", 0.5))),
        Field("population size", "count", 5,
              lambda v: repr(sample_population(v, 0.4, np.random.default_rng(1))),
              "population size"),
        Field("hostile fraction", "real", 0.4,
              lambda v: repr(sample_population(5, v, np.random.default_rng(1))),
              "hostile fraction"),
        *(Field(f"run_epochs {name}", "count", base,
                lambda v, name=name: epochs(**{name: v}), name)
          for name, base in (("committee_size", 5), ("active_size", 2), ("n_epochs", 2),
                             ("seed", 3))),
        Field("build_world seed", "count", 1, trade, "seed"),
        Field("build_world authority_balance", "real", 5.5, funded_trade, "authority_balance"),
        Field("run_experiment seeds", "count", 1,
              lambda v: study(tmp_path, "rnw-vs-rafn", [v], **SMALL_RNW), "seed"),
        Field("rnw population", "count", 20, lambda v: rnw("population", v), "population size"),
        Field("rnw committee_size", "count", 10, lambda v: rnw("committee_size", v),
              "committee_size"),
        Field("rnw active_size", "count", 3, lambda v: rnw("active_size", v), "active_size"),
        Field("rnw grid", "real", 0.25, lambda v: rnw("grid", (v,)), "hostile fraction"),
        Field("profit budgets", "real", 7.5, lambda v: profit("budgets", (v,)), "budget"),
        Field("profit vehicle_counts", "count", 8, lambda v: profit("vehicle_counts", (v,)),
              "n_vehicles"),
        Field("profit n_tasks", "count", 6, lambda v: profit("n_tasks", v), "n_tasks"),
        Field("bid-payment budget", "real", 7.5,
              lambda v: study(tmp_path, "bid-payment", [0], **{**SMALL_SCATTER, "budget": v}),
              "budget"),
    ]
    return {f.name: f for f in listed}


FIELD_NAMES = list(fields(Path(".")))


@pytest.mark.parametrize("hostile", list(HOSTILE))
@pytest.mark.parametrize("name", FIELD_NAMES)
def test_a_hostile_scalar_is_refused_by_name_or_runs_as_its_plain_value(
    name, hostile, tmp_path
):
    field = fields(tmp_path)[name]
    value = HOSTILE[hostile](field.base)
    if refused(field.kind, value):
        with pytest.raises(ValueError, match=field.names):
            field.call(value)
        assert not any(tmp_path.iterdir())  # nothing written
    else:
        assert outcome(field.call, value) == outcome(field.call, plain(value))


REAL_FIELDS = [name for name, field in fields(Path(".")).items() if field.kind == "real"]


@pytest.mark.parametrize("value", [10**400, -10**400], ids=["1e400", "-1e400"])
@pytest.mark.parametrize("name", REAL_FIELDS)
def test_an_int_beyond_the_float_range_is_refused_by_name(name, value, tmp_path):
    # float() overflows on it, so it is no real
    field = fields(tmp_path)[name]
    with pytest.raises(ValueError, match=field.names):
        field.call(value)
    assert not any(tmp_path.iterdir())


COUNT_FIELDS = [name for name, field in fields(Path(".")).items() if field.kind == "count"]


@pytest.mark.parametrize("value", [10**400, 2**63], ids=["1e400", "2**63"])
@pytest.mark.parametrize("name", COUNT_FIELDS)
def test_a_count_beyond_int64_is_refused_by_name(name, value, tmp_path):
    # numpy takes no such size or seed: it raised a raw OverflowError, or a
    # seed named a file too long to write, and 10**400 epochs never end
    field = fields(tmp_path)[name]
    with pytest.raises(ValueError, match=field.names):
        field.call(value)
    assert not any(tmp_path.iterdir())


def test_a_built_instance_stores_a_plain_city_side():
    instance = AuctionInstance(EXAMPLE.tasks, EXAMPLE.vehicles, 5.0, city_side=np.float64(3))
    assert instance.city_side == 3.0 and type(instance.city_side) is float
    assert loads_scenario(dumps_scenario(instance)) == instance
    assert "\ncity 3.0\n" in dumps_scenario(instance)


def test_a_built_instance_stores_a_plain_budget():
    instance = AuctionInstance(EXAMPLE.tasks, EXAMPLE.vehicles, np.float64(5))
    assert instance.budget == 5.0 and type(instance.budget) is float
    assert loads_scenario(dumps_scenario(instance)) == instance
    assert "\nbudget 5.0\n" in dumps_scenario(instance)


@pytest.mark.parametrize("value", [np.float64(2.5), np.int64(2), np.float32(0.1), 2],
                         ids=["numpy float64", "numpy int64", "numpy float32", "int"])
def test_a_built_instance_stores_plain_record_reals(value):
    """Bids, true costs and appraisements are stored as the plain floats of
    the real rule, equal to what was given, so the file writes numbers."""
    tasks = list(EXAMPLE.tasks)
    tasks[1] = replace(tasks[1], appraisement=value)
    vehicles = list(EXAMPLE.vehicles)
    vehicles[1] = replace(vehicles[1], bid=value, true_cost=value)
    instance = AuctionInstance(tuple(tasks), tuple(vehicles), 5.0)
    read = (instance.tasks[1].appraisement, instance.vehicles[1].bid,
            instance.vehicles[1].true_cost)
    assert read == (value,) * 3 and {type(x) for x in read} == {float}
    line = f"\nvehicle 1 100.0 50.0 0.0 {float(value)!r} {float(value)!r} 0,1,4\n"
    assert line in round_trip(instance)
    with pytest.raises(ValueError, match="^vehicle 1 cost and bid must be finite"):
        EXAMPLE.with_bid(1, True)


def test_numpy_and_nan_positions_are_refused_or_written_plain():
    """A built instance held numpy positions and NaN as given, and wrote a
    file (``vehicle 0 np.float64(1.5) nan np.float32(2.0) ...``) that no
    loader reads; NaN is now refused when built, and numpy values stored
    as the plain floats they equal."""
    vehicles = list(EXAMPLE.vehicles)
    vehicles[0] = replace(vehicles[0], x=np.float64(1.5), y=math.nan,
                          detection_distance=np.float32(2.0))
    with pytest.raises(ValueError, match=PLACES):
        AuctionInstance(EXAMPLE.tasks, tuple(vehicles), 5.0)
    vehicles[0] = replace(vehicles[0], y=np.float64(2.5))
    instance = AuctionInstance(EXAMPLE.tasks, tuple(vehicles), 5.0)
    v = instance.vehicles[0]
    assert {type(x) for x in (v.x, v.y, v.detection_distance)} == {float}
    assert "\nvehicle 0 1.5 2.5 2.0 2.0 2.0 0,2,4\n" in round_trip(instance)


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_every_field_takes_its_plain_base(name, tmp_path):
    # the sweep compares against these calls, so they must run
    field = fields(tmp_path)[name]
    field.call(field.base)


def test_the_rules_return_plain_scalars():
    assert [as_count(x) for x in (3, np.int64(3), np.uint8(3))] == [3, 3, 3]
    assert {type(as_count(x)) for x in (3, np.int64(3), np.uint8(3))} == {int}
    assert as_count(2**63 - 1) == as_count(np.uint64(2**63 - 1)) == 2**63 - 1
    for x in (True, False, np.True_, 3.0, np.float64(3.0), "3", None, 2**63, np.uint64(2**63)):
        assert as_count(x) is None
    reals = (2, 2.5, np.int32(2), np.float32(2.5), np.float64(-0.0))
    assert [as_real(x) for x in reals] == [2.0, 2.5, 2.0, 2.5, -0.0]
    assert {type(as_real(x)) for x in reals} == {float}
    assert math.copysign(1.0, as_real(np.float64(-0.0))) == -1.0
    for x in (True, np.True_, math.nan, math.inf, -math.inf, np.float64("nan"), "2", None):
        assert as_real(x) is None


def test_a_numpy_typed_config_writes_a_file_that_loads_back():
    config = ScenarioConfig(
        n_tasks=np.int64(30), n_vehicles=np.uint16(60), budget=np.float64(20.0),
        rng_seed=np.int32(3), city_side=np.float32(150.0),
        detection_range=[np.int64(10), np.float64(30.0)],
        appraisement_max=np.int8(10), kappa_max=np.float16(5.0),
    )
    text = dumps_scenario(generate_scenario(config))
    assert text.splitlines()[1:3] == ["city 150.0", "budget 20.0"]
    assert dumps_scenario(loads_scenario(text)) == text
    assert text == dumps_scenario(generate_scenario(ScenarioConfig(
        n_tasks=30, n_vehicles=60, budget=20.0, rng_seed=3, city_side=150.0,
    )))


def test_an_int_budget_is_written_as_a_float():
    # API callers only; every CLI flag parses budgets with float
    config = ScenarioConfig(n_tasks=3, n_vehicles=3, budget=5)
    assert config.budget == 5.0 and type(config.budget) is float
    assert "\nbudget 5.0\n" in dumps_scenario(generate_scenario(config))


@pytest.mark.parametrize("bad", [2.5, "ab", None, {1.0: 2.0}])
def test_a_detection_range_that_is_not_a_pair_is_refused_by_name(bad):
    with pytest.raises(ValueError, match="detection_range|sampling"):
        ScenarioConfig(n_tasks=3, n_vehicles=3, budget=1.0, detection_range=bad)


@pytest.mark.parametrize("bad", [True, 1.5, -1, "0"])
def test_run_experiment_checks_every_seed_before_it_writes(bad, tmp_path):
    message = f"^seed {re.escape(repr(bad))} is not a nonnegative integer$"
    with pytest.raises(ValueError, match=message):
        run_experiment("trajectory", [0, bad], tmp_path)
    assert not any(tmp_path.iterdir())


def test_numpy_seeds_name_plain_files(tmp_path):
    paths = run_experiment("trajectory", [np.int64(0), np.uint8(1)], tmp_path / "np")
    plain_paths = run_experiment("trajectory", [0, 1], tmp_path / "plain")
    assert [p.name for p in paths] == ["0.csv", "1.csv"]
    assert [p.read_bytes() for p in paths] == [p.read_bytes() for p in plain_paths]


@pytest.mark.parametrize("bad", [-5, -0.5, Fraction(-1, 2), "1e3", "5", b"5", [5], 1j],
                         ids=["-5", "-0.5", "Fraction(-1, 2)", "'1e3'", "'5'", "b'5'", "[5]", "1j"])
def test_a_negative_or_non_real_authority_balance_is_refused_by_name(bad):
    with pytest.raises(ValueError, match="^authority_balance .* is not a nonnegative real$"):
        build_world(paper_example(), HashStubScheme(), authority_balance=bad)


@pytest.mark.parametrize("balance, funded", [
    (Fraction(1, 3), Fraction(1, 3)), (Fraction(0), Fraction(0)), (2, Fraction(2)),
    (0.1, Fraction(0.1)), (np.float32(0.1), Fraction(float(np.float32(0.1)))), (None, Fraction(5)),
], ids=["Fraction(1, 3)", "Fraction(0)", "2", "0.1", "numpy float32", "the budget"])
def test_a_fraction_is_kept_and_a_real_is_taken_as_its_plain_float(balance, funded):
    world = build_world(paper_example(), HashStubScheme(), authority_balance=balance)
    assert world.authority.account.balance == funded
    assert type(world.authority.account.balance) is Fraction
