"""Core domain types and scenario generation.

A scenario lives on a square city map: sensing tasks with appraised values,
and vehicles that can each observe the tasks inside their detection circle.
Vehicles sell their observations to the traffic authority through a budgeted
reverse auction, so every vehicle carries a task subset, a true cost, and a
bid (equal to the cost unless a test deviates it).

Scalars at a public boundary follow one rule per kind, all defined here.
Ids are exactly ``int`` (``as_id``). Counts, sizes and seeds follow
``as_count``, and budgets, bounds, weights and fractions follow ``as_real``.
Each caller keeps its own error text, so the rule is shared and the message
names the field. Subset members are ids too: ``validate_instance`` checks
them all in one type pass. The per-record numbers it reads (bids, true
costs, appraisements) are reals, read in the same passes that check their
ranges, and stored as plain floats.

An ``AuctionInstance`` is checked once, when it is built: its constructor
is the one caller of ``validate_instance``. ``with_budget`` copies it and
checks only the new budget, and nothing that reads an instance (the
auctions, the oracle, ``coverage_value``) checks it again.
"""

from __future__ import annotations

import copy
import csv
import functools
import math
import operator
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Task",
    "Vehicle",
    "AuctionInstance",
    "AuctionOutcome",
    "ScenarioConfig",
    "generate_scenario",
    "coverage_value",
    "left_sum",
    "as_count",
    "as_real",
    "as_id",
    "validate_budget",
    "validate_count",
    "validate_ids",
    "validate_instance",
    "paper_example",
    "dumps_scenario",
    "loads_scenario",
    "save_scenario",
    "load_scenario",
    "write_rows",
]


@dataclass(frozen=True)
class Task:
    """A sensing task at a fixed map position with appraisement > 0."""

    id: int
    x: float
    y: float
    appraisement: float


@dataclass(frozen=True)
class Vehicle:
    """A seller: the tasks it can observe, what observing costs it, its bid.

    ``task_subset`` holds task ids. When built from geometry it equals
    { t : dist(vehicle, t) < detection_distance }, strict inequality.
    """

    id: int
    x: float
    y: float
    detection_distance: float
    true_cost: float
    task_subset: frozenset[int]
    bid: float


@dataclass(frozen=True)
class AuctionInstance:
    """Immutable auction input: tasks, vehicles, and the buyer's budget.

    Checked once, when built (``validate_instance``), and the budget, the
    city side and every bid, true cost and appraisement stored as the plain
    ``float`` of the real rule. Nothing that reads an instance checks it
    again."""

    tasks: tuple[Task, ...]
    vehicles: tuple[Vehicle, ...]
    budget: float
    city_side: float = 1000.0

    def __post_init__(self) -> None:
        validate_instance(self)
        object.__setattr__(self, "budget", float(self.budget))
        object.__setattr__(self, "city_side", float(self.city_side))

    def task_values(self) -> np.ndarray:
        return np.array([t.appraisement for t in self.tasks], dtype=float)

    def vehicle(self, vehicle_id: int) -> Vehicle:
        """The vehicle with this id, exactly an ``int`` (``as_id``): ids are
        dense, so it sits at that index."""
        if as_id(vehicle_id) is None or not 0 <= vehicle_id < len(self.vehicles):
            raise KeyError(f"no vehicle with id {vehicle_id!r}")
        return self.vehicles[vehicle_id]

    def with_budget(self, budget: float) -> "AuctionInstance":
        """A copy at another budget; zero is allowed and buys nothing. Only
        the budget is checked: the tasks and vehicles are the same, checked
        objects, so a budget sweep checks them once."""
        twin = copy.copy(self)
        object.__setattr__(twin, "budget", validate_budget(budget))
        return twin

    def with_bid(self, vehicle_id: int, bid: float) -> "AuctionInstance":
        """Copy of the instance with one vehicle's bid replaced."""
        changed = replace(self.vehicle(vehicle_id), bid=bid)
        vehicles = (*self.vehicles[:vehicle_id], changed, *self.vehicles[vehicle_id + 1:])
        return replace(self, vehicles=vehicles)


@dataclass(frozen=True)
class AuctionOutcome:
    """Result of running a mechanism: winner order, payments, profit.

    ``winners`` preserves selection order where the mechanism is sequential.
    ``profit`` is coverage value of the winner set minus total payments.
    """

    winners: tuple[int, ...]
    payments: dict[int, float]
    profit: float
    total_bid: float


#: Sampling intervals below follow the scenario model: appraisements and the
#: cost factor kappa are drawn from half-open (0, hi] so zero values cannot
#: occur; detection distances are uniform on [lo, hi).
@dataclass(frozen=True)
class ScenarioConfig:
    n_tasks: int
    n_vehicles: int
    budget: float
    rng_seed: int = 0
    city_side: float = 1000.0
    detection_range: tuple[float, float] = (10.0, 30.0)
    appraisement_max: float = 10.0
    kappa_max: float = 5.0

    def __post_init__(self) -> None:
        # Each field is stored as the plain value its rule returns, so a
        # scenario file writes numbers that load back.
        for name in ("n_tasks", "n_vehicles", "rng_seed"):
            value = getattr(self, name)
            if (count := as_count(value)) is None:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if count < 0:
                raise ValueError(f"{name} must be nonnegative")
            object.__setattr__(self, name, count)
        if not isinstance(self.detection_range, (tuple, list)) or len(self.detection_range) != 2:
            raise ValueError("detection_range must be a (lo, hi) pair")
        names = ("budget", "city_side", "appraisement_max", "kappa_max")
        reals = {name: as_real(getattr(self, name)) for name in names}
        reals["detection_range"] = lo, hi = tuple(map(as_real, self.detection_range))
        if None in (*reals.values(), lo, hi):
            raise ValueError("budget, city_side and sampling bounds must be finite")
        for name, value in reals.items():
            object.__setattr__(self, name, value)
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.city_side <= 0:
            raise ValueError("city_side must be positive")
        if not (0 < lo <= hi):
            raise ValueError("detection_range must satisfy 0 < lo <= hi")
        if self.appraisement_max <= 0 or self.kappa_max <= 0:
            raise ValueError("sampling upper bounds must be positive")


#: Placements per block of the distance mask. Holding one block of squared
#: distances at a time bounds the temporary arrays at _BLOCK x n_tasks floats.
_BLOCK = 64


def generate_scenario(config: ScenarioConfig) -> AuctionInstance:
    """Sample a scenario deterministically from the config seed.

    The draw order is a contract. Tasks take ``rng.random((n_tasks, 3))``
    (x, y, appraisement), then placements take ``rng.random((n_vehicles, 4))``
    (x, y, detection distance, kappa), row-major. That is the double stream
    the scalar ``rng.uniform`` calls consume, scaled by numpy's own formulas:
    ``lo + (hi - lo) * u`` on [lo, hi), and ``hi - hi * u`` on (0, hi]. So a
    placement never shifts another's randomness, and fewer placements from
    the same seed give a prefix of the vehicles.

    A task is sensed when ``dx*dx + dy*dy < d*d``, strictly. The squares are
    products, correctly rounded on every platform (``x**2`` would go through
    libm ``pow``). The mask is built ``_BLOCK`` placements at a time, never as
    one placements x tasks array. A placement that senses no task would cost 0 and have
    nothing to sell; it is dropped and the survivors are re-indexed densely.
    Every field is a Python ``int`` or ``float``, so ``repr`` writes plain
    numbers into scenario files.
    """
    rng = np.random.default_rng(config.rng_seed)
    side = config.city_side
    u = rng.random((config.n_tasks, 3))
    task_x = side * u[:, 0]
    task_y = side * u[:, 1]
    appraisement = config.appraisement_max - config.appraisement_max * u[:, 2]
    tasks = tuple(
        map(Task, range(config.n_tasks), task_x.tolist(), task_y.tolist(),
            appraisement.tolist())
    )

    lo, hi = config.detection_range
    placements = rng.random((config.n_vehicles, 4))
    vehicles = []
    for start in range(0, config.n_vehicles, _BLOCK):
        u = placements[start:start + _BLOCK]
        x = side * u[:, 0]
        y = side * u[:, 1]
        d = lo + (hi - lo) * u[:, 2]
        kappa = config.kappa_max - config.kappa_max * u[:, 3]
        dx = task_x - x[:, None]
        dy = task_y - y[:, None]
        within = dx * dx + dy * dy < (d * d)[:, None]
        fields = list(zip(x.tolist(), y.tolist(), d.tolist(), kappa.tolist()))
        for i in np.flatnonzero(within.any(axis=1)).tolist():
            vx, vy, vd, vkappa = fields[i]
            subset = frozenset(np.flatnonzero(within[i]).tolist())
            cost = vkappa * len(subset)
            vehicles.append(
                Vehicle(
                    id=len(vehicles),
                    x=vx,
                    y=vy,
                    detection_distance=vd,
                    true_cost=cost,
                    task_subset=subset,
                    bid=cost,
                )
            )

    return AuctionInstance(
        tasks=tasks,
        vehicles=tuple(vehicles),
        budget=config.budget,
        city_side=side,
    )


def left_sum(values: Iterable[float]) -> float:
    """``values`` added one at a time, left to right, from 0.0.

    Python 3.12's builtin ``sum`` compensates float rounding, so it can end
    one ulp away from the left fold that every pinned output was recorded
    with on 3.10 and 3.11. Pinned float totals go through this instead."""
    return functools.reduce(operator.add, values, 0.0)


def coverage_value(winners: Iterable[int], instance: AuctionInstance) -> float:
    """Total appraisement over the union of the winners' task subsets."""
    covered: set[int] = set()
    for vid in winners:
        covered.update(instance.vehicle(vid).task_subset)
    return left_sum(instance.tasks[t].appraisement for t in covered)


#: The largest count: numpy takes no larger size or seed.
_INT64_MAX = int(np.iinfo(np.int64).max)


def as_count(x) -> int | None:
    """The count rule, for sizes, counts and seeds: an ``int`` or a
    ``numpy.integer`` no larger than numpy's largest ``int64``, as a plain
    ``int``; None for anything else. A ``bool`` is refused, as ``True``
    would count as 1, and so is a float, even an integral one, which numpy
    would refuse later without a name. numpy takes no larger size or
    seed: it would raise a raw ``OverflowError``, or a seed would first
    name a file too long to write."""
    count = isinstance(x, (int, np.integer)) and not isinstance(x, bool)
    return int(x) if count and x <= _INT64_MAX else None


def as_real(x) -> float | None:
    """The real rule, for budgets, bounds, weights and fractions: a finite
    ``int``, ``float`` or numpy real, as a plain ``float``; None for
    anything else. A ``bool`` is refused, as it would pass as 0 or 1 and be
    written as ``True``, and a numpy scalar comes back plain, as ``repr``
    writes it ``np.float64(3.0)``, which no loader reads."""
    real = isinstance(x, (float, int, np.floating, np.integer)) and not isinstance(x, bool)
    try:
        return float(x) if real and math.isfinite(x) else None
    except OverflowError:  # an int beyond the float range
        return None


def as_id(x) -> int | None:
    """The id rule: ``x`` if it is exactly an ``int``, else None. A ``bool``
    or ``1.0`` would pass as an id and reach the output as it is, and
    ``numpy.int64`` is refused as every generator and loader makes plain
    ints. Each caller keeps its own message."""
    return x if type(x) is int else None


def validate_budget(budget: float) -> float:
    """A budget is a real (``as_real``) and nonnegative; zero buys nothing.
    Returns it as a plain ``float``."""
    if (value := as_real(budget)) is None or value < 0:
        raise ValueError("budget must be finite and nonnegative")
    return value


def validate_count(value, what: str) -> int:
    """A population size or a seed: a count (``as_count``) and nonnegative,
    as plain ``int``. numpy would refuse a negative seed without naming it.
    The error names ``what``."""
    if (count := as_count(value)) is None or count < 0:
        raise ValueError(f"{what} {value!r} is not a nonnegative integer")
    return count


def validate_ids(kind: str, records) -> list[int]:
    """The records' ids, each an id (``as_id``). All ids are checked in one
    type pass, which holds when their types are ``int`` alone; only when it
    fails is the first bad id looked up, to name its position."""
    ids = [r.id for r in records]
    if not set(map(type, ids)) <= {int}:
        i = next(i for i, x in enumerate(ids) if as_id(x) is None)
        raise ValueError(f"{kind} at position {i} has id {ids[i]!r}, not an int")
    return ids


def _city_side(side) -> float:
    """The city side rule, which ``validate_instance`` and the loader share:
    a real (``as_real``) and positive, returned as a plain ``float``."""
    if (value := as_real(side)) is None or value <= 0:
        raise ValueError("city side must be finite and positive")
    return value


def validate_instance(instance: AuctionInstance) -> None:
    """Structural checks, made once by ``AuctionInstance``'s constructor:
    tuples and frozensets (the auction caches by identity), dense int ids in
    order, valid subsets whose members are exactly ``int``, and a city side
    that is a positive real (``as_real``). Appraisements are positive reals,
    and bids and true costs nonnegative reals, each read by the real rule in
    its record's pass: a ``bool`` is refused, and a numpy or ``int`` value
    is written back into its record as the plain ``float`` the rule returns,
    so ``dumps_scenario`` writes a number that ``loads_scenario`` reads. The
    value is equal, so the record's hash and equality do not change. Task
    values are read by position, so task j must sit at index j. ``True`` or
    ``1.0`` would pass the range test as task 1, and reach the auction's
    set-up as it is, so one type pass over all members follows; only when it
    fails is the vehicle looked up, to name it."""
    if not (isinstance(instance.tasks, tuple) and isinstance(instance.vehicles, tuple)):
        raise ValueError("tasks and vehicles must be tuples")
    if validate_ids("task", instance.tasks) != list(range(len(instance.tasks))):
        raise ValueError("task ids must be dense 0..m-1, in order")
    task_ids = set(range(len(instance.tasks)))
    if validate_ids("vehicle", instance.vehicles) != list(range(len(instance.vehicles))):
        raise ValueError("vehicle ids must be dense 0..n-1")
    validate_budget(instance.budget)
    _city_side(instance.city_side)
    for t in instance.tasks:
        if (value := as_real(t.appraisement)) is None or value <= 0:
            raise ValueError(f"task {t.id} appraisement must be finite and positive")
        if type(t.appraisement) is not float:
            object.__setattr__(t, "appraisement", value)
    for v in instance.vehicles:
        if (bid := as_real(v.bid)) is None or (cost := as_real(v.true_cost)) is None:
            raise ValueError(f"vehicle {v.id} cost and bid must be finite")
        if bid < 0 or cost < 0:
            raise ValueError(f"vehicle {v.id} cost and bid must be nonnegative")
        if type(v.bid) is not float or type(v.true_cost) is not float:
            object.__setattr__(v, "bid", bid)
            object.__setattr__(v, "true_cost", cost)
        if not isinstance(v.task_subset, frozenset):
            raise ValueError(f"vehicle {v.id} task subset must be a frozenset")
        if not v.task_subset <= task_ids:
            raise ValueError(f"vehicle {v.id} references unknown tasks")
    # one type pass over every member; True and 1.0 are in range(m) as 1
    if not set(map(type, chain.from_iterable(v.task_subset for v in instance.vehicles))) <= {int}:
        v, t = next((v, t) for v in instance.vehicles for t in v.task_subset if as_id(t) is None)
        raise ValueError(f"vehicle {v.id} task subset has member {t!r}, not an int")


def paper_example() -> AuctionInstance:
    """The bundled three-vehicle, five-task example scenario.

    Task subsets and costs are fixed by hand (positions are placeholders and
    do not derive the subsets). Appraisements (2,3,4,2,5), budget 5, every
    cost and bid 2. Exposed on the CLI as scenario name ``paper-example``.
    """
    values = (2.0, 3.0, 4.0, 2.0, 5.0)
    tasks = tuple(
        Task(id=j, x=100.0 * j, y=0.0, appraisement=a) for j, a in enumerate(values)
    )
    subsets = (frozenset({0, 2, 4}), frozenset({0, 1, 4}), frozenset({2, 3, 4}))
    vehicles = tuple(
        Vehicle(
            id=i,
            x=100.0 * i,
            y=50.0,
            detection_distance=0.0,
            true_cost=2.0,
            task_subset=subset,
            bid=2.0,
        )
        for i, subset in enumerate(subsets)
    )
    return AuctionInstance(tasks=tasks, vehicles=vehicles, budget=5.0)


# Scenario files are line oriented: one record per line, fields separated by
# single spaces, floats written with repr so parsing round-trips exactly.
#   scenario v1
#   city <side>
#   budget <B>
#   task <id> <x> <y> <appraisement>
#   vehicle <id> <x> <y> <detection_distance> <true_cost> <bid> <t,t,...|->
_HEADER = "scenario v1"
_FIELDS = {"city": 2, "budget": 2, "task": 5, "vehicle": 8}  # including the kind


def dumps_scenario(instance: AuctionInstance) -> str:
    lines = [_HEADER]
    lines.append(f"city {instance.city_side!r}")
    lines.append(f"budget {instance.budget!r}")
    for t in instance.tasks:
        lines.append(f"task {t.id} {t.x!r} {t.y!r} {t.appraisement!r}")
    for v in instance.vehicles:
        subset = ",".join(str(t) for t in sorted(v.task_subset)) or "-"
        lines.append(
            f"vehicle {v.id} {v.x!r} {v.y!r} {v.detection_distance!r} "
            f"{v.true_cost!r} {v.bid!r} {subset}"
        )
    return "\n".join(lines) + "\n"


def loads_scenario(text: str) -> AuctionInstance:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != _HEADER:
        raise ValueError(f"expected header {_HEADER!r}")
    singles: dict[str, float] = {}  # city and budget, each at most once
    tasks: list[Task] = []
    vehicles: list[Vehicle] = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        kind = parts[0]
        try:
            if kind not in _FIELDS:
                raise ValueError(f"unknown record {kind!r}")
            if len(parts) != _FIELDS[kind]:
                raise ValueError(
                    f"{kind} record has {len(parts) - 1} fields, expected {_FIELDS[kind] - 1}"
                )
            if kind in ("city", "budget"):
                if kind in singles:
                    raise ValueError(f"second {kind} record")
                singles[kind] = float(parts[1])
            elif kind == "task":
                tasks.append(
                    Task(
                        id=int(parts[1]),
                        x=float(parts[2]),
                        y=float(parts[3]),
                        appraisement=float(parts[4]),
                    )
                )
            else:
                ids = [] if parts[7] == "-" else [int(s) for s in parts[7].split(",")]
                subset = frozenset(ids)
                if len(subset) != len(ids):
                    raise ValueError(f"repeated task id in subset {parts[7]!r}")
                vehicles.append(
                    Vehicle(
                        id=int(parts[1]),
                        x=float(parts[2]),
                        y=float(parts[3]),
                        detection_distance=float(parts[4]),
                        true_cost=float(parts[5]),
                        bid=float(parts[6]),
                        task_subset=subset,
                    )
                )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if "budget" not in singles:
        raise ValueError("missing budget record")
    city_side = _city_side(singles.get("city", 1000.0))  # reported before positions
    places = [c for record in (*tasks, *vehicles) for c in (record.x, record.y)]
    places += [v.detection_distance for v in vehicles]
    if not all(map(math.isfinite, places)):
        raise ValueError("positions and detection distances must be finite")
    return AuctionInstance(
        tasks=tuple(tasks),
        vehicles=tuple(vehicles),
        budget=singles["budget"],
        city_side=city_side,
    )


def save_scenario(instance: AuctionInstance, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_scenario(instance))


def load_scenario(path) -> AuctionInstance:
    with open(path, "r", encoding="ascii") as fh:
        return loads_scenario(fh.read())


def write_rows(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` then ``rows`` as CSV: floats by ``repr``, the rest by
    ``str``. Every CSV the package writes goes through here."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
