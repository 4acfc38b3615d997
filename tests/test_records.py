"""Result records are immutable NamedTuples with dataclass-style equality and repr.

Each record is taken from a real run on a small instance, so a record
type that a solver stops returning shows up here as a missing name.
"""

import pytest

from sensched import domination, game, greedy, oracle, randnet, schedule

RECORDS = {
    "Labeling", "ScheduleReport", "GreedyPick", "GreedyResult", "BlllResult",
    "OracleResult", "_SearchResult", "RandomScheduleStats", "DomaticPartition",
    "KSigmaConfig", "ConfigCheck", "ConfigSearchResult",
}


@pytest.fixture
def records(path4_instance, petersen):
    inst = path4_instance
    g_result = greedy.greedy_schedule(inst)
    dp = domination.greedy_domatic_partition(petersen)
    cfg = domination.disjoint_config(petersen, 1)
    return [
        g_result,
        g_result.trace[0],
        g_result.labeling,
        schedule.score(inst, g_result.labeling),
        game.blll_schedule(inst, game.BlllParams(iterations=50, seed=1)),
        oracle.exact_optimal_schedule(inst),
        oracle._branch_and_bound(inst, 0, 1),
        randnet.simulate_random_schedule(inst, trials=5, seed=1),
        dp,
        cfg,
        domination.verify_config(petersen, cfg),
        domination.search_config(petersen, 3, 1),
    ]


def test_every_record_type_is_covered(records):
    assert {type(r).__name__ for r in records} == RECORDS


def test_records_reject_attribute_assignment(records):
    for rec in records:
        for name in (rec._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)


def test_records_equal_a_copy_rebuilt_from_their_fields(records):
    for rec in records:
        copy = type(rec)(**{f: getattr(rec, f) for f in rec._fields})
        assert copy == rec and hash(copy) == hash(rec)


def test_records_repr_names_every_field(records):
    # the form a frozen dataclass printed
    for rec in records:
        fields = ", ".join(f"{f}={getattr(rec, f)!r}" for f in rec._fields)
        assert repr(rec) == f"{type(rec).__name__}({fields})"
