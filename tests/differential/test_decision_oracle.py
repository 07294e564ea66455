"""Differential tests: one Algorithm 1 decision pass vs its frozen per-index form.

A decision scores Eq. 3-5 for every potential index in one
``GainModel.evaluate_many`` loop, reads "is it built / how much" from
totals each ``Index`` keeps current, and cuts the ranked indexes into
build candidates from a per-index table memoised on the build version.
All three are exact rewrites, so at every decision of a random episode
they must equal the frozen forms below and :class:`OracleGainModel` —
the same records by ``==`` and ``repr`` (signed zeros too), the same
cache hits, misses and invalidations, the same aggregates and the same
candidates — while the episode builds, invalidates, checkpoints and
drops partitions, and forgets memoised cost terms.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.cloud.pricing import PAPER_PRICING
from repro.data.catalog import Catalog
from repro.data.index_model import Index, IndexCostModel, IndexSpec
from repro.data.table import (
    Column,
    ColumnType,
    Partition,
    Table,
    TableSchema,
    TableStatistics,
)
from repro.interleave.slots import BuildCandidate
from repro.scheduling.skyline import SkylineScheduler
from repro.tuning.gain import GainModel, GainParameters, IndexGain
from repro.tuning.history import DataflowHistory
from repro.tuning.ranking import rank_indexes
from repro.tuning.tuner import OnlineIndexTuner

from tests.differential.oracle import OracleGainModel

#: Partition record counts per table: uneven, so that a float running
#: sum of shares differs from the integer quotient, and one empty table.
TABLES = {
    "a": (1000, 2500, 7, 40_000, 333),
    "b": (123_456, 1, 99, 5000, 31, 77_777, 4242),
    "c": (60_000,),
    "e": (0,),
}
COLUMNS = (("k",), ("v",), ("k", "v"))


def small_catalog() -> Catalog:
    catalog = Catalog(pricing=PAPER_PRICING)
    stats = TableStatistics(avg_field_bytes={"k": 8.0, "v": 92.0})
    for name, counts in TABLES.items():
        schema = TableSchema(
            name, (Column("k", ColumnType.INTEGER), Column("v", ColumnType.TEXT))
        )
        partitions = [
            Partition(pid, n, f"{name}/part-{pid:05d}") for pid, n in enumerate(counts)
        ]
        catalog.add_table(Table(schema=schema, partitions=partitions, statistics=stats))
        for columns in COLUMNS:
            catalog.add_potential_index(IndexSpec(name, columns))
    return catalog


# ----------------------------------------------------------------------
# The frozen forms the decision pass replaced
# ----------------------------------------------------------------------
def scanned_any_built(index: Index) -> bool:
    return any(st.built for st in index.partitions.values())


def scanned_fully_built(index: Index) -> bool:
    return all(st.built for st in index.partitions.values())


def scanned_built_fraction(index: Index) -> float:
    total = index.table.num_records
    if total == 0:
        return 1.0 if scanned_fully_built(index) else 0.0
    covered = sum(
        index.table.partition(pid).num_records
        for pid, st in index.partitions.items()
        if st.built
    )
    return covered / total


def scanned_aggregates(index: Index) -> tuple[bool, bool, float, int]:
    """(any_built, fully_built, built_fraction, built partitions) from a
    scan of the partition states."""
    return (
        scanned_any_built(index),
        scanned_fully_built(index),
        scanned_built_fraction(index),
        len(index.built_partition_ids()),
    )


def maintained_aggregates(index: Index) -> tuple[bool, bool, float, int]:
    return (
        index.any_built,
        index.fully_built,
        index.built_fraction(),
        index.built_partition_count,
    )


def oracle_build_candidates(
    catalog: Catalog,
    cost_model: IndexCostModel,
    ranked: list[IndexGain],
    max_candidates: int,
) -> list[BuildCandidate]:
    """``OnlineIndexTuner.build_candidates`` re-deriving every ranked
    index's unbuilt partitions, shares and durations at each call."""
    candidates: list[BuildCandidate] = []
    for gain in ranked:
        index = catalog.index(gain.index_name)
        table, spec = index.table, index.spec
        total_records = max(1, table.num_records)
        per_index: list[BuildCandidate] = []
        for pid in sorted(index.unbuilt_partition_ids()):
            partition = table.partition(pid)
            model = cost_model.partition_model(table, spec, partition)
            share = partition.num_records / total_records
            remaining_s = model.total_build_seconds - index.checkpoint_seconds(pid)
            per_index.append(
                BuildCandidate(
                    index_name=index.name,
                    partition_id=pid,
                    duration_s=max(remaining_s, 1e-6),
                    gain=max(gain.combined_dollars * share, 0.0),
                )
            )
        per_index.sort(key=lambda c: (-c.gain, c.partition_id))
        take = max_candidates - len(candidates)
        candidates.extend(per_index[:take])
        if len(candidates) >= max_candidates:
            break
    return candidates


def _stats(model: GainModel | OracleGainModel) -> tuple[int, int, int]:
    stats = model.cost_stats
    return stats.hits, stats.misses, stats.invalidations


def _assert_aggregates(catalog: Catalog) -> None:
    for name, index in catalog.indexes.items():
        expected = scanned_aggregates(index)
        assert maintained_aggregates(index) == expected, name
        assert repr(maintained_aggregates(index)) == repr(expected), name
        # An Index given a partitions dict derives the totals from it.
        copied = Index(
            spec=index.spec,
            table=index.table,
            partitions={pid: replace(st) for pid, st in index.partitions.items()},
        )
        assert maintained_aggregates(copied) == expected, name
    built = [index for index in catalog.indexes.values() if scanned_any_built(index)]
    assert catalog.built_indexes() == built


# ----------------------------------------------------------------------
# Random decision sequences
# ----------------------------------------------------------------------
NUM_INDEXES = len(TABLES) * len(COLUMNS)
_which = st.integers(min_value=0, max_value=NUM_INDEXES - 1)
_pid = st.integers(min_value=0, max_value=max(len(c) for c in TABLES.values()) - 1)
_pids = st.integers(min_value=1, max_value=2 ** max(len(c) for c in TABLES.values()) - 1)
_sums = st.lists(
    st.floats(min_value=-2.0, max_value=40.0, allow_nan=False),
    min_size=NUM_INDEXES,
    max_size=NUM_INDEXES,
)
_events = st.lists(
    st.one_of(
        # Builds land several partitions of one index at a time, so that
        # partly built indexes cover many different partition subsets.
        st.tuples(st.just("build"), _which, _pids),
        st.tuples(st.just("invalidate"), _which, _pid),
        st.tuples(st.just("checkpoint"), _which, _pid,
                  st.floats(min_value=0.0, max_value=50.0)),
        st.tuples(st.just("drop"), _which),
        st.tuples(st.just("forget"), _which),
        # (time sums, money sums, mask of the indexes asked for)
        st.tuples(st.just("decide"), _sums, _sums,
                  st.integers(min_value=1, max_value=2 ** NUM_INDEXES - 1)),
        st.tuples(st.just("single"), _which, _sums),
    ),
    min_size=1,
    max_size=40,
)


@given(
    events=_events,
    alpha=st.sampled_from([0.0, 0.5, 0.9]),
    storage_window=st.sampled_from([0.0, 5.0, 400.0]),
    max_candidates=st.sampled_from([1, 4, 50]),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_decision_pass_matches_frozen_per_index_path(
    events, alpha, storage_window, max_candidates
):
    """Every decision equals the frozen path field for field, with equal
    cache counts, and every mutation leaves the maintained aggregates
    equal to a scan of the partition states."""
    catalog = small_catalog()
    names = sorted(catalog.indexes)
    params = GainParameters(alpha=alpha, storage_window_quanta=storage_window)
    cost_model = IndexCostModel(PAPER_PRICING)
    model = GainModel(PAPER_PRICING, cost_model, params)
    frozen = OracleGainModel(PAPER_PRICING, cost_model, params)
    tuner = OnlineIndexTuner(
        catalog, model, DataflowHistory(PAPER_PRICING), SkylineScheduler(PAPER_PRICING),
        interleaver="online", max_candidates=max_candidates,
    )
    clock = 0.0
    for event in events:
        kind = event[0]
        if kind == "build":
            index = catalog.index(names[event[1]])
            for pid in sorted(index.partitions):
                if event[2] >> pid & 1:
                    clock += 60.0
                    index.mark_built(pid, clock)
                    _assert_aggregates(catalog)
        elif kind in ("invalidate", "checkpoint"):
            index = catalog.index(names[event[1]])
            pid = event[2] % len(index.partitions)
            if kind == "invalidate":
                index.invalidate_partition(pid)
            else:
                index.record_checkpoint(pid, event[3])
            _assert_aggregates(catalog)
        elif kind == "drop":
            catalog.index(names[event[1]]).drop_all()
            _assert_aggregates(catalog)
        elif kind == "forget":
            model.invalidate_index(names[event[1]])
            frozen.invalidate_index(names[event[1]])
            assert _stats(model) == _stats(frozen)
        elif kind == "single":
            _, which, sums = event
            index = catalog.index(names[which])
            actual = model.evaluate_from_sums(index, sums[0], sums[1], which)
            expected = frozen.evaluate_from_sums(index, sums[0], sums[1], which)
            assert actual == expected
            assert repr(actual) == repr(expected)
            assert _stats(model) == _stats(frozen)
        else:
            _, sum_t, sum_m, mask = event
            picked = [k for k in range(NUM_INDEXES) if mask >> k & 1]
            indexes = [catalog.index(names[k]) for k in picked]
            counts = [k * 3 for k in picked]
            actual = model.evaluate_many(
                indexes, [sum_t[k] for k in picked], [sum_m[k] for k in picked], counts
            )
            expected = [
                frozen.evaluate_from_sums(index, sum_t[k], sum_m[k], counts[j])
                for j, (k, index) in enumerate(zip(picked, indexes))
            ]
            assert actual == expected
            assert repr(actual) == repr(expected)
            assert _stats(model) == _stats(frozen)
            ranked = rank_indexes(actual)
            assert ranked == rank_indexes(expected)
            candidates = tuner.build_candidates(ranked)
            oracle = oracle_build_candidates(catalog, cost_model, ranked, max_candidates)
            assert candidates == oracle
            assert repr(candidates) == repr(oracle)


def test_pickled_tuner_drops_the_build_table_memo():
    """Snapshots do not carry the candidate memo, and a restored tuner
    rebuilds the same candidates from its restored catalog."""
    catalog = small_catalog()
    model = GainModel(PAPER_PRICING, IndexCostModel(PAPER_PRICING), GainParameters())
    tuner = OnlineIndexTuner(
        catalog, model, DataflowHistory(PAPER_PRICING), SkylineScheduler(PAPER_PRICING),
        max_candidates=10,
    )
    names = sorted(catalog.indexes)
    indexes = [catalog.index(name) for name in names]
    catalog.index(names[3]).mark_built(1, 60.0)
    gains = model.evaluate_many(
        indexes, [30.0] * len(names), [25.0] * len(names), [1] * len(names)
    )
    ranked = rank_indexes(gains)
    assert ranked
    candidates = tuner.build_candidates(ranked)
    assert tuner._build_tables
    restored = pickle.loads(pickle.dumps(tuner))
    assert restored._build_tables == {}
    assert restored.build_candidates(ranked) == candidates
    assert restored._build_tables
