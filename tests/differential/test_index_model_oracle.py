"""Differential tests: the memoised index model vs the per-call oracle.

``IndexCostModel`` computes every figure of an index once, on its first
request, and serves the memo afterwards. That is exact only because no
figure reads anything a run changes, so the memoised model must return
**bit-identical** figures to the frozen per-call arithmetic — cold and
warm, on every index of the evaluation catalog, and on drawn specs of
both index kinds with data updates interleaved. The evaluation catalog
holds only B+tree indexes, so the drawn specs are the only coverage of
HASH indexes.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cloud.pricing import PAPER_PRICING
from repro.data.catalog import build_workload_catalog
from repro.data.index_model import IndexCostModel, IndexKind, IndexSpec
from repro.data.table import (
    Column,
    ColumnType,
    Partition,
    Table,
    TableSchema,
    TableStatistics,
)

from tests.differential.oracle import oracle_index_size_mb, oracle_partition_figures


def _assert_bit_identical(model: IndexCostModel, table: Table, spec: IndexSpec) -> None:
    expected = [
        oracle_partition_figures(table, spec, p, model.container) for p in table.partitions
    ]
    assert model.index_size_mb(table, spec) == oracle_index_size_mb(table, spec)
    assert model.build_time_quanta(table, spec) == model.pricing.quanta(
        sum(e.total_build_seconds for e in expected)
    )
    for partition, want in zip(table.partitions, expected):
        assert model.partition_model(table, spec, partition) == want
        assert model.partition_size_mb(table, spec, partition) == want.size_mb
        assert model.io_seconds(table, spec, partition) == want.io_seconds
        assert model.build_seconds(table, spec, partition) == want.build_seconds


def test_every_catalog_index_is_bit_identical_cold_and_warm():
    catalog = build_workload_catalog(PAPER_PRICING)
    model = IndexCostModel(PAPER_PRICING)
    indexes = list(catalog.indexes.values())
    assert len(indexes) == 500
    for _ in ("cold", "warm"):
        for index in indexes:
            _assert_bit_identical(model, index.table, index.spec)


_COLUMNS = ("a", "b", "c")


@st.composite
def _tables(draw: st.DrawFn) -> Table:
    stats = {c: draw(st.floats(min_value=0.5, max_value=300.0)) for c in _COLUMNS}
    counts = draw(
        st.lists(
            st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 20_000_000)),
            min_size=1,
            max_size=6,
        )
    )
    return Table(
        schema=TableSchema("t", tuple(Column(c, ColumnType.INTEGER) for c in _COLUMNS)),
        partitions=[
            Partition(partition_id=i, num_records=n, path=f"t/part-{i:05d}")
            for i, n in enumerate(counts)
        ],
        statistics=TableStatistics(avg_field_bytes=stats),
    )


_specs = st.builds(
    IndexSpec,
    table_name=st.just("t"),
    columns=st.lists(st.sampled_from(_COLUMNS), min_size=1, max_size=3, unique=True).map(tuple),
    kind=st.sampled_from(IndexKind),
    build_constant=st.floats(min_value=1e-9, max_value=1e-3),
)


@given(
    table=_tables(),
    specs=st.lists(_specs, min_size=1, max_size=4),
    updates=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=10),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_drawn_specs_stay_bit_identical_across_updates(table, specs, updates):
    model = IndexCostModel(PAPER_PRICING)
    for spec in specs:
        _assert_bit_identical(model, table, spec)
    for pid, which in updates:
        table.update_partition(pid % len(table.partitions))
        _assert_bit_identical(model, table, specs[which % len(specs)])
