"""Tests for tables, partitioning, index size/time models and TPC-H."""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.pricing import PAPER_PRICING
from repro.data.index_model import (
    Index,
    IndexCostModel,
    IndexKind,
    IndexSpec,
    btree_fanout,
    btree_size_bytes,
    hash_size_bytes,
    index_record_bytes,
)
from repro.data.table import (
    Column,
    ColumnType,
    Partition,
    Table,
    TableSchema,
    TableStatistics,
    partition_table,
)
from repro.data.tpch import (
    LINEITEM_FIELD_BYTES,
    TABLE5_COLUMNS,
    generate_lineitem_rows,
    lineitem_statistics,
    lineitem_table,
)


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableSchema("t", (Column("a", ColumnType.INTEGER), Column("a", ColumnType.TEXT)))

    def test_char_needs_width(self):
        with pytest.raises(ValueError):
            Column("c", ColumnType.CHAR)

    def test_column_lookup(self):
        schema = TableSchema("t", (Column("a", ColumnType.INTEGER),))
        assert schema.column("a").ctype is ColumnType.INTEGER
        with pytest.raises(KeyError):
            schema.column("b")


class TestPartitioning:
    def _stats(self, rec_bytes=100.0):
        return TableStatistics(avg_field_bytes={"a": rec_bytes})

    def _schema(self):
        return TableSchema("t", (Column("a", ColumnType.TEXT),))

    def test_partitions_cap_at_max_mb(self):
        stats = self._stats(100.0)
        table = partition_table("t", self._schema(), stats, total_records=3_000_000,
                                max_partition_mb=128.0)
        max_records = int(128 * 1024 * 1024 / 100)
        assert all(p.num_records <= max_records for p in table.partitions)
        assert table.num_records == 3_000_000

    def test_single_small_partition(self):
        table = partition_table("t", self._schema(), self._stats(), total_records=10)
        assert len(table.partitions) == 1

    def test_zero_records(self):
        table = partition_table("t", self._schema(), self._stats(), total_records=0)
        assert len(table.partitions) == 1
        assert table.num_records == 0

    def test_update_partition_bumps_version(self):
        table = partition_table("t", self._schema(), self._stats(), total_records=100)
        updated = table.update_partition(0)
        assert updated.version == 1
        assert table.partition(0).version == 1

    def _multi(self):
        table = partition_table("t", self._schema(), self._stats(100.0),
                                total_records=1000, max_partition_mb=0.01)
        assert len(table.partitions) == 10
        return table

    def test_partition_lookup_is_positional(self):
        table = self._multi()
        for pid, part in enumerate(table.partitions):
            assert table.partition(pid) is part

    @pytest.mark.parametrize("pid", [-1, 10, 10**9])
    def test_partition_rejects_ids_out_of_range(self, pid):
        # -1 must not wrap around to the last partition.
        table = self._multi()
        with pytest.raises(KeyError):
            table.partition(pid)
        with pytest.raises(KeyError):
            table.update_partition(pid)

    def test_partition_returns_new_version_after_update(self):
        table = self._multi()
        old = table.partition(3)
        updated = table.update_partition(3)
        assert table.partition(3) is updated
        assert (updated.version, updated.num_records, updated.path) == (
            1, old.num_records, old.path)
        assert all(table.partition(pid).version == 0 for pid in (0, 1, 2, 4))

    def test_record_total_matches_the_partitions(self):
        table = self._multi()
        total = sum(p.num_records for p in table.partitions)
        assert table.num_records == total > 0
        for pid in (3, 0, 3):
            table.update_partition(pid)
            assert table.num_records == sum(p.num_records for p in table.partitions)
        restored = pickle.loads(pickle.dumps(table))
        assert restored.num_records == total
        assert restored.num_records == sum(p.num_records for p in restored.partitions)
        assert restored == table

    @pytest.mark.parametrize("ids", [[1], [0, 2], [1, 0], [0, 0]])
    def test_non_positional_partition_ids_rejected(self, ids):
        partitions = [Partition(partition_id=i, num_records=5, path=f"t/{i}") for i in ids]
        with pytest.raises(ValueError):
            Table(schema=self._schema(), partitions=partitions, statistics=self._stats())

    def test_size_mb_consistent_with_stats(self):
        table = partition_table("t", self._schema(), self._stats(100.0),
                                total_records=1024 * 1024)
        assert table.size_mb() == pytest.approx(100.0, rel=1e-6)


class TestBtreeSizeModel:
    def test_empty_and_singleton(self):
        assert btree_size_bytes(0, 10.0) == 0.0
        assert btree_size_bytes(1, 10.0) == index_record_bytes(10.0)

    def test_size_slightly_above_leaf_level(self):
        n, key = 1_000_000, 8.0
        size = btree_size_bytes(n, key)
        leaf = n * index_record_bytes(key)
        assert leaf < size < leaf * 1.01  # upper levels are a small overhead

    def test_fanout_from_block_size(self):
        assert btree_fanout(8.0) == 1024  # 8192 / 8
        assert btree_fanout(10_000.0) == 2  # floor at 2

    def test_hash_bigger_than_btree_leaf(self):
        assert hash_size_bytes(1000, 8.0) > 1000 * index_record_bytes(8.0)

    def test_negative_records_rejected(self):
        with pytest.raises(ValueError):
            btree_size_bytes(-1, 8.0)


class TestTable5Reproduction:
    """The index sizes of Table 5 from the analytical model."""

    PAPER_SIZES_MB = {
        "comment": 422.30,
        "shipinstruct": 248.95,
        "commitdate": 225.91,
        "orderkey": 146.99,
    }

    @pytest.fixture(scope="class")
    def table(self):
        return lineitem_table(scale=2.0)

    @pytest.fixture(scope="class")
    def cost_model(self):
        return IndexCostModel(PAPER_PRICING)

    @pytest.mark.parametrize("column", TABLE5_COLUMNS)
    def test_index_size_within_2_percent_of_paper(self, table, cost_model, column):
        spec = IndexSpec("lineitem", (column,))
        size = cost_model.index_size_mb(table, spec)
        assert size == pytest.approx(self.PAPER_SIZES_MB[column], rel=0.02)

    def test_table_size_about_1_4_gb(self, table):
        assert table.size_mb() == pytest.approx(1.4 * 1024, rel=0.02)

    def test_size_ordering_matches_paper(self, table, cost_model):
        sizes = [
            cost_model.index_size_mb(table, IndexSpec("lineitem", (c,)))
            for c in TABLE5_COLUMNS
        ]
        assert sizes == sorted(sizes, reverse=True)


class TestIndexCostModel:
    @pytest.fixture
    def table(self):
        return lineitem_table(scale=0.1)

    @pytest.fixture
    def cost_model(self):
        return IndexCostModel(PAPER_PRICING)

    def test_build_time_positive_and_additive(self, table, cost_model):
        spec = IndexSpec("lineitem", ("orderkey",))
        per_partition = [
            cost_model.partition_model(table, spec, p).total_build_seconds
            for p in table.partitions
        ]
        assert all(t > 0 for t in per_partition)
        total = cost_model.build_time_quanta(table, spec)
        assert total == pytest.approx(sum(per_partition) / 60.0)

    def test_io_time_uses_network(self, table, cost_model):
        spec = IndexSpec("lineitem", ("orderkey",))
        p = table.partitions[0]
        io = cost_model.io_seconds(table, spec, p)
        moved_mb = (
            p.num_records * table.statistics.record_bytes() / 2**20
            + cost_model.partition_size_mb(table, spec, p)
        )
        assert io == pytest.approx(moved_mb / 125.0)

    def test_storage_cost_scales_with_window(self, table, cost_model):
        spec = IndexSpec("lineitem", ("orderkey",))
        c1 = cost_model.storage_cost_dollars(table, spec, 1.0)
        c10 = cost_model.storage_cost_dollars(table, spec, 10.0)
        assert c10 == pytest.approx(10 * c1)

    def test_hash_kind_supported(self, table, cost_model):
        spec = IndexSpec("lineitem", ("orderkey",), kind=IndexKind.HASH)
        assert cost_model.index_size_mb(table, spec) > 0


class TestIndexFigureMemo:
    """The per-index memo serves only the table object it was computed from."""

    SPECS = (
        IndexSpec("lineitem", ("orderkey",)),
        IndexSpec("lineitem", ("comment", "orderkey"), kind=IndexKind.HASH),
    )

    @staticmethod
    def _figures(model, table, spec):
        return (
            model.index_size_mb(table, spec),
            model.build_time_quanta(table, spec),
            model.storage_cost_dollars(table, spec, 10.0),
            [
                (
                    model.partition_model(table, spec, p),
                    model.partition_size_mb(table, spec, p),
                    model.io_seconds(table, spec, p),
                    model.build_seconds(table, spec, p),
                )
                for p in table.partitions
            ],
        )

    @pytest.mark.parametrize("spec", SPECS)
    def test_same_name_tables_get_their_own_figures(self, spec):
        small, large = lineitem_table(scale=1), lineitem_table(scale=2)
        assert small.name == large.name
        model = IndexCostModel(PAPER_PRICING)
        for table in (small, large, small, large):
            fresh = self._figures(IndexCostModel(PAPER_PRICING), table, spec)
            assert self._figures(model, table, spec) == fresh
        assert model.index_size_mb(small, spec) < model.index_size_mb(large, spec)

    @pytest.mark.parametrize("spec", SPECS)
    def test_update_partition_changes_no_figure(self, spec):
        table = lineitem_table(scale=1)
        model = IndexCostModel(PAPER_PRICING)
        before = self._figures(model, table, spec)
        for p in list(table.partitions):
            table.update_partition(p.partition_id)
        table.update_partition(0)
        assert self._figures(model, table, spec) == before
        assert self._figures(IndexCostModel(PAPER_PRICING), table, spec) == before

    @pytest.mark.parametrize("spec", SPECS)
    def test_pickle_round_trip_serves_the_restored_table(self, spec):
        table = lineitem_table(scale=1)
        model = IndexCostModel(PAPER_PRICING)
        before = self._figures(model, table, spec)
        restored_model, restored_table = pickle.loads(pickle.dumps((model, table)))
        assert self._figures(restored_model, restored_table, spec) == before
        fresh = self._figures(IndexCostModel(PAPER_PRICING), restored_table, spec)
        assert fresh == before


class TestIndexRuntimeState:
    @pytest.fixture
    def index(self):
        table = lineitem_table(scale=0.5)
        return Index(spec=IndexSpec("lineitem", ("orderkey",)), table=table)

    def test_starts_unbuilt(self, index):
        assert not index.any_built
        assert index.built_fraction() == 0.0
        assert index.unbuilt_partition_ids() == [p.partition_id for p in index.table.partitions]

    def test_incremental_build(self, index):
        first = index.table.partitions[0].partition_id
        index.mark_built(first, time=10.0)
        assert index.any_built and not index.fully_built
        assert 0 < index.built_fraction() < 1
        assert index.creation_times() == [10.0]

    def test_fully_built(self, index):
        for p in index.table.partitions:
            index.mark_built(p.partition_id, time=1.0)
        assert index.fully_built
        assert index.built_fraction() == pytest.approx(1.0)

    def test_invalidate_partition(self, index):
        index.mark_built(0, time=1.0)
        index.invalidate_partition(0)
        assert not index.any_built

    def test_drop_all(self, index):
        for p in index.table.partitions:
            index.mark_built(p.partition_id, time=1.0)
        index.drop_all()
        assert not index.any_built


class TestLineitemRows:
    def test_deterministic(self):
        a = generate_lineitem_rows(500, seed=3)
        b = generate_lineitem_rows(500, seed=3)
        assert (a.orderkey == b.orderkey).all()
        assert a.comment == b.comment

    def test_orderkeys_nondecreasing(self):
        rows = generate_lineitem_rows(2000, seed=1)
        assert (rows.orderkey[1:] >= rows.orderkey[:-1]).all()

    def test_row_count(self):
        assert len(generate_lineitem_rows(123)) == 123

    def test_column_access(self):
        rows = generate_lineitem_rows(10)
        assert len(rows.column("comment")) == 10
        with pytest.raises(KeyError):
            rows.column("nope")

    def test_field_bytes_sum_to_row_size(self):
        total = sum(LINEITEM_FIELD_BYTES.values())
        assert total == pytest.approx(125.0, abs=0.5)
        assert lineitem_statistics().record_bytes() == pytest.approx(total)


@given(
    n=st.integers(min_value=1, max_value=10_000_000),
    key=st.floats(min_value=1.0, max_value=100.0),
)
@settings(max_examples=50, deadline=None)
def test_property_btree_size_monotone_in_records(n, key):
    smaller = btree_size_bytes(n, key)
    bigger = btree_size_bytes(n + 1000, key)
    assert bigger >= smaller
    assert smaller >= n * index_record_bytes(key) * 0.99
