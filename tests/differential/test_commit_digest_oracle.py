"""Differential tests: the memoised commit digest vs the from-scratch oracle.

``RecoveryManager`` memoises each index's build-state digest on the
index object and its ``build_version``, which every build-state mutator
of ``Index`` bumps, so a commit recomputes only the indexes its step
changed. The catalog digest the commit record carries must stay
**byte-identical** to the frozen from-scratch digest after every
mutation: cold (a fresh manager) and warm (the manager that digested
every earlier state). The memo must also never serve one catalog's
digest for another catalog's same-named index at the same version,
which is what an in-process restore presents it with.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.pricing import PAPER_PRICING
from repro.data.catalog import Catalog
from repro.data.index_model import IndexSpec
from repro.data.table import Column, ColumnType, Partition, Table, TableSchema, TableStatistics
from repro.recovery.manager import RecoveryManager
from repro.recovery.wal import WriteAheadLog

from tests.differential.oracle import oracle_catalog_digest

_PARTITIONS = 3
_COLUMN_SETS = (("a",), ("b",), ("a", "b"))


def _catalog() -> Catalog:
    """Two tables of three partitions, three potential indexes each."""
    catalog = Catalog(PAPER_PRICING)
    for name in ("t0", "t1"):
        catalog.add_table(
            Table(
                schema=TableSchema(
                    name, (Column("a", ColumnType.INTEGER), Column("b", ColumnType.INTEGER))
                ),
                partitions=[
                    Partition(
                        partition_id=i, num_records=1000 * (i + 1), path=f"{name}/part-{i:05d}"
                    )
                    for i in range(_PARTITIONS)
                ],
                statistics=TableStatistics(avg_field_bytes={"a": 4.0, "b": 8.0}),
            )
        )
        for columns in _COLUMN_SETS:
            catalog.add_potential_index(IndexSpec(table_name=name, columns=columns))
    return catalog


@pytest.fixture(scope="module")
def manager_factory(tmp_path_factory):
    """Fresh managers over one shared WAL: the digest never touches it."""
    directory = tmp_path_factory.mktemp("digest")
    wal = WriteAheadLog(directory / "wal.jsonl")
    yield lambda: RecoveryManager(directory, wal)
    wal.close()


def _digest(manager: RecoveryManager, catalog: Catalog) -> str:
    return manager._catalog_digest(SimpleNamespace(catalog=catalog))


_MUTATIONS = st.tuples(
    st.sampled_from(
        ["mark_built", "record_checkpoint", "invalidate_partition", "drop_all", "update_table"]
    ),
    st.integers(0, 5),
    st.integers(0, _PARTITIONS - 1),
    st.floats(min_value=0.0, max_value=7200.0, allow_nan=False),
)


def _apply(catalog: Catalog, mutation: tuple[str, int, int, float]) -> None:
    kind, which, pid, value = mutation
    index = catalog.indexes[sorted(catalog.indexes)[which]]
    if kind == "mark_built":
        index.mark_built(pid, value)
    elif kind == "record_checkpoint":
        index.record_checkpoint(pid, value)
    elif kind == "invalidate_partition":
        index.invalidate_partition(pid)
    elif kind == "drop_all":
        index.drop_all()
    else:
        # A batch update changes no index state by itself; a later
        # mark_built records the new partition version.
        index.table.update_partition(pid)


@given(mutations=st.lists(_MUTATIONS, min_size=1, max_size=25))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_memoised_digest_matches_oracle_cold_and_warm(manager_factory, mutations):
    catalog = _catalog()
    warm = manager_factory()
    assert _digest(warm, catalog) == oracle_catalog_digest(catalog)
    for mutation in mutations:
        _apply(catalog, mutation)
        expected = oracle_catalog_digest(catalog)
        assert _digest(warm, catalog) == expected
        assert _digest(manager_factory(), catalog) == expected
        # A second commit with nothing changed is served from the memo.
        assert _digest(warm, catalog) == expected


def test_memo_never_serves_another_catalogs_index(manager_factory):
    """Same name, same build_version, different state: the two catalogs'
    digests differ, and one manager digests each correctly in turn."""
    first, second = _catalog(), _catalog()
    name = sorted(first.indexes)[0]
    first.indexes[name].mark_built(0, 60.0)
    second.indexes[name].mark_built(0, 120.0)
    assert first.indexes[name].build_version == second.indexes[name].build_version
    assert oracle_catalog_digest(first) != oracle_catalog_digest(second)
    manager = manager_factory()
    for catalog in (first, second, first, second):
        assert _digest(manager, catalog) == oracle_catalog_digest(catalog)
