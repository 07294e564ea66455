"""Micro execution engine: real data structures behind the index models.

A from-scratch B+tree, hash index and heap file, plus query operators for
the paper's five categories (lookup, range select, sorting, grouping,
join). Used to *measure* the Table 6 index speedups instead of assuming
them.
"""

from repro.engine.btree import BPlusTree
from repro.engine.executor import (
    group_by_btree,
    group_by_sort,
    hash_join,
    index_nested_loops_join,
    lookup_btree,
    lookup_hash,
    lookup_scan,
    nested_loops_join,
    order_by_btree,
    order_by_external_sort,
    order_by_sort,
    range_select_btree,
    range_select_scan,
    realized_path_cost,
    sort_merge_join,
    sort_merge_join_unindexed,
)
from repro.engine.hashindex import HashIndex
from repro.engine.optimizer import (
    AccessPathOptimizer,
    PathChoice,
    PathKind,
    Predicate,
    ProbeOutcome,
)
from repro.engine.heap import HeapFile
from repro.engine.queries import (
    QueryTiming,
    build_lineitem_heap,
    measure_table6_speedups,
)

__all__ = [
    "BPlusTree",
    "HashIndex",
    "AccessPathOptimizer",
    "PathChoice",
    "PathKind",
    "Predicate",
    "ProbeOutcome",
    "HeapFile",
    "QueryTiming",
    "build_lineitem_heap",
    "measure_table6_speedups",
    "group_by_btree",
    "group_by_sort",
    "hash_join",
    "index_nested_loops_join",
    "lookup_btree",
    "lookup_hash",
    "lookup_scan",
    "nested_loops_join",
    "order_by_btree",
    "order_by_external_sort",
    "order_by_sort",
    "range_select_btree",
    "range_select_scan",
    "realized_path_cost",
    "sort_merge_join",
    "sort_merge_join_unindexed",
]
