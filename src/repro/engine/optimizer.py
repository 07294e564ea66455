"""Cost-based access-path selection for the micro engine.

A small optimizer in the classic System-R mold: given a predicate over a
heap file and the set of available indexes, estimate the cost of each
access path (full scan, B+tree probe/range, hash probe) from cardinality
and selectivity statistics, and pick the cheapest. This grounds the
paper's "if an index is available and beneficial" — beneficial is a cost
comparison, not a flag.

Costs are abstract "row touches": a full scan touches every row; an
index path touches ``log_k(n)`` internal entries plus the matching rows
(B+tree) or ``1 + matches`` (hash). This mirrors the complexity table of
the paper's Section 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.engine.btree import BPlusTree
from repro.engine.executor import (
    lookup_btree,
    lookup_hash,
    lookup_scan,
    order_by_btree,
    order_by_sort,
    range_select_btree,
    range_select_scan,
    realized_path_cost,
)
from repro.engine.hashindex import HashIndex
from repro.engine.heap import HeapFile


class PathKind(Enum):
    """The access paths the optimizer chooses among."""

    FULL_SCAN = "full_scan"
    BTREE = "btree"
    HASH = "hash"


@dataclass(frozen=True)
class Predicate:
    """An equality or range predicate over one column.

    Exactly one of ``equals`` or (``low``/``high``) is given; a sort
    request has neither (``order_by=True``).
    """

    column: str
    equals: Any = None
    low: Any = None
    high: Any = None
    order_by: bool = False

    def __post_init__(self) -> None:
        has_eq = self.equals is not None
        has_range = self.low is not None or self.high is not None
        if sum([has_eq, has_range, self.order_by]) != 1:
            raise ValueError(
                "a predicate is exactly one of: equality, range, order-by"
            )

    @property
    def is_equality(self) -> bool:
        return self.equals is not None

    @property
    def is_range(self) -> bool:
        return self.low is not None or self.high is not None


@dataclass(frozen=True)
class PathChoice:
    """The optimizer's decision and its cost estimates."""

    kind: PathKind
    index_column: str | None
    estimated_cost: float
    scan_cost: float

    @property
    def speedup_estimate(self) -> float:
        if self.estimated_cost <= 0:
            return float("inf")
        return self.scan_cost / self.estimated_cost


@dataclass(frozen=True)
class ProbeOutcome:
    """One executed access with its estimate-vs-realized cost record.

    ``realized_cost`` re-prices the chosen path with the *observed* match
    count, so ``scan_cost - realized_cost`` is the row touches the index
    actually saved this probe (zero when the scan path won anyway).
    """

    choice: PathChoice
    matches: int
    realized_cost: float

    @property
    def realized_saving(self) -> float:
        return max(0.0, self.choice.scan_cost - self.realized_cost)


class AccessPathOptimizer:
    """Chooses scan vs index for predicates over one heap file."""

    def __init__(
        self,
        heap: HeapFile,
        btrees: dict[str, BPlusTree] | None = None,
        hashes: dict[str, HashIndex] | None = None,
    ) -> None:
        self.heap = heap
        self.btrees = btrees or {}
        self.hashes = hashes or {}
        #: Every executed access, in order, with realized costs.
        self.outcomes: list[ProbeOutcome] = []

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def table_rows(self) -> int:
        return len(self.heap)

    def distinct_keys(self, column: str) -> int:
        tree = self.btrees.get(column)
        if tree is not None:
            return max(1, tree.num_keys)
        index = self.hashes.get(column)
        if index is not None:
            return max(1, index.num_keys)
        return max(1, len(set(self.heap.column(column))))

    def equality_selectivity(self, column: str) -> float:
        """Fraction of rows matched by an equality (uniform keys)."""
        return 1.0 / self.distinct_keys(column)

    def range_selectivity(self, column: str, low: Any, high: Any) -> float:
        """Fraction of rows in (low, high), interpolating on min/max."""
        values = self.heap.column(column)
        if not len(values):
            return 0.0
        lo_v, hi_v = min(values), max(values)
        if hi_v == lo_v:
            return 1.0
        lo = lo_v if low is None else max(low, lo_v)
        hi = hi_v if high is None else min(high, hi_v)
        try:
            width = (hi - lo) / (hi_v - lo_v)
        except TypeError:  # non-numeric column: fall back to a guess
            return 0.1
        return float(min(1.0, max(0.0, width)))

    # ------------------------------------------------------------------
    # Cost model (row touches)
    # ------------------------------------------------------------------
    def _btree_probe_cost(self, column: str, matches: float) -> float:
        n = max(2, self.table_rows())
        tree = self.btrees[column]
        fanout = max(2, tree.order)
        return math.log(n, fanout) + matches

    def estimate(self, predicate: Predicate) -> PathChoice:
        """Cost every applicable path and return the cheapest."""
        n = self.table_rows()
        scan_cost = float(max(n, 1))
        if predicate.order_by:
            scan_cost = max(1.0, n * math.log2(max(n, 2)))  # sort
        best = PathChoice(
            kind=PathKind.FULL_SCAN, index_column=None,
            estimated_cost=scan_cost, scan_cost=scan_cost,
        )
        column = predicate.column

        if predicate.is_equality:
            matches = n * self.equality_selectivity(column)
            if column in self.hashes:
                cost = 1.0 + matches
                if cost < best.estimated_cost:
                    best = PathChoice(PathKind.HASH, column, cost, scan_cost)
            if column in self.btrees:
                cost = self._btree_probe_cost(column, matches)
                if cost < best.estimated_cost:
                    best = PathChoice(PathKind.BTREE, column, cost, scan_cost)
        elif predicate.is_range:
            if column in self.btrees:
                matches = n * self.range_selectivity(column, predicate.low, predicate.high)
                cost = self._btree_probe_cost(column, matches)
                if cost < best.estimated_cost:
                    best = PathChoice(PathKind.BTREE, column, cost, scan_cost)
        elif predicate.order_by:
            if column in self.btrees:
                cost = float(n)  # leaf chain walk
                if cost < best.estimated_cost:
                    best = PathChoice(PathKind.BTREE, column, cost, scan_cost)
        return best

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, predicate: Predicate) -> tuple[PathChoice, list[int]]:
        """Pick the cheapest path and run it. Returns (choice, row ids)."""
        choice = self.estimate(predicate)
        column = predicate.column
        if predicate.order_by:
            if choice.kind is PathKind.BTREE:
                rows = order_by_btree(self.btrees[column])
            else:
                rows = order_by_sort(self.heap, column)
        elif predicate.is_equality:
            if choice.kind is PathKind.HASH:
                rows = lookup_hash(self.hashes[column], predicate.equals)
            elif choice.kind is PathKind.BTREE:
                rows = lookup_btree(self.btrees[column], predicate.equals)
            else:
                rows = lookup_scan(self.heap, column, predicate.equals)
        else:
            low = predicate.low
            high = predicate.high
            values = self.heap.column(column)
            if low is None:
                low = min(values)
                low = low - 1 if isinstance(low, (int, float)) else low
            if high is None:
                high = max(values)
                high = high + 1 if isinstance(high, (int, float)) else high
            if choice.kind is PathKind.BTREE:
                rows = range_select_btree(self.btrees[column], low, high)
            else:
                rows = range_select_scan(self.heap, column, low, high)
        fanout = self.btrees[column].order if column in self.btrees else 2
        realized = realized_path_cost(
            choice.kind.value,
            self.table_rows(),
            len(rows),
            fanout=fanout,
            order_by=predicate.order_by,
        )
        self.outcomes.append(
            ProbeOutcome(choice=choice, matches=len(rows), realized_cost=realized)
        )
        return choice, rows

    def realized_benefit(self) -> float:
        """Total row touches the chosen index paths actually saved.

        Sums ``scan_cost - realized_cost`` over every executed access —
        the engine-tier ground truth the ROI ledger's simulated
        attribution models at the dataflow tier.
        """
        return sum(o.realized_saving for o in self.outcomes)
