"""Shared machinery for the scientific workflow generators.

The paper produces Montage, LIGO and CyberShake dataflows with the
generator of Bharathi et al. [8], which fixes the DAG shape per
application and draws operator runtimes and file sizes from per-task-type
distributions. We re-implement that idea from scratch, calibrating the
distributions against the published aggregate statistics (Table 4).

Each dataflow's index picks and speedups come from one
``rng.integers(0, bounds)`` call, and each edge size from one
:func:`uniform` draw. numpy makes every bounded integer draw, in
``integers`` and in ``choice`` alike, from one ``next_uint32`` by
Lemire's method, and a bound of 1 draws nothing. So the batch consumes
the stream exactly as the per-call ``choice`` and ``integers`` calls
did, and :func:`attach_inputs` replays ``choice``'s Floyd sample and
shuffle from it. The truncated normals stay one call each: they
interleave with the edge draws, so batching them would reorder the
stream. ``tests/differential/test_generator_oracle.py`` pins both
against the per-call draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.catalog import TABLE6_SPEEDUPS
from repro.dataflow.graph import Dataflow
from repro.dataflow.operator import DataFile, Operator


def truncated_normal(
    rng: np.random.Generator, mean: float, std: float, low: float, high: float
) -> float:
    """Draw one normal sample, re-drawing (then clipping) into [low, high]."""
    if low > high:
        raise ValueError("low must not exceed high")
    for _ in range(16):
        value = rng.normal(mean, std)
        if low <= value <= high:
            return float(value)
    return float(min(max(rng.normal(mean, std), low), high))


#: Table 6's measured speedups in catalog order. "its speed-up is randomly
#: chosen from the values of Table 6" (Section 6.1): a uniform draw in
#: ``[0, len(SPEEDUPS))`` picks one.
SPEEDUPS: tuple[float, ...] = tuple(float(v) for v in TABLE6_SPEEDUPS.values())


def uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """``float(rng.uniform(low, high))`` without numpy's per-call set-up.

    numpy computes ``low + (high - low) * next_double``; ``rng.random()``
    is that ``next_double``, so both give the same float and consume the
    same stream.
    """
    if high < low:
        raise ValueError("high - low < 0")
    return low + (high - low) * rng.random()


@dataclass(frozen=True)
class InputFileModel:
    """Distribution of an application's input file sizes (Table 4).

    Attributes:
        count: Number of input files the application reads.
        min_mb/max_mb/mean_mb: Published statistics the sampler targets.
    """

    count: int
    min_mb: float
    max_mb: float
    mean_mb: float


@dataclass
class WorkflowSpec:
    """Everything a generator needs to emit one dataflow instance.

    Attributes:
        app: Application name ("montage", "ligo", "cybershake").
        tables: Names of the catalog tables (files) this app reads.
        table_sizes_mb: Size of each table, aligned with ``tables``.
        indexes_per_table: Map table name -> list of potential index names.
        indexes_per_dataflow: How many candidate indexes each dataflow
            nominates per input table.
    """

    app: str
    tables: list[str]
    table_sizes_mb: list[float]
    indexes_per_table: dict[str, list[str]] = field(default_factory=dict)
    indexes_per_dataflow: int = 4

    def __post_init__(self) -> None:
        if len(self.tables) != len(self.table_sizes_mb):
            raise ValueError("tables and table_sizes_mb must align")
        if self.indexes_per_dataflow < 0:
            raise ValueError("indexes_per_dataflow must be non-negative")


def attach_inputs(
    dataflow: Dataflow,
    entry_ops: list[Operator],
    spec: WorkflowSpec,
    rng: np.random.Generator,
) -> None:
    """Distribute the app's input tables across the entry operators.

    Every table is read by exactly one entry operator (round-robin), so
    each dataflow touches the whole app file pool, as in Table 4 where
    the file count is per dataflow. For each table, the dataflow
    nominates candidate indexes with per-dataflow random speedups.

    Per table of n index names, with k = min(indexes_per_dataflow, n),
    ``rng.choice(n, k, replace=False)`` draws Floyd's bounds j + 1 for
    j = n - k .. n - 1 and then shuffles with bounds i + 1 for
    i = k - 1 .. 1; the k speedup draws follow. One ``integers`` call
    makes all of them in that order, and the loop below replays
    ``choice`` from them. (numpy switches to a tail shuffle when
    n > 10,000 and k > n // 50; there the replay is still a uniform
    sample, but not numpy's.)
    """
    if not entry_ops:
        raise ValueError("a dataflow needs at least one entry operator")
    picks: list[tuple[Operator, list[str], int]] = []
    bounds: list[int] = []
    for i, (table, size_mb) in enumerate(zip(spec.tables, spec.table_sizes_mb)):
        op = entry_ops[i % len(entry_ops)]
        op.inputs = (*op.inputs, DataFile(name=table, size_mb=size_mb))
        if op.reads_table is None:
            op.reads_table = table
        dataflow.input_tables.add(table)
        index_names = spec.indexes_per_table.get(table, [])
        n = len(index_names)
        k = min(spec.indexes_per_dataflow, n)
        if k == 0:
            continue
        picks.append((op, index_names, k))
        bounds.extend(range(n - k + 1, n + 1))
        bounds.extend(range(k, 1, -1))
        bounds.extend([len(SPEEDUPS)] * k)
    if not picks:
        return
    draws = iter(rng.integers(0, bounds).tolist())
    for op, index_names, k in picks:
        n = len(index_names)
        chosen: list[int] = []
        for j in range(n - k, n):
            drawn = next(draws)
            chosen.append(j if drawn in chosen else drawn)
        for i in range(k - 1, 0, -1):
            swap = next(draws)
            chosen[i], chosen[swap] = chosen[swap], chosen[i]
        for j in chosen:
            name = index_names[j]
            op.index_speedup[name] = SPEEDUPS[next(draws)]
            dataflow.candidate_indexes.add(name)


def finish(dataflow: Dataflow, num_ops: int) -> Dataflow:
    """Validate structure and the requested operator count."""
    if len(dataflow) != num_ops:
        raise AssertionError(
            f"{dataflow.name}: built {len(dataflow)} operators, wanted {num_ops}"
        )
    dataflow.validate()
    return dataflow
