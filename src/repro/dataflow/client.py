"""Workload clients: the catalog of app files and dataflow arrival streams.

The Dataflow Generator Client of Section 6.1 issues dataflows at Poisson
arrival times (λ = 60 seconds) in two modes: *random* (each arrival picks
an application uniformly) and *with phases* (CyberShake for 10000 s, LIGO
for 5000 s, Montage for 20000 s, CyberShake for 8200 s). Each generated
dataflow carries its own random index speedups.

The input files of the three applications form the database of files:
20 + 53 + 52 = 125 files totalling ~76.69 GB, partitioned into 128 MB
chunks, with four potential indexes per file (Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.cloud.pricing import PricingModel
from repro.data.catalog import Catalog, INDEXABLE_COLUMNS
from repro.data.index_model import IndexSpec
from repro.data.table import partition_table
from repro.dataflow.generators import cybershake, ligo, montage
from repro.dataflow.generators.base import WorkflowSpec
from repro.dataflow.graph import Dataflow

#: Average row size (bytes) assumed for workload files.
_FILE_ROW_BYTES = 125.0

#: Mean inter-arrival time of the Poisson generator client (seconds).
POISSON_MEAN_INTERARRIVAL_S = 60.0

#: The paper's phase schedule: (application, duration in seconds).
PAPER_PHASES: tuple[tuple[str, float], ...] = (
    ("cybershake", 10_000.0),
    ("ligo", 5_000.0),
    ("montage", 20_000.0),
    ("cybershake", 8_200.0),
)

#: Total experiment horizon: 720 quanta of 60 s (Table 3).
TOTAL_TIME_S = 43_200.0

_APP_MODULES = {
    "montage": montage,
    "ligo": ligo,
    "cybershake": cybershake,
}


def app_names() -> list[str]:
    """The three scientific applications of the evaluation."""
    return list(_APP_MODULES)


@dataclass
class Workload:
    """A catalog plus per-app workflow specs, ready to emit dataflows."""

    catalog: Catalog
    specs: dict[str, WorkflowSpec]
    rng: np.random.Generator
    num_ops: int = 100
    _counter: int = 0

    def next_dataflow(self, app: str, issued_at: float) -> Dataflow:
        """Generate the next dataflow instance of ``app``."""
        module = _APP_MODULES.get(app)
        if module is None:
            raise KeyError(f"unknown application {app!r}")
        self._counter += 1
        name = f"{app}-{self._counter:05d}"
        return module.build(
            self.specs[app], self.rng, name=name, num_ops=self.num_ops, issued_at=issued_at
        )


def build_workload(
    pricing: PricingModel,
    seed: int = 42,
    num_ops: int = 100,
    max_partition_mb: float = 128.0,
    indexes_per_dataflow: int = 4,
) -> Workload:
    """Build the file catalog and per-app specs of the evaluation.

    Every app's input files become catalog tables with four potential
    indexes each (the Table 5 columns). Deterministic given ``seed``.
    Any app may arrive, so ``num_ops`` must suit all three generators
    (a positive multiple of 20); it is rejected here, not at the first
    arrival it cannot build.
    """
    for module in _APP_MODULES.values():
        module.check_num_ops(num_ops)
    rng = np.random.default_rng(seed)
    catalog = Catalog(pricing=pricing)
    specs: dict[str, WorkflowSpec] = {}
    from repro.data.catalog import _file_schema, _file_statistics  # shared file model

    statistics = _file_statistics()
    for app, module in _APP_MODULES.items():
        sizes = module.generate_input_sizes(rng)
        tables: list[str] = []
        table_sizes: list[float] = []
        indexes_per_table: dict[str, list[str]] = {}
        for i, size_mb in enumerate(sizes):
            name = f"{app}_f{i:03d}"
            records = max(1, int(size_mb * 1024 * 1024 / _FILE_ROW_BYTES))
            table = partition_table(
                name=name,
                schema=_file_schema(name),
                statistics=statistics,
                total_records=records,
                max_partition_mb=max_partition_mb,
            )
            catalog.add_table(table)
            index_names = []
            for column in INDEXABLE_COLUMNS:
                index = catalog.add_potential_index(
                    IndexSpec(table_name=name, columns=(column,))
                )
                index_names.append(index.name)
            tables.append(name)
            table_sizes.append(table.size_mb())
            indexes_per_table[name] = index_names
        specs[app] = WorkflowSpec(
            app=app,
            tables=tables,
            table_sizes_mb=table_sizes,
            indexes_per_table=indexes_per_table,
            indexes_per_dataflow=indexes_per_dataflow,
        )
    return Workload(catalog=catalog, specs=specs, rng=rng, num_ops=num_ops)


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
def poisson_arrivals(
    rng: np.random.Generator,
    horizon_s: float,
    mean_interarrival_s: float = POISSON_MEAN_INTERARRIVAL_S,
) -> Iterator[float]:
    """Arrival times of a Poisson process on [0, horizon_s)."""
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    if mean_interarrival_s <= 0:
        raise ValueError("mean_interarrival_s must be positive")
    t = float(rng.exponential(mean_interarrival_s))
    while t < horizon_s:
        yield t
        t += float(rng.exponential(mean_interarrival_s))


@dataclass(frozen=True)
class ArrivalEvent:
    """One dataflow issue event."""

    time: float
    app: str


def phase_schedule(
    rng: np.random.Generator,
    phases: tuple[tuple[str, float], ...] = PAPER_PHASES,
    mean_interarrival_s: float = POISSON_MEAN_INTERARRIVAL_S,
) -> list[ArrivalEvent]:
    """Arrival stream of the *phase* generator client.

    Each phase issues dataflows of one application; arrivals inside a
    phase follow the Poisson process.
    """
    events: list[ArrivalEvent] = []
    offset = 0.0
    for app, duration in phases:
        if app not in _APP_MODULES:
            raise KeyError(f"unknown application {app!r}")
        for t in poisson_arrivals(rng, duration, mean_interarrival_s):
            events.append(ArrivalEvent(time=offset + t, app=app))
        offset += duration
    return events


def random_schedule(
    rng: np.random.Generator,
    horizon_s: float = TOTAL_TIME_S,
    mean_interarrival_s: float = POISSON_MEAN_INTERARRIVAL_S,
    apps: list[str] | None = None,
) -> list[ArrivalEvent]:
    """Arrival stream of the *random* generator client."""
    pool = apps if apps is not None else app_names()
    if not pool:
        raise ValueError("need at least one application")
    events: list[ArrivalEvent] = []
    for t in poisson_arrivals(rng, horizon_s, mean_interarrival_s):
        app = pool[int(rng.integers(0, len(pool)))]
        events.append(ArrivalEvent(time=t, app=app))
    return events
