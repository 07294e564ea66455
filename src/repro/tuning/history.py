"""Historical dataflow store ``Hd`` (Section 3).

Dataflows that have already been executed are stored with the per-index
gains they realised; the gain model queries them as
:class:`~repro.tuning.gain.DataflowGainSample` streams relative to "now".

Records are addressed by a monotonically increasing *global position*
that is never reused or renumbered: evicting the oldest record advances
``head_position`` instead of shifting positions, so incremental
consumers (:class:`~repro.tuning.incremental.IncrementalGainEvaluator`)
can remember how far they have read with a single integer. Eviction is
amortised O(1); the old implementation rebuilt the whole per-index
position map on every eviction, which made a bounded history *more*
expensive than an unbounded one.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator

from repro.cloud.pricing import PricingModel
from repro.tuning.gain import DataflowGainSample


@dataclass(frozen=True)
class DataflowRecord:
    """One executed (or running) dataflow and its per-index gains.

    Attributes:
        name: Dataflow name.
        executed_at: Time the dataflow executed, in seconds. Running or
            queued dataflows are recorded with their issue time and age 0
            is reported until they finish.
        time_gains: gtd(idx, d) per index name, in quanta.
        money_gains: gmd(idx, d) per index name, in quanta.
        running: True while the dataflow has not finished.
    """

    name: str
    executed_at: float
    time_gains: dict[str, float] = field(default_factory=dict)
    money_gains: dict[str, float] = field(default_factory=dict)
    running: bool = False

    def age_quanta(self, now: float, pricing: PricingModel) -> float:
        """ΔT: quanta since execution; 0 for running/queued dataflows."""
        if self.running:
            return 0.0
        return max(0.0, pricing.quanta(now - self.executed_at))


class DataflowHistory:
    """Append-only store of dataflow records with per-index queries."""

    def __init__(self, pricing: PricingModel, max_records: int | None = None) -> None:
        self.pricing = pricing
        self.max_records = max_records
        self._records: list[DataflowRecord] = []
        #: Global position of ``_records[0]``; grows on eviction.
        self._head = 0
        # index name -> sorted global positions that mention it; evicted
        # prefixes are pruned lazily on access.
        self._by_index: dict[str, list[int]] = {}
        #: Bumped whenever an *existing* record is replaced in place
        #: (``mark_finished``); appends and evictions do not count.
        #: Incremental consumers rebuild when this changes.
        self.mutation_version = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[DataflowRecord]:
        return list(self._records)

    @property
    def head_position(self) -> int:
        """Global position of the oldest retained record."""
        return self._head

    @property
    def end_position(self) -> int:
        """Global position one past the newest record."""
        return self._head + len(self._records)

    def add(self, record: DataflowRecord) -> None:
        position = self._head + len(self._records)
        self._records.append(record)
        for index_name in record.time_gains:
            self._by_index.setdefault(index_name, []).append(position)
        if self.max_records is not None and len(self._records) > self.max_records:
            self._records.pop(0)
            self._head += 1

    def mark_finished(self, name: str, finished_at: float) -> None:
        """Flip a running record to finished (records are frozen; replace)."""
        for i, record in enumerate(self._records):
            if record.name == name and record.running:
                self._records[i] = DataflowRecord(
                    name=record.name,
                    executed_at=finished_at,
                    time_gains=record.time_gains,
                    money_gains=record.money_gains,
                    running=False,
                )
                self.mutation_version += 1
                return
        raise KeyError(f"no running dataflow {name!r} in history")

    def window_digest(self) -> str:
        """A stable 8-hex digest of the retained window.

        Recovery commit records carry it so resume can verify the
        replayed history converged on the same window as the crashed
        process (names, execution times and running flags included).
        """
        parts = [f"{self._head}:{self.mutation_version}"]
        for record in self._records:
            parts.append(
                f"{record.name}@{record.executed_at!r}:{int(record.running)}"
            )
        return f"{zlib.crc32('|'.join(parts).encode('utf-8')):08x}"

    def _positions(self, index_name: str) -> list[int]:
        """Live global positions mentioning ``index_name`` (ascending)."""
        positions = self._by_index.get(index_name)
        if positions is None:
            return []
        if positions and positions[0] < self._head:
            del positions[: bisect_left(positions, self._head)]
        return positions

    def newest_position(self, index_name: str) -> int:
        """Global position of the newest record mentioning ``index_name``,
        evicted or not (-1 when none has)."""
        positions = self._by_index.get(index_name)
        return positions[-1] if positions else -1

    def index_names(self) -> list[str]:
        """All indexes any *retained* recorded dataflow could use."""
        return sorted(
            name for name in self._by_index if self._positions(name)
        )

    def samples_for(self, index_name: str, now: float) -> list[DataflowGainSample]:
        """Gain samples of one index across the recorded dataflows."""
        samples: list[DataflowGainSample] = []
        for position in self._positions(index_name):  # insertion order
            record = self._records[position - self._head]
            samples.append(
                DataflowGainSample(
                    age_quanta=record.age_quanta(now, self.pricing),
                    time_gain_quanta=record.time_gains.get(index_name, 0.0),
                    money_gain_quanta=record.money_gains.get(index_name, 0.0),
                )
            )
        return samples

    def entries_for(
        self, index_name: str, since_position: int = 0
    ) -> Iterator[tuple[int, DataflowRecord]]:
        """(position, record) pairs mentioning ``index_name`` from
        ``since_position`` on — the incremental evaluator's append feed."""
        positions = self._positions(index_name)
        start = bisect_left(positions, max(since_position, self._head))
        for position in positions[start:]:
            yield position, self._records[position - self._head]
