"""Index gain model: Equations 3, 4, 5 and the exponential fading.

An index's usefulness at time ``t`` combines the time and money gains it
produced for dataflows in a sliding window, faded exponentially with
``dc(t) = e^(-t/D)``, minus what it costs to build and keep:

* time gain (Eq. 5):   gt(idx,t) = Σ_i δ(d_i,t)·dc(ΔT_i)·gtd(idx,d_i) − ti(idx)
* money gain (Eq. 4):  gm(idx,t) = Σ_i δ(d_i,t)·dc(ΔT_i)·Mc·gmd(idx,d_i)
                                    − (Mc·mi(idx) + st(idx,W))
* combined (Eq. 3):    g(idx,t) = α·Mc·gt(idx,t) + (1−α)·gm(idx,t)

``gtd``/``gmd`` are per-dataflow gains in quanta; ``gt`` is in quanta and
``gm``/``g`` in dollars. An index is *beneficial* when both gt and gm are
positive (Algorithm 1); beneficial indexes are built as soon as possible
and deleted as soon as they stop being beneficial.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.cloud.pricing import PricingModel
from repro.core.numeric import gt_tol, le_tol
from repro.data.index_model import Index, IndexCostModel
from repro.perf import CacheStats

if TYPE_CHECKING:
    from repro.dataflow.graph import Dataflow


@dataclass(frozen=True)
class GainParameters:
    """Tuning knobs of the gain model (Table 3 defaults).

    Attributes:
        alpha: Time/money trade-off weight α ∈ [0, 1]; large values favour
            time (Section 4).
        fade_quanta: The controller ``D`` of the exponential fading, in
            quanta. Table 3 lists "1 quantum", but the paper's own phase
            arithmetic ("33.3 quanta (10000 sec)") shows the tuning-level
            quantum is 300 s, i.e. five billing quanta — with D of one
            60-s quantum and Poisson arrivals every quantum, history
            would fade to e^-1 before the next dataflow even arrives and
            no index could ever amortise. We default to D = 5 billing
            quanta (= 1 tuning quantum of 300 s).
        window_quanta: Sliding window ``W``: dataflows older than this do
            not contribute at all, and the storage cost is charged for
            this horizon. ``inf`` disables the hard cutoff (the fading
            alone then discounts history, as in the Figure 3 example).
        storage_window_quanta: Horizon for the storage-cost term
            ``st(idx, W)``. Section 4 mentions "e.g., two quanta", but a
            window that short underprices holding an index across the
            dataflows that amortise it; the default of 20 quanta reflects
            the typical time an index stays alive between builds and
            fading-driven deletion, and makes expensive wide-column
            indexes (comment) lose to cheap ones (orderkey) exactly as
            the paper's economics intend. Defaults to the fading horizon
            ``D`` so the benefit inflow (≈ D quanta of faded history) and
            the holding cost are measured over the same horizon.
    """

    alpha: float = 0.5
    fade_quanta: float = 5.0
    window_quanta: float = 60.0
    storage_window_quanta: float = 5.0
    #: Gains below this many quanta count as "not beneficial" for the
    #: deletion rule: exponentially faded history never reaches exactly
    #: zero, so without a threshold a built index (whose remaining build
    #: hurdle is zero) would survive on an arbitrarily small residue.
    #: 0.05 quanta = three seconds of faded gain.
    delete_threshold_quanta: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.fade_quanta <= 0:
            raise ValueError("fade_quanta must be positive")
        if self.window_quanta <= 0 or self.storage_window_quanta < 0:
            raise ValueError("windows must be positive")


@dataclass(frozen=True)
class DataflowGainSample:
    """One dataflow's contribution to an index's gain.

    Attributes:
        age_quanta: ΔT — quanta elapsed since the dataflow executed (0
            for running or queued dataflows).
        time_gain_quanta: gtd(idx, d) — dataflow time saved by the index.
        money_gain_quanta: gmd(idx, d) — money saved, in quanta of VM
            price (already net of the cost to read the index).
    """

    age_quanta: float
    time_gain_quanta: float
    money_gain_quanta: float


class IndexGain(NamedTuple):
    """Evaluated gains of one index at one time point.

    Beyond the three Eq. 3-5 results, the evaluation records the terms
    they were computed from (faded benefit inflow, build hurdle,
    storage holding cost, fading controller, sample count) so a
    decision journal can show *why* an index was built or dropped
    without re-running the model.

    A decision evaluates every potential index, so the record is an
    immutable named tuple: it is built in one call, where a frozen
    dataclass sets each of its twelve fields in turn.
    """

    index_name: str
    time_gain_quanta: float  # gt(idx, t)
    money_gain_dollars: float  # gm(idx, t)
    combined_dollars: float  # g(idx, t)
    #: Deletion threshold (quanta) the evaluating model was configured
    #: with; see GainParameters.delete_threshold_quanta.
    delete_threshold_quanta: float = 0.05
    # ------------------------------------------------------------------
    # Eq. 3-5 term breakdown (zero-cost: derived from values the
    # evaluation computes anyway).
    # ------------------------------------------------------------------
    #: Σ dc(ΔT)·gtd — the faded time-benefit inflow, in quanta.
    faded_time_quanta: float = 0.0
    #: Σ dc(ΔT)·Mc·gmd — the faded money-benefit inflow, in dollars.
    faded_money_dollars: float = 0.0
    #: ti(idx) — remaining build time over unbuilt partitions, quanta.
    build_time_quanta: float = 0.0
    #: Mc·mi(idx) — monetary cost of the remaining build, dollars.
    build_cost_dollars: float = 0.0
    #: st(idx, W) — holding cost over the storage window, dollars.
    storage_cost_dollars: float = 0.0
    #: The fading controller D the evaluation used, in quanta.
    fade_quanta: float = 0.0
    #: Number of in-window dataflow samples that contributed.
    samples: int = 0

    def flags(self) -> tuple[bool, bool]:
        """Algorithm 1's two flags, ``(beneficial, deletable)``, in one call.

        *Beneficial* — build it — is both gains positive. The tolerance
        is zero on purpose: the build hurdle is already folded into both
        gains, so *any* strictly positive residue means the index pays
        for itself (making the threshold explicit keeps NUM01 honest
        without changing the paper's criterion).

        *Deletable* is both gains (effectively) non-positive. A built
        index has no remaining build hurdle, so an arbitrarily faded
        history sample keeps its time gain mathematically positive
        forever; gains below the configured threshold count as zero.
        """
        gt = self.time_gain_quanta
        gm = self.money_gain_dollars
        eps_t = self.delete_threshold_quanta
        eps_m = eps_t * 0.1  # Mc dollars per quantum
        return (
            gt_tol(gt, 0.0, tol=0.0) and gt_tol(gm, 0.0, tol=0.0),
            le_tol(gt, 0.0, tol=eps_t) and le_tol(gm, 0.0, tol=eps_m),
        )

    @property
    def beneficial(self) -> bool:
        """Both gains positive — the Algorithm 1 build criterion."""
        return self.flags()[0]

    @property
    def deletable(self) -> bool:
        """Both gains (effectively) non-positive — Algorithm 1's delete."""
        return self.flags()[1]

    def breakdown(self, flags: tuple[bool, bool] | None = None) -> dict[str, object]:
        """The full Eq. 3-5 term breakdown of this one index as a
        JSON-ready dict.

        This is the payload the decision journal attaches to each index
        build and index delete event; a decision's gains are journalled
        as one :func:`gain_table` with the same keys. ``flags`` are this
        gain's :meth:`flags`, for a caller that has them.
        """
        beneficial, deletable = self.flags() if flags is None else flags
        return {
            "index": self.index_name,
            "time_gain_quanta": self.time_gain_quanta,
            "money_gain_dollars": self.money_gain_dollars,
            "combined_dollars": self.combined_dollars,
            "faded_time_quanta": self.faded_time_quanta,
            "faded_money_dollars": self.faded_money_dollars,
            "build_time_quanta": self.build_time_quanta,
            "build_cost_dollars": self.build_cost_dollars,
            "storage_cost_dollars": self.storage_cost_dollars,
            "fade_quanta": self.fade_quanta,
            "samples": self.samples,
            "beneficial": beneficial,
            "deletable": deletable,
        }


def gain_table(
    gains: Iterable[IndexGain], flags: Mapping[str, tuple[bool, bool]]
) -> dict[str, list[object]]:
    """Many gains as one JSON-ready table: each :meth:`IndexGain.breakdown`
    key maps to one list, with one row per gain in the order given.

    Column ``f`` at row ``k`` is ``breakdown(flags[name])[f]`` of the
    ``k``-th gain, whose index is ``table["index"][k]``. The table is the
    gains' fields transposed, so each key is written once per decision
    instead of once per index. ``flags`` maps each gain's index name to
    its :meth:`IndexGain.flags`, as :func:`repro.tuning.ranking.classify`
    returns them.
    """
    rows = list(gains)
    columns = zip(*rows) if rows else [()] * len(IndexGain._fields)
    table: dict[str, list[object]] = {
        field: list(column) for field, column in zip(IndexGain._fields, columns)
    }
    del table["delete_threshold_quanta"]
    names = table["index"] = table.pop("index_name")
    table["beneficial"] = [flags[name][0] for name in names]
    table["deletable"] = [flags[name][1] for name in names]
    return table


class GainModel:
    """Evaluates Equations 3-5 for indexes against dataflow history."""

    def __init__(
        self,
        pricing: PricingModel,
        cost_model: IndexCostModel,
        params: GainParameters | None = None,
    ) -> None:
        self.pricing = pricing
        self.cost_model = cost_model
        self.params = params or GainParameters()
        #: Hit/miss/invalidation counters of the cost-term memo below.
        self.cost_stats = CacheStats()
        # ti(idx) depends only on the index's build state (which
        # partitions are unbuilt): partition record counts never change
        # (updates bump versions, not sizes), so the memo keys on
        # (name, build_version) — every build/invalidate/drop bumps the
        # version, making stale hits impossible. Each entry is
        # (build_version, ti, Mc·ti).
        self._build_time_cache: dict[str, tuple[int, float, float]] = {}
        # st(idx, W) and the index size are static per index.
        self._storage_cache: dict[str, float] = {}
        self._read_cache: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def fading(self, age_quanta: float) -> float:
        """dc(t) = e^(-t/D) — discounts historical dataflows."""
        if age_quanta < 0:
            raise ValueError("age cannot be negative")
        return math.exp(-age_quanta / self.params.fade_quanta)

    def in_window(self, age_quanta: float) -> bool:
        """δ(d, t): whether the dataflow still counts at all."""
        return age_quanta <= self.params.window_quanta

    def build_time_quanta(self, index: Index) -> float:
        """ti(idx): remaining build time over unbuilt partitions.

        Memoised on ``(index.name, index.build_version)`` — the exact
        float the sum below would produce is returned, so the memo is
        invisible to the gain arithmetic.
        """
        cached = self._build_time_cache.get(index.name)
        if cached is not None and cached[0] == index.build_version:
            self.cost_stats.hit()
            return cached[1]
        return self._build_terms(index)[1]

    def _build_terms(self, index: Index) -> tuple[int, float, float]:
        """Count a miss, then compute and memoise ``(build_version, ti,
        Mc·ti)`` of ``index``."""
        self.cost_stats.miss()
        table, spec = index.table, index.spec
        value = self.pricing.quanta(
            sum(
                self.cost_model.partition_model(table, spec, table.partition(pid)).total_build_seconds
                for pid in index.unbuilt_partition_ids()
            )
        )
        # mi(idx) == ti(idx): builds run on already-leased resources, so
        # they cost the money the idle slots would otherwise waste.
        entry = (index.build_version, value, self.pricing.quantum_price * value)
        self._build_time_cache[index.name] = entry
        return entry

    def invalidate_index(self, index_name: str) -> None:
        """Drop memoised cost terms of one index.

        The build-version keying already prevents stale hits; explicit
        invalidation (called by the service when an index is built,
        dropped or data-invalidated) keeps the table bounded by live
        indexes and makes the cache lifecycle observable through
        ``cost_stats.invalidations``.
        """
        if self._build_time_cache.pop(index_name, None) is not None:
            self.cost_stats.invalidate()

    def storage_cost_dollars(self, index: Index) -> float:
        """st(idx, W): keeping the whole index for the storage window.

        Memoised per index name: partition record counts are immutable
        (data updates version partitions without resizing them), so the
        storage cost of an index never changes over a run.
        """
        cached = self._storage_cache.get(index.name)
        if cached is not None:
            self.cost_stats.hit()
            return cached
        return self._storage_term(index)

    def _storage_term(self, index: Index) -> float:
        """Count a miss, then compute and memoise st(idx, W) of ``index``."""
        self.cost_stats.miss()
        value = self.cost_model.storage_cost_dollars(
            index.table, index.spec, self.params.storage_window_quanta
        )
        self._storage_cache[index.name] = value
        return value

    def index_read_quanta(self, index: Index) -> float:
        """Time to read the full index from the storage service.

        Memoised per index name, like the storage cost: the index size
        depends only on the index's table and spec.
        """
        cached = self._read_cache.get(index.name)
        if cached is None:
            size_mb = self.cost_model.index_size_mb(index.table, index.spec)
            cached = self.pricing.quanta(size_mb / self.cost_model.container.net_bw_mb_s)
            self._read_cache[index.name] = cached
        return cached

    # ------------------------------------------------------------------
    # Equations 4, 5, 3
    # ------------------------------------------------------------------
    def evaluate(self, index: Index, samples: list[DataflowGainSample]) -> IndexGain:
        """Equation 3 over a raw sample list: folds the in-window samples
        into the two faded inflows, then :meth:`evaluate_from_sums`."""
        mc = self.pricing.quantum_price
        faded_time = 0.0
        faded_money = 0.0
        in_window = 0
        for s in samples:
            if not self.in_window(s.age_quanta):
                continue
            dc = self.fading(s.age_quanta)
            faded_time += dc * s.time_gain_quanta
            faded_money += dc * mc * s.money_gain_quanta
            in_window += 1
        return self.evaluate_from_sums(index, faded_time, faded_money, in_window)

    def evaluate_from_sums(
        self,
        index: Index,
        faded_time_quanta: float,
        faded_money_dollars: float,
        samples_in_window: int,
    ) -> IndexGain:
        """Equations 3-5 from pre-aggregated benefit inflows.

        ``faded_time_quanta`` is Σ dc(ΔT)·gtd over the in-window samples
        and ``faded_money_dollars`` is Σ dc(ΔT)·Mc·gmd over the in-window
        samples, as :meth:`evaluate` folds them from a sample list. The
        incremental evaluator maintains those sums across calls
        (:mod:`repro.tuning.incremental`). Equation 5 is ``gt``, Equation
        4 is ``gm`` and Equation 3 weights the two. This is the one-index
        case of :meth:`evaluate_many`.
        """
        return self.evaluate_many(
            [index], [faded_time_quanta], [faded_money_dollars], [samples_in_window]
        )[0]

    def evaluate_many(
        self,
        indexes: Sequence[Index],
        faded_time_quanta: Sequence[float],
        faded_money_dollars: Sequence[float],
        samples_in_window: Sequence[int],
    ) -> list[IndexGain]:
        """:meth:`evaluate_from_sums` of every index in ``indexes``, in order.

        Entry ``k`` of each sequence holds the inflows and the sample
        count of ``indexes[k]``. One decision scores every potential
        index in this one loop. Each index looks up its memoised
        ``(ti, Mc·ti)`` and ``st`` once, as the per-index path does, and
        ``gt``, ``gm`` and ``g`` are the same expressions evaluated in the
        same order, so every float is the one :meth:`evaluate_from_sums`
        would return; only the per-decision constants are read once and
        the cache hits counted in one addition (misses at the same events
        as before).
        """
        build_cache = self._build_time_cache
        storage_cache = self._storage_cache
        alpha = self.params.alpha
        time_weight = alpha * self.pricing.quantum_price
        money_weight = 1.0 - alpha
        threshold = self.params.delete_threshold_quanta
        fade = self.params.fade_quanta
        hits = 0
        out: list[IndexGain] = []
        for k, index in enumerate(indexes):
            name = index.name
            entry = build_cache.get(name)
            if entry is not None and entry[0] == index.build_version:
                hits += 1
            else:
                entry = self._build_terms(index)
            storage_cost = storage_cache.get(name)
            if storage_cost is not None:
                hits += 1
            else:
                storage_cost = self._storage_term(index)
            _, build_time, build_cost = entry
            faded_time = faded_time_quanta[k]
            faded_money = faded_money_dollars[k]
            gt = faded_time - build_time
            gm = faded_money - (build_cost + storage_cost)
            out.append(IndexGain(
                name, gt, gm, time_weight * gt + money_weight * gm, threshold,
                faded_time, faded_money, build_time, build_cost, storage_cost,
                fade, samples_in_window[k],
            ))
        self.cost_stats.hit(hits)
        return out


def dataflow_index_gains(
    dataflow: Dataflow,
    pricing: PricingModel,
    index_read_quanta: dict[str, float] | None = None,
    net_bw_mb_s: float | None = None,
    index_sizes_mb: dict[str, float] | None = None,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-index gtd/gmd of one dataflow, in quanta.

    The time gain of an index is the operator runtime it would save if
    fully built — the operator's runtime share on the indexed file,
    scaled by ``1 - 1/speedup`` — plus, when the network bandwidth is
    given, the input transfer avoided by reading the index and the
    touched slice instead of the whole file. The money gain is the same
    saved VM time minus the time to read the index from storage (both in
    quanta, so money and time share units, Section 4).
    """
    time_gains: dict[str, float] = {}
    for op in dataflow.operators.values():
        if not op.index_speedup:
            continue
        weights = op.input_weights()
        sizes = {f.name: f.size_mb for f in op.inputs}
        for index_name, speedup in op.index_speedup.items():
            if le_tol(speedup, 1.0):
                continue
            table = index_name.split("__", 1)[0]
            weight = weights.get(table, 1.0 if not weights else 0.0)
            saved_s = op.runtime * weight * (1.0 - 1.0 / speedup)
            if net_bw_mb_s and table in sizes:
                index_mb = (index_sizes_mb or {}).get(index_name, 0.0)
                avoided = sizes[table] - (sizes[table] / speedup + index_mb)
                if gt_tol(avoided, 0.0):
                    saved_s += avoided / net_bw_mb_s
            time_gains[index_name] = time_gains.get(index_name, 0.0) + pricing.quanta(saved_s)
    money_gains: dict[str, float] = {}
    for index_name, gain in time_gains.items():
        read = (index_read_quanta or {}).get(index_name, 0.0)
        money_gains[index_name] = gain - read
    return time_gains, money_gains
