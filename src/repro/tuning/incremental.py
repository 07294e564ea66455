"""Incremental evaluation of the faded gain sums (Equations 4/5).

The naive gain model recomputes, at every decision point, the faded
benefit inflow of every index::

    S_t(now) = Σ_i  e^(-ΔT_i/D) · gtd_i        (in-window samples)
    S_m(now) = Σ_i  e^(-ΔT_i/D) · Mc · gmd_i

with ``ΔT_i = (now - executed_at_i)`` in quanta. That is one ``exp``
per (index, sample) pair per decision — O(window) work for a result
that changes only marginally between decisions.

This module exploits the exponential's composition law: sliding "now"
forward by δ rescales *every* in-window term by the same factor::

    e^(-(ΔT+δ)/D) = e^(-δ/D) · e^(-ΔT/D)
    ⇒  S(now+δ)   = e^(-δ/D) · S(now)  −  expired  +  appended

so one advance costs O(changed entries): one multiply for the decay,
one subtraction per sample that left the window (or was evicted from
the bounded history), one addition per newly recorded dataflow. The
state rebuilds itself from the history whenever an exact replay is not
possible (a record was replaced in place, time moved backwards, or the
window is not in ``executed_at`` order, so expiry is not a prefix).

Numerical contract: the rescaled sum is *tolerance-equal* — not
bit-identical — to the naive per-sample sum, because float
multiplication does not distribute exactly over addition. The drift
per advance is one rounding error (~1e-16 relative); to keep it from
accumulating over thousands of advances, the state re-derives the sums
exactly from its window every :data:`REFRESH_EVERY` advances. The
differential suite (``tests/differential/test_gain_oracle.py``) asserts
agreement with the naive oracle within the repo's money/time epsilons
under adversarial schedules.

One pass per decision. A decision advances every index a dataflow in
the window or in the queue could use (about 450 on the evaluation
catalog), so :meth:`IncrementalGainEvaluator.faded_sums_many` advances
them all in one loop, and :meth:`~IncrementalGainEvaluator.faded_sums`
is its one-name case. The pass is bit-identical to advancing each index
on its own, because it changes only how often a value is computed, never
the expression or the order of the float operations on a state:

* the decay factor ``exp(-(now - last_now)/tq / D)`` is a pure function
  of ``last_now`` at one ``now`` (``D`` is the model's), so states
  advanced together from the same previous decision share one
  computation of it;
* an index whose newest record (``DataflowHistory.newest_position``)
  precedes the state's consumed position has nothing to consume, so its
  history lookup yields nothing and is skipped;
* the per-decision constants (head and end positions, quantum, window)
  are read once, and ``PricingModel.quanta`` is written out as its body,
  one division by the quantum; hits are counted in one addition, and
  misses and invalidations at the same events as before.

``tests/differential/oracle.py`` keeps the per-index evaluator this
pass replaced; the differential suite requires equal floats and equal
cache counts at every decision.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence

from repro.perf import CacheStats
from repro.tuning.gain import GainModel
from repro.tuning.history import DataflowHistory

#: Advances between exact recomputations of the running sums (drift bound).
REFRESH_EVERY = 32


class _IndexState:
    """Running sums and sliding window of one index."""

    __slots__ = (
        "version",
        "last_now",
        "consumed",
        "sum_time",
        "sum_money",
        "window",
        "running",
        "future",
        "unordered",
        "advances",
    )

    def __init__(self, version: int, now: float) -> None:
        self.version = version
        self.last_now = now
        #: History position one past the newest consumed record.
        self.consumed = 0
        #: Σ dc(ΔT)·gtd over the in-window finished samples, quanta.
        self.sum_time = 0.0
        #: Σ dc(ΔT)·Mc·gmd over the in-window finished samples, dollars.
        self.sum_money = 0.0
        #: (position, executed_at, gtd, gmd) of tracked finished samples,
        #: in position order (history appends in finish order).
        self.window: deque[tuple[int, float, float, float]] = deque()
        #: (position, gtd, gmd) of running records: they contribute at
        #: dc(0) = 1 and must not decay, so they stay out of the sums.
        self.running: list[tuple[int, float, float]] = []
        #: (position, executed_at, gtd, gmd) of *future-dated* finished
        #: records (executed_at > now). The model clamps their age to 0
        #: — a clamp the decay-rescale composition law cannot express —
        #: so they contribute at dc(0) = 1 outside the sums until "now"
        #: catches up, at which point the state rebuilds exactly.
        self.future: list[tuple[int, float, float, float]] = []
        #: Whether a window entry is older than one before it. A rebuild
        #: appends in position order, and an out-of-order append, a
        #: running-to-finished flip or a caught-up future-dated record
        #: can leave that apart from ``executed_at`` order. Prefix expiry
        #: would then keep an expired entry behind an in-window one, so
        #: such a state rebuilds exactly at every advance until ordered.
        self.unordered = False
        self.advances = 0


class IncrementalGainEvaluator:
    """Maintains the faded gain sums of every index across decisions.

    Usage: ``faded_sums(name, now)`` returns ``(S_t, S_m,
    samples_in_window)``, and ``faded_sums_many(names, now)`` a list of
    them, one per name — exactly the aggregates
    :meth:`repro.tuning.gain.GainModel.evaluate_from_sums` consumes.
    Live (running/queued) dataflow contributions are *not* included;
    the tuner adds them at dc(0) = 1 on top, mirroring the naive path.

    Cache behaviour is observable: ``stats.hits`` counts O(δ) advances,
    ``stats.misses`` counts full rebuilds, and ``stats.invalidations``
    counts rebuilds forced by history mutation, time moving backwards,
    a caught-up future-dated record or an unordered window.

    Crash-recovery contract (``repro.recovery``): because the rescaled
    sums are only *tolerance-equal* to a from-scratch refold, a restored
    snapshot must keep the pickled per-index states authoritative —
    calling :meth:`reset` after a restore would re-derive bit-different
    sums and break the byte-identical-resume guarantee. A *cold* resume
    (no usable snapshot) instead rebuilds from the restored history the
    exact way the original run did: it replays every advance from t=0,
    so each rebuild and advance happens at the same ``now`` with the
    same window contents and reproduces the original bits.
    """

    def __init__(self, model: GainModel, history: DataflowHistory) -> None:
        self.model = model
        self.history = history
        self.stats = CacheStats()
        self._states: dict[str, _IndexState] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def faded_sums(self, index_name: str, now: float) -> tuple[float, float, int]:
        """(Σ dc·gtd, Σ dc·Mc·gmd, #in-window samples) at ``now``."""
        return self.faded_sums_many([index_name], now)[0]

    def faded_sums_many(
        self, names: Sequence[str], now: float
    ) -> list[tuple[float, float, int]]:
        """:meth:`faded_sums` of every name in ``names`` at ``now``, in order.

        One decision advances every index in this one pass: a decay
        factor is computed once per distinct previous now, and an index
        with no record appended since its last advance skips the history
        lookup.
        """
        history = self.history
        version = history.mutation_version
        head = history.head_position
        end = history.end_position
        newest = history.newest_position
        pricing = self.model.pricing
        tq = pricing.quantum_seconds
        mc = pricing.quantum_price
        window_q = self.model.params.window_quanta
        fade = self.model.params.fade_quanta
        states = self._states
        stats = self.stats
        decays: dict[float, float] = {}
        hits = 0
        out: list[tuple[float, float, int]] = []
        for name in names:
            state = states.get(name)
            if state is None:
                stats.miss()
                state = self._rebuild(name, now)
            elif state.version != version or now < state.last_now:
                stats.invalidate()
                state = self._rebuild(name, now)
            elif state.unordered or (
                state.future and any(at <= now for _, at, _, _ in state.future)
            ):
                # A future-dated record that "now" has caught up with
                # must start decaying from its true age, and an unordered
                # window cannot expire by prefix: only an exact rebuild
                # gives either its sums. Counted as a hit, then an
                # invalidation.
                hits += 1
                stats.invalidate()
                state = self._rebuild(name, now)
            else:
                hits += 1
                # Decay-rescale the sums from last_now to now, by the
                # factor every state with the same last_now shares.
                if now > state.last_now:
                    decay = decays.get(state.last_now)
                    if decay is None:
                        decay = decays[state.last_now] = math.exp(
                            -((now - state.last_now) / tq) / fade
                        )
                    state.sum_time *= decay
                    state.sum_money *= decay
                state.last_now = now
                # Expire from the front: head-evicted records and records
                # that slid out of the window. The window is ordered by
                # position and, since the state is not ``unordered`` and
                # the check below refuses an out-of-order append, by
                # executed_at, so expiry only ever removes a prefix.
                # ``not age > 0.0`` keeps the zero ``max(0.0, age)`` keeps.
                window = state.window
                while window:
                    position, executed_at, gtd, gmd = window[0]
                    age = (now - executed_at) / tq
                    if not age > 0.0:
                        age = 0.0
                    if position >= head and age <= window_q:
                        break
                    window.popleft()
                    dc = math.exp(-age / fade)
                    state.sum_time -= dc * gtd
                    state.sum_money -= dc * mc * gmd
                if state.running:
                    state.running = [e for e in state.running if e[0] >= head]
                if state.future:
                    state.future = [e for e in state.future if e[0] >= head]
                # Consume records appended since the last advance; skip
                # the lookup when the index's newest record predates them.
                if newest(name) >= state.consumed and not self._consume(state, name, now):
                    stats.invalidate()
                    state = self._rebuild(name, now)
                else:
                    state.consumed = end
                    # A periodic exact refresh bounds the drift.
                    state.advances += 1
                    if state.advances % REFRESH_EVERY == 0:
                        sum_time = 0.0
                        sum_money = 0.0
                        for _position, executed_at, gtd, gmd in window:
                            age = (now - executed_at) / tq
                            if not age > 0.0:
                                age = 0.0
                            dc = math.exp(-age / fade)
                            sum_time += dc * gtd
                            sum_money += dc * mc * gmd
                        state.sum_time = sum_time
                        state.sum_money = sum_money
            flat_t = 0.0
            flat_m = 0.0
            alive_flat = 0
            if state.running or state.future:
                for position, gtd, gmd in state.running:
                    if position >= head:
                        flat_t += gtd
                        flat_m += mc * gmd
                        alive_flat += 1
                for position, _executed_at, gtd, gmd in state.future:
                    if position >= head:
                        flat_t += gtd
                        flat_m += mc * gmd
                        alive_flat += 1
            out.append((
                state.sum_time + flat_t,
                state.sum_money + flat_m,
                len(state.window) + alive_flat,
            ))
        stats.hit(hits)
        return out

    def reset(self) -> None:
        """Drop all state (next lookups rebuild from the history)."""
        if self._states:
            self.stats.invalidate(len(self._states))
        self._states.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rebuild(self, index_name: str, now: float) -> _IndexState:
        history = self.history
        pricing = self.model.pricing
        window_q = self.model.params.window_quanta
        fade = self.model.params.fade_quanta
        mc = pricing.quantum_price
        state = _IndexState(version=history.mutation_version, now=now)
        window = state.window
        for position, record in history.entries_for(index_name):
            gtd = record.time_gains.get(index_name, 0.0)
            gmd = record.money_gains.get(index_name, 0.0)
            if record.running:
                state.running.append((position, gtd, gmd))
                continue
            if record.executed_at > now:
                state.future.append((position, record.executed_at, gtd, gmd))
                continue
            age = record.age_quanta(now, pricing)
            if age <= window_q:
                if window and record.executed_at < window[-1][1]:
                    state.unordered = True
                dc = math.exp(-age / fade)
                state.sum_time += dc * gtd
                state.sum_money += dc * mc * gmd
                window.append((position, record.executed_at, gtd, gmd))
        state.consumed = history.end_position
        self._states[index_name] = state
        return state

    def _consume(self, state: _IndexState, index_name: str, now: float) -> bool:
        """Fold the records appended since ``state`` last advanced into it;
        False, leaving ``state`` part-updated, when one predates the
        window's newest (an out-of-order append breaks prefix expiry, so
        the caller rebuilds exactly)."""
        pricing = self.model.pricing
        window_q = self.model.params.window_quanta
        fade = self.model.params.fade_quanta
        mc = pricing.quantum_price
        for position, record in self.history.entries_for(index_name, state.consumed):
            gtd = record.time_gains.get(index_name, 0.0)
            gmd = record.money_gains.get(index_name, 0.0)
            if record.running:
                state.running.append((position, gtd, gmd))
                continue
            if record.executed_at > now:
                state.future.append((position, record.executed_at, gtd, gmd))
                continue
            if state.window and record.executed_at < state.window[-1][1]:
                return False
            age = record.age_quanta(now, pricing)
            if age <= window_q:
                dc = math.exp(-age / fade)
                state.sum_time += dc * gtd
                state.sum_money += dc * mc * gmd
                state.window.append((position, record.executed_at, gtd, gmd))
        return True
