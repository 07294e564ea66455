"""Per-layer spans and counts, wrapped around each layer's entry point.

Nothing in ``src/`` changes: :func:`install` replaces each entry point
where it is looked up. A module-level function is replaced in every
``repro`` module that holds it (from-imports bind ``solve_knapsack``
into ``repro.interleave.lp`` and the interleavers into
``repro.tuning.tuner``); a method is replaced on its class.

A :class:`Recorder` counts calls in both of its modes. With ``timed``
it also records one span per call made inside a root span (a service
``step``, ``finish_run`` or the obs artifact serialisation): name,
start, end, parent span and request id (episode, step). A layer's self
time is its span minus the time its child spans cover, so the self
times of all layers add up to the time of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable

#: Layers in report order. ``obs`` also covers artifact serialisation,
#: which the benchmark wraps itself.
LAYERS = (
    "core.service",
    "interleave.knapsack",
    "interleave.lp",
    "interleave.online",
    "scheduling.skyline",
    "tuning.tuner",
    "tuning.gain",
    "data.index_model",
    "core.simulator",
    "core.pool",
    "cloud.storage",
    "recovery",
    "obs",
    "obs.ledger",
    "dataflow.client",
)


class Recorder:
    """Call counts, derived samples and (when ``timed``) spans."""

    def __init__(self, timed: bool) -> None:
        self.timed = timed
        #: (episode, step) of the step being executed.
        self.request: tuple[int, int] = (-1, -1)
        #: (span id, layer, start, end, parent span id or -1, request).
        self.spans: list[tuple[Any, ...]] = []
        self.calls = {layer: 0 for layer in LAYERS}
        self.raised = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.root_s = 0.0
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        self._stack: list[list[Any]] = []
        self._next_id = 0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        observe: Callable[["Recorder", tuple, Any], None] | None = None,
        root: bool = False,
    ) -> Callable[..., Any]:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rec.calls[layer] += 1
            stack = rec._stack
            if not rec.timed or not (stack or root):
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    rec.raised[layer] += 1
                    raise
                if observe is not None:
                    observe(rec, args, result)
                return result
            span_id = rec._next_id
            rec._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec.raised[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                rec.self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    rec.root_s += duration
                rec.spans.append((span_id, layer, frame[1], end, parent, rec.request))
            if observe is not None:
                observe(rec, args, result)
            return result

        return wrapper

    def run_root(self, layer: str, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` inside a root span of ``layer``."""
        return self.wrap(layer, fn, root=True)()


# ----------------------------------------------------------------------
# Derived samples, taken from the arguments and results of each call.
# ----------------------------------------------------------------------
def _knapsack(rec: Recorder, args: tuple, solution: Any) -> None:
    items = args[0]
    rec.sample("knapsack.items", len(items))
    rec.sample("knapsack.classes", len({(it.size, it.gain) for it in items}))
    if solution.lp_bound > 0:
        rec.sample("knapsack.gap", solution.total_gain / solution.lp_bound)


def _pack(rec: Recorder, args: tuple, schedule: Any) -> None:
    rec.count("lp.offered", len(args[1]))
    rec.count("lp.placed", len(schedule.scheduled_builds))


def _online(rec: Recorder, args: tuple, schedules: Any) -> None:
    rec.count("online.offered", len(args[1]) * len(schedules))
    rec.count("online.placed", sum(len(s.scheduled_builds) for s in schedules))


def _skyline(rec: Recorder, args: tuple, points: Any) -> None:
    rec.count("skyline.points", len(points))


def _decision(rec: Recorder, args: tuple, decision: Any) -> None:
    rec.count("builds.placed", decision.chosen.num_builds)


def _candidates(rec: Recorder, args: tuple, candidates: Any) -> None:
    rec.count("builds.offered", len(candidates))


def _gains(rec: Recorder, args: tuple, gains: Any) -> None:
    rec.count("gain.indexes", len(gains))


def _counter(name: str) -> Callable[[Recorder, tuple, Any], None]:
    def observe(rec: Recorder, args: tuple, result: Any) -> None:
        rec.count(name)

    return observe


#: (layer, module, attribute, observe). ``Class.method`` attributes are
#: replaced on the class; plain names in every module that holds them.
ENTRY_POINTS = (
    ("interleave.knapsack", "repro.interleave.knapsack", "solve_knapsack", _knapsack),
    ("interleave.lp", "repro.interleave.lp", "lp_interleave", None),
    ("interleave.lp", "repro.interleave.lp", "pack_builds_into_schedule", _pack),
    ("interleave.online", "repro.interleave.online", "online_interleave", _online),
    ("scheduling.skyline", "repro.scheduling.skyline", "SkylineScheduler.schedule", _skyline),
    ("tuning.tuner", "repro.tuning.tuner", "OnlineIndexTuner.on_dataflow", _decision),
    ("tuning.tuner", "repro.tuning.tuner", "OnlineIndexTuner.build_candidates", _candidates),
    ("tuning.gain", "repro.tuning.tuner", "OnlineIndexTuner.evaluate_gains", _gains),
    ("data.index_model", "repro.data.index_model", "IndexCostModel.index_size_mb", None),
    ("data.index_model", "repro.data.index_model", "IndexCostModel.partition_model", None),
    ("data.index_model", "repro.data.index_model", "IndexCostModel.partition_size_mb", None),
    ("core.simulator", "repro.core.simulator", "ExecutionSimulator.execute", None),
    ("core.simulator", "repro.core.simulator", "ExecutionSimulator.execute_pooled", None),
    ("core.pool", "repro.core.pool", "ContainerPool.acquire", None),
    ("cloud.storage", "repro.cloud.storage", "CloudStorage.put", _counter("storage.puts")),
    ("cloud.storage", "repro.cloud.storage", "CloudStorage.delete", _counter("storage.deletes")),
    ("recovery", "repro.recovery.manager", "RecoveryManager.record", None),
    ("recovery", "repro.recovery.manager", "RecoveryManager.commit", _counter("recovery.commits")),
    ("recovery", "repro.recovery.snapshot", "write_snapshot", _counter("recovery.snapshots")),
    ("obs", "repro.obs.journal", "RecordingJournal.emit", None),
    ("obs.ledger", "repro.obs.ledger", "IndexLedger.on_build", None),
    ("obs.ledger", "repro.obs.ledger", "IndexLedger.on_predicted", None),
    ("obs.ledger", "repro.obs.ledger", "IndexLedger.on_probe", None),
    ("obs.ledger", "repro.obs.ledger", "IndexLedger.on_delete", None),
    ("obs.ledger", "repro.obs.ledger", "IndexLedger.emit_roi", None),
    ("obs.ledger", "repro.obs.ledger", "IndexLedger.finish", None),
    ("obs.ledger", "repro.obs.watchdog", "RegressionWatchdog.check", None),
    ("obs.ledger", "repro.obs.watchdog", "RegressionWatchdog.on_rolled_back",
     _counter("ledger.rollbacks")),
    ("dataflow.client", "repro.dataflow.client", "Workload.next_dataflow", None),
)

#: Root spans: every traced call happens inside one of them.
ROOT_ENTRY_POINTS = (
    ("core.service", "repro.core.service", "QaaSService.step"),
    ("core.service", "repro.core.service", "QaaSService.finish_run"),
)


def install(rec: Recorder) -> None:
    """Wrap every entry point; call after importing ``repro``."""
    for layer, module_name, attr, observe in ENTRY_POINTS:
        _replace(rec, layer, module_name, attr, observe, root=False)
    for layer, module_name, attr in ROOT_ENTRY_POINTS:
        _replace(rec, layer, module_name, attr, None, root=True)


def _replace(
    rec: Recorder,
    layer: str,
    module_name: str,
    attr: str,
    observe: Callable[[Recorder, tuple, Any], None] | None,
    root: bool,
) -> None:
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, method, rec.wrap(layer, getattr(cls, method), observe, root))
        return
    original = getattr(module, attr)
    wrapped = rec.wrap(layer, original, observe, root)
    holders = 0
    for name, loaded in list(sys.modules.items()):
        if name.startswith("repro") and getattr(loaded, attr, None) is original:
            setattr(loaded, attr, wrapped)
            holders += 1
    if not holders:
        raise RuntimeError(f"no module holds {module_name}.{attr}")
