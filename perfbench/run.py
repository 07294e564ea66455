"""End-to-end and per-layer benchmark of the index auto-tuning service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lp_phase --seed 7 --seconds 30 --trace 0

One process with one thread drives the public run API
(``repro.prepare_run``, then ``QaaSService.begin_run`` / ``step`` /
``finish_run``) as a closed loop with one client: the seeded arrival
stream is generated up front and consumed one arrival at a time, as
fast as the service goes. Every pass runs in a fresh interpreter
(``worker.py``) so its peak RSS is its own.

``--trace 0`` prints the end-to-end metrics of a timed pass that
replays as many episodes as fill about ``--seconds``; after every step
``InvariantMonitor.check`` verifies the state, outside every timing.
``--trace 1`` prints the per-layer metrics of a traced pass, next to
an untraced reference pass over the same episodes: outcome digests,
simulated metrics and counts must agree exactly between the two, and
trace coverage is checked. The last line of output is one JSON object.
See README.md for the workloads, the metrics and what each layer moves.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import LAYERS  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_WORKLOAD_SEED,
    HELD_OUT_WORKLOAD_SEED,
    WORKLOADS,
    episodes,
)
from worker import RULES  # noqa: E402

#: A run must end within this many seconds.
DEADLINE_S = 170.0
#: Fresh-interpreter set-ups per run; the median is reported.
SETUP_PROBES = 5
#: Steps that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Seconds the reference task (worker.reference_s) takes on the host the
#: reported times are quoted for. A time measured while the task took
#: r seconds is reported as time * REFERENCE_S / r.
REFERENCE_S = 0.012

#: Entry points a traced run must see called (> 0) or never (== 0).
COVERAGE = {
    "lp_phase": {"interleave.knapsack.calls": True},
    "online_random": {"interleave.online.calls": True, "interleave.knapsack.calls": False},
    "churn": {
        "interleave.online.calls": True,
        "interleave.knapsack.calls": False,
        "recovery.commits": True,
        "obs.calls": True,
    },
}


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


class Run:
    """One benchmark invocation: its passes, checks and deadline."""

    def __init__(self, args: argparse.Namespace, tmp: str) -> None:
        self.args = args
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.problems: list[str] = []

    def spec(self, mode: str, **extra: object) -> dict:
        workload = WORKLOADS[self.args.workload]
        spec = {
            "root": ROOT,
            "tmp": self.tmp,
            "mode": mode,
            "workload": workload.name,
            "seed": self.args.seed,
            "workload_seed": self.args.workload_seed,
            "episodes": episodes(workload, self.args.seconds),
        }
        spec.update(extra)
        return spec

    def child(self, spec: dict) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before a pass could start")
        env = dict(os.environ, PYTHONHASHSEED="0")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
                capture_output=True,
                text=True,
                timeout=remaining,
                cwd=ROOT,
                env=env,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{spec['mode']} pass did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(
                f"{spec['mode']} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def compare(self, reference: dict, other: dict) -> None:
        """Digests, simulated outcomes and shared counts must repeat."""
        mode = other["mode"]
        for ref, got in zip(reference["episodes"], other["episodes"]):
            for key in ("digest", "finished", "dollars", "makespan_q_sum"):
                self.check(
                    ref[key] == got[key],
                    f"{mode} episode {got['arrival_seed']}: {key} {got[key]!r} "
                    f"!= verify {ref[key]!r}",
                )
        self.check(
            len(reference["episodes"]) == len(other["episodes"]),
            f"{mode} pass ran {len(other['episodes'])} episodes",
        )
        for key in sorted(set(reference["counts"]) & set(other["counts"])):
            self.check(
                reference["counts"][key] == other["counts"][key],
                f"{mode} count {key} = {other['counts'][key]} != verify "
                f"{reference['counts'][key]}",
            )
        self.check(not other["raised"], f"{mode} pass raised: {other['raised']}")


def _tail(steps: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND steps beyond it, and its value."""
    ordered = sorted(steps)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _verify_summary(result: dict) -> tuple[int, int]:
    """Print the verification's violation counts; return (attempted, failed)."""
    attempted = sum(len(e["steps"]) for e in result["episodes"]) + len(result["raised"])
    failed = result["failed_steps"] + len(result["raised"])
    print(f"verification: {failed} of {attempted} steps failed "
          f"({len(result['raised'])} raised, {result['exhausted_steps']} exhausted retries)")
    for rule, n in result["violations"].items():
        print(f"  {rule:<22} {n} steps")
    return attempted, failed


def _speed(refs: list[float]) -> float:
    """Factor from this process's seconds to reference-host seconds."""
    return REFERENCE_S / statistics.median(refs)


def end_to_end(run: Run) -> tuple[dict, int, int]:
    run.child(run.spec("setup"))  # compiles bytecode; not measured
    probes = [run.child(run.spec("setup")) for _ in range(SETUP_PROBES)]
    timed = run.child(run.spec("timed"))
    attempted, failed = _verify_summary(timed)
    run.check(not timed["raised"], f"timed pass raised: {timed['raised']}")
    episodes = timed["episodes"]
    raw = [t for e in episodes for t in e["steps"]]
    steps = [t * _speed(e["refs"]) for e in episodes for t in e["steps"]]
    run.check(bool(steps), "no step was executed")
    measured = sum(e["window_s"] * _speed(e["refs"]) for e in episodes)
    percentile, tail = _tail(steps)
    finished = sum(e["finished"] for e in episodes)
    setup_raw = statistics.median(p["setup_s"] for p in probes)
    print(f"{len(episodes)} episodes, {len(steps)} steps; tail is p{percentile:.1f}; "
          "digests " + " ".join(e["digest"] for e in episodes))
    print(f"unnormalised: {len(raw) / sum(e['window_s'] for e in episodes):.4g} "
          f"dataflows/s, step p50 {1000 * statistics.median(raw):.4g} ms, "
          f"tail {1000 * _tail(raw)[1]:.4g} ms, setup {setup_raw:.4g} s; "
          f"reference task {1000 * statistics.median(r for e in episodes for r in e['refs']):.3f} ms")
    values = {
        "setup_s": statistics.median(p["setup_s"] * _speed(p["refs"]) for p in probes),
        "dataflows_per_s": len(steps) / measured,
        "step_p50_ms": 1000.0 * statistics.median(steps),
        "step_tail_ms": 1000.0 * tail,
        "peak_rss_mb": timed["peak_rss_mb"],
        "cost_per_dataflow_q": _ratio(sum(e["dollars"] for e in episodes) / 0.1, finished),
        "makespan_q": _ratio(sum(e["makespan_q_sum"] for e in episodes), finished),
        "dataflows_finished": finished,
        "passed_ratio": 1.0 - _ratio(failed, attempted),
    }
    # An operation fails when its step raises. Exhausted retries end in a
    # clean rerun and invariant findings leave the dataflow executed: both
    # count against passed_ratio, not here.
    return values, attempted, len(timed["raised"])


def per_layer(run: Run) -> tuple[dict, int, int]:
    workload = WORKLOADS[run.args.workload]
    spans_out = os.path.join(
        ROOT, ".perfbench",
        f"spans-{workload.name}-w{run.args.workload_seed}-s{run.args.seed}.csv.gz",
    )
    # The traced run replays half the episodes of an end-to-end run:
    # shares need less work than timings, and the run stays as short.
    half = (episodes(workload, run.args.seconds) + 1) // 2
    verify = run.child(run.spec("verify", episodes=half))
    verify_steps, verify_failed = _verify_summary(verify)
    traced = run.child(run.spec("traced", episodes=half, spans_out=spans_out))
    run.compare(verify, traced)
    counts = traced["counts"]
    for key, expect_calls in COVERAGE[workload.name].items():
        n = counts.get(key, 0)
        run.check(
            (n > 0) == expect_calls,
            f"trace coverage: {key} = {n} on {workload.name}",
        )
    self_s, root_s = traced["self_s"], traced["root_s"]
    run.check(
        abs(sum(self_s.values()) - root_s) <= 1e-6 * max(root_s, 1.0),
        f"layer self times sum to {sum(self_s.values())!r}, root spans to {root_s!r}",
    )
    untraced_s = sum(e["window_s"] for e in verify["episodes"])
    samples = traced["samples"]
    items = samples.get("knapsack.items", [])
    classes = samples.get("knapsack.classes", [])
    gaps = samples.get("knapsack.gap", [])
    queue = [q for e in traced["episodes"] for q in e["queue_delay_q"]]
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = counts[f"{layer}.calls"]
        values[f"{layer}.share"] = _ratio(self_s[layer], root_s)
    completed, killed = counts["builds.completed"], counts["builds.killed"]
    values.update({
        "trace.total_s": root_s,
        "trace.overhead_ratio": _ratio(root_s, untraced_s) - 1.0,
        "trace.spans": traced["spans"],
        "setup.import_s": traced["import_s"],
        "setup.prepare_s": statistics.median(e["prepare_s"] for e in traced["episodes"]),
        "interleave.knapsack.items_per_call": statistics.fmean(items) if items else 0.0,
        "interleave.knapsack.classes_per_call": statistics.fmean(classes) if classes else 0.0,
        "interleave.knapsack.le2_classes_ratio": _ratio(
            sum(1 for c in classes if c <= 2), len(classes)),
        "interleave.knapsack.memo_hit_ratio": _ratio(
            counts["knapsack.memo_hits"],
            counts["knapsack.memo_hits"] + counts["knapsack.memo_misses"]),
        "interleave.knapsack.gap_median": statistics.median(gaps) if gaps else 0.0,
        "interleave.lp.placed_ratio": _ratio(
            counts.get("lp.placed", 0), counts.get("lp.offered", 0)),
        "interleave.online.placed_ratio": _ratio(
            counts.get("online.placed", 0), counts.get("online.offered", 0)),
        "scheduling.skyline.points_per_call": _ratio(
            counts.get("skyline.points", 0), counts["scheduling.skyline.calls"]),
        "scheduling.skyline.topo_hit_ratio": _ratio(
            counts["skyline.topo_hits"],
            counts["skyline.topo_hits"] + counts["skyline.topo_misses"]),
        "tuning.gain.indexes_per_call": _ratio(
            counts.get("gain.indexes", 0), counts["tuning.gain.calls"]),
        "tuning.gain.cost_hit_ratio": _ratio(
            counts["gain.cost_hits"], counts["gain.cost_hits"] + counts["gain.cost_misses"]),
        "core.service.queue_delay_q": statistics.median(queue) if queue else 0.0,
        "core.pool.reuse_ratio": _ratio(
            counts.get("pool.reused", 0),
            counts.get("pool.reused", 0) + counts.get("pool.created", 0)),
        "cloud.storage.failures": counts["cloud.storage.raised"],
        "recovery.wal_bytes": counts.get("wal.bytes", 0),
        "recovery.snapshots": counts.get("recovery.snapshots", 0),
        "obs.events": counts.get("obs.events", 0),
        "obs.artifact_bytes": counts.get("obs.artifact_bytes", 0),
        "obs.ledger.rollbacks": counts.get("ledger.rollbacks", 0),
        "faults.injected": counts["faults.injected"],
        "core.simulator.build_kill_ratio": _ratio(killed, completed + killed),
        "core.simulator.operator_retries": counts["simulator.operator_retries"],
        "builds.offered": counts.get("builds.offered", 0),
        "builds.placed": counts.get("builds.placed", 0),
        "builds.completed": completed,
        "builds.killed": killed,
        "storage.puts": counts.get("storage.puts", 0),
        "storage.deletes": counts.get("storage.deletes", 0),
        "wal.records": counts.get("wal.records", 0),
        "knapsack.memo_hits": counts["knapsack.memo_hits"],
        "knapsack.memo_misses": counts["knapsack.memo_misses"],
        "skyline.points": counts.get("skyline.points", 0),
        "verify.failed_ratio": _ratio(verify_failed, verify_steps),
    })
    for rule in RULES:
        values[f"verify.{rule}.steps"] = verify["violations"].get(rule, 0)
    shares = sorted(LAYERS, key=lambda layer: -values[f"{layer}.share"])
    print("traced shares: " + ", ".join(
        f"{layer} {values[f'{layer}.share']:.1%}" for layer in shares[:6]))
    print(f"tracing overhead {values['trace.overhead_ratio']:+.1%}; spans in {spans_out}")
    attempted = verify_steps + sum(len(e["steps"]) for e in traced["episodes"])
    failed = len(verify["raised"]) + len(traced["raised"])
    return values, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="arrival-stream seed")
    parser.add_argument(
        "--workload-seed", type=int, default=DEFAULT_WORKLOAD_SEED,
        help="seed of prepare_run: catalog, dataflow shapes, noise and faults "
        f"({HELD_OUT_WORKLOAD_SEED} is held out for confirming claims)",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    scratch_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch_root)
    run = Run(args, tmp)
    try:
        if args.trace:
            values, attempted, failed = per_layer(run)
        else:
            values, attempted, failed = end_to_end(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:<40} {values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
