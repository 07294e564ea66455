"""Differential tests: the batched generator draws vs the per-call oracle.

``attach_inputs`` makes all of a dataflow's index-pick and speedup draws
with one ``rng.integers(0, bounds)`` call and replays
``Generator.choice(n, k, replace=False)`` from them; the generators draw
each edge size through ``uniform``. ``tests/differential/oracle.py``
keeps the per-call draws (one ``choice`` per table, one ``integers`` per
speedup, one ``rng.uniform`` per edge). Patched into the three
generator modules, the oracle must produce identical dataflows and
leave the RNG in the identical state after every dataflow.

The numpy contract tests pin the two facts the batching rests on
against numpy itself, so a numpy release that changes ``choice`` or
``uniform`` fails them by name rather than as a golden-hash diff.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.pricing import PAPER_PRICING
from repro.dataflow.client import app_names, build_workload
from repro.dataflow.generators import cybershake, ligo, montage
from repro.dataflow.generators.base import (
    SPEEDUPS,
    WorkflowSpec,
    attach_inputs,
    uniform,
)
from repro.dataflow.graph import Dataflow
from repro.dataflow.operator import Operator

from tests.differential.oracle import oracle_attach_inputs, oracle_uniform

GENERATOR_MODULES = (montage, ligo, cybershake)

#: Every (low, high) edge-size pair the three generators draw.
EDGE_BOUNDS = (
    (1.0, 4.0), (0.1, 0.5), (0.05, 0.2), (20.0, 60.0), (5.0, 15.0), (1.0, 3.0),
    (1.0, 5.0), (0.5, 2.0), (100.0, 500.0), (0.1, 1.0), (1.0, 10.0), (0.05, 0.5),
)

DATAFLOWS_PER_CASE = 50


def patch_oracle_draws(patch: pytest.MonkeyPatch) -> None:
    """Make the three generators draw one numpy call at a time again."""
    for module in GENERATOR_MODULES:
        patch.setattr(module, "attach_inputs", oracle_attach_inputs)
        patch.setattr(module, "uniform", oracle_uniform)


def fingerprint(flow: Dataflow) -> tuple:
    """Everything a generator decides, in the order it decided it."""
    return (
        flow.name,
        flow.issued_at,
        [
            (
                op.name,
                op.runtime,
                op.inputs,
                op.reads_table,
                list(op.index_speedup.items()),
            )
            for op in flow.operators.values()
        ],
        list(flow.edges),
        flow.input_tables,
        flow.candidate_indexes,
    )


def generate(monkeypatch, seed, num_ops, k, app, oracle):
    """Each dataflow's fingerprint and the RNG state right after it."""
    with monkeypatch.context() as patch:
        if oracle:
            patch_oracle_draws(patch)
        workload = build_workload(
            PAPER_PRICING, seed=seed, num_ops=num_ops, indexes_per_dataflow=k
        )
        out = []
        for i in range(DATAFLOWS_PER_CASE):
            flow = workload.next_dataflow(app, issued_at=60.0 * i)
            out.append((fingerprint(flow), workload.rng.bit_generator.state))
    return out


@pytest.mark.parametrize("seed", [7, 8, 11])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("num_ops", [40, 100])
@pytest.mark.parametrize("app", app_names())
def test_generators_match_per_call_draws(monkeypatch, app, num_ops, k, seed):
    expected = generate(monkeypatch, seed, num_ops, k, app, oracle=True)
    actual = generate(monkeypatch, seed, num_ops, k, app, oracle=False)
    for i, (want, got) in enumerate(zip(expected, actual)):
        assert got == want, f"dataflow {i} of {app} diverged"


def test_mixed_apps_share_one_stream(monkeypatch):
    """Arrivals of all three apps interleaved on one stream, as the
    random generator client issues them."""
    apps = app_names()

    def run(oracle):
        with monkeypatch.context() as patch:
            if oracle:
                patch_oracle_draws(patch)
            workload = build_workload(PAPER_PRICING, seed=3)
            order = np.random.default_rng(5).integers(0, len(apps), size=60)
            return [
                (
                    fingerprint(workload.next_dataflow(apps[int(a)], 0.0)),
                    workload.rng.bit_generator.state,
                )
                for a in order
            ]

    assert run(oracle=False) == run(oracle=True)


# ----------------------------------------------------------------------
# numpy contract: the facts the batched draws rest on
# ----------------------------------------------------------------------
def _one_table_spec(n: int, k: int) -> WorkflowSpec:
    return WorkflowSpec(
        app="contract",
        tables=["t"],
        table_sizes_mb=[1.0],
        indexes_per_table={"t": [f"i{j}" for j in range(n)]},
        indexes_per_dataflow=k,
    )


def _fresh_rng(seed: int) -> np.random.Generator:
    rng = np.random.default_rng(seed)
    if seed % 2:
        # Leave half of PCG64's 64-bit output buffered for next_uint32.
        rng.integers(0, 5)
    return rng


@pytest.mark.parametrize("n", range(13))
def test_replayed_choice_is_numpy_choice(n):
    """For every 0 <= k <= n <= 12: the replay picks what
    ``rng.choice(n, k, replace=False)`` picks, and the k speedups after
    it, and leaves the same state."""
    for k in range(n + 1):
        spec = _one_table_spec(n, k)
        for seed in range(200):
            rng = _fresh_rng(seed)
            expected_picks = [f"i{j}" for j in rng.choice(n, k, replace=False)]
            expected_speedups = [
                SPEEDUPS[int(rng.integers(0, len(SPEEDUPS)))] for _ in range(k)
            ]
            replay_rng = _fresh_rng(seed)
            op = Operator(name="scan", runtime=1.0)
            attach_inputs(Dataflow(name="contract"), [op], spec, replay_rng)
            assert list(op.index_speedup) == expected_picks, (n, k, seed)
            assert list(op.index_speedup.values()) == expected_speedups, (n, k, seed)
            assert replay_rng.bit_generator.state == rng.bit_generator.state, (n, k, seed)


def test_uniform_is_numpy_uniform():
    """``uniform`` equals ``float(rng.uniform(lo, hi))`` bit for bit."""
    pairs = list(EDGE_BOUNDS) + [(2.5, 2.5), (-3.0, 7.0), (0.0, 1e-300), (1e6, 1e6 + 1)]
    lows = np.random.default_rng(0).uniform(-1e3, 1e3, size=200)
    pairs += [(float(lo), float(lo) + w) for lo, w in zip(lows, np.abs(lows))]
    for seed, (lo, hi) in enumerate(pairs):
        rng, ours = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            assert uniform(ours, lo, hi).hex() == float(rng.uniform(lo, hi)).hex()
        assert ours.bit_generator.state == rng.bit_generator.state


def test_uniform_rejects_reversed_bounds_like_numpy():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        rng.uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        uniform(rng, 2.0, 1.0)
    with pytest.raises(ValueError):
        oracle_uniform(rng, 2.0, 1.0)
