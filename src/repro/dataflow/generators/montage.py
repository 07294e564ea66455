"""Montage: astronomical image mosaic workflow (Fig. 5A).

Shape: a wide level of projection operators reading the input images,
pairwise difference-fit operators over overlapping projections, a
concat-fit and background-model bottleneck, a wide background-correction
level, and a final aggregation chain (image table, add, shrink, JPEG).
Runtime distributions are calibrated to Table 4: 100 operators, runtime
min 3.82 / max 49.32 / mean 11.32 s (the single large operator is mAdd).
"""

from __future__ import annotations

import numpy as np

from repro.dataflow.generators.base import (
    InputFileModel,
    WorkflowSpec,
    attach_inputs,
    finish,
    truncated_normal,
    uniform,
)
from repro.dataflow.graph import Dataflow
from repro.dataflow.operator import Operator

APP_NAME = "montage"

#: Input file statistics from Table 4: 20 files, 0.01-4.02 MB, mean 3.22.
INPUT_FILES = InputFileModel(count=20, min_mb=0.01, max_mb=4.02, mean_mb=3.22)

#: Per-task-type runtime distributions (mean, std, low, high), seconds.
_RUNTIMES = {
    "mProject": (11.5, 2.0, 6.0, 18.0),
    "mDiffFit": (10.5, 1.5, 5.0, 16.0),
    "mConcatFit": (14.0, 2.0, 9.0, 20.0),
    "mBgModel": (20.0, 3.0, 12.0, 30.0),
    "mBackground": (11.5, 2.0, 6.0, 18.0),
    "mImgTbl": (8.0, 1.0, 5.0, 11.0),
    "mAdd": (47.0, 1.5, 43.0, 49.32),
    "mShrink": (5.0, 0.5, 3.9, 6.5),
    "mJPEG": (3.9, 0.05, 3.82, 4.1),
}


def generate_input_sizes(rng: np.random.Generator) -> list[float]:
    """Sizes of the 20 Montage input images, matching Table 4."""
    sizes = [
        truncated_normal(rng, 3.5, 0.7, INPUT_FILES.min_mb, INPUT_FILES.max_mb)
        for _ in range(INPUT_FILES.count - 2)
    ]
    # A couple of tiny header-like files pull the minimum down to ~0.01 MB.
    sizes.append(truncated_normal(rng, 0.05, 0.03, INPUT_FILES.min_mb, 0.2))
    sizes.append(truncated_normal(rng, 1.0, 0.4, 0.2, 2.0))
    return sizes


def _runtime(rng: np.random.Generator, task: str) -> float:
    mean, std, low, high = _RUNTIMES[task]
    return truncated_normal(rng, mean, std, low, high)


def check_num_ops(num_ops: int) -> None:
    """Reject an operator count the Montage shape cannot fill."""
    if num_ops < 12:
        raise ValueError("montage needs at least 12 operators")


def build(
    spec: WorkflowSpec,
    rng: np.random.Generator,
    name: str,
    num_ops: int = 100,
    issued_at: float = 0.0,
) -> Dataflow:
    """Generate one Montage dataflow with ``num_ops`` operators."""
    check_num_ops(num_ops)
    tail = 6  # mConcatFit, mBgModel, mImgTbl, mAdd, mShrink, mJPEG
    wide = num_ops - tail
    n_proj = wide * 27 // 94
    n_back = n_proj
    n_diff = wide - n_proj - n_back

    flow = Dataflow(name=name, issued_at=issued_at)
    projections = [
        flow.add_operator(
            Operator(name=f"mProject_{i:03d}", runtime=_runtime(rng, "mProject"))
        )
        for i in range(n_proj)
    ]
    attach_inputs(flow, projections, spec, rng)

    diffs = []
    for i in range(n_diff):
        op = flow.add_operator(
            Operator(name=f"mDiffFit_{i:03d}", runtime=_runtime(rng, "mDiffFit"))
        )
        left = projections[i % n_proj]
        right = projections[(i + 1) % n_proj]
        flow.add_edge(left.name, op.name, data_mb=uniform(rng, 1.0, 4.0))
        flow.add_edge(right.name, op.name, data_mb=uniform(rng, 1.0, 4.0))
        diffs.append(op)

    concat = flow.add_operator(
        Operator(name="mConcatFit", runtime=_runtime(rng, "mConcatFit"))
    )
    for op in diffs:
        flow.add_edge(op.name, concat.name, data_mb=uniform(rng, 0.1, 0.5))

    bgmodel = flow.add_operator(
        Operator(name="mBgModel", runtime=_runtime(rng, "mBgModel"))
    )
    flow.add_edge(concat.name, bgmodel.name, data_mb=uniform(rng, 0.1, 0.5))

    backgrounds = []
    for i in range(n_back):
        op = flow.add_operator(
            Operator(name=f"mBackground_{i:03d}", runtime=_runtime(rng, "mBackground"))
        )
        flow.add_edge(bgmodel.name, op.name, data_mb=uniform(rng, 0.05, 0.2))
        flow.add_edge(projections[i].name, op.name, data_mb=uniform(rng, 1.0, 4.0))
        backgrounds.append(op)

    imgtbl = flow.add_operator(
        Operator(name="mImgTbl", runtime=_runtime(rng, "mImgTbl"))
    )
    for op in backgrounds:
        flow.add_edge(op.name, imgtbl.name, data_mb=uniform(rng, 1.0, 4.0))

    madd = flow.add_operator(
        Operator(name="mAdd", runtime=_runtime(rng, "mAdd"))
    )
    flow.add_edge(imgtbl.name, madd.name, data_mb=uniform(rng, 20.0, 60.0))

    shrink = flow.add_operator(
        Operator(name="mShrink", runtime=_runtime(rng, "mShrink"))
    )
    flow.add_edge(madd.name, shrink.name, data_mb=uniform(rng, 5.0, 15.0))

    jpeg = flow.add_operator(
        Operator(name="mJPEG", runtime=_runtime(rng, "mJPEG"))
    )
    flow.add_edge(shrink.name, jpeg.name, data_mb=uniform(rng, 1.0, 3.0))

    return finish(flow, num_ops)
