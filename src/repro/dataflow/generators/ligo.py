"""LIGO Inspiral: gravitational-wave analysis workflow (Fig. 5B).

Shape: several independent groups, each a two-stage pipeline — template
bank operators fan into long-running Inspiral matched-filter operators,
a Thinca coincidence operator aggregates the group, then trigger banks
feed a second Inspiral stage aggregated by a second Thinca. Runtimes are
strongly bimodal, matching Table 4 (min 4.03 / max 689.39 / mean 222.33 /
stdev 241.42): Inspiral operators run hundreds of seconds, everything
else a few seconds.
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

APP_NAME = "ligo"

#: Input file statistics from Table 4: 53 files, 0.86-14.91 MB, mean 14.24.
INPUT_FILES = InputFileModel(count=53, min_mb=0.86, max_mb=14.91, mean_mb=14.24)

#: Per-task-type runtime distributions (mean, std, low, high), seconds.
_RUNTIMES = {
    "TmpltBank": (6.0, 1.0, 4.03, 9.0),
    "Inspiral1": (550.0, 70.0, 350.0, 689.39),
    "Thinca": (5.0, 0.7, 4.03, 7.0),
    "TrigBank": (8.0, 1.5, 4.5, 12.0),
    "Inspiral2": (400.0, 60.0, 250.0, 600.0),
}

#: Pipeline widths: 5 groups x (5 + 5 + 1 + 4 + 4 + 1) = 100 operators.
_GROUPS = 5
_STAGE1_WIDTH = 5
_STAGE2_WIDTH = 4
#: Operators per group: two pipeline stages plus their two Thincas.
_PER_GROUP = 2 * _STAGE1_WIDTH + 2 * _STAGE2_WIDTH + 2


def generate_input_sizes(rng: np.random.Generator) -> list[float]:
    """Sizes of the 53 LIGO input frames: most near the 14.91 MB maximum."""
    sizes: list[float] = []
    for _ in range(INPUT_FILES.count - 4):
        sizes.append(truncated_normal(rng, 14.6, 0.25, 13.5, INPUT_FILES.max_mb))
    # A few short segment files account for the 0.86 MB minimum.
    for _ in range(4):
        sizes.append(truncated_normal(rng, 4.0, 2.5, INPUT_FILES.min_mb, 12.0))
    return sizes


def _runtime(rng: np.random.Generator, task: str) -> float:
    mean, std, low, high = _RUNTIMES[task]
    return truncated_normal(rng, mean, std, low, high)


def check_num_ops(num_ops: int) -> None:
    """Reject an operator count that is not a whole number of groups."""
    if num_ops < _PER_GROUP or num_ops % _PER_GROUP != 0:
        raise ValueError(f"ligo num_ops must be a positive multiple of {_PER_GROUP}")


def build(
    spec: WorkflowSpec,
    rng: np.random.Generator,
    name: str,
    num_ops: int = 100,
    issued_at: float = 0.0,
) -> Dataflow:
    """Generate one LIGO dataflow with ``num_ops`` operators."""
    check_num_ops(num_ops)
    groups = num_ops // _PER_GROUP

    flow = Dataflow(name=name, issued_at=issued_at)
    data_readers: list[Operator] = []
    for g in range(groups):
        banks = [
            flow.add_operator(
                Operator(name=f"TmpltBank_{g}_{i}", runtime=_runtime(rng, "TmpltBank"))
            )
            for i in range(_STAGE1_WIDTH)
        ]
        inspirals = []
        for i in range(_STAGE1_WIDTH):
            op = flow.add_operator(
                Operator(name=f"Inspiral1_{g}_{i}", runtime=_runtime(rng, "Inspiral1"))
            )
            flow.add_edge(banks[i].name, op.name, data_mb=uniform(rng, 1.0, 5.0))
            inspirals.append(op)
        # The Inspiral matched filters are the operators that scan the
        # detector frame files — they, not the template banks, benefit
        # from indexes on those files.
        data_readers.extend(inspirals)
        thinca = flow.add_operator(
            Operator(name=f"Thinca1_{g}", runtime=_runtime(rng, "Thinca"))
        )
        for op in inspirals:
            flow.add_edge(op.name, thinca.name, data_mb=uniform(rng, 0.5, 2.0))

        trigbanks = []
        for i in range(_STAGE2_WIDTH):
            op = flow.add_operator(
                Operator(name=f"TrigBank_{g}_{i}", runtime=_runtime(rng, "TrigBank"))
            )
            flow.add_edge(thinca.name, op.name, data_mb=uniform(rng, 0.5, 2.0))
            trigbanks.append(op)
        inspirals2 = []
        for i in range(_STAGE2_WIDTH):
            op = flow.add_operator(
                Operator(name=f"Inspiral2_{g}_{i}", runtime=_runtime(rng, "Inspiral2"))
            )
            flow.add_edge(trigbanks[i].name, op.name, data_mb=uniform(rng, 1.0, 5.0))
            inspirals2.append(op)
        thinca2 = flow.add_operator(
            Operator(name=f"Thinca2_{g}", runtime=_runtime(rng, "Thinca"))
        )
        for op in inspirals2:
            flow.add_edge(op.name, thinca2.name, data_mb=uniform(rng, 0.5, 2.0))

    attach_inputs(flow, data_readers, spec, rng)
    return finish(flow, num_ops)
