"""CyberShake: seismic hazard characterisation workflow (Fig. 5C).

Shape: a few ExtractSGT operators read enormous strain-Green-tensor
files and fan out to many SeismogramSynthesis operators; each synthesis
feeds a PeakValCalc; two aggregators (ZipSeis, ZipPSA) collect the
seismograms and peak values. This is the paper's *data-intensive*
dataflow — Table 4 shows inputs from 1.81 MB up to 19 GB (mean 1459 MB,
stdev 5092 MB) with runtimes of min 0.55 / max 199.43 / mean 22.97 s.
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

APP_NAME = "cybershake"

#: Input file statistics from Table 4: 52 files, 1.81 MB - 19.17 GB.
INPUT_FILES = InputFileModel(count=52, min_mb=1.81, max_mb=19169.75, mean_mb=1459.08)

#: Per-task-type runtime distributions (mean, std, low, high), seconds.
_RUNTIMES = {
    "ExtractSGT": (130.0, 35.0, 60.0, 199.43),
    "SeismogramSynthesis": (28.0, 18.0, 2.0, 120.0),
    "PeakValCalc": (1.2, 0.4, 0.55, 3.0),
    "ZipSeis": (150.0, 25.0, 90.0, 199.43),
    "ZipPSA": (120.0, 25.0, 60.0, 199.43),
}

#: Number of ExtractSGT roots; the synthesis/peak width fills num_ops.
_NUM_EXTRACT = 4
#: Operators outside the fan-out: the extract roots and the two zips.
_FIXED = _NUM_EXTRACT + 2


def generate_input_sizes(rng: np.random.Generator) -> list[float]:
    """Sizes of the 52 CyberShake inputs: 4 giant SGT files, many small.

    Calibrated so the mean lands near Table 4's 1459 MB with a stdev in
    the thousands: four files around 17-19 GB and 48 rupture-variation
    files of a few MB to a few hundred MB.
    """
    sizes = [
        truncated_normal(rng, 18200.0, 600.0, 16500.0, INPUT_FILES.max_mb)
        for _ in range(_NUM_EXTRACT)
    ]
    for _ in range(INPUT_FILES.count - _NUM_EXTRACT - 2):
        sizes.append(float(min(400.0, rng.lognormal(mean=3.2, sigma=1.1))))
    sizes.append(truncated_normal(rng, 2.2, 0.3, INPUT_FILES.min_mb, 3.0))
    sizes.append(truncated_normal(rng, 250.0, 80.0, 50.0, 500.0))
    return sizes


def _runtime(rng: np.random.Generator, task: str) -> float:
    mean, std, low, high = _RUNTIMES[task]
    return truncated_normal(rng, mean, std, low, high)


def check_num_ops(num_ops: int) -> None:
    """Reject an operator count that leaves no even fan-out width."""
    wide = num_ops - _FIXED
    if wide < 2 or wide % 2 != 0:
        raise ValueError("cybershake num_ops must leave an even fan-out width")


def build(
    spec: WorkflowSpec,
    rng: np.random.Generator,
    name: str,
    num_ops: int = 100,
    issued_at: float = 0.0,
) -> Dataflow:
    """Generate one CyberShake dataflow with ``num_ops`` operators."""
    check_num_ops(num_ops)
    n_synth = (num_ops - _FIXED) // 2

    flow = Dataflow(name=name, issued_at=issued_at)
    extracts = [
        flow.add_operator(
            Operator(name=f"ExtractSGT_{i}", runtime=_runtime(rng, "ExtractSGT"))
        )
        for i in range(_NUM_EXTRACT)
    ]
    attach_inputs(flow, extracts, spec, rng)

    zipseis = flow.add_operator(
        Operator(name="ZipSeis", runtime=_runtime(rng, "ZipSeis"))
    )
    zippsa = flow.add_operator(
        Operator(name="ZipPSA", runtime=_runtime(rng, "ZipPSA"))
    )

    for i in range(n_synth):
        synth = flow.add_operator(
            Operator(
                name=f"SeismogramSynthesis_{i:03d}",
                runtime=_runtime(rng, "SeismogramSynthesis"),
            )
        )
        parent = extracts[i % _NUM_EXTRACT]
        flow.add_edge(parent.name, synth.name, data_mb=uniform(rng, 100.0, 500.0))
        peak = flow.add_operator(
            Operator(
                name=f"PeakValCalc_{i:03d}",
                runtime=_runtime(rng, "PeakValCalc"),
            )
        )
        flow.add_edge(synth.name, peak.name, data_mb=uniform(rng, 0.1, 1.0))
        flow.add_edge(synth.name, zipseis.name, data_mb=uniform(rng, 1.0, 10.0))
        flow.add_edge(peak.name, zippsa.name, data_mb=uniform(rng, 0.05, 0.5))

    return finish(flow, num_ops)
