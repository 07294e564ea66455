"""Scientific workflow generators: Montage, LIGO, CyberShake (Fig. 5).

Each module exposes ``APP_NAME``, ``INPUT_FILES`` (the Table 4 input-file
statistics), ``generate_input_sizes(rng)``, ``check_num_ops(num_ops)``
and ``build(spec, rng, name, num_ops, issued_at)``.
"""

from repro.dataflow.generators import cybershake, ligo, montage
from repro.dataflow.generators.base import (
    InputFileModel,
    WorkflowSpec,
    attach_inputs,
    truncated_normal,
    uniform,
)

__all__ = [
    "cybershake",
    "ligo",
    "montage",
    "InputFileModel",
    "WorkflowSpec",
    "attach_inputs",
    "truncated_normal",
    "uniform",
]
