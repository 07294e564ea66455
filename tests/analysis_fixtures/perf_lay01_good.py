# lint-module: repro.perf.fixture_kernels
# expect:
"""Known-good fixture: a perf leaf holding only numpy/stdlib helpers.

``repro.perf`` is in ``ALLOWED_LEAVES`` so every hot-path layer may
import it; in exchange the leaf itself may depend on nothing above it —
numpy and the stdlib are its whole world. A perf helper that needs an
epsilon therefore carries its own ``TIME_EPS`` instead of importing
``repro.core.numeric``.
"""

import math

import numpy as np

TIME_EPS = 1e-9


def floor_quanta(values: np.ndarray, quantum: float) -> np.ndarray:
    return np.floor(values / quantum + TIME_EPS)


def scalar_floor(value: float, quantum: float) -> float:
    return math.floor(value / quantum + TIME_EPS)
