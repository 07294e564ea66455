# lint-module: repro.perf.fixture_kernels_bad
# expect: LAY01,LAY01
"""Known-bad fixture: the perf leaf importing other leaves.

The leaf-ban pass bypasses the ``ALLOWED_LEAVES`` exemption: even
``repro.core.numeric`` and ``repro.obs`` — themselves importable from
everywhere — are banned inside ``repro.perf``, or the carve-out could
smuggle a leaf-to-leaf cycle back in. The practical consequence: a
perf helper that needs ``TIME_EPS`` must carry its own copy.
"""

from repro.core.numeric import TIME_EPS
from repro.obs import NOOP_OBS

__all__ = ["TIME_EPS", "NOOP_OBS"]
