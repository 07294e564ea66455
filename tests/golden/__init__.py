"""Deterministic regeneration of the checked-in golden artifacts.

``python -m tests.golden`` (or ``make regen-golden``) rebuilds every
file in this directory from first principles — the same seeded runs CI
replays — so a legitimate behavior change updates the goldens in one
command instead of hand-editing byte blobs. A meta-test asserts the
regeneration is a no-op on a clean tree, which keeps the recipe itself
from drifting away from what the goldens actually contain.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent

# The seeded CLI run CI's obs-analyze job replays (ci.yml): any change
# here must change .github/workflows/ci.yml in the same commit.
ROI_RUN_ARGS = [
    "run", "--strategy", "gain", "--horizon-quanta", "20", "--seed", "7",
    "--roi-ledger",
]


def _regen_roi_table() -> str:
    from repro.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        events = str(Path(tmp) / "events.jsonl")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            rc = cli_main([*ROI_RUN_ARGS, "--events-out", events])
        assert rc == 0, f"seeded run failed: rc={rc}"
        table = io.StringIO()
        with contextlib.redirect_stdout(table):
            rc = cli_main(["obs", "roi", "--events", events])
        assert rc == 0, f"obs roi failed: rc={rc}"
    return table.getvalue()


# Default-config runs whose bytes a refactor must leave unchanged: the
# sha256 of stdout and of each obs artifact, once per interleaver.
DEFAULT_RUN_ARGS = [
    "run", "--strategy", "gain", "--seed", "7", "--horizon-quanta", "10",
]
DEFAULT_RUN_INTERLEAVERS = ("lp", "online")
DEFAULT_RUN_ARTIFACTS = {
    "--events-out": "events.jsonl",
    "--metrics-out": "metrics.json",
    "--trace-out": "trace.json",
}


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _regen_default_runs() -> str:
    from repro.cli import main as cli_main

    digests: dict[str, dict[str, str]] = {}
    for interleaver in DEFAULT_RUN_INTERLEAVERS:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            artifact_args = []
            for flag, name in DEFAULT_RUN_ARTIFACTS.items():
                artifact_args += [flag, str(out / name)]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                rc = cli_main([
                    *DEFAULT_RUN_ARGS, "--interleaver", interleaver,
                    *artifact_args,
                ])
            assert rc == 0, f"default {interleaver} run failed: rc={rc}"
            # stdout names the artifact paths; drop the temp directory.
            stdout = sink.getvalue().replace(str(out), "<out>")
            digests[interleaver] = {"stdout": _sha256(stdout)} | {
                flag: _sha256((out / name).read_text())
                for flag, name in DEFAULT_RUN_ARTIFACTS.items()
            }
    return json.dumps(digests, indent=2, sort_keys=True) + "\n"


def _regen_two_container_trace() -> str:
    from repro.obs import Observation, trace_json
    from tests.test_obs import _two_container_run

    obs = Observation.recording()
    _two_container_run(obs)
    return trace_json(obs.tracer)


def regenerate() -> dict[str, str]:
    """Golden file name -> freshly derived content (nothing written)."""
    return {
        "default_runs.json": _regen_default_runs(),
        "roi_table.txt": _regen_roi_table(),
        "two_container_trace.json": _regen_two_container_trace(),
    }


def write_goldens(dest: Path | None = None) -> list[Path]:
    dest = dest or GOLDEN_DIR
    written = []
    for name, content in regenerate().items():
        path = dest / name
        path.write_text(content)
        written.append(path)
    return written
