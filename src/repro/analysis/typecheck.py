"""Optional ``mypy --strict`` leg of the analysis gate.

The lint rules are dependency-free; the type gate shells out to mypy
when (and only when) it is installed. On a machine without mypy the
gate degrades gracefully to "skipped" — it never *passes vacuously as
green typechecking*, the report says so explicitly — while CI installs
the ``dev`` extra and runs the strict check for real.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

#: Packages held to ``mypy --strict`` (the billing-critical layers,
#: plus the memo leaf they call into).
STRICT_PACKAGES: tuple[str, ...] = (
    "repro.core",
    "repro.cloud",
    "repro.tuning",
    "repro.perf",
)


@dataclass(frozen=True)
class TypecheckResult:
    """Outcome of the mypy leg: passed / failed / skipped."""

    status: str  # "passed" | "failed" | "skipped"
    detail: str

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    def to_json(self) -> dict[str, str]:
        return {"status": self.status, "detail": self.detail}


def mypy_available() -> bool:
    """Whether mypy is importable in this environment."""
    return importlib.util.find_spec("mypy") is not None


def _source_root() -> Path:
    """Directory containing the ``repro`` package (the ``src`` dir)."""
    import repro

    package_dir = Path(repro.__file__).resolve().parent
    return package_dir.parent


def run_mypy(
    packages: tuple[str, ...] = STRICT_PACKAGES, timeout_s: float = 600.0
) -> TypecheckResult:
    """Run ``mypy --strict`` over ``packages``; skip if not installed."""
    if not mypy_available():
        return TypecheckResult(
            status="skipped",
            detail=(
                "mypy is not installed; strict typechecking skipped "
                "(install the [dev] extra to enable it)"
            ),
        )
    cmd = [sys.executable, "-m", "mypy", "--strict", "--no-error-summary"]
    for package in packages:
        cmd += ["-p", package]
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            timeout=timeout_s,
            env={**os.environ, "MYPYPATH": str(_source_root())},
        )
    except subprocess.TimeoutExpired:
        return TypecheckResult(status="failed", detail=f"mypy timed out after {timeout_s}s")
    output = (proc.stdout + proc.stderr).strip()
    if proc.returncode == 0:
        return TypecheckResult(status="passed", detail=output or "clean")
    return TypecheckResult(status="failed", detail=output)
