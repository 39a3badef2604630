"""Shared helpers for the benchmark harnesses.

Every ``BENCH_*.json`` writer — the module CLIs (``python -m
repro.gateway bench``, ``python -m repro.replication drill``) and the
pytest benchmarks under ``benchmarks/`` — stamps the same provenance
block with :func:`run_metadata` and reports latency percentiles with the
same nearest-rank :func:`percentile`.
"""

from __future__ import annotations

import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, Sequence


def _git_rev() -> str:
    """Short git revision of the checkout holding this package, "" when
    unavailable (no git, tarball checkout, installed wheel)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def run_metadata(duration_s: float) -> Dict[str, object]:
    """Provenance stamped into every ``BENCH_*.json`` under ``"_meta"``.

    Answers "which machine/toolchain/revision produced these numbers"
    when two artifacts are diffed across commits.  ``duration_s`` is how
    long the run had been going when the artifact was written.
    Wall-clock fields vary by host and run; everything else is stable
    for a given checkout.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_rev": _git_rev(),
        "run_duration_s": round(duration_s, 3),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100]); 0.0 on empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1))))
    return ordered[index]
