"""Helpers shared by the benchmark's processes: paths, digests, statistics.

This module imports nothing from ``repro`` so the orchestrator and the
load generator stay light; everything that needs the program lives in
:mod:`inputs` and the child scripts.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for caches, traces and outputs (per-run directories are
#: removed at the end; the oracle cache and digest ledger stay).
WORK = ROOT / ".perfbench"


def child_env() -> Dict[str, str]:
    """Environment for every child process: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def script(name: str) -> List[str]:
    """Command line running one of the benchmark's own scripts."""
    return [sys.executable, str(BENCH_DIR / name)]


def run_child(args: Sequence[str], timeout_s: float) -> None:
    """Run a child to completion; raise with its stderr on failure."""
    proc = subprocess.run(list(args), env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout_s, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[1:2])} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: Any) -> str:
    """SHA-256 of a JSON-compatible value's canonical form."""
    return hashlib.sha256(canonical(payload).encode("utf-8")).hexdigest()


def combined_digest(digests: Sequence[str]) -> str:
    """One digest over an ordered list of per-scenario digests."""
    return hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb(who: int) -> float:
    """``ru_maxrss`` (KiB on Linux) of ``RUSAGE_SELF``/``RUSAGE_CHILDREN``."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def read_json(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


def write_json(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")
