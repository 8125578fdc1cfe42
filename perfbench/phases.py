"""Scalar engine phases for a fixed sample of the workload's requests.

Re-runs one request per scheme through the public
``execute_request(request, profiler=TickProfiler())`` and writes the
mean seconds per scenario of each tick phase.  No runner is involved,
and any result-cache write fails the run.

    python3 perfbench/phases.py WORKLOAD SEED OUT.json
"""

import sys
from collections import defaultdict
from pathlib import Path

from common import write_json
from inputs import phase_sample
from repro.perf import TickProfiler
from repro.runner import ResultCache, execute_request


def _no_cache_writes(*args, **kwargs):
    raise RuntimeError("the phase sample must not write a result cache")


def main() -> None:
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    ResultCache.put = _no_cache_writes
    sample = phase_sample(workload, seed)
    totals = defaultdict(float)
    for request in sample:
        report = execute_request(request, profiler=TickProfiler()).perf
        for phase in report.phases:
            totals[phase.name] += phase.total_s
    write_json(out, {name: seconds / len(sample)
                     for name, seconds in totals.items()})


if __name__ == "__main__":
    main()
