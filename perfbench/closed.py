"""Closed-loop worker for ``grid`` and ``faults``.

Runs operations back to back for the given seconds (at least
``MIN_OPERATIONS``), each through a fresh ``ExperimentRunner`` built as
``python -m repro fig12`` builds it, over a fresh empty result cache:

* ``grid``: one cold ``run_fig12(duration_h=1.0, seed=SEED)``;
* ``faults``: ``runner.map`` of the 96 storm requests.

Only the operation itself is timed.  Afterwards (untimed) each result is
digested for the oracle comparison.  Writes walls, digests, labels and
this process's peak RSS (its own or its largest pool worker's) to OUT.

    python3 perfbench/closed.py WORKLOAD SEED SECONDS TRACE_DIR|- OUT.json
"""

import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from common import WORK, digest, peak_rss_mb, write_json

MIN_OPERATIONS = 2


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    seconds, trace_dir, out = float(sys.argv[3]), sys.argv[4], sys.argv[5]
    tracer = None
    if trace_dir != "-":
        from tracer import install
        tracer = install(Path(trace_dir))

    import repro.experiments as experiments
    from inputs import GRID_HOURS, fault_requests
    from repro.__main__ import build_parser
    from repro.runner import ExperimentRunner, ResultCache, using_runner
    from repro.sim.results import result_to_dict

    requests = fault_requests(seed) if workload == "faults" else None
    walls, digests, labels = [], [], None
    start = perf_counter()
    while len(walls) < MIN_OPERATIONS or perf_counter() - start < seconds:
        cache_dir = tempfile.mkdtemp(dir=WORK)
        args = build_parser().parse_args(["fig12", "--cache", cache_dir])
        runner = ExperimentRunner(jobs=args.jobs,
                                  cache=ResultCache(args.cache),
                                  batch=not args.no_batch)
        if tracer is not None:
            tracer.op = len(walls)
        began = perf_counter()
        if workload == "grid":
            with using_runner(runner):
                grid = experiments.run_fig12(duration_h=GRID_HOURS, seed=seed)
            results = (grid.efficiency_runs + grid.downtime_runs
                       + grid.renewable_runs)
        else:
            results = runner.map(requests)
        walls.append(perf_counter() - began)
        digests.append([digest(result_to_dict(r)) for r in results])
        labels = [[r.scheme, r.workload] for r in results]
        shutil.rmtree(cache_dir)
    if tracer is not None:
        tracer.flush()
    write_json(Path(out), {
        "walls": walls,
        "digests": digests,
        "labels": labels,
        "peak_rss_mb": max(peak_rss_mb(resource.RUSAGE_SELF),
                           peak_rss_mb(resource.RUSAGE_CHILDREN)),
    })


if __name__ == "__main__":
    main()
