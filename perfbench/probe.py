"""Set-up probe: what a user pays before the first operation.

Imports the CLI (which imports every experiment), builds the runner
``python -m repro fig12`` would build for a fresh ``--cache DIR`` and
prints ``ready``.  The parent times it from process start to that line.

    python3 perfbench/probe.py CACHE_DIR
"""

import sys

from repro.__main__ import build_parser
from repro.runner import ExperimentRunner, ResultCache

args = build_parser().parse_args(["fig12", "--cache", sys.argv[1]])
runner = ExperimentRunner(jobs=args.jobs, cache=ResultCache(args.cache),
                          batch=not args.no_batch)
print("ready", runner.effective_jobs, flush=True)
