"""Traced service: the tracer's wrappers, then ``repro.service.serve``.

Arguments are those of ``python -m repro serve``; everything not given
keeps the CLI default.  Spans go to TRACE_DIR, written on shutdown
(SIGINT) and by pool workers after each execution unit.

    python3 perfbench/launch_server.py TRACE_DIR serve --port N --cache DIR
"""

import asyncio
import sys
from pathlib import Path

from tracer import install
from repro.__main__ import build_parser
from repro.runner import ExperimentRunner, ResultCache
from repro.service.server import serve


def main() -> None:
    tracer = install(Path(sys.argv[1]))
    args = build_parser().parse_args(sys.argv[2:])
    runner = ExperimentRunner(jobs=args.jobs, cache=ResultCache(args.cache),
                              batch=not args.no_batch)
    try:
        asyncio.run(serve(runner, host=args.host, port=args.port,
                          max_queue=args.queue_size,
                          max_group=args.max_group,
                          batch_window_s=args.batch_window))
    except KeyboardInterrupt:
        pass
    finally:
        tracer.flush()


if __name__ == "__main__":
    main()
