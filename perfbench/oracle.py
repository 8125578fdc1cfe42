"""The scalar oracle: ``execute_request`` per scenario, in its own process.

Running it apart from the measured process keeps the measured process's
PAT-seed memo cold, as a CLI user's is.  Writes, in request order, each
result's digest (and, for service specs, the expected cache key).

    python3 perfbench/oracle.py WORKLOAD SEED OUT.json [SPECS.json]
"""

import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from common import digest, read_json, write_json
from inputs import fault_requests, fig12_requests
from repro.runner import cache_key, execute_request
from repro.service.protocol import request_from_spec
from repro.sim.results import result_to_dict


def result_digest(request):
    return digest(result_to_dict(execute_request(request)))


def main() -> None:
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    if workload == "grid":
        requests = fig12_requests(seed)
    elif workload == "faults":
        requests = fault_requests(seed)
    else:
        requests = [request_from_spec(spec)
                    for spec in read_json(Path(sys.argv[4]))]
    with ProcessPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        digests = list(pool.map(result_digest, requests, chunksize=4))
    write_json(out, {
        "digests": digests,
        "keys": [cache_key(request) for request in requests],
        "labels": [[request.scheme, request.workload]
                   for request in requests],
    })


if __name__ == "__main__":
    main()
