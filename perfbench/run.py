"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

* ``grid``     closed loop; one operation is a cold
  ``run_fig12(duration_h=1.0)`` (108 scenarios) through the runner the
  ``fig12`` CLI builds, over a fresh result cache;
* ``faults``   closed loop; one operation is the 48 (scheme, workload)
  pairs at 1 h carrying the resilience storm at intensities 0.5 and 1.0;
* ``svc_hot``  open loop at 200 req/s over a warmed 12-spec pool;
* ``svc_cold`` open loop at 20 req/s, every spec new.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separately traced run (its end-to-end
numbers are printed above the result line, next to the last untraced
run's).  Every result is checked against the scalar oracle
(``execute_request`` in another process); a wrong result makes the run
exit 1.  A service run whose load generator could not hold the open
loop is invalid: it exits 3 and reports nothing.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import asyncio
import compileall
import hashlib
import json
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from common import (
    BENCH_DIR,
    ROOT,
    SRC,
    WORK,
    canonical,
    child_env,
    combined_digest,
    digest,
    median,
    peak_rss_mb,
    percentile,
    read_json,
    run_child,
    script,
    write_json,
)
import svc
from layers import load, per_layer

WORKLOADS = ("grid", "faults", "svc_hot", "svc_cold")
#: Set-ups per run; ``setup_s`` is their median.
CLOSED_SETUPS = 5
SVC_SETUPS = 3
CHILD_TIMEOUT_S = 150.0
LEDGER = WORK / "ledger.json"
#: Every end-to-end metric printed; BENCHMARK.json gates a subset (the
#: p90/p99 tails are too noisy on a 2-core box, see README.md).
E2E_UNITS = {"setup_s": "s", "scenarios_per_s": "1/s", "p50_ms": "ms",
             "p90_ms": "ms", "p99_ms": "ms", "peak_rss_mb": "MB"}


class Outcome:
    """What one run measured and checked."""

    def __init__(self) -> None:
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.digest = ""
        self.notes: List[str] = []


# ----------------------------------------------------------------------
# Closed loops: grid, faults
# ----------------------------------------------------------------------

def probe_setups(work: Path, count: int) -> List[float]:
    """Seconds from process start to a built runner, ``count`` times."""
    times = []
    for index in range(count):
        started = perf_counter()
        proc = subprocess.Popen(
            [*script("probe.py"), str(work / f"probe-{index}")],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(perf_counter() - started)
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        if not line.startswith("ready") or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{err[-4000:]}")
    return times


def sources_digest() -> str:
    """Digest of every program source file and the benchmark's inputs."""
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [BENCH_DIR / "inputs.py",
                                             BENCH_DIR / "oracle.py"]:
        sources.update(str(path.relative_to(ROOT)).encode("utf-8"))
        sources.update(path.read_bytes())
    return sources.hexdigest()


def scalar_oracle(workload: str, seed: int, work: Path,
                  specs: Optional[List[Any]] = None) -> Dict[str, Any]:
    """The oracle's digests for these inputs, computed in a child process.

    Kept under ``.perfbench/oracle`` keyed by the inputs and
    :func:`sources_digest`, so a repeated seed on the same code does not
    pay for it twice; any source edit recomputes it.
    """
    key = digest([workload, seed, specs, sources_digest()])
    cached = WORK / "oracle" / f"{workload}-{seed}-{key[:32]}.json"
    if not cached.is_file():
        cached.parent.mkdir(exist_ok=True)
        out = work / "oracle.json"
        command = [*script("oracle.py"), workload, str(seed), str(out)]
        if specs is not None:
            write_json(work / "specs.json", specs)
            command.append(str(work / "specs.json"))
        run_child(command, CHILD_TIMEOUT_S)
        out.replace(cached)
    return read_json(cached)


def phase_times(workload: str, seed: int, work: Path) -> Dict[str, float]:
    out = work / "phases.json"
    run_child([*script("phases.py"), workload, str(seed), str(out)],
              CHILD_TIMEOUT_S)
    return read_json(out)


def run_closed(workload: str, seed: int, seconds: float, trace: bool,
               work: Path) -> Outcome:
    outcome = Outcome()
    setups = probe_setups(work, CLOSED_SETUPS)
    trace_dir = work / "trace"
    trace_dir.mkdir()
    measured_path = work / "measured.json"
    run_child([*script("closed.py"), workload, str(seed), str(seconds),
               str(trace_dir) if trace else "-", str(measured_path)],
              CHILD_TIMEOUT_S)
    measured = read_json(measured_path)
    oracle = scalar_oracle(workload, seed, work)

    walls = measured["walls"]
    expected = oracle["digests"]
    if measured["labels"] != oracle["labels"]:
        outcome.notes.append("results are not in the oracle's "
                             "(scheme, workload) order")
        outcome.wrong = len(walls) * len(expected)
    else:
        for op, op_digests in enumerate(measured["digests"]):
            bad = [index for index, (got, want)
                   in enumerate(zip(op_digests, expected)) if got != want]
            outcome.wrong += len(bad)
            if bad:
                outcome.notes.append(
                    f"operation {op}: {len(bad)} result(s) differ from the "
                    f"scalar oracle, first {oracle['labels'][bad[0]]}")
    outcome.attempted = len(walls) * len(expected)
    outcome.failed = outcome.wrong
    outcome.digest = combined_digest(measured["digests"][0])
    scenarios = len(expected)
    outcome.e2e = {
        "setup_s": median(setups),
        "scenarios_per_s": median([scenarios / wall for wall in walls]),
        "p50_ms": percentile(walls, 50) * 1e3,
        "p90_ms": percentile(walls, 90) * 1e3,
        "p99_ms": percentile(walls, 99) * 1e3,
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    outcome.notes.append(
        f"{len(walls)} operations of {scenarios} scenarios, walls "
        + ", ".join(f"{wall:.3f}" for wall in walls) + " s; set-ups "
        + ", ".join(f"{s:.3f}" for s in setups) + " s")
    if trace:
        spans, events, waits, hooks = load(trace_dir)
        outcome.layers = per_layer(
            spans, events, waits, hooks, len(walls),
            phase_times(workload, seed, work),
            {"service.polls_per_request": 0.0, "service.hit_ratio": 0.0,
             "service.rejected": 0.0, "client.late_p99_ms": 0.0})
    return outcome


# ----------------------------------------------------------------------
# Open loops: svc_hot, svc_cold
# ----------------------------------------------------------------------

def run_service(workload: str, seed: int, seconds: float, trace: bool,
                work: Path) -> Outcome:
    # Imported here: it imports the program, which main() locates first.
    from inputs import cold_spec, hot_specs, warm_specs

    outcome = Outcome()
    if workload == "svc_hot":
        pool = hot_specs(seed)

        def make_specs(rng, count):
            return [pool[rng.randrange(len(pool))] for _ in range(count)]
    else:
        def make_specs(rng, count):
            return [cold_spec(seed, index) for index in range(count)]

    trace_dir = work / "trace"
    trace_dir.mkdir()
    run = asyncio.run(svc.run(workload, seed, seconds, work, SVC_SETUPS,
                              trace_dir if trace else None,
                              warm_specs(workload, seed), make_specs))
    # The servers (and their pool workers) are this process's only
    # children so far; the load generator itself is excluded.
    rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
    requests = run["requests"]

    # Scalar oracle over the distinct specs, after the timed phase.
    distinct: Dict[str, Any] = {}
    for request in requests:
        distinct.setdefault(canonical(request.spec), request.spec)
    oracle = scalar_oracle(workload, seed, work, list(distinct.values()))
    expected = {spec: (key, want) for spec, key, want
                in zip(distinct, oracle["keys"], oracle["digests"])}
    got: Dict[str, str] = {
        key: digest(json.loads(body)["result"])
        for key, body in run["results"].items()}

    outputs = []
    for request in requests:
        if request.error is not None:
            outcome_error = request.error
        else:
            spec = canonical(request.spec)
            key, want = expected[spec]
            if request.key != key:
                outcome_error = "wrong cache key"
            elif got.get(key) != want:
                outcome_error = "result differs from the scalar oracle"
            else:
                outputs.append(f"{spec} {want}")
                continue
            outcome.wrong += 1
            request.latency = None  # a wrong answer misses every limit
        outcome.failed += 1
        if len(outcome.notes) < 5:
            outcome.notes.append(f"request {request.spec}: {outcome_error}")
    outcome.attempted = len(requests)
    outcome.digest = combined_digest(sorted(set(outputs)))

    latencies = [svc.latency(request) for request in requests]
    window = run["window"]
    before, after = run["stats"]
    completed = outcome.attempted - outcome.failed
    outcome.e2e = {
        "setup_s": median(run["setup_s"]),
        "scenarios_per_s": completed / (window[1] - window[0]),
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p90_ms": percentile(latencies, 90) * 1e3,
        "p99_ms": percentile(latencies, 99) * 1e3,
        "peak_rss_mb": rss_mb,
    }
    late_p99_ms = percentile([r.late for r in requests], 99) * 1e3
    outcome.notes.append(
        f"{len(requests)} requests at {svc.RATES[workload]:g} req/s over "
        f"{seconds:g} s; poll interval {svc.POLL_S * 1e3:g} ms; generator "
        f"late p99 {late_p99_ms:.2f} ms; set-ups "
        + ", ".join(f"{s:.3f}" for s in run["setup_s"]) + " s")
    if trace:
        def delta(name: str) -> float:
            return after[name] - before[name]

        hits = (delta("registry_hits") + delta("cache_hits")
                + delta("coalesced"))
        spans, events, waits, hooks = load(trace_dir, window)
        outcome.layers = per_layer(
            spans, events, waits, hooks, len(requests),
            phase_times(workload, seed, work),
            {"service.polls_per_request":
                 sum(r.polls for r in requests) / len(requests),
             "service.hit_ratio": hits / max(1, delta("submissions")),
             "service.rejected": delta("rejected"),
             "client.late_p99_ms": late_p99_ms})
    return outcome


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def record(workload: str, seed: int, trace: bool,
           outcome: Outcome) -> Optional[str]:
    """Keep digests and e2e numbers; returns a mismatch message, if any.

    The traced and untraced runs of one seed on the same code must
    simulate the same numbers; the ledger lets whichever runs second
    check the first.
    """
    ledger = read_json(LEDGER) if LEDGER.is_file() else {}
    mode, other = ("traced", "untraced") if trace else ("untraced", "traced")
    entry = ledger.setdefault(
        f"{workload}/{seed}/{sources_digest()[:16]}", {})
    entry[mode] = outcome.digest
    ledger.setdefault("e2e", {}).setdefault(workload, {})[mode] = outcome.e2e
    write_json(LEDGER, ledger)
    if outcome.wrong == 0 and entry.get(other, outcome.digest) != outcome.digest:
        return (f"{mode} digest {outcome.digest} differs from the {other} "
                f"run's {entry[other]}")
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = read_json(ROOT / "BENCHMARK.json")
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH_DIR), quiet=1)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-"))
    closed = args.workload in ("grid", "faults")
    try:
        outcome = (run_closed if closed else run_service)(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    except svc.InvalidRun as error:
        print(f"perfbench: invalid run: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mismatch = record(args.workload, args.seed, bool(args.trace), outcome)
    if mismatch:
        outcome.notes.append(mismatch)
        outcome.wrong += 1
    correct = outcome.wrong == 0

    section = "per_layer" if args.trace else "end_to_end"
    values = outcome.layers if args.trace else outcome.e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    label = "traced" if args.trace else "untraced"
    print(f"{args.workload} seed={args.seed} {label}: "
          f"{outcome.attempted - outcome.failed}/{outcome.attempted} ok, "
          f"digest {outcome.digest}")
    for note in outcome.notes:
        print(f"  {note}")
    previous = read_json(LEDGER)["e2e"][args.workload]
    other = previous.get("untraced" if args.trace else "traced", {})
    for name, value in outcome.e2e.items():
        line = f"  {name:<16} {value:>12.4f} {E2E_UNITS[name]}"
        if name in other:
            line += f"   ({'untraced' if args.trace else 'traced'} " \
                    f"{other[name]:.4f})"
        print(line)
    if args.trace:
        # Layer metrics BENCHMARK.json does not gate (they move only on
        # svc_cold) are printed here and left out of the result line.
        for name, value in outcome.layers.items():
            unit = (metrics[name]["unit"] if name in metrics
                    else "ms" if name.endswith("_ms")
                    else "s" if name.endswith("_s") else "count")
            print(f"  {name:<28} {value:>14.6f} {unit}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
