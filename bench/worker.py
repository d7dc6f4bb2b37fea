"""One measuring interpreter: set up a workload, time its operations, check them.

``run.py`` starts a fresh interpreter with this script for every pass, with
``PYTHONPATH`` pointing at the checkout's ``src``, so no in-process cache
survives from one pass to the next.  The argument is a JSON object:

    workload, seed, tmp   which workload, its seed, a working directory
    mode                  "setup": set-up only, to time it;
                          "timed": whole blocks until ``seconds`` of
                          operation time have passed and at least
                          ``MIN_OPS`` operations ran;
                          "blocks": exactly ``blocks`` blocks
    trace                 record spans of the operations (mode "blocks");
                          repeatable operations also run untraced

Set-up time runs from the start of this script, so it includes importing
paritychain.  Output checks run outside the timed region.  The result is
one JSON object on stdout.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURES_SHOWN = 5
MIN_OPS = 100  # so op_ms.p90 has at least ten samples beyond it


def main(cfg: dict) -> dict:
    name = cfg["workload"]
    traced = cfg.get("trace", False)
    wl = workloads.WORKLOADS[name](cfg["seed"], workloads.load_expected(), Path(cfg["tmp"]))
    rec = None
    if traced and not isinstance(wl, workloads.CliPipeline):  # CLI processes trace themselves
        rec = tracer.Recorder()
        tracer.install(rec)
    blocks = wl.setup()
    out = {"setup_s": time.perf_counter() - T0, "instances": sorted(set(wl.instances))}
    if cfg["mode"] == "setup":
        return out

    failures: list[str] = []
    counts = {"attempted": 0, "failed": 0}

    def run_op(item, trace_on: bool) -> float:
        """Time one operation, then check it; returns milliseconds."""
        wl.traced = trace_on
        if rec:
            rec.active, rec.op = trace_on, counts["attempted"]
        start = time.perf_counter()
        try:
            result, error = wl.run(item), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if rec:
            rec.active = False
        counts["attempted"] += 1
        if error is None:
            try:
                error = wl.check(item, result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            counts["failed"] += 1
            if len(failures) < MAX_FAILURES_SHOWN:
                failures.append(error)
        return elapsed * 1e3

    # A traced pass runs each repeatable operation untraced and traced, in
    # alternating order, so the overhead is measured on the same work at
    # nearly the same time.
    interleave = traced and wl.repeatable
    ops_ms, plain_ms, labels = [], [], []
    done = 0
    def more() -> bool:
        if cfg["mode"] == "timed":
            return sum(ops_ms) < cfg["seconds"] * 1e3 or len(ops_ms) < MIN_OPS
        return done < cfg["blocks"]

    while more():
        for item in blocks[done % len(blocks)]:
            labels.append(wl.label(item))
            if not interleave:
                ops_ms.append(run_op(item, traced))
                continue
            order = (False, True) if len(ops_ms) % 2 == 0 else (True, False)
            ms = {trace_on: run_op(item, trace_on) for trace_on in order}
            ops_ms.append(ms[True])
            plain_ms.append(ms[False])
        done += 1
    who = resource.RUSAGE_CHILDREN if wl.children_rss else resource.RUSAGE_SELF
    out.update(
        ops_ms=ops_ms, labels=labels, timed_s=sum(ops_ms) / 1e3, blocks=done,
        failures=failures, peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024, **counts,
    )
    if interleave:
        out["plain_ms"] = plain_ms
    if traced:
        out["layers"] = rec.summary() if rec else wl.layers
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
