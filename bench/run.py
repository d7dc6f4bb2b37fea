"""Seeded benchmark of paritychain, end to end and layer by layer.

Run from the repository root (the package need not be installed):

    python3 bench/run.py --workload canon-mix --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): canon-mix, color-queries, equiv-pairs,
cli-pipeline.  Every pass runs in a fresh interpreter (``worker.py``) with
``PYTHONPATH`` set to the checkout's ``src``.

``--trace 0`` reports the end-to-end metrics of untraced passes: one timed
pass of whole input blocks lasting at least ``--seconds`` of operation
time, plus ``SETUPS - 1`` set-up-only passes, so ``setup_s`` is a median.
``--trace 1`` runs a fixed number of blocks (from ``--seconds``) traced,
each operation also untraced where repeating it does the same work (else
in a second, untraced pass), and reports per-layer self times, call
counts and counters, the CLI command times, and the tracing overhead.  Both modes
check every output and count failures.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment and the inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
import tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("canon-mix", "color-queries", "equiv-pairs", "cli-pipeline")
SETUPS = 3
BUDGET_S = 170.0
CLI_COMMANDS = ("validate", "structure", "streamline", "chain", "color", "member", "equiv", "stats")
STARTUP_RUNS = 5

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{n}.{part}": unit for n in tracer.SPAN_NAMES
       for part, unit in (("self_ms", "ms"), ("calls", "count"))},
    **dict.fromkeys(tracer.COUNTERS, "count"),
    **{f"cli.{cmd}.ms": "ms" for cmd in CLI_COMMANDS},
    "cli.startup_ms": "ms",
    "trace.overhead_share": "share",
}
# Nominal seconds per input block on the seed code; a traced run covers
# a fixed number of blocks so that its counts repeat exactly per seed.
BLOCK_SECONDS = {"canon-mix": 1.0, "color-queries": 0.06, "equiv-pairs": 6.0, "cli-pipeline": 2.5}


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    """Sources from the checkout; no bytecode is written, so every pass
    compiles the same way and the checkout stays clean."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def spawn(cfg: dict, deadline: float) -> dict:
    """Run one worker pass in a fresh interpreter and return its report."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)], env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:  # out of time, or this run is being stopped
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child of it
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise WorkerError(f"{cfg['workload']} {cfg['mode']} pass ran out of time") from None
        raise
    if proc.returncode != 0:
        raise WorkerError(f"{cfg['workload']} {cfg['mode']} pass failed:\n{err[-3000:]}")
    return json.loads(out.splitlines()[-1])


def cli_startup_ms() -> float:
    """Median wall time of ``validate`` on the shipped fig1.aut."""
    fig1 = SRC / "paritychain" / "data" / "fig1.aut"
    times = []
    for _ in range(STARTUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "paritychain.cli", "validate", str(fig1)],
                              env=child_env(), capture_output=True, timeout=60)
        times.append((time.perf_counter() - start) * 1e3)
        if proc.returncode != 0:
            raise WorkerError(f"validate fig1.aut exited {proc.returncode}")
    return statistics.median(times)


def end_to_end(cfg: dict, deadline: float) -> tuple[dict, dict]:
    timed = spawn({**cfg, "mode": "timed", "tmp": f"{cfg['tmp']}/timed"}, deadline)
    setups = [timed["setup_s"]] + [
        spawn({**cfg, "mode": "setup", "tmp": f"{cfg['tmp']}/setup-{i}"}, deadline)["setup_s"]
        for i in range(1, SETUPS)]
    ops = timed["ops_ms"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": timed["attempted"] / timed["timed_s"],
        "op_ms.p50": statistics.median(ops),
        "op_ms.p90": percentile(ops, 90),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    info = {"samples": len(ops), "blocks": timed["blocks"], "setup_s.all": setups}
    return metrics, {**timed, **info}


def per_layer(cfg: dict, deadline: float) -> tuple[dict, dict]:
    blocks = max(1, round(cfg["seconds"] / 2 / BLOCK_SECONDS[cfg["workload"]]))
    traced = spawn({**cfg, "mode": "blocks", "blocks": blocks, "trace": True,
                    "tmp": f"{cfg['tmp']}/traced"}, deadline)
    passes = [traced]
    if "plain_ms" not in traced:  # no interleaved untraced runs: a second pass
        passes.append(spawn({**cfg, "mode": "blocks", "blocks": blocks, "trace": False,
                             "tmp": f"{cfg['tmp']}/plain"}, deadline))
    plain_ms = traced.get("plain_ms") or passes[-1]["ops_ms"]
    layers = traced["layers"]
    metrics = {name: layers.get(name, 0) for name in PER_LAYER}
    for cmd in CLI_COMMANDS:
        times = [ms for ms, label in zip(plain_ms, traced["labels"]) if label == cmd]
        metrics[f"cli.{cmd}.ms"] = statistics.median(times) if times else 0.0
    metrics["cli.startup_ms"] = cli_startup_ms() if cfg["workload"] == "cli-pipeline" else 0.0
    metrics["trace.overhead_share"] = sum(traced["ops_ms"]) / sum(plain_ms) - 1
    info = {
        "blocks": blocks, "samples": len(traced["ops_ms"]), "trace.spans": layers["trace.spans"],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]][:5],
        "instances": traced["instances"],
    }
    return metrics, info


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "paritychain").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
        "platform": platform.platform(), "commit": commit, "src_sha256": src_hash.hexdigest(),
        "calibration_ms": calibration_ms(),
    }


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed during
    the run, for reading the noise of a shared host."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "paritychain" / "__init__.py").is_file():
        print(f"error: no paritychain sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    tmp_root = ROOT / ".bench_tmp"
    tmp = tmp_root / f"{args.workload}-{os.getpid()}"
    cfg = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "tmp": str(tmp)}
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, info = measure(cfg, deadline)
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp_root.is_dir() and not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    units = PER_LAYER if args.trace else END_TO_END
    attempted, failed = info["attempted"], info["failed"]
    record = {
        "environment": environment(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "ops_failed_share": failed / attempted,
        **{k: info[k] for k in ("samples", "blocks", "failures", "instances")},
    }
    if args.trace:
        record["trace.spans"] = info["trace.spans"]
        record["trace.overhead_share"] = metrics["trace.overhead_share"]
    else:
        record["setup_s.all"] = info["setup_s.all"]
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
