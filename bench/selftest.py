"""Self-test of the benchmark, at a tiny size.

    python3 bench/selftest.py

1. Runs every workload for one second in both modes and checks that the
   result line has exactly the metrics of ``BENCHMARK.json``, each with
   its unit, and that no operation failed.
2. Feeds each output check a correct result and deliberately corrupted
   copies of it (a flipped color in emitted text, a wrong natural color,
   a wrong verdict, a witness that both sides accept, a changed CLI exit
   code) and checks that only the correct one passes.  The corruption is
   made on copies of the outputs; the program is never changed.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import families as F  # noqa: E402
import workloads as W  # noqa: E402

pc = W.pc
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for wl in W.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", wl, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=180)
            what = f"{wl} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys")
            expect(got == want, f"{what}: every {group} metric with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{what}: {result['attempted']} operations, none failed")


def flip_first_color(text: str) -> str:
    return re.sub(r'"col": (\d+)', lambda m: f'"col": {int(m.group(1)) ^ 1}', text, count=1)


def both_accept(a, b, letters: int):
    rng = random.Random(0)
    for _ in range(10000):
        w = F.random_lasso(rng, letters, 4, 4)
        if pc.dpa_lasso_run(a, w).accepted and pc.dpa_lasso_run(b, w).accepted:
            return w
    raise RuntimeError("no lasso accepted by both automata")


def check_canon_mix(expected: dict) -> None:
    wl = W.CanonMix(0, expected)
    item = wl.item(W.CanonMix.CELLS[0] + (0,))
    a, streamlined, text = wl.run(item)
    expect(wl.check(item, (a, streamlined, text)) is None, "canon-mix: correct result passes")
    expect(wl.check(item, (a, streamlined, flip_first_color(text))) is not None,
           "canon-mix: a flipped color in the emitted text is caught")


def check_color_queries() -> None:
    wl = W.ColorQueries(0, {})
    a = F.build(W.ColorQueries.CELLS[0] + (0,))
    entry = ("tiny", a, *W.canonical_parts(a))
    rng = random.Random(1)
    for _ in range(20):
        item = (entry, F.random_lasso(rng, len(a.alphabet), 4, 4))
        color, via_chain, at_color, above = wl.run(item)
        if wl.check(item, (color, via_chain, at_color, above)) is not None:
            expect(False, f"color-queries: correct result passes for {item[1]}")
            return
        wrong = color + 1
        if wl.check(item, (wrong, wrong, at_color, above)) is None:
            expect(False, f"color-queries: wrong natural color {wrong} is caught for {item[1]}")
            return
    expect(True, "color-queries: correct results pass, wrong natural colors are caught")


def check_equiv_pairs(expected: dict) -> None:
    wl = W.EquivPairs(0, expected)
    records = expected["equiv-pairs"]
    for desc in (cell + (i,) for cell in W.EquivPairs.CELLS for i in range(W.EquivPairs.POOL)):
        pairs = [p for p in wl.pairs(desc) if records.get(p[0]) is False]
        if pairs:
            break
    item = pairs[0]
    name, a, b = item
    equal, witness = wl.run(item)
    expect(wl.check(item, (equal, witness)) is None, f"equiv-pairs: {name} passes")
    bad = both_accept(a, b, len(a.alphabet))
    expect(wl.check(item, (False, bad)) is not None,
           "equiv-pairs: a witness that both sides accept is caught")
    expect(wl.check(item, (True, None)) is not None, "equiv-pairs: a wrong verdict is caught")


def check_cli_pipeline(expected: dict) -> None:
    tmp = ROOT / ".bench_tmp" / "selftest"
    try:
        wl = W.CliPipeline(0, expected, tmp)
        records = expected["cli-pipeline"]
        desc = next(cell + (i,) for cell in W.CliPipeline.CELLS for i in range(W.CliPipeline.POOL)
                    if records[f"{F.name(cell + (i,))}#equiv-flip"]["rc"] == 1)
        ops = wl.instance(desc)
        results = [wl.run(op) for op in ops]
        expect(all(wl.check(op, r) is None for op, r in zip(ops, results)),
               f"cli-pipeline: all {len(ops)} commands of {F.name(desc)} pass")
        validate = ops[0]
        rc, stdout = results[0]
        expect(wl.check(validate, (1 - rc, stdout)) is not None,
               "cli-pipeline: a changed exit code is caught")
        op, (rc, stdout) = ops[-1], results[-1]
        folder = op[2]
        a = pc.parse_hoa((folder / op[3][1]).read_text()) if op[3][1].endswith(".hoa") \
            else pc.parse_native((folder / op[3][1]).read_text())
        b = pc.parse_native((folder / "flip.aut").read_text())
        w = both_accept(a, b, len(a.alphabet))
        forged = json.dumps({**json.loads(stdout), "witness": W.lasso_text(w, a.alphabet)})
        expect(wl.check(op, (rc, forged)) is not None,
               "cli-pipeline: an equiv witness that both sides accept is caught")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        W.remove_if_empty(tmp.parent)


def main() -> int:
    expected = W.load_expected()
    check_canon_mix(expected)
    check_color_queries()
    check_equiv_pairs(expected)
    check_cli_pipeline(expected)
    check_metric_names()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
