"""Record the expected output of every pool instance in ``expected.json``.

    PYTHONPATH=src python3 bench/record.py

The benchmark's checks compare against these records: the SHA-256 of the
canonical text (canon-mix), the verdict (equiv-pairs), and the exit code,
JSON record and written files of each command (cli-pipeline).  Re-record
only when a pool or a generator changes, never to make a check pass.
"""

import json
import shutil

import workloads as W


def main() -> None:
    tmp = W.BENCH_DIR.parent / ".bench_tmp" / "record"
    expected = {}
    try:
        for name, cls in W.WORKLOADS.items():
            wl = cls(0, {}, tmp)
            records = {wl.key(item): wl.observe(item, wl.run(item)) for item in wl.pool_items()}
            if records:
                expected[name] = records
                print(f"{name}: {len(records)} records")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        W.remove_if_empty(tmp.parent)
    path = W.BENCH_DIR / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
