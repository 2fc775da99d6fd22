"""Record the output digests of every default-seed query into digests.json.

Run from the root of a checkout whose outputs are known to be right::

    python3 perfbench/record_digests.py

Each query is also put through the invariant checks, and nothing is written
if any query fails them.
"""

from __future__ import annotations

import json
import shutil

import gen
import run


def main() -> None:
    digests = {}
    for workload in sorted(gen.WORKLOADS):
        _, package, queries = run.setup(workload, run.DEFAULT_SEED)
        p = run.Pass([])
        try:
            p.run(package, queries, run.WORK / f"record-{workload}", None)
        finally:
            shutil.rmtree(run.WORK / f"record-{workload}", ignore_errors=True)
        if p.failures:
            raise SystemExit(f"{workload}: {p.failures[0]}")
        digests[workload] = p.digests
        print(workload, len(p.digests), "digests", flush=True)
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
