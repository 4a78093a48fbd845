"""Record the answer digests that runs with the default seed are checked
against.

    python3 bench/record.py

Run it once at a commit whose answers are trusted; it rewrites
``bench/digests.json`` with one digest per query of the first blocks of
every workload (CLI commands are replayed in-process, which prints the same
bytes as a fresh interpreter).  A run checks only the queries it reaches.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import child
import workloads

BLOCKS = {"mustar-fold": 60, "jacquet-query": 24, "cli-session": 24}


def main() -> int:
    workdir = os.path.join(child.ROOT, ".bench_out", f"record-{os.getpid()}")
    recorded = {}
    try:
        for name, blocks in BLOCKS.items():
            workload = workloads.Workload(name, child.DEFAULT_SEED, workdir)
            digests = []
            for index in range(blocks):
                for query in workload.block(index):
                    call = query.in_process if name == "cli-session" else query.call
                    _, canonical = query.check(call())
                    digests.append(workloads.digest(canonical()))
            recorded[name] = digests
            print(f"{name}: {len(digests)} digests", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(child.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump({"seed": child.DEFAULT_SEED, "workloads": recorded}, handle, indent=0)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
