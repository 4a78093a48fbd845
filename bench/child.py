"""One workload run in a fresh interpreter; started by run.py.

Every run gets its own process: the per-segment ``lru_cache`` memos in
``structure`` and ``weyl`` live as long as the process, so runs sharing one
would measure warm memos, less work and the wrong peak memory.

Modes:

* ``setup``     set up, print ``ready`` and exit (a set-up time sample);
* ``measure``   set up, print ``ready``, run the closed loop for
                ``--seconds`` and print the samples as one JSON line;
* ``untraced``  the reference half of a traced run: the loop for
                ``--seconds`` (the CLI session replayed in-process), then
                the tail block in-process and as subprocesses;
* ``traced``    replay the first ``--count`` queries and the tail with
                spans installed, then probe the retained outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WrongAnswer  # noqa: E402

DEFAULT_SEED = 0
# The loop never runs past this, so a run ends well inside 180 s.
HARD_LIMIT_S = 110.0
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def recorded_digests(name: str, seed: int) -> list:
    """Answer digests recorded at the seed commit; only for DEFAULT_SEED."""
    if seed != DEFAULT_SEED:
        return []
    with open(DIGESTS, encoding="utf-8") as handle:
        data = json.load(handle)
    return data["workloads"].get(name, []) if data["seed"] == seed else []


class Loop:
    """Runs queries one after another (a closed loop with one client) and
    keeps the samples: latency, output terms and failures."""

    def __init__(self, digests: list, tracer=None, speed_log=None):
        self.digests = digests
        self.tracer = tracer
        self.speed = speed_log
        self.latencies_ns: list = []
        self.starts_ns: list = []
        self.terms = 0
        self.failed = 0
        self.failures: list = []
        self.digest_checked = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def run(self, query, call) -> None:
        position = self.attempted
        tracer = self.tracer
        if tracer is not None:
            tracer.query_id = position
            span = tracer.open(tracing.QUERY)
        if self.speed is not None:
            self.speed.maybe_sample()
        start = time.perf_counter_ns()
        self.starts_ns.append(start)
        try:
            result = call()
        except Exception:  # an unexpected raise is a failed query
            self.latencies_ns.append(time.perf_counter_ns() - start)
            if tracer is not None:
                tracer.close(span)
            self._fail(query, traceback.format_exc(limit=3))
            return
        self.latencies_ns.append(time.perf_counter_ns() - start)
        if tracer is not None:
            tracer.close(span)
        try:
            terms, canonical = query.check(result)
            if position < len(self.digests):
                got = workloads.digest(canonical())
                self.digest_checked += 1
                if got != self.digests[position]:
                    raise WrongAnswer(f"digest {got} != recorded {self.digests[position]}")
        except WrongAnswer as exc:
            self._fail(query, str(exc))
            return
        self.terms += terms

    def _fail(self, query, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{query.kind} #{self.attempted - 1}: {message}")

    def normalized_ns(self) -> list:
        """Latencies at the reference speed (see speed.py)."""
        self.speed.sample()
        return [
            lat * self.speed.factor(start / 1e9, (start + lat) / 1e9)
            for start, lat in zip(self.starts_ns, self.latencies_ns)
        ]

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "terms": self.terms,
            "latencies_ns": self.latencies_ns,
            "digest_checked": self.digest_checked,
        }


def caller(workload, in_process: bool):
    if workload.name == "cli-session":
        return (lambda q: q.in_process) if in_process else (lambda q: q.call)
    return lambda q: q.call


def run_blocks(workload, loop: Loop, call_of, seconds: float, min_queries: int,
               count: int | None = None) -> int:
    """Run whole blocks until ``seconds`` have passed and at least
    ``min_queries`` were attempted, or exactly ``count`` queries."""
    start = time.perf_counter()
    index = 0
    while True:
        for query in workload.block(index):
            if count is not None and loop.attempted >= count:
                return index
            loop.run(query, call_of(query))
        index += 1
        if count is not None:
            continue
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and loop.attempted >= min_queries) or elapsed >= HARD_LIMIT_S:
            return index


def run_tail(workload, loop: Loop, in_process: bool) -> list:
    """Run the tail block; return each command's latency in ns."""
    loop.digests = []   # recorded digests cover the loop's blocks only
    first = loop.attempted
    for query in workload.tail():
        loop.run(query, query.in_process if in_process else query.call)
    return loop.latencies_ns[first:]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is in KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "untraced", "traced"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-queries", type=int, default=0)
    parser.add_argument("--count", type=int)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    workload = workloads.Workload(args.workload, args.seed, args.workdir)
    digests = recorded_digests(args.workload, args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    out: dict = {}
    if args.mode == "measure":
        loop = Loop(digests, speed_log=speed.SpeedLog())
        out["blocks"] = run_blocks(workload, loop, caller(workload, False),
                                   args.seconds, args.min_queries, args.count)
        out["peak_rss_mb"] = peak_rss_mb(children=workload.name == "cli-session")
        out["normalized_ns"] = loop.normalized_ns()
        out["kernel_ms"] = loop.speed.ms
    elif args.mode == "untraced":
        loop = Loop(digests)
        run_blocks(workload, loop, caller(workload, True), args.seconds, 0)
        out["loop_count"] = loop.attempted
        out["tail_in_process_ns"] = run_tail(workload, loop, in_process=True)
        out["tail_subprocess_ns"] = run_tail(workload, loop, in_process=False)
    else:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        loop = Loop(digests, tracer)
        run_blocks(workload, loop, caller(workload, True), 0, 0, count=args.count)
        run_tail(workload, loop, in_process=True)
        seg_us, term_us, sort_us, same = tracing.rebuild_probes(tracer.outputs)
        if not same:
            loop.failed += 1
            loop.failures.append("a FormalSum rebuilt from public fields differs")
        layers = tracing.layer_metrics(tracer)
        traced_loop_s, layer_self_s = tracing.loop_accounting(tracer, args.count)
        out.update({
            "traced_loop_s": traced_loop_s,
            "layer_self_s": layer_self_s,
            "layers": layers,
            "counters": dict(tracer.counters),
            "rebuild_us_per_segment": seg_us,
            "rebuild_us_per_term": term_us,
            "sorted_items_us_per_term": sort_us,
        })
        if args.trace_out:
            tracer.write(args.trace_out)
    out.update(loop.summary())
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
