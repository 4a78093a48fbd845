"""Benchmark of the jacquet calculator: closed-loop workloads, end to end
and per layer.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src``.
Each workload run happens in a fresh child process (child.py).  Without
``--trace`` (or with ``--trace 0``) the run reports the end-to-end metrics;
with ``--trace 1`` it replays the same queries with spans around every call
into the package and reports the per-layer metrics.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the details (samples,
environment).  The exit code is 1 when any answer is wrong, 2 when the run
could not be made.  Without ``--workload`` every workload runs in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# As in workloads.py, which this process does not import: it never loads
# the package it measures.
WORKLOADS = ("mustar-fold", "jacquet-query", "cli-session")
MIN_QUERIES = 100      # so that at least 10 samples lie beyond p90
SETUP_SAMPLES = 9      # set-up time is the median of this many processes
PROBE_SAMPLES = 5
CHILD_TIMEOUT_S = 170


# Kernel timings taken by this process, to normalize set-up times.
SPEED = speed.SpeedLog()


class BenchError(Exception):
    """The benchmark could not make a run."""


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def _spawn(mode: str, workload: str, seed: int, workdir: str, *extra) -> tuple:
    """Start child.py; return (seconds from spawn until it is ready, its
    JSON result or None in setup mode)."""
    argv = [sys.executable, os.path.join(BENCH, "child.py"), mode,
            "--workload", workload, "--seed", str(seed), "--workdir", workdir, *extra]
    for _ in range(3):
        SPEED.sample()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_env())
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        for _ in range(3):
            SPEED.sample()
        ready_s = (ready - start) * SPEED.factor(start, ready)
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} run of {workload} timed out") from None
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"{mode} run of {workload} exited with {proc.returncode}")
    if mode == "setup":
        return ready_s, None
    return ready_s, json.loads(rest.strip().splitlines()[-1])


def _wall_s(argv: list) -> float:
    start = time.perf_counter()
    subprocess.run(argv, check=True, capture_output=True, env=_env(), cwd=ROOT)
    return time.perf_counter() - start


def environment() -> dict:
    """Python version, processors, and bare interpreter start with and
    without ``site`` (a ``.pth`` file there can import packages such as
    certifi), so later comparisons can tell it apart from package start-up."""
    with_site = [_wall_s([sys.executable, "-c", "pass"]) for _ in range(PROBE_SAMPLES)]
    no_site = [_wall_s([sys.executable, "-S", "-c", "pass"]) for _ in range(PROBE_SAMPLES)]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "interpreter_start_ms": statistics.median(with_site) * 1e3,
        "interpreter_start_no_site_ms": statistics.median(no_site) * 1e3,
    }


def import_s() -> float:
    """Median time to import ``jacquet.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import jacquet.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(PROBE_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, env=_env(), cwd=ROOT)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def _quantiles_ms(latencies_ns: list) -> tuple:
    ms = [x / 1e6 for x in latencies_ns]
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return deciles[4], deciles[8]


def measure(workload: str, seed: int, seconds: float, workdir: str) -> tuple:
    """End-to-end run: whole blocks for ``seconds`` (and at least
    MIN_QUERIES queries) in one fresh process, timings at the reference
    speed; set-up time from that process and SETUP_SAMPLES - 1 more."""
    ready_s, res = _spawn("measure", workload, seed, os.path.join(workdir, "run"),
                          "--seconds", str(seconds), "--min-queries", str(MIN_QUERIES))
    setup = [ready_s] + [
        _spawn("setup", workload, seed, os.path.join(workdir, f"setup{i}"))[0]
        for i in range(SETUP_SAMPLES - 1)
    ]
    lat = res["normalized_ns"]
    p50, p90 = _quantiles_ms(lat)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "query_p50_ms": (p50, "ms"),
        "query_p90_ms": (p90, "ms"),
        "terms_per_s": (res["terms"] / (sum(lat) / 1e9), "1/s"),
        "ok_ratio": ((res["attempted"] - res["failed"]) / res["attempted"], "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    details = {
        "samples": len(lat),
        "beyond_p90": sum(1 for x in lat if x / 1e6 > p90),
        "blocks": res["blocks"],
        "loop_s": sum(res["latencies_ns"]) / 1e9,
        "raw_p50_p90_ms": _quantiles_ms(res["latencies_ns"]),
        "kernel_ms_quartiles": statistics.quantiles(res["kernel_ms"], n=4),
        "setup_samples_s": setup,
        "digest_checked": res["digest_checked"],
        "failures": res["failures"],
    }
    return res, metrics, details


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace(workload: str, seed: int, seconds: float, workdir: str) -> tuple:
    """Per-layer run: the first half of the time runs the loop untraced,
    a second fresh process replays exactly those queries traced."""
    _, ref = _spawn("untraced", workload, seed, os.path.join(workdir, "untraced"),
                    "--seconds", str(seconds / 2))
    count = ref["loop_count"]
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    _, res = _spawn("traced", workload, seed, os.path.join(workdir, "traced"),
                    "--count", str(count), "--trace-out", spans)
    untraced_loop_s = sum(ref["latencies_ns"][:count]) / 1e9
    calls, busy, self_s = (res["layers"][k] for k in ("calls", "busy_s", "self_s"))
    ctr = res["counters"]
    overhead = [(s - p) / 1e6 for s, p in zip(ref["tail_subprocess_ns"],
                                             ref["tail_in_process_ns"])]
    m = {
        "segments.rebuild_us_per_segment": (res["rebuild_us_per_segment"], "us"),
        "grothendieck.rebuild_us_per_term": (res["rebuild_us_per_term"], "us"),
        "grothendieck.sorted_items_us_per_term": (res["sorted_items_us_per_term"], "us"),
    }
    source = {"calls": (calls, "count"), "busy_s": (busy, "s"), "self_s": (self_s, "s")}
    for name, kinds in (
        ("grothendieck.sum_to_obj", ("busy_s",)),
        ("grothendieck.tensor_multiply", ("calls", "busy_s")),
        ("structure.twisted_rtimes", ("calls", "busy_s")),
        ("structure.jacquet_by_shape", ("busy_s", "self_s")),
        ("structure.mu_star", ("busy_s",)),
        ("structure.mu_star_of_segments", ("busy_s",)),
        ("structure.mstar_gl", ("calls", "busy_s")),
        ("spclassifier.enumerate_sp", ("busy_s",)),
        ("spclassifier.build_inducing_rep", ("calls",)),
        ("spclassifier.validate_lj", ("calls",)),
        ("spclassifier.leading_term_multiplicity", ("busy_s",)),
        ("weyl.brute_force_coset_reps", ("busy_s",)),
        ("weyl.length", ("calls", "busy_s")),
        ("weyl.q_rep", ("busy_s",)),
        ("expressions.parse_expression", ("calls", "busy_s")),
        ("expressions.parse_tensor_target", ("busy_s",)),
        ("cli.run_command", ("busy_s",)),
    ):
        for kind in kinds:
            table, unit = source[kind]
            m[f"{name}.{kind}"] = (table.get(name, 0), unit)
    raw = ctr.get("structure.twisted_rtimes.raw_products", 0)
    out = ctr.get("structure.twisted_rtimes.terms_out", 0)
    m["structure.twisted_rtimes.raw_products"] = (raw, "count")
    m["structure.twisted_rtimes.terms_out"] = (out, "count")
    m["structure.twisted_rtimes.merge_ratio"] = (_ratio(out, raw), "ratio")
    m["structure.segment_reuse_ratio"] = (_ratio(
        ctr.get("structure.fold_segments_reused", 0), ctr.get("structure.fold_segments", 0)),
        "ratio")
    m["structure.jacquet_by_shape.rank_match_ratio"] = (_ratio(
        ctr.get("structure.jacquet_by_shape.rank_matched", 0),
        ctr.get("structure.jacquet_by_shape.mu_terms", 0)), "ratio")
    env = environment()
    m["cli.interpreter_s"] = (env["interpreter_start_ms"] / 1e3, "s")
    m["cli.import_s"] = (import_s(), "s")
    m["cli.process_overhead_ms"] = (statistics.median(overhead), "ms")
    m["trace_overhead_ratio"] = (_ratio(res["traced_loop_s"], untraced_loop_s) - 1, "ratio")
    m["trace_self_coverage"] = (_ratio(res["layer_self_s"], untraced_loop_s), "ratio")
    combined = {
        "attempted": ref["attempted"] + res["attempted"],
        "failed": ref["failed"] + res["failed"],
    }
    details = {
        "env": env,
        "replayed_queries": count,
        "untraced_loop_s": untraced_loop_s,
        "traced_loop_s": res["traced_loop_s"],
        "layer_self_s": res["layer_self_s"],
        "spans_file": os.path.relpath(spans, ROOT),
        "failures": ref["failures"] + res["failures"],
    }
    return combined, m, details


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> bool:
    workdir = os.path.join(OUT, f"run-{os.getpid()}-{workload}")
    try:
        if traced:
            res, metrics, details = trace(workload, seed, seconds, workdir)
        else:
            res, metrics, details = measure(workload, seed, seconds, workdir)
            details["env"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = res["failed"] == 0
    print(json.dumps({"workload": workload, "seed": seed, "trace": int(traced), **details}))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; answers of seed 0 are also checked "
                             "against digests recorded at the seed commit")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the timed loop of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jacquet", "__init__.py")):
        print(f"error: no jacquet package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    ok = True
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            ok = run_workload(workload, args.seed, args.seconds, bool(args.trace)) and ok
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
