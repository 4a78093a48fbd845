"""The benchmark's three workloads: seeded inputs, queries and answer checks.

A workload is an endless sequence of blocks of queries.  Block ``i`` is
drawn from its own RNG, seeded with the workload name, the run seed and
``i``, so every block can be rebuilt alone and one seed always gives the
same inputs in the same order.  Each block has a fixed composition of query
classes: the seed picks labels, exponents, group modes, Weyl parameters and
the order of the queries, never the mix of sizes.  The median and the 90th
percentile therefore fall inside the same query class on every seed; see
README.md for which class that is.

A query's ``call`` is the only part that is timed.  Its ``check`` runs
afterwards: it raises ``WrongAnswer`` for a wrong answer and otherwise
returns the number of output terms and a thunk that builds the answer's
canonical JSON object (only built when a recorded digest is compared).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

from jacquet import cli, grothendieck, spclassifier, structure
from jacquet.grothendieck import GLMonomial, GUClass, TensorTerm
from jacquet.scalars import CuspidalGLLabel, GUCuspidalLabel, HalfInt, TRIVIAL_TWIST
from jacquet.segments import Segment
from jacquet.spclassifier import LJDatum, enumerate_jord
from jacquet.structure import GroupMode

WORKLOADS = ("mustar-fold", "jacquet-query", "cli-session")


class WrongAnswer(Exception):
    """An answer failed one of the benchmark's checks."""


@dataclass
class Query:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], tuple]


def digest(canonical) -> str:
    """Short SHA-256 of an answer's canonical JSON form."""
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def block_rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds go through SHA-512, so blocks do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{index}")


def _h(twice: int) -> HalfInt:
    return HalfInt.from_twice(twice)


def _seg(rho, a: HalfInt, length: int) -> Segment:
    return Segment(rho, a, a + (length - 1))


# ---------------------------------------------------------------------------
# mu*-fold

@dataclass
class Labels:
    rho: CuspidalGLLabel
    tau: CuspidalGLLabel
    chi: CuspidalGLLabel
    sigma: GUCuspidalLabel
    sp: dict          # reducibility point (str) -> (label, anchor)


def declare_labels() -> Labels:
    """rho, tau (dim 2) and chi (not self-dual) over a rank-1 anchor, as in
    the randomized conservation criterion, plus one twist-fixed anchor per
    reducibility point for the SP queries."""
    rho = CuspidalGLLabel("rho")
    tau = CuspidalGLLabel("tau", dim=2)
    chi = CuspidalGLLabel("chi", dim=1, conj_self_dual=False)
    sigma = GUCuspidalLabel("sigma", rank=1)
    sp = {}
    for a in ("1/2", "1", "3/2", "2"):
        label = CuspidalGLLabel("r" + a.replace("/", "_"))
        anchor = GUCuspidalLabel("sigma_" + label.name, rank=0,
                                 reducibility={label: HalfInt(a)},
                                 twist_fixed={label})
        sp[a] = (label, anchor)
    return Labels(rho, tau, chi, sigma, sp)


def _mu_check(segments, sigma, mode):
    total_rank = sum(s.rank for s in segments) + sigma.rank
    expected = math.prod((s.length + 1) * (s.length + 2) // 2 for s in segments)

    def check(result):
        _require(result.total_multiplicity() == expected,
                 f"total multiplicity {result.total_multiplicity()} != {expected}")
        for term, mult in result.items():
            gl, gu = term.factors
            _require(mult > 0, f"non-positive multiplicity {mult}")
            _require(gl.rank + gu.rank == total_rank, f"rank not conserved in {term}")
            if mode is GroupMode.U:
                _require(gu.twist.is_trivial, f"U-mode term carries a twist: {term}")
        return len(result), lambda: grothendieck.sum_to_obj(result)

    return check


def _mu_query(kind, segments, sigma, mode) -> Query:
    segments = tuple(segments)
    return Query(
        kind,
        lambda: structure.mu_star_of_segments(segments, sigma, mode=mode),
        _mu_check(segments, sigma, mode),
    )


_SHORT_PAIRS = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1)]
_LONG_PAIRS = [(3, 3), (2, 4), (4, 2), (3, 4), (4, 3), (4, 4)]
_TRIPLES = list(itertools.product(range(1, 5), repeat=3))
_MEDIAN_SLOTS = (9, 10)


def mustar_block(labels: Labels, seed: int, index: int) -> list:
    """20 queries: 16 small classes as in the randomized conservation
    criterion (0..3 segments, 4 of each count, lengths 1..4, labels
    rho/tau/chi, starts in [-5/2, 5/2]) and 4 deep alternating rho/tau
    folds, 3 of k=3,L=4 and 1 of k=4,L=3.  One query of each segment
    count and one k=3,L=4 fold run in U mode.

    p50 falls between the 10th and 11th cheapest queries of a block, in
    the 2-segment classes: one short length pair, (2,3) and (3,2) on one
    rho and one tau segment (60 terms, nothing merges) and one long pair,
    so the median sits on two queries of equal work.  p90 falls inside
    the two GU k=3,L=4 folds."""
    rng = block_rng("mustar-fold", seed, index)
    # Length tuples cycle through their combinations, in a per-seed
    # order, so a run sees the whole distribution rather than a sample.
    cycle = random.Random(f"mustar-fold:{seed}:cycle")
    short = cycle.sample(_SHORT_PAIRS, len(_SHORT_PAIRS))
    long_ = cycle.sample(_LONG_PAIRS, len(_LONG_PAIRS))
    triples = cycle.sample(_TRIPLES, len(_TRIPLES))
    shapes = [()] * 4
    shapes += [(n,) for n in rng.sample(range(1, 5), 4)]
    shapes += [short[index % len(short)], (2, 3), (3, 2), long_[index % len(long_)]]
    shapes += [triples[(4 * index + j) % len(triples)] for j in range(4)]
    u_slots = {rng.randrange(0, 4), rng.randrange(4, 8), rng.choice((8, 11)),
               rng.randrange(12, 16)}
    queries = []
    for slot, lengths in enumerate(shapes):
        if slot in _MEDIAN_SLOTS:
            chosen = rng.sample((labels.rho, labels.tau), 2)
        else:
            chosen = [rng.choice((labels.rho, labels.tau, labels.chi)) for _ in lengths]
        segments = [_seg(rho, _h(rng.randrange(-5, 6)), length)
                    for rho, length in zip(chosen, lengths)]
        mode = GroupMode.U if slot in u_slots else GroupMode.GU
        queries.append(_mu_query(f"small-{len(lengths)}", segments, labels.sigma, mode))
    u_deep = rng.randrange(3)
    for j, (k, length) in enumerate(((3, 4), (3, 4), (3, 4), (4, 3))):
        # Integer starts and rho first: the fold's work then does not
        # depend on the seed.
        start = HalfInt(rng.randrange(-2, 3))
        segments = [
            _seg((labels.rho, labels.tau)[i % 2], start + i, length)
            for i in range(k)
        ]
        mode = GroupMode.U if j == u_deep else GroupMode.GU
        queries.append(_mu_query(f"deep-k{k}L{length}", segments, labels.sigma, mode))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# jacquet-query

def _pattern(name: str, labels: Labels, t: HalfInt) -> list:
    """Classes of GL rank 6 or 8.  Translating every exponent by ``t`` keeps
    the work of every query the same."""
    rho, tau = labels.rho, labels.tau
    if name == "A":   # three overlapping rho segments of length 2
        return [_seg(rho, t, 2), _seg(rho, t + 1, 2), _seg(rho, t + 2, 2)]
    if name == "B":   # two rho segments of length 3 overlapping in 2
        return [_seg(rho, t, 3), _seg(rho, t + 1, 3)]
    if name == "C":   # rho and tau segments of length 2
        return [_seg(rho, t, 2), _seg(tau, t + 1, 2)]
    if name == "D":   # two rho segments of length 4 overlapping in 3
        return [_seg(rho, t, 4), _seg(rho, t + 1, 4)]
    raise ValueError(name)


def _jacquet_check(g: GUClass, shape: tuple):
    def check(result):
        for term, mult in result.items():
            _require(mult > 0, f"non-positive multiplicity {mult}")
            *parts, anchor = term.factors
            _require(tuple(p.rank for p in parts) == shape,
                     f"block ranks of {term} do not match shape {shape}")
            _require(anchor.rank + sum(shape) == g.rank,
                     f"rank not conserved in {term}")
        return len(result), lambda: grothendieck.sum_to_obj(result)

    return check


def _jacquet_query(labels, pattern, shape, mode, t) -> Query:
    g = GUClass(_pattern(pattern, labels, t), labels.sigma)
    return Query(
        f"jacquet-{pattern}-{'.'.join(map(str, shape))}",
        lambda: structure.jacquet_by_shape(g, shape, mode),
        _jacquet_check(g, shape),
    )


def _mult_query(labels, pattern, mode, t) -> Query:
    """Coefficient of the leading term (each segment in its own block, bare
    anchor) in the Jacquet module along the segment ranks; at least 1."""
    segments = _pattern(pattern, labels, t)
    g = GUClass(segments, labels.sigma)
    shape = tuple(s.rank for s in g.segments)
    target = TensorTerm(tuple(GLMonomial((s,)) for s in g.segments)
                        + (GUClass((), labels.sigma, TRIVIAL_TWIST),))

    def call():
        return structure.jacquet_by_shape(g, shape, mode).coefficient(target)

    def check(mult):
        _require(isinstance(mult, int) and mult >= 1,
                 f"leading coefficient {mult!r} is not a positive integer")
        return 1, lambda: mult

    return Query(f"mult-{pattern}", call, check)


def _leading_query(labels, a: str, max_b: int, mode, rng) -> Query:
    label, anchor = labels.sp[a]
    jords = enumerate_jord(label, HalfInt(a), HalfInt(max_b))
    datum = LJDatum((rng.choice(jords),), anchor)

    def check(mult):
        _require(mult == 1, f"leading multiplicity {mult} != 1 for {datum}")
        return 1, lambda: mult

    return Query(f"leading-a{a}",
                 lambda: spclassifier.leading_term_multiplicity(datum, mode), check)


def _enum_query(labels, a: str, max_b: str, mode) -> Query:
    """Single-label SP enumeration.  ``max_b`` is passed as a HalfInt, as
    the CLI does: a str bound is iterated character by character."""
    label, anchor = labels.sp[a]
    bound = HalfInt(max_b)
    count = len(enumerate_jord(label, HalfInt(a), bound))

    def check(entries):
        _require(len(entries) == count, f"{len(entries)} data, expected {count}")
        for e in entries:
            _require(e.leading_multiplicity == 1,
                     f"leading multiplicity {e.leading_multiplicity} for {e.datum}")
            _require(e.constraints_ok, f"constraints fail for {e.datum}")
        return len(entries), lambda: [e.to_obj() for e in entries]

    return Query(f"enum-a{a}-b{max_b}",
                 lambda: spclassifier.enumerate_sp([label], anchor, bound, mode), check)


def jacquet_block(labels: Labels, seed: int, index: int) -> list:
    """20 queries on classes of GL rank 6 and 8, listed here from cheapest
    to dearest at the seed commit.  p50 falls on the two jacquet-A-(6)
    queries, p90 among the three jacquet-B-1^6; jacquet-A-1^6 (about
    1.3 s at the seed commit) is the one dearer query.  Five fixed
    slots, away from p50 and p90, run in U mode: U mode merges twisted
    terms, so a random choice would change the mix of costs."""
    rng = block_rng("jacquet-query", seed, index)
    t = _h(rng.randrange(-4, 5))
    gu, u = GroupMode.GU, GroupMode.U
    ones = (1,) * 6
    queries = [
        _enum_query(labels, rng.choice(("1/2", "1")), "4", u),
        _mult_query(labels, "C", gu, t),
        _jacquet_query(labels, "B", (2, 1), gu, t),
        _jacquet_query(labels, "C", (2, 2, 2), u, t),
        _jacquet_query(labels, "D", (2, 1), gu, t),
        _leading_query(labels, rng.choice(("3/2", "2")), 3, u, rng),
        _enum_query(labels, "2", rng.choice(("3", "7/2")), gu),
        _leading_query(labels, rng.choice(("3/2", "2")), 3, gu, rng),
        _mult_query(labels, "B", gu, t),
        _jacquet_query(labels, "A", (6,), gu, t),
        _jacquet_query(labels, "A", (6,), gu, t),
        _jacquet_query(labels, "D", (8,), gu, t),
        _enum_query(labels, rng.choice(("3/2", "2")), "4", u),
        _jacquet_query(labels, "A", (3, 3), gu, t),
        _jacquet_query(labels, "D", (4, 4), u, t),
        _mult_query(labels, "D", gu, t),
        _jacquet_query(labels, "B", ones, gu, t),
        _jacquet_query(labels, "B", ones, gu, t),
        _jacquet_query(labels, "B", ones, gu, t),
        _jacquet_query(labels, "A", ones, gu, t),
    ]
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# cli-session

CLI_DECLS = {
    "gl": [
        {"name": "rho", "dim": 1, "conj_self_dual": True},
        {"name": "rho2", "dim": 1, "conj_self_dual": True},
    ],
    "gu": [
        {
            "name": "sigma",
            "rank": 0,
            "reducibility": {"rho": "2", "rho2": "1/2"},
            "twist_fixed": ["rho", "rho2"],
        }
    ],
}


def write_cli_files(directory: str, seed: int) -> dict:
    """The declarations file and a few valid and invalid datums for
    ``check-lj``, written under ``directory``."""
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(f"cli-session:{seed}:files")
    paths = {"decls": os.path.join(directory, "decls.json")}
    with open(paths["decls"], "w", encoding="utf-8") as handle:
        json.dump(CLI_DECLS, handle)
    grid = ["0", "1", "2", "3", "4"]
    valid = [sorted(rng.sample(grid, 2), key=int) for _ in range(4)]
    invalid = [
        ["2", "1"],                                          # not increasing
        ["1", "5/2"],                                        # b - a not integral
        ["-1", "2"],                                         # first b not > -1
        ["1"],                                               # wrong length
    ]
    for name, seqs in (("valid", valid), ("invalid", invalid)):
        paths[name] = []
        for i, b in enumerate(seqs):
            path = os.path.join(directory, f"datum-{name}-{i}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"sigma": "sigma", "jord": [{"rho": "rho", "a": "2", "b": b}]},
                          handle)
            paths[name].append(path)
    return paths


def _num(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def _delta(a2: int, length: int, label: str) -> str:
    return f"d({_num(a2)},{_num(a2 + 2 * (length - 1))}@{label})"


_FOOTER = re.compile(r"^  \(\d+ terms\)$")


def _records(stdout: str, fmt: str) -> int:
    """Output records of one command: terms, SP entries, representatives,
    conditions or a multiplicity."""
    if fmt == "json":
        doc = json.loads(stdout)
        for key in ("terms", "entries", "representatives", "checks"):
            if key in doc:
                return len(doc[key])
        return 1
    return sum(1 for line in stdout.splitlines()
               if line.startswith("  ") and not _FOOTER.match(line))


def _cli_check(kind: str, expect_rc: int, fmt: str, expect: dict):
    """Exit code, output form and the workload's invariants of one command.
    Documented error exits count as correct when they match."""

    def check(outcome):
        rc, out, err = outcome
        _require(rc == expect_rc, f"{kind}: exit {rc}, expected {expect_rc}: {err.strip()}")
        if rc == 2:
            _require("usage:" in err, f"{kind}: usage error without usage text")
            return 0, lambda: [rc, out]
        if expect.get("error"):
            _require(err.startswith("error:") and out == "",
                     f"{kind}: domain error not reported as 'error:'")
            return 0, lambda: [rc, out]
        doc = json.loads(out) if fmt == "json" else None
        if "oracle" in expect:
            if doc is None:
                _require("MATCH" in out.splitlines() and "MISMATCH" not in out,
                         f"{kind}: oracle did not print MATCH")
            else:
                _require(doc["oracle"]["match"] is True, f"{kind}: oracle mismatch")
        if "sp" in expect:
            if doc is None:
                lines = [l for l in out.splitlines() if l.startswith("  ")]
                _require(lines and all(l.endswith("leading mult 1]") and "[ok," in l
                                       for l in lines), f"{kind}: SP signature broken")
            else:
                _require(doc["entries"] and all(
                    e["diagnostics"]["leading_multiplicity"] == 1
                    and e["diagnostics"]["constraints_ok"] for e in doc["entries"]),
                    f"{kind}: SP signature broken")
        if "mustar" in expect:
            segments, u_mode = expect["mustar"]
            _check_cli_mustar(kind, out, doc, segments, u_mode)
        if "mult" in expect:
            value = doc["multiplicity"] if doc else int(out.rsplit(":", 1)[1])
            _require(value >= 1, f"{kind}: leading coefficient {value} < 1")
        if "check_lj" in expect:
            ok = expect["check_lj"]
            if doc is None:
                _require(("FAIL" in out) != ok, f"{kind}: wrong verdict")
            else:
                _require(doc["ok"] is ok, f"{kind}: wrong verdict")
        return _records(out, fmt), lambda: [rc, out]

    return check


def _check_cli_mustar(kind, out, doc, lengths, u_mode):
    """mustar: total multiplicity and rank conservation (implicit labels
    have dim 1 and the implicit anchor rank 0), no twist in U mode."""
    expected = math.prod((n + 1) * (n + 2) // 2 for n in lengths)
    if doc is None:
        footer = out.splitlines()[-1].strip()
        _require(footer == f"({_records(out, 'text')} terms)", f"{kind}: bad footer")
        return
    total = 0
    for entry in doc["terms"]:
        gl, gu = entry["term"]
        rank = sum(int((HalfInt(s["b"]) - HalfInt(s["a"])).twice // 2) + 1
                   for s in gl["segments"] + gu["segments"])
        _require(rank == sum(lengths), f"{kind}: rank not conserved")
        _require(not (u_mode and gu["twist"]), f"{kind}: U-mode term carries a twist")
        total += entry["mult"]
    _require(total == expected, f"{kind}: total multiplicity {total} != {expected}")


def cli_block(files: dict, seed: int, index: int) -> list:
    """20 ``python -m jacquet`` invocations covering every subcommand in
    text and JSON form, with the documented error exits 1 and 2.  Listed
    here from cheapest to dearest at the seed commit: p50 falls among the
    light commands and p90 on the three three-segment JSON mustar runs.
    Commands that run in one form per block alternate between text and
    JSON from block to block, so two blocks always hold the same mix."""
    rng = block_rng("cli-session", seed, index)
    a2 = rng.randrange(-4, 5)
    decls = ["--decls", files["decls"]]
    specs = []   # (kind, argv, expected exit code, output form, checks)

    def add(kind, argv, rc=0, **expect):
        fmt = "json" if "--format" in argv else "text"
        specs.append((kind, argv, rc, fmt, expect))

    def either_form(kind, argv, **kw):
        if (index + len(specs)) % 2:
            add(kind + "-json", argv + ["--format", "json"], **kw)
        else:
            add(kind + "-text", argv, **kw)

    group = rng.choice(("GU", "U"))
    two = [rng.randrange(1, 4), rng.randrange(1, 3)]
    three = [4, 4, 2]
    add("usage-error", ["jacquet", f"{_delta(a2, 1, 'rho')} |x| sigma"], rc=2)
    either_form("check-lj-valid", ["check-lj", *decls, "--datum",
                                   rng.choice(files["valid"])], check_lj=True)
    add("check-lj-invalid-text", ["check-lj", *decls, "--datum",
                                  rng.choice(files["invalid"])], rc=1, check_lj=False)
    add("check-lj-invalid-json", ["check-lj", *decls, "--datum",
                                  rng.choice(files["invalid"]), "--format", "json"],
        rc=1, check_lj=False)
    lead = f"{_delta(a2, 1, 'rho')} x {_delta(a2 + 2, 1, 'rho')}"
    target = f"{_delta(a2, 1, 'rho')} (x) {_delta(a2 + 2, 1, 'rho')} (x) 1 |x| sigma"
    either_form("mult", ["mult", f"{lead} |x| sigma", "--term", target, "--shape", "1,1"],
                mult=True)
    add("mstar-json", ["mstar", " x ".join(_delta(a2 + j, n, "rho")
                                           for j, n in enumerate(two)),
                       "--format", "json"])
    add("domain-error", ["mustar", f"{_delta(a2, 1, 'ghost')} |x| sigma", *decls],
        rc=1, error=True)
    one = rng.randrange(1, 4)
    add("mustar-small-text", ["mustar", f"{_delta(a2, one, 'rho')} |x| sigma",
                              "--group", group], mustar=([one], group == "U"))
    add("mustar-small-json", ["mustar", f"{_delta(a2, one, 'tau')} |x| sigma",
                              "--group", group, "--format", "json"],
        mustar=([one], group == "U"))
    for form in ("text", "json"):
        i1, i2 = rng.randrange(1, 4), rng.randrange(1, 4)
        argv = ["weyl", "--n", "3", "--i1", str(i1), "--i2", str(i2), "--oracle"]
        add(f"weyl3-{form}", argv + (["--format", "json"] if form == "json" else []),
            oracle=True)
    either_form("enum-sp-half", ["enum-sp", *decls, "--sigma", "sigma", "--rhos", "rho2",
                                 "--max-b", "4"], sp=True)
    either_form("jacquet-B", ["jacquet", f"{_delta(a2, 3, 'rho')} x "
                              f"{_delta(a2 + 2, 3, 'rho')} |x| sigma", "--shape", "3,3"])
    for form in ("text", "json"):
        i1, i2 = rng.randrange(1, 5), rng.randrange(1, 5)
        argv = ["weyl", "--n", "4", "--i1", str(i1), "--i2", str(i2), "--oracle"]
        add(f"weyl4-{form}", argv + (["--format", "json"] if form == "json" else []),
            oracle=True)
    either_form("enum-sp-two", ["enum-sp", *decls, "--sigma", "sigma", "--rhos", "rho",
                                "--max-b", "3"], sp=True)
    deep = " x ".join(_delta(a2 + 2 * j, n, ("rho", "tau")[j % 2])
                      for j, n in enumerate(three))
    for _ in range(3):
        add("mustar-deep-json", ["mustar", f"{deep} |x| sigma", "--format", "json"],
            mustar=(three, False))
    add("jacquet-A-json", ["jacquet", " x ".join(_delta(a2 + 2 * j, 2, "rho")
                                                 for j in range(3)) + " |x| sigma",
                           "--shape", "2,2,2", "--format", "json"])
    rng.shuffle(specs)
    return [
        CliQuery(kind, argv, _cli_check(kind, rc, fmt, expect))
        for kind, argv, rc, fmt, expect in specs
    ]


class CliQuery(Query):
    """A CLI invocation: ``call`` runs it in a fresh interpreter;
    ``in_process`` runs it through ``cli.run_command`` instead."""

    def __init__(self, kind, argv, check):
        super().__init__(kind, self.subprocess_run, check)
        self.argv = argv

    def subprocess_run(self):
        proc = subprocess.run([sys.executable, "-m", "jacquet", *self.argv],
                              capture_output=True, env=CLI_ENV, check=False)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    def in_process(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run_command(list(self.argv))
        return rc, out.getvalue(), err.getvalue()


# ``python -m jacquet`` runs the same package this module imported.
CLI_ENV = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))))


# ---------------------------------------------------------------------------
# Set-up shared by every workload.

class Workload:
    """The inputs of one workload for one seed, built at set-up."""

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name, self.seed = name, seed
        self.labels = declare_labels()
        self.files = write_cli_files(workdir, seed)
        self.first_block = self._make(0)

    def _make(self, index: int) -> list:
        if self.name == "mustar-fold":
            return mustar_block(self.labels, self.seed, index)
        if self.name == "jacquet-query":
            return jacquet_block(self.labels, self.seed, index)
        return cli_block(self.files, self.seed, index)

    def block(self, index: int) -> list:
        """Block 0 is built at set-up, later blocks when the loop reaches them."""
        return self.first_block if index == 0 else self._make(index)

    def tail(self) -> list:
        """One more CLI block, replayed in-process after the loop of a traced
        run, so that every layer has spans on every workload."""
        return cli_block(self.files, self.seed, -1)
