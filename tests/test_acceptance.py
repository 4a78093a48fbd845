"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the slow rank-4 oracle check carries the ``slow`` marker.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from jacquet import (
    CuspidalGLLabel,
    FormalSum,
    GLMonomial,
    GroupMode,
    GUClass,
    GUCuspidalLabel,
    HalfInt,
    InvalidDatumError,
    JordSequence,
    LJDatum,
    Segment,
    TensorTerm,
    TwistTag,
    brute_force_coset_reps,
    build_inducing_rep,
    enumerate_geom_params,
    enumerate_jord,
    leading_term_multiplicity,
    mstar_big,
    mu_star,
    mu_star_of_segments,
    q_rep,
)
from helpers import (
    direct_single_segment_mu,
    h,
    make_mixed_labels,
    random_segments,
    seg,
    strip_twists,
)


@contextmanager
def criterion(num, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[acceptance] criterion {num} ({label}): PASS  [{elapsed:.3f}s]")


RHO = CuspidalGLLabel("rho")
CHI = CuspidalGLLabel("chi", conj_self_dual=False)
SIGMA = GUCuspidalLabel("sigma")


def _three_term_expectation(rho, a, sigma, mode):
    s = Segment(rho, a, a)
    untouched = TensorTerm((GLMonomial(), GUClass([s], sigma)))
    plain = TensorTerm((GLMonomial([s]), GUClass([], sigma)))
    twist = (
        TwistTag(((rho.name, 1, a),)) if mode is GroupMode.GU else TwistTag()
    )
    dualized = TensorTerm((
        GLMonomial([s.dual()]),
        GUClass([], sigma, twist),
    ))
    return FormalSum([(untouched, 1), (plain, 1), (dualized, 1)])


def test_criterion_1_anchored_mu_star_values():
    with criterion(1, "anchored one-segment comultiplication"):
        cases = [(RHO, HalfInt(1)), (RHO, h(1)), (CHI, HalfInt(2))]
        for rho, a in cases:
            g = GUClass([Segment(rho, a, a)], SIGMA)
            got = mu_star(g, GroupMode.GU)
            assert got == _three_term_expectation(rho, a, SIGMA, GroupMode.GU), (rho, a)
        # steady-state timing: engine warmed by the loop above, fresh class
        g = GUClass([Segment(RHO, HalfInt(1), HalfInt(1))], SIGMA)
        best = min(
            _timed(lambda: mu_star(g, GroupMode.GU)) for _ in range(5)
        )
        assert best < 1e-3, f"mu_star took {best:.6f}s"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_double_sum_fidelity():
    with criterion(2, "double-sum transcription fidelity, L <= 6"):
        for length in range(1, 7):
            for start in (HalfInt(1), h(1), HalfInt(-2)):
                s = Segment(RHO, start, start + (length - 1))
                ms = mstar_big(s)
                assert len(ms) == (length + 1) * (length + 2) // 2
                assert ms.total_multiplicity() == (length + 1) * (length + 2) // 2
                for mode in GroupMode:
                    engine = mu_star(GUClass([s], SIGMA), mode)
                    direct = direct_single_segment_mu(s, SIGMA, mode)
                    assert engine == direct, (s, mode)
                    assert engine.total_multiplicity() == \
                        (length + 1) * (length + 2) // 2


def test_criterion_3_randomized_conservation_and_commutativity():
    with criterion(3, "1000 randomized degree/swap checks"):
        start = time.perf_counter()
        labels, sigma = make_mixed_labels()
        rng = random.Random(20240501)
        for _ in range(1000):
            segments = random_segments(rng, labels, max_segments=3, max_length=4)
            total = sum(s.rank for s in segments) + sigma.rank
            mu = mu_star_of_segments(segments, sigma)
            for term, _ in mu.items():
                gl, gu = term.factors
                assert gl.rank + gu.rank == total
            shuffled = segments[:]
            rng.shuffle(shuffled)
            assert mu == mu_star_of_segments(shuffled, sigma)
        assert time.perf_counter() - start < 30.0


def test_criterion_4_weyl_oracle_fast():
    with criterion(4, "Weyl oracle equivalence, n <= 3"):
        start = time.perf_counter()
        for n in (1, 2, 3):
            for i1 in range(1, n + 1):
                for i2 in range(1, n + 1):
                    closed = {q_rep(p) for p in enumerate_geom_params(n, i1, i2)}
                    assert closed == brute_force_coset_reps(n, i1, i2), (n, i1, i2)
        assert time.perf_counter() - start < 10.0


@pytest.mark.slow
def test_criterion_4_weyl_oracle_rank4():
    with criterion("4s", "Weyl oracle equivalence, n = 4"):
        for i1 in range(1, 5):
            for i2 in range(1, 5):
                closed = {q_rep(p) for p in enumerate_geom_params(4, i1, i2)}
                assert closed == brute_force_coset_reps(4, i1, i2), (i1, i2)


def _brute_force_jord(a, max_b):
    a, max_b = HalfInt(a), HalfInt(max_b)
    k = a.ceil()
    grid = [HalfInt.from_twice(t) for t in range(-8, max_b.twice + 1)]
    out = []
    for combo in itertools.combinations(grid, k):
        if any(not (b - a).is_integer() for b in combo):
            continue
        if combo and not combo[0] > -1:
            continue
        if any(x >= y for x, y in zip(combo, combo[1:])):
            continue
        out.append(combo)
    return out


def test_criterion_5_jord_enumeration_counts():
    with criterion(5, "exponent sequence enumeration counts"):
        six = enumerate_jord(RHO, HalfInt(2), HalfInt(3))
        assert len(six) == 6
        assert [tuple(s.b) for s in six] == _brute_force_jord("2", "3")
        four = enumerate_jord(RHO, h(1), h(5))
        assert len(four) == 4
        assert [tuple(s.b) for s in four] == _brute_force_jord("1/2", "5/2")


def _desk_scale_universe():
    """One anchor with four labels covering every reducibility with
    ceil(a) <= 2, all twist-fixed."""
    names = {"1/2": "rh", "1": "r1", "3/2": "rt", "2": "r2"}
    labels = {a: CuspidalGLLabel(name) for a, name in names.items()}
    sigma = GUCuspidalLabel(
        "sigma_desk",
        reducibility={rho: HalfInt(a) for a, rho in labels.items()},
        twist_fixed=set(labels.values()),
    )
    return labels, sigma


def _desk_scale_data():
    labels, sigma = _desk_scale_universe()
    data = []
    for a, rho in labels.items():
        for jord in enumerate_jord(rho, HalfInt(a), HalfInt(4)):
            data.append(LJDatum((jord,), sigma))
    return data


def test_criterion_6_uniqueness_signature():
    with criterion(6, "leading-term multiplicity one"):
        start = time.perf_counter()
        data = _desk_scale_data()
        assert len(data) == 5 + 5 + 10 + 10
        for datum in data:
            assert leading_term_multiplicity(datum, GroupMode.GU) == 1, datum
        labels, sigma = _desk_scale_universe()
        bad = LJDatum(
            (JordSequence(labels["2"], HalfInt(2), (HalfInt(2), HalfInt(1))),),
            sigma,
        )
        with pytest.raises(InvalidDatumError):
            leading_term_multiplicity(bad, GroupMode.GU)
        assert time.perf_counter() - start < 60.0


def test_criterion_7_injectivity_at_data_level():
    with criterion(7, "inducing classes are pairwise distinct"):
        reps = {}
        for datum in _desk_scale_data():
            rep = build_inducing_rep(datum)
            if rep in reps:
                # only *distinct* data may not share a class; all-empty
                # sequences collapse to the same bare-anchor datum
                assert reps[rep] == datum, (datum, reps[rep])
            reps[rep] = datum
        assert len(reps) == len({d for d in _desk_scale_data()})


def test_criterion_8_u_mode_purity():
    with criterion(8, "U-mode purity and tag-erased agreement"):
        # criterion 1 shape, U mode
        for rho, a in [(RHO, HalfInt(1)), (RHO, h(1)), (CHI, HalfInt(2))]:
            g = GUClass([Segment(rho, a, a)], SIGMA)
            got = mu_star(g, GroupMode.U)
            assert got == _three_term_expectation(rho, a, SIGMA, GroupMode.U)
            assert strip_twists(mu_star(g, GroupMode.GU)) == got
        # criterion 2 transcriptions already run both modes; re-check purity
        for length in range(1, 7):
            s = seg(RHO, 1, length)
            for term, _ in mu_star(GUClass([s], SIGMA), GroupMode.U).items():
                assert term.factors[-1].twist.is_trivial
        # criterion 3 sample in U mode
        labels, sigma = make_mixed_labels()
        rng = random.Random(77)
        for _ in range(250):
            segments = random_segments(rng, labels, max_segments=3, max_length=4)
            gu = mu_star_of_segments(segments, sigma, mode=GroupMode.GU)
            u = mu_star_of_segments(segments, sigma, mode=GroupMode.U)
            total = sum(s.rank for s in segments) + sigma.rank
            for term, _ in u.items():
                gl, anchor = term.factors
                assert anchor.twist.is_trivial
                assert gl.rank + anchor.rank == total
            assert strip_twists(gu) == u
        # criterion 6 signature in U mode
        for datum in _desk_scale_data():
            assert leading_term_multiplicity(datum, GroupMode.U) == 1, datum


DECLS = {
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


def _cli_bytes(argv, hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-m", "jacquet", *argv],
        capture_output=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_9_round_trip_and_golden_stability(tmp_path):
    with criterion(9, "round-trip and byte-stable JSON"):
        from jacquet import LabelRegistry
        from jacquet.cli import make_resolvers
        from jacquet.expressions import parse_expression

        registry = LabelRegistry()
        registry.declare_gl("rho")
        registry.declare_gl("tau", 2)
        registry.declare_gu("sigma")
        gl, gu = make_resolvers(registry, permissive=False)
        rng = random.Random(99)
        for _ in range(100):
            chunks = []
            for _ in range(rng.randrange(0, 4)):
                name = rng.choice(["rho", "tau"])
                start = rng.randrange(-8, 9)
                length = rng.randrange(1, 5)
                end = start + 2 * (length - 1)
                a = f"{start}/2" if start % 2 else str(start // 2)
                b = f"{end}/2" if end % 2 else str(end // 2)
                chunks.append(f"d({a},{b}@{name})")
            text = " x ".join(chunks) if chunks else "1"
            if rng.random() < 0.7:
                text += " |x| sigma"
            expr = parse_expression(text, gl, gu)
            assert parse_expression(str(expr), gl, gu) == expr

        decls = tmp_path / "decls.json"
        decls.write_text(json.dumps(DECLS))
        goldens = [
            ["mustar", "d(1,1@rho) |x| sigma", "--group", "GU",
             "--format", "json"],
            ["weyl", "--n", "3", "--i1", "2", "--i2", "2", "--oracle",
             "--format", "json"],
            ["enum-sp", "--decls", str(decls), "--sigma", "sigma",
             "--rhos", "rho", "--max-b", "3", "--format", "json"],
            ["enum-sp", "--decls", str(decls), "--sigma", "sigma",
             "--rhos", "rho2", "--max-b", "5/2", "--format", "json"],
        ]
        for argv in goldens:
            first = _cli_bytes(argv, "0")
            second = _cli_bytes(argv, "4242")
            assert first == second, f"unstable output for {argv}"
            json.loads(first)  # a single well-formed document
        # spot-check golden content against the enumeration counts
        doc = json.loads(_cli_bytes(goldens[2], "0"))
        assert doc["count"] == 6
        doc = json.loads(_cli_bytes(goldens[3], "0"))
        assert doc["count"] == 4
