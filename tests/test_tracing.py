"""The benchmark's tracer contract: ``bench/tracing.py`` wraps public
functions of the package and reads their results, so a change to what
those functions return or call can break traced benchmark runs while
every other test passes."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import jacquet

ROOT = Path(__file__).resolve().parent.parent

# Installing the tracer rebinds names in every loaded jacquet module, so it
# runs in a child process, never in the test process.
SCRIPT = textwrap.dedent("""
    import tracing
    from jacquet import spclassifier, structure
    from jacquet.grothendieck import FormalSum, GLMonomial, GUClass, TensorTerm
    from jacquet.scalars import CuspidalGLLabel, GUCuspidalLabel, HalfInt
    from jacquet.segments import Segment

    tracer = tracing.Tracer()
    tracing.install(tracer)
    rho = CuspidalGLLabel("rho")
    sigma = GUCuspidalLabel("sigma", rank=1, reducibility={rho: HalfInt(1)},
                            twist_fixed={rho})
    g = GUClass([Segment(rho, HalfInt(0), HalfInt(1))], sigma)
    # Before any other mu_star call, so the hook cannot read a stale mu*:
    # jacquet_by_shape must fold the rank slice through the traced mu_star.
    structure.jacquet_by_shape(g, (1, 1))
    mu_terms = tracer.counters["structure.jacquet_by_shape.mu_terms"]
    assert mu_terms > 0
    assert tracer.counters["structure.jacquet_by_shape.rank_matched"] == mu_terms
    structure.mu_star(g)
    m = structure.mstar_big(GLMonomial([Segment(rho, HalfInt(1), HalfInt(1))]))
    structure.twisted_rtimes(m, FormalSum.of(TensorTerm((GLMonomial(), g))),
                             structure.GroupMode.GU)
    spclassifier.enumerate_sp([rho], sigma, HalfInt(2))
    calls = tracing.layer_metrics(tracer)["calls"]
    for name in ("structure.mu_star", "structure.jacquet_by_shape",
                 "structure.twisted_rtimes", "spclassifier.enumerate_sp"):
        assert calls[name] > 0, name
""")


def test_tracer_contract():
    path = os.pathsep.join([str(ROOT / "bench"), str(Path(jacquet.__file__).parent.parent)])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
