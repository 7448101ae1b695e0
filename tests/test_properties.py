"""Scheduling never changes the arithmetic, over arbitrary placements.

Whatever subset of each function's dims stays unrolled, whatever the channel
capacity and whether rotation pairs relay, a run that completes drains the
bits of the reference loop nest and of the graph evaluator.  Any other run
is a deadlock with blocking diagnostics or a WiringError; nothing else.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from spatialqr.dataflow import build_graph, evaluate_graph
from spatialqr.numeric import AugmentedMatrix, qr_givens_reference, random_matrix
from spatialqr.simulator import SimConfig, WiringError, run
from spatialqr.specdsl import builtin_qr_spec

SPEC = builtin_qr_spec()


def dim_subset(func):
    return st.sets(st.sampled_from(func.dims)).map(
        lambda keep: tuple(d for d in func.dims if d in keep)
    )


@st.composite
def simulations(draw):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    cfg = SimConfig(
        unroll={f.name: draw(dim_subset(f)) for f in SPEC.funcs},
        channel_capacity=draw(st.integers(1, 4)),
        relay_enabled=draw(st.booleans()),
    )
    return m, n, cfg, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(simulations())
def test_completed_runs_match_reference_and_graph(sim):
    m, n, cfg, seed = sim
    aug = AugmentedMatrix.from_parts(random_matrix(m, n, seed),
                                     [float(i) for i in range(1, m + 1)])
    try:
        rep = run(SPEC, cfg, aug)
    except WiringError as exc:
        assert str(exc)
        return
    if not rep.completed:
        assert rep.status == "deadlock"
        assert rep.blocked
        return
    reference = qr_givens_reference(aug).r_aug.inner
    graph = evaluate_graph(build_graph(SPEC, m, n), aug).inner
    for i, j in rep.drained:
        got = rep.output.get(i, j).hex()
        assert got == reference.get(i, j).hex() == graph.get(i, j).hex(), (i, j)
