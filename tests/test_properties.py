"""Scheduling never changes the arithmetic, over arbitrary placements and orders.

Whatever subset of each function's dims stays unrolled, whatever the channel
capacity and whether rotation pairs relay, a run that completes drains the
bits of the reference loop nest and of the graph evaluator.  Any other run
is a deadlock with blocking diagnostics or a WiringError; nothing else.  The
recorded schedule is one ready order out of many: any other one, replayed
through the same design, drains the same bits.
"""

import dataclasses
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spatialqr.dataflow import build_graph, evaluate_graph
from spatialqr.numeric import AugmentedMatrix, qr_givens_reference, random_matrix
from spatialqr.simulator import SimConfig, WiringError, compile_design, execute, run
from spatialqr.specdsl import builtin_qr_spec

SPEC = builtin_qr_spec()
# deadlocks at capacity 1: every X on one PE and every Y on another
DEADLOCK = (3, 2, SimConfig(unroll={"X": (), "Y": ()}, channel_capacity=1), 0)


def dim_subset(func):
    return st.sets(st.sampled_from(func.dims)).map(
        lambda keep: tuple(d for d in func.dims if d in keep)
    )


@st.composite
def simulations(draw):
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 10))
    cfg = SimConfig(
        unroll={f.name: draw(dim_subset(f)) for f in SPEC.funcs},
        channel_capacity=draw(st.integers(1, 4)),
        relay_enabled=draw(st.booleans()),
    )
    return m, n, cfg, draw(st.integers(0, 2**16))


def seeded_input(m, n, seed):
    return AugmentedMatrix.from_parts(random_matrix(m, n, seed),
                                      [float(i) for i in range(1, m + 1)])


def assert_drains_reference_bits(rep, aug):
    reference = qr_givens_reference(aug).r_aug.inner
    graph = evaluate_graph(build_graph(SPEC, aug.m, aug.n), aug).inner
    for i, j in rep.drained:
        got = rep.output.get(i, j).hex()
        assert got == reference.get(i, j).hex() == graph.get(i, j).hex(), (i, j)


@settings(max_examples=150, deadline=None)
@given(simulations())
def test_completed_runs_match_reference_and_graph(sim):
    m, n, cfg, seed = sim
    aug = seeded_input(m, n, seed)
    try:
        rep = run(SPEC, cfg, aug)
    except WiringError as exc:
        assert str(exc)
        return
    if not rep.completed:
        assert rep.status == "deadlock"
        assert rep.blocked
        return
    assert_drains_reference_bits(rep, aug)


def random_ready_order(design, rnd):
    """Every node id once, each step firing the next node of a PE drawn from
    those whose popped channels all hold a value, with unbounded queues."""
    ops, programs = design.ops, design.programs
    lengths = [0] * len(design.chan_labels)
    pointers = [0] * len(programs)

    def ready(pe):
        k = pointers[pe]
        return k < len(programs[pe]) and all(lengths[c] for c in ops[programs[pe][k]].pops)

    candidates = [pe for pe in range(len(programs)) if ready(pe)]
    order = []
    while candidates:
        # a channel has one consumer, so only the firing PE can lose readiness
        k = rnd.randrange(len(candidates))
        candidates[k], candidates[-1] = candidates[-1], candidates[k]
        pe = candidates.pop()
        node = programs[pe][pointers[pe]]
        pointers[pe] += 1
        order.append(node)
        for c in ops[node].pops:
            lengths[c] -= 1
        for c, _ in ops[node].pushes:
            lengths[c] += 1
        for woken in {pe, *[design.chan_dst[c] for c, _ in ops[node].pushes]}:
            if woken not in candidates and ready(woken):
                candidates.append(woken)
    return tuple(order)


@settings(max_examples=60, deadline=None)
@given(simulations())
@example(DEADLOCK)
def test_any_ready_order_drains_the_same_bits(sim):
    m, n, cfg, seed = sim
    try:
        design = compile_design(SPEC, cfg, m, n)
    except WiringError:
        return
    order = random_ready_order(design, random.Random(seed))
    assert sorted(order) == list(range(len(design.ops)))  # the graph is acyclic
    completed = dataclasses.replace(design.report, status="completed")
    aug = seeded_input(m, n, seed)
    rep = execute(dataclasses.replace(design, sweeps=(order,), report=completed), aug)
    assert_drains_reference_bits(rep, aug)


@settings(max_examples=100, deadline=None)
@given(simulations())
@example(DEADLOCK)
def test_recorded_schedule_keeps_its_invariants(sim):
    """Replayed on queue lengths, ``design.sweeps`` never overfills a channel
    and sends what the report says; each PE fires at most once per sweep, in
    ascending PE index and in program order."""
    m, n, cfg, _ = sim
    try:
        design = compile_design(SPEC, cfg, m, n)
    except WiringError:
        return
    labels, capacity, rep = design.chan_labels, cfg.channel_capacity, design.report
    lengths = [0] * len(labels)
    sends = [0] * len(labels)
    peak = [0] * len(labels)
    fired = [0] * len(design.programs)
    for sweep in design.sweeps:
        pes = [design.ops[node].pe for node in sweep]
        assert pes == sorted(set(pes))
        for node, pe in zip(sweep, pes):
            assert design.programs[pe][fired[pe]] == node
            fired[pe] += 1
            for c in design.ops[node].pops:
                assert lengths[c] > 0, labels[c]
                lengths[c] -= 1
            for c, _ in design.ops[node].pushes:
                lengths[c] += 1
                sends[c] += 1
                peak[c] = max(peak[c], lengths[c])
                assert lengths[c] <= capacity, labels[c]
    assert rep.steps == len(design.sweeps)
    assert rep.firings == dict(zip(design.pe_labels, fired))
    assert rep.channel_sends == dict(zip(labels, sends))
    assert rep.max_occupancy == dict(zip(labels, peak))
    if rep.completed:
        assert sum(fired) == len(design.ops)
    else:
        assert rep.blocked and design.sweeps[-1] == ()
