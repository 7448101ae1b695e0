"""Scheduling never changes the arithmetic, over arbitrary placements and orders.

Whatever subset of each function's dims stays unrolled, whatever the channel
capacity and whether rotation pairs relay, a run that completes drains the
bits of the reference loop nest and of the graph evaluator.  Any other run
is a deadlock with blocking diagnostics or a WiringError; nothing else.  The
recorded schedule is one ready order out of many: any other one, replayed
through the same design, drains the same bits.  Values move by producer; a
replay that carries them through the channels' queues delivers the same ones.
A NaN, infinite or overflowing input fails all three ways alike.  Reusing
the compile's stages across calls never changes a report.
"""

import dataclasses
import math
import random
from collections import deque
from contextlib import suppress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_hostile_specs import HOSTILE as HOSTILE_SPECS
from test_hostile_specs import X, with_func

from spatialqr.dataflow import build_graph, evaluate_graph, relay_view
from spatialqr.numeric import (
    AugmentedMatrix,
    Matrix,
    NonFiniteError,
    qr_givens_reference,
    random_matrix,
)
from spatialqr.simulator import (
    SimConfig,
    WiringError,
    compile_design,
    drain,
    execute,
    folded_unroll,
    place,
    report_to_json,
    run,
    schedule,
    spec_unroll,
    wire,
)
from spatialqr.specdsl import COL, M, BoundSpec, builtin_qr_spec

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


def firing_values(design, aug):
    """Each firing's iteration, arguments and outputs, from its ``on_event``
    line without the sweep and PE, sorted."""
    lines = []
    execute(design, aug, lines.append)
    return sorted(line.split(" iter=", 1)[1] for line in lines)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(1, m + 1), st.sampled_from([spec_unroll, folded_unroll]),
    st.sampled_from([2, 8]), st.integers(0, 2**16))))
def test_relay_never_changes_a_value(case):
    """Relay is wiring: every firing consumes and produces the same values
    with relay on and off.  The view shares the pair table, and each chain
    neighbour reads the pair of the same producer as the hop it hands it to."""
    m, n, unroll, capacity, seed = case
    aug = seeded_input(m, n, seed)
    on, off = (compile_design(SPEC, SimConfig(unroll=unroll(SPEC), channel_capacity=capacity,
                                              relay_enabled=relay), m, n)
               for relay in (True, False))
    assert firing_values(on, aug) == firing_values(off, aug)
    graph = off.graph
    view = relay_view(graph)
    assert view.pairs is graph.pairs
    for i, prev in view.relay_from.items():
        assert graph.pairs[prev][0] == graph.pairs[i][0]


def pushes(design):
    """Per node id, the channels it pushes: each pop's channel, under its producer."""
    pushed = [[] for _ in design.pops]
    for i, pops in enumerate(design.pops):
        for c, p in zip(pops, design.graph.producers(i)):
            pushed[p].append(c)
    return pushed


def random_ready_order(design, rnd):
    """Every node id once, each step firing the next node of a PE drawn from
    those whose popped channels all hold a value, with unbounded queues."""
    pops, programs, pushed = design.pops, design.programs, pushes(design)
    lengths = [0] * len(design.chan_labels)
    pointers = [0] * len(programs)

    def ready(pe):
        k = pointers[pe]
        return k < len(programs[pe]) and all(lengths[c] for c in pops[programs[pe][k]])

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
        for c in pops[node]:
            lengths[c] -= 1
        for c in pushed[node]:
            lengths[c] += 1
        for woken in {pe, *[design.chan_dst[c] for c in pushed[node]]}:
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
    assert sorted(order) == list(range(len(design.pops)))  # the graph is acyclic
    drained, uncovered = drain(design.graph)
    completed = dataclasses.replace(design, sweeps=(order,), blocked=(), drained=drained,
                                    uncovered=uncovered)
    aug = seeded_input(m, n, seed)
    rep = execute(completed, aug)
    assert_drains_reference_bits(rep, aug)


def scan(design):
    """The sweeps by their definition: each visits every PE in index order and
    fires its next node if every channel it pops holds a value and every
    channel it pushes has room or is also popped, until one fires nothing."""
    pops, programs, capacity = design.pops, design.programs, design.cfg.channel_capacity
    pushed = pushes(design)
    lengths = [0] * len(design.chan_labels)
    pointers = [0] * len(programs)
    sweeps = []
    while sum(pointers) < len(pops) and (not sweeps or sweeps[-1]):
        sweeps.append(())
        for pe, program in enumerate(programs):
            node = program[pointers[pe]] if pointers[pe] < len(program) else None
            if node is not None and all(lengths[c] for c in pops[node]) and all(
                    lengths[c] < capacity or c in pops[node] for c in pushed[node]):
                for c in pops[node]:
                    lengths[c] -= 1
                for c in pushed[node]:
                    lengths[c] += 1
                pointers[pe] += 1
                sweeps[-1] += (node,)
    return tuple(sweeps)


@settings(max_examples=100, deadline=None)
@given(simulations())
@example(DEADLOCK)
def test_recorded_schedule_keeps_its_invariants(sim):
    """``design.sweeps`` are the sweeps of a scan over every PE.  Replayed on
    queue lengths, they never overfill a channel and send what the design
    says; each PE fires at most once per sweep, in ascending PE index and in
    program order.  A completed design drains every position its nodes store
    and reports the rest of the upper triangle."""
    m, n, cfg, _ = sim
    try:
        design = compile_design(SPEC, cfg, m, n)
    except WiringError:
        return
    assert scan(design) == design.sweeps
    labels, capacity, pushed = design.chan_labels, cfg.channel_capacity, pushes(design)
    lengths = [0] * len(labels)
    sends = [0] * len(labels)
    peak = [0] * len(labels)
    fired = [0] * len(design.programs)
    for sweep in design.sweeps:
        pes = [design.node_pe[node] for node in sweep]
        assert pes == sorted(set(pes))
        for node, pe in zip(sweep, pes):
            assert design.programs[pe][fired[pe]] == node
            fired[pe] += 1
            for c in design.pops[node]:
                assert lengths[c] > 0, labels[c]
                lengths[c] -= 1
            for c in pushed[node]:
                lengths[c] += 1
                sends[c] += 1
                peak[c] = max(peak[c], lengths[c])
                assert lengths[c] <= capacity, labels[c]
    assert design.firings == dict(zip(design.pe_labels, fired))
    assert design.channel_sends == dict(zip(labels, sends))
    assert design.max_occupancy == dict(zip(labels, peak))
    if design.blocked:
        assert design.sweeps[-1] == () and design.drained == design.uncovered == ()
        return
    assert sum(fired) == len(design.pops)
    stored = sorted((cells[k + 1], cells[k + 2]) for cells in design.graph.node_stores
                    for k in range(0, len(cells), 3))
    assert list(design.drained) == stored
    upper = [(i, j) for i in range(1, m + 1) for j in range(i, n + 2)]
    assert list(design.uncovered) == [p for p in upper if p not in stored]


@settings(max_examples=100, deadline=None)
@given(simulations())
@example(DEADLOCK)
def test_queues_deliver_the_named_producers(sim):
    """Replayed along ``design.sweeps`` with a FIFO queue of producer ids per
    channel, every pop finds a value and receives the producer the design's
    graph names, so reading values by producer is what the channels deliver;
    a completed design leaves every queue empty."""
    m, n, cfg, _ = sim
    try:
        design = compile_design(SPEC, cfg, m, n)
    except WiringError:
        return
    labels, pushed = design.chan_labels, pushes(design)
    queues = [deque() for _ in labels]
    for sweep in design.sweeps:
        for node in sweep:
            producers = design.graph.producers(node)
            for c, producer in zip(design.pops[node], producers, strict=True):
                assert queues[c], labels[c]
                assert queues[c].popleft() == producer, labels[c]
            for c in pushed[node]:
                queues[c].append(node)
    if not design.blocked:
        assert [labels[c] for c, q in enumerate(queues) if q] == []


# selfcheck's configurations, each of which completes at every shape
COMPLETING = [SimConfig(unroll=unroll, channel_capacity=capacity, relay_enabled=relay)
              for unroll in (spec_unroll(SPEC), folded_unroll(SPEC))
              for relay in (True, False)
              for capacity in (1, 2, 8)]
HOSTILE = (math.nan, math.inf, -math.inf, 1.5e308, -1.5e308)


def outcome(compute):
    """None if ``compute`` raises NonFiniteError, else what it returns."""
    with suppress(NonFiniteError):
        return compute()
    return None


def paths_raise_alike(aug, cfg):
    """Whether the reference, the graph evaluator and a completed run all
    raise NonFiniteError; if none does, they give the same bits."""
    reference = outcome(lambda: qr_givens_reference(aug).r_aug.inner)
    graph = outcome(lambda: evaluate_graph(build_graph(SPEC, aug.m, aug.n), aug).inner)
    report = outcome(lambda: run(SPEC, cfg, aug))
    assert (reference is None) == (graph is None) == (report is None)
    if report is None:
        return True
    assert report.completed
    assert graph.data == reference.data
    assert [report.output.get(i, j) for i, j in report.drained] == \
        [reference.get(i, j) for i, j in report.drained]
    return False


@st.composite
def poisoned_inputs(draw):
    """A seeded input with one entry, rhs column included, replaced by NaN,
    +-inf or +-1.5e308, and a configuration that completes.  It has two rows
    or more, so every entry meets a kernel."""
    m, n = draw(st.integers(2, 5)), draw(st.integers(1, 5))
    aug = seeded_input(m, n, draw(st.integers(0, 2**16)))
    aug.inner.set(draw(st.integers(1, m)), draw(st.integers(1, n + 1)),
                  draw(st.sampled_from(HOSTILE)))
    return aug, draw(st.sampled_from(COMPLETING))


@settings(max_examples=100, deadline=None)
@given(poisoned_inputs())
def test_paths_agree_on_failure(case):
    paths_raise_alike(*case)


@pytest.mark.parametrize("rows,rhs", [
    ([[1.0, 2.0], [3.0, 4.0]], [math.nan, 1.0]),
    ([[1.0, math.inf], [3.0, 4.0]], [1.0, 1.0]),
    ([[1.5e308, 1.0], [1.5e308, 1.0]], [0.0, 0.0]),
], ids=["nan-in-rhs", "inf-at-a12", "column-norm-overflows"])
def test_every_path_raises(rows, rhs):
    """Inputs that only a kernel reads, or that only a kernel makes
    non-finite, fail on every path and under every configuration."""
    aug = AugmentedMatrix.from_parts(Matrix.from_rows(rows), rhs)
    assert all(paths_raise_alike(aug, cfg) for cfg in COMPLETING)



# Calls that raise on every try: a spec that fails validation, so building its
# graph raises; and one whose graph builds but whose channels cannot keep
# their flow order (see test_hostile_specs.py), so wiring raises.
HOSTILE_CALLS = [
    (HOSTILE_SPECS["int_guard"], 4, 3, SimConfig()),
    (with_func(dataclasses.replace(X, bounds=(X.bounds[0], BoundSpec("row", COL + 1, 1, M)))),
     4, 3, SimConfig(unroll={"X": ("col",), "Y": ("col",)})),
]


@st.composite
def call_sequences(draw):
    """Up to 6 calls, each at a drawn shape and configuration, or at the
    previous call's shape, or a hostile call, so stages are reused and
    dropped in every order."""
    calls = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["new", "repeat", "repeat", "hostile"]))
        if kind == "hostile":
            calls.append(draw(st.sampled_from(HOSTILE_CALLS)))
            continue
        if kind == "new" or not calls or calls[-1][0] is not SPEC:
            m = draw(st.integers(1, 6))
            shape = (m, draw(st.integers(1, m + 1)))
        else:
            shape = calls[-1][1:3]
        unroll = draw(st.sampled_from([None, spec_unroll(SPEC), folded_unroll(SPEC)])
                      | st.fixed_dictionaries({f.name: dim_subset(f) for f in SPEC.funcs}))
        cfg = SimConfig(unroll=unroll, channel_capacity=draw(st.integers(1, 3)),
                        relay_enabled=draw(st.booleans()))
        calls.append((SPEC, *shape, cfg))
    return calls


def run_outcome(compile_, m, n):
    """The report bytes and event lines of one run of ``compile_()``, or the error it raises."""
    try:
        design = compile_()
    except ValueError as exc:
        return type(exc), str(exc)
    lines = []
    report = execute(design, seeded_input(m, n, m * 10 + n), lines.append)
    return report_to_json(report), lines


@settings(max_examples=40, deadline=None)
@given(call_sequences())
def test_reusing_a_stage_never_changes_a_report(calls):
    """Each run's report bytes and event lines, or its error, are those of
    the stage-free composition on a freshly built graph."""

    def fresh(spec, m, n, cfg):
        graph = build_graph(spec, m, n)
        return schedule(wire(graph, place(graph, cfg), cfg.relay_enabled), cfg)

    for spec, m, n, cfg in calls:
        got = run_outcome(lambda: compile_design(spec, cfg, m, n), m, n)
        assert got == run_outcome(lambda: fresh(spec, m, n, cfg), m, n)
