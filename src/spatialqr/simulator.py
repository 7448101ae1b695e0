"""Processing-element array simulator driven by scheduling directives.

Iterations are placed onto PEs according to which loop dims are unrolled,
and value edges become bounded FIFO channels (relay chains included).  The
channels fix the schedule, not the values: a deterministic sweep schedule,
computed once per design from queue lengths, fires each PE's iterations in
program order, and every input replays it.  Values move by producer: each
firing reads its inputs from the graph's own tables, its producers' outputs,
as its channels would deliver them; relay decides only which PE hands a pair
on.  Which result positions the store directives drain is fixed with the
schedule; a run writes each stored value straight into the result matrix,
and the report carries occupancy and deadlock diagnostics.

Lowering is four stages, each depending on less than the next: the graph
(:func:`build_graph`) on the spec and the shape; the placement
(:func:`place`) also on the unroll sets; the channels (:func:`wire`) also on
relay; and the schedule (:func:`schedule`) also on the channel capacity.
:func:`compile_design` composes them and keeps the stages of one shape only
while that shape is asked for again in a row, as a sweep over
configurations does.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import groupby
from types import MappingProxyType
from typing import Callable

from spatialqr.dataflow import DataflowGraph, build_graph, relay_view
from spatialqr.numeric import AugmentedMatrix, Matrix, NonFiniteError
from spatialqr.specdsl import SpatialSpec


class WiringError(ValueError):
    """Channels cannot be laid out consistently for this configuration."""


class DrainError(ValueError):
    """Store directives name one result position twice."""


@dataclass(frozen=True)
class SimConfig:
    """Placement and channel knobs for one simulation run.

    ``unroll`` maps function names to the dims kept unrolled; ``None`` means
    follow the spec's unroll directives (the fully spatial layout).  Folded
    dims execute in program order on their PE.
    """

    unroll: Mapping[str, tuple[str, ...]] | None = None
    channel_capacity: int = 2
    relay_enabled: bool = True

    def __post_init__(self) -> None:
        if type(self.channel_capacity) is not int or self.channel_capacity < 1:
            raise ValueError(f"channel capacity must be an int >= 1, got {self.channel_capacity!r}")
        if type(self.relay_enabled) is not bool:
            raise ValueError(f"relay_enabled must be a bool, got {self.relay_enabled!r}")
        if self.unroll is not None:  # a copy, so no caller can change a design's unroll sets
            unroll = self.unroll
            ok = isinstance(unroll, Mapping) and all(
                isinstance(name, str) and isinstance(dims, Iterable) and not isinstance(dims, str)
                for name, dims in unroll.items())
            if ok:
                unroll = {name: tuple(dims) for name, dims in unroll.items()}
                ok = all(isinstance(d, str) for dims in unroll.values() for d in dims)
            if not ok:
                raise ValueError(f"unroll must map function names to tuples of dim names, "
                                 f"got {self.unroll!r}")
            object.__setattr__(self, "unroll", MappingProxyType(unroll))

    def describe(self) -> dict:
        return {
            "unroll": None if self.unroll is None
            else {name: list(dims) for name, dims in sorted(self.unroll.items())},
            "channel_capacity": self.channel_capacity,
            "relay_enabled": self.relay_enabled,
        }


def spec_unroll(spec: SpatialSpec) -> dict[str, tuple[str, ...]]:
    """The unroll sets named by the spec's own directives."""
    return {f.name: f.unrolled_dims() for f in spec.funcs}


def folded_unroll(spec: SpatialSpec, drop: tuple[str, ...] = ("row",)) -> dict[str, tuple[str, ...]]:
    """The spec's unroll sets minus ``drop``: those dims time-multiplex on one PE."""
    return {
        f.name: tuple(d for d in f.unrolled_dims() if d not in drop)
        for f in spec.funcs
    }


def place(graph: DataflowGraph, cfg: SimConfig) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Map each iteration to the PE fixed at its unrolled-dim values.

    Returns the PE labels, such as ``X(col=1)``, sorted by function and then
    unrolled values, so a PE's index there is its scheduling priority; and
    per node id, the index of its PE.  Of ``cfg`` only the unroll sets
    matter, the spec's own when it names none.
    """
    spec = graph.spec
    unroll = _unroll(spec, cfg)
    unknown = set(unroll) - {f.name for f in spec.funcs}
    if unknown:
        raise WiringError(f"cannot unroll unknown functions {sorted(unknown)}")
    kept: dict[str, tuple[int, ...]] = {}  # per function, the positions of its unrolled dims
    for func in spec.funcs:
        keep = set(unroll.get(func.name, func.unrolled_dims()))
        unknown = keep - set(func.dims)
        if unknown:
            raise WiringError(f"{func.name}: cannot unroll unknown dims {sorted(unknown)}")
        kept[func.name] = tuple(i for i, d in enumerate(func.dims) if d in keep)

    found: dict[tuple[str, tuple[int, ...]], int] = {}  # (function, unrolled values) -> PE
    node_pe = []
    for node in graph.nodes:
        keep = kept[node.func]
        key = (node.func, node.coords if len(keep) == len(node.coords)
               else tuple([node.coords[i] for i in keep]))
        node_pe.append(found.setdefault(key, len(found)))
    # PEs of one function unroll the same dims, so their values order them
    order = sorted(found)
    rank = [0] * len(found)
    for r, key in enumerate(order):
        rank[found[key]] = r
    names = {f.name: tuple([f.dims[i] for i in kept[f.name]]) for f in spec.funcs}
    pe_labels = tuple([
        func + "(" + ",".join([f"{d}={v}" for d, v in zip(names[func], values)]) + ")"
        for func, values in order
    ])
    return pe_labels, tuple([rank[p] for p in node_pe])


def _unroll(spec: SpatialSpec, cfg: SimConfig) -> Mapping[str, tuple[str, ...]]:
    """The unroll sets ``cfg`` names, or the spec's own when it names none."""
    return cfg.unroll if cfg.unroll is not None else spec_unroll(spec)


# --- the compiled design ---------------------------------------------------------

@dataclass(frozen=True)
class Wiring:
    """A graph placed and wired: everything a design fixes before the channel capacity.

    ``graph`` is the program each node fires: the :func:`relay_view` when
    relay is enabled, which changes only the wiring.  Channels are ints;
    channel ``c`` runs from PE ``chan_src[c]`` to PE ``chan_dst[c]`` and is
    named ``chan_labels[c]``.  Node ``i`` runs on PE ``node_pe[i]``, pops
    ``pops[i]``, one channel per ``graph.producers(i)``, and pushes
    ``pushes[i]``.  The waits that hold at any capacity are edges too:
    ``after[i]`` are the firings that wait on node ``i``, its PE's next one
    and every consumer of its pushes, and ``waits[i]`` counts node ``i``'s.
    ``queues`` are what the capacity waits are read from: per channel that
    carries more than one flow, its consumers in pop order and each flow's
    producer, or -1 where that producer pops the channel too.  Every table
    is a tuple, so one wiring serves any number of :func:`schedule` calls.
    """

    graph: DataflowGraph
    pe_labels: tuple[str, ...]  # per PE index, which is also its scheduling priority
    node_pe: tuple[int, ...]  # per node id
    programs: tuple[tuple[int, ...], ...]  # per PE index, its node ids in program order
    chan_src: tuple[int, ...]
    chan_dst: tuple[int, ...]
    chan_labels: tuple[str, ...]
    pops: tuple[tuple[int, ...], ...]  # per node id
    pushes: tuple[tuple[int, ...], ...]  # per node id
    after: tuple[tuple[int, ...], ...]  # per node id
    waits: tuple[int, ...]  # per node id
    queues: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


@dataclass(frozen=True)
class Design:
    """A spec placed, wired and scheduled at one shape: everything a run fixes before the data.

    It is immutable all the way down, and its ``graph`` is the program each
    node fires.  Its graph, PE, channel, pop and program tables are those
    of its :class:`Wiring`, shared with it.  ``sweeps`` holds, per sweep,
    the node ids it fires in order.  The other fields are every report field but the output:
    counters as read-only mappings by PE or channel label, and ``blocked``
    (pe, iteration, channels waiting on empty, channels waiting on full) per
    PE left with work, which is empty unless the design deadlocks.
    ``drained`` and ``uncovered`` are empty for a deadlock.  The channels
    fix the schedule and its counters; values move by producer, so
    :func:`execute` replays the sweeps for any number of matrices of the
    shape without a queue and builds each report afresh.
    """

    graph: DataflowGraph  # its relay view when relay is enabled, which changes only the wiring
    cfg: SimConfig
    pe_labels: tuple[str, ...]  # per PE index, which is also its scheduling priority
    chan_src: tuple[int, ...]
    chan_dst: tuple[int, ...]
    chan_labels: tuple[str, ...]
    pops: tuple[tuple[int, ...], ...]  # per node id
    node_pe: tuple[int, ...]  # per node id
    programs: tuple[tuple[int, ...], ...]  # per PE index, its node ids in program order
    sweeps: tuple[tuple[int, ...], ...]
    firings: Mapping[str, int]
    max_occupancy: Mapping[str, int]
    channel_sends: Mapping[str, int]
    blocked: tuple[tuple[str, str, tuple[str, ...], tuple[str, ...]], ...]
    drained: tuple[tuple[int, int], ...]  # see :func:`drain`
    uncovered: tuple[tuple[int, int], ...]


# channel tags as ints: tuple index or port >= 0, else the pair's, from its producer or a relay
_CS, _RELAY = -1, -2

# The stages of the latest shape asked of compile_design: (spec, shape, graph,
# placement per unroll key, wiring per (unroll key, relay)).  Only the key is
# kept until that shape is asked for again in a row.
_latest: tuple = (None, None, None, None, None)


def compile_design(spec: SpatialSpec, cfg: SimConfig, m: int, n: int) -> Design:
    """Build, place, wire and schedule ``spec`` at m x n.

    The composition ``schedule(wire(g, place(g, cfg), cfg.relay_enabled),
    cfg)`` on ``g = build_graph(spec, m, n)``.  Each stage depends on less
    than the one after it: the graph on the spec and the shape, the
    placement also on the resolved unroll sets, the wiring also on relay,
    and only the schedule on the channel capacity.  One record is kept, for
    the latest ``(spec, m, n)``, the spec compared by identity.  A call at
    another shape replaces it, before building anything, with that key
    alone, so a shape asked for once keeps nothing.  A repeat call builds
    the stages it lacks and keeps them for the next repeat.  A stage that
    raises is not kept, so a repeat raises the same error.  The record is
    replaced, never changed under another key, so a call reads only stages
    of its own shape, from any thread.
    """
    global _latest
    shape = (type(m), m, type(n), n)  # so that m=True does not reuse the stages of m=1
    record = _latest
    if record[0] is not spec or record[1] != shape:
        _latest = (spec, shape, None, None, None)
        graph = build_graph(spec, m, n)
        return schedule(wire(graph, place(graph, cfg), cfg.relay_enabled), cfg)
    _, _, graph, placements, wirings = record
    if graph is None:
        graph = build_graph(spec, m, n)
        placements, wirings = {}, {}
        _latest = (spec, shape, graph, placements, wirings)
    key = tuple(sorted(_unroll(spec, cfg).items()))
    placement = placements.get(key)
    if placement is None:
        placement = placements[key] = place(graph, cfg)
    relay = cfg.relay_enabled
    wiring = wirings.get((key, relay))
    if wiring is None:
        wiring = wirings[key, relay] = wire(graph, placement, relay)
    return schedule(wiring, cfg)


def wire(graph: DataflowGraph, placement: tuple[tuple[str, ...], tuple[int, ...]],
         relay: bool) -> Wiring:
    """Turn value edges into channels between placed PEs.

    With ``relay``, rotation pairs are first wired onto hop-by-hop chains
    along each relay directive's vector (:func:`relay_view`), and the wiring
    keeps that view: a hop pops its pair from the chain neighbour in
    ``relay_from``, and only the chain head still receives it straight from
    its producer.  Edges between iterations folded onto one PE still go
    through a channel, so folding is purely a re-placement.  A channel is
    the int key (producer PE, tag, consumer PE, tag), numbered in order of
    first use, and gets its label once.

    Every channel must carry its values in the order its consumer pops
    them, one per producer firing.  A PE's program is its nodes in id order,
    so that holds when the producer ids of each channel's flows strictly
    increase; the first channel that breaks it raises :class:`WiringError`.
    The channel capacity plays no part: :func:`schedule` takes it.
    """
    work = relay_view(graph) if relay else graph
    hops = work.relay_from
    pe_labels, node_pe = placement

    programs: list[list[int]] = [[] for _ in pe_labels]
    for i, pe in enumerate(node_pe):
        programs[pe].append(i)
    after: list[list[int]] = [[] for _ in node_pe]  # per node, the firings waiting on it
    waits = [0] * len(node_pe)
    for program in programs:
        for x, y in zip(program, program[1:]):
            after[x].append(y)
            waits[y] = 1

    # per channel: producer PE, its tag, consumer PE, its tag, and the
    # consumer of its first flow and the producer of its latest
    chan_src: list[int] = []
    src_tags: list[int] = []
    chan_dst: list[int] = []
    dst_tags: list[int] = []
    first_consumer: list[int] = []
    last_producer: list[int] = []
    faults: dict[int, str] = {}  # channel -> its flow-order fault
    found: dict[tuple[int, int, int, int], int] = {}
    queues: dict[int, tuple[list[int], list[int]]] = {}  # channel -> consumers, producers
    node_pops: list[tuple[int, ...]] = []
    pushes: list[list[int]] = [[] for _ in node_pe]  # per node, the channels it pushes
    for i, (pair, data) in enumerate(zip(work.pairs, work.data)):
        # a flow is (producer node, its tag, our tag): the pair first, then data ports
        flows = data if pair is None else (
            (hops[i], _RELAY, _CS) if i in hops else (pair[0], _CS, _CS), *data)
        dst_pe = node_pe[i]
        pops = []
        for src, src_tag, dst_tag in flows:
            src_pe = node_pe[src]
            key = (src_pe, src_tag, dst_pe, dst_tag)
            c = found.get(key)
            if c is None:
                c = found[key] = len(chan_src)
                chan_src.append(src_pe)
                src_tags.append(src_tag)
                chan_dst.append(dst_pe)
                dst_tags.append(dst_tag)
                first_consumer.append(i)
                last_producer.append(src)
            else:
                queue = queues.get(c)
                if queue is None:
                    queue = queues[c] = ([first_consumer[c]], [last_producer[c]])
                queue[0].append(i)
                queue[1].append(src)
                if src < last_producer[c]:
                    faults[c] = "push order does not match pop order"
                elif src == last_producer[c]:
                    faults.setdefault(c, "one firing would push twice")
                last_producer[c] = src
            pops.append(c)
            pushes[src].append(c)
            after[src].append(i)
        node_pops.append(tuple(pops))
        waits[i] += len(pops)
    del found, first_consumer, last_producer  # freed before the labels are built

    tags = {_CS: "cs", _RELAY: "relay"}  # any other tag is a tuple index or a port
    labels = tuple([
        f"{pe_labels[a]}.{tags.get(s) or f't{s}'}->{pe_labels[b]}.{tags.get(d) or f'p{d}'}"
        for a, s, b, d in zip(chan_src, src_tags, chan_dst, dst_tags)
    ])
    if faults:
        c = min(faults)
        raise WiringError(f"channel {labels[c]}: {faults[c]}")
    capacity_queues = tuple([  # a producer that pops the channel too frees its own room
        (tuple(consumers), tuple([-1 if c in node_pops[a] else a for a in producers]))
        for c, (consumers, producers) in queues.items()])
    return Wiring(work, pe_labels, node_pe, tuple(map(tuple, programs)), tuple(chan_src),
                  tuple(chan_dst), labels, tuple(node_pops), tuple(map(tuple, pushes)),
                  tuple(map(tuple, after)), tuple(waits), capacity_queues)


def schedule(wiring: Wiring, cfg: SimConfig) -> Design:
    """Schedule a wiring at ``cfg``'s channel capacity: the rest of a :class:`Design`.

    The design is scheduled once, from queue lengths alone.  A sweep scans
    the PEs in index order; each fires its next iteration if every channel
    it pops holds a value and every channel it only pushes has room, and a
    firing is seen later in the same scan.  A channel has one producer and
    one consumer PE, so a firing stays ready once it is, and firing ``x`` on
    PE ``p`` falls in the largest of: 1; the sweep of its PE's previous
    firing, plus 1; for each channel it pops, the sweep of the firing that
    pushed the value; for each channel it only pushes, the sweep of the pop
    ``channel_capacity`` flows earlier.  The last two gain 1 when that
    firing's PE index is ``>= p``.  So a sweep is a longest path over the
    waits, and firings on or after a cycle of waits never fire: the
    deadlock, recorded as a last, empty sweep and reported with per-PE
    blocking diagnostics.  No kernel runs, so the schedule holds for every
    input; one that completes fires every node once, so :func:`drain` then
    fixes the store coverage.
    """
    work, node_pe, programs = wiring.graph, wiring.node_pe, wiring.programs
    node_pops, pushes, labels = wiring.pops, wiring.pushes, wiring.chan_labels
    nodes = work.nodes

    # per firing, the firings it waits on, the capacity's included, and its sweep
    capacity = cfg.channel_capacity
    after = list(wiring.after)
    waits = list(wiring.waits)
    for consumers, producers in wiring.queues:
        for pop, a in zip(consumers, producers[capacity:]):
            if a >= 0:  # a's push needs the pop capacity flows earlier
                after[pop] += (a,)
                waits[a] += 1
    sweep = [1] * len(nodes)
    ready = [i for i, w in enumerate(waits) if not w]
    fired: list[int] = []
    while ready:  # Kahn's algorithm: nodes on or after a cycle of waits never fire
        a = ready.pop()
        fired.append(a)
        s, pe = sweep[a], node_pe[a]
        for b in after[a]:
            t = s + (pe >= node_pe[b])
            if t > sweep[b]:
                sweep[b] = t
            waits[b] -= 1
            if not waits[b]:
                ready.append(b)
    del after  # freed before the counters, so lowering peaks no higher

    # the counters, replayed in firing order on queue lengths
    fired.sort(key=node_pe.__getitem__)
    fired.sort(key=sweep.__getitem__)  # stable, so by sweep, then by PE index
    lengths = [0] * len(labels)
    sends = [0] * len(labels)
    occupancy = [0] * len(labels)
    pointers = [0] * len(programs)
    for i in fired:
        pointers[node_pe[i]] += 1
        for c in node_pops[i]:
            lengths[c] -= 1
        for c in pushes[i]:
            lengths[c] += 1
            sends[c] += 1
            if lengths[c] > occupancy[c]:
                occupancy[c] = lengths[c]
    sweeps = [tuple(group) for _, group in groupby(fired, sweep.__getitem__)]
    if len(fired) < len(nodes):
        sweeps.append(())  # the deadlock: a sweep that fires nothing
    pe_labels = wiring.pe_labels
    blocked = tuple([
        (label, str(nodes[program[k]]),
         tuple([labels[c] for c in node_pops[program[k]] if not lengths[c]]),
         tuple([labels[c] for c in pushes[program[k]] if lengths[c] >= capacity]))
        for program, label, k in zip(programs, pe_labels, pointers) if k < len(program)
    ])
    drained, uncovered = ((), ()) if blocked else drain(work)
    return Design(work, cfg, pe_labels, wiring.chan_src, wiring.chan_dst, labels, node_pops,
                  node_pe, programs, tuple(sweeps),
                  MappingProxyType(dict(zip(pe_labels, pointers))),
                  MappingProxyType(dict(zip(labels, occupancy))),
                  MappingProxyType(dict(zip(labels, sends))), blocked, drained, uncovered)


def drain(graph: DataflowGraph) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """The result positions the store directives drain, sorted, and the
    upper-triangle positions of the M x (N+1) result that none drains.

    A position named twice raises :class:`DrainError`.  The uncovered
    positions are diagnostics (empty whenever eliminations reach the bottom row).
    """
    named = [(s[k + 1], s[k + 2]) for s in graph.node_stores if s for k in range(0, len(s), 3)]
    stored = set(named)
    if len(stored) < len(named):
        doubles = sorted(p for p, count in Counter(named).items() if count > 1)
        raise DrainError(f"positions stored more than once: {doubles}")
    upper = [(i, j) for i in range(1, graph.m + 1) for j in range(i, graph.n + 2)]
    return tuple(sorted(stored)), tuple([p for p in upper if p not in stored])


# --- execution ------------------------------------------------------------------

@dataclass
class SimReport:
    status: str  # "completed" or "deadlock"
    m: int
    n: int
    config: dict
    steps: int
    firings: dict[str, int]
    max_occupancy: dict[str, int]
    channel_sends: dict[str, int]
    output: Matrix | None
    drained: list[tuple[int, int]]
    uncovered: list[tuple[int, int]]
    blocked: list[dict]

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def total_firings(self) -> int:
        return sum(self.firings.values())


def run(spec: SpatialSpec, cfg: SimConfig, aug: AugmentedMatrix,
        on_event: Callable[[str], object] | None = None) -> SimReport:
    """Simulate the spec on the given input until completion or deadlock;
    ``on_event`` is as for :func:`execute`."""
    return execute(compile_design(spec, cfg, aug.m, aug.n), aug, on_event)


def execute(design: Design, aug: AugmentedMatrix,
            on_event: Callable[[str], object] | None = None) -> SimReport:
    """Replay ``design``'s sweeps on one input.

    Each recorded firing reads its inputs as ``design.graph``'s tables name
    them: a pair or a data input from its producer's output, relayed or not,
    and a load from the input.  It runs its kernel and writes its stored
    values into the result.  The one check, as in ``evaluate_graph``: the
    first non-finite kernel output raises :class:`NonFiniteError` naming its
    node.  A deadlocked design replays the firings before the deadlock and
    reports it.  ``on_event``, if given, receives one newline-terminated line per
    firing as it happens (sweep, PE, iteration, arguments and outputs), so
    the lines of the firings before a failure are already out.
    """
    graph, cfg = design.graph, design.cfg
    m, n = graph.m, graph.n
    if (aug.m, aug.n) != (m, n):
        raise ValueError(f"design is for {m}x{n} inputs, got {aug.m}x{aug.n}")
    nodes, kernels = graph.nodes, graph.node_kernel
    pairs, data, loads, node_stores = graph.pairs, graph.data, graph.loads, graph.node_stores
    get = aug.inner.get
    output = Matrix.zeros(m, n + 1)
    put = output.set
    outs: list[tuple[float, ...] | None] = [None] * len(nodes)  # per node, its kernel's output
    for step, sweep in enumerate(design.sweeps, 1):
        for node in sweep:
            kernel, args = kernels[node]
            args = list(args)
            pair = pairs[node]
            if pair is not None:
                src, lo, hi = pair
                args[lo], args[hi] = outs[src][:2]
            for src, index, port in data[node]:
                args[port] = outs[src][index]
            for row, col, port in loads[node]:
                args[port] = get(row, col)
            out = outs[node] = kernel(*args)
            if not all(map(math.isfinite, out)):
                raise NonFiniteError(f"non-finite kernel output at {nodes[node]}")
            stored = node_stores[node]
            for k in range(0, len(stored), 3):
                put(stored[k + 1], stored[k + 2], out[stored[k]])
            if on_event is not None:
                consumed = ",".join(repr(v) for v in args)
                produced = ",".join(repr(v) for v in out)
                on_event(f"step={step} pe={design.pe_labels[design.node_pe[node]]} "
                         f"iter={nodes[node]} consumed=[{consumed}] produced=[{produced}]\n")

    blocked = [{"pe": pe, "iteration": iteration, "waiting_on_empty": list(empty),
                "waiting_on_full": list(full)} for pe, iteration, empty, full in design.blocked]
    return SimReport("deadlock" if blocked else "completed", m, n, cfg.describe(),
                     len(design.sweeps), design.firings.copy(), design.max_occupancy.copy(),
                     design.channel_sends.copy(), None if blocked else output, list(design.drained),
                     list(design.uncovered), blocked)


def report_to_json(report: SimReport) -> str:
    return json.dumps({
        "schema": 1,
        "status": report.status,
        "m": report.m,
        "n": report.n,
        "config": report.config,
        "steps": report.steps,
        "total_firings": report.total_firings(),
        "firings": report.firings,
        "max_occupancy": report.max_occupancy,
        "channel_sends": report.channel_sends,
        "output": None if report.output is None else [
            report.output.row_values(i) for i in range(1, report.output.rows + 1)
        ],
        "drained": [list(p) for p in report.drained],
        "uncovered": [list(p) for p in report.uncovered],
        "blocked": report.blocked,
    }, indent=2, sort_keys=True) + "\n"
