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


def place(graph: DataflowGraph, cfg: SimConfig) -> tuple[tuple[str, ...], list[int]]:
    """Map each iteration to the PE fixed at its unrolled-dim values.

    Returns the PE labels, such as ``X(col=1)``, sorted by function and then
    unrolled values, so a PE's index there is its scheduling priority; and
    per node id, the index of its PE.
    """
    spec = graph.spec
    unroll = cfg.unroll if cfg.unroll is not None else spec_unroll(spec)
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
    return pe_labels, [rank[p] for p in node_pe]


# --- the compiled design ---------------------------------------------------------

@dataclass(frozen=True)
class Design:
    """A spec placed, wired and scheduled at one shape: everything a run fixes before the data.

    It is immutable all the way down, and its ``graph`` is the program each
    node fires.  Channels are ints; channel ``c`` runs from PE
    ``chan_src[c]`` to PE ``chan_dst[c]`` and is named ``chan_labels[c]``.
    Node ``i`` pops ``pops[i]``, one channel per ``graph.producers(i)``, on
    PE ``node_pe[i]``.  ``sweeps`` holds, per sweep, the node ids it fires
    in order.  The other fields are every report field but the output:
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


def compile_design(spec: SpatialSpec, cfg: SimConfig, m: int, n: int) -> Design:
    """Build, place, wire and schedule ``spec`` at m x n; see :func:`wire`."""
    graph = build_graph(spec, m, n)
    return wire(graph, place(graph, cfg), cfg)


def wire(graph: DataflowGraph, placement: tuple[tuple[str, ...], list[int]],
         cfg: SimConfig) -> Design:
    """Turn value edges into bounded channels between placed PEs.

    With relaying enabled, rotation pairs are first wired onto hop-by-hop
    chains along each relay directive's vector (:func:`relay_view`), and the
    design keeps that view: a hop pops its pair from the chain neighbour in
    ``relay_from``, and only the chain head still receives it straight from
    its producer.  Edges between iterations folded onto one PE still go
    through a channel of the same capacity, so folding is purely a
    re-placement.  A channel is the int key (producer PE, tag, consumer
    PE, tag), numbered in order of first use, and gets its label once.

    Every channel must carry its values in the order its consumer pops
    them, one per producer firing.  A PE's program is its nodes in id order,
    so that holds when the producer ids of each channel's flows strictly
    increase; the first channel that breaks it raises :class:`WiringError`.

    Last, the design is scheduled once, from queue lengths alone.  A sweep
    scans the PEs in index order; each fires its next iteration if every
    channel it pops holds a value and every channel it only pushes has room,
    and a firing is seen later in the same scan.  A channel has one producer
    and one consumer PE, so a firing stays ready once it is, and firing
    ``x`` on PE ``p`` falls in the largest of: 1; the sweep of its PE's
    previous firing, plus 1; for each channel it pops, the sweep of the
    firing that pushed the value; for each channel it only pushes, the sweep
    of the pop ``channel_capacity`` flows earlier.  The last two gain 1 when
    that firing's PE index is ``>= p``.  So a sweep is a longest path over
    the waits, and firings on or after a cycle of waits never fire: the
    deadlock, recorded as a last, empty sweep and reported with per-PE
    blocking diagnostics.  No kernel runs, so the schedule holds for every
    input; one that completes fires every node once, so :func:`drain` then
    fixes the store coverage.
    """
    work = relay_view(graph) if cfg.relay_enabled else graph
    nodes, hops = work.nodes, work.relay_from
    pe_labels, node_pe = placement

    programs: list[list[int]] = [[] for _ in pe_labels]
    for i, pe in enumerate(node_pe):
        programs[pe].append(i)

    # per channel: producer PE, its tag, consumer PE, its tag, and the
    # producer of its latest flow
    chan_src: list[int] = []
    src_tags: list[int] = []
    chan_dst: list[int] = []
    dst_tags: list[int] = []
    last_producer: list[int] = []
    faults: dict[int, str] = {}  # channel -> its flow-order fault
    found: dict[tuple[int, int, int, int], int] = {}
    node_pops: list[tuple[int, ...]] = []
    pushes: list[list[int]] = [[] for _ in nodes]  # per node, the channels it pushes
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
                last_producer.append(src)
            else:
                if src < last_producer[c]:
                    faults[c] = "push order does not match pop order"
                elif src == last_producer[c]:
                    faults.setdefault(c, "one firing would push twice")
                last_producer[c] = src
            pops.append(c)
            pushes[src].append(c)
        node_pops.append(tuple(pops))
    del found  # free the channel keys before the schedule builds its tables

    tags = {_CS: "cs", _RELAY: "relay"}  # any other tag is a tuple index or a port
    labels = tuple([
        f"{pe_labels[a]}.{tags.get(s) or f't{s}'}->{pe_labels[b]}.{tags.get(d) or f'p{d}'}"
        for a, s, b, d in zip(chan_src, src_tags, chan_dst, dst_tags)
    ])
    if faults:
        c = min(faults)
        raise WiringError(f"channel {labels[c]}: {faults[c]}")

    # the schedule: per firing, the firings it waits on and its sweep
    capacity = cfg.channel_capacity
    after: list[list[int]] = [[] for _ in nodes]  # per node, the firings waiting on it
    waits = [0] * len(nodes)
    for program in programs:
        for a, b in zip(program, program[1:]):
            after[a].append(b)
            waits[b] += 1
    poppers: list[list[int]] = [[] for _ in labels]  # per channel, its consumers in pop order
    for i, pops in enumerate(node_pops):
        for c, a in zip(pops, work.producers(i)):
            seen = poppers[c]
            if len(seen) >= capacity and c not in node_pops[a]:
                after[seen[-capacity]].append(a)  # a's push needs the pop capacity flows earlier
                waits[a] += 1
            seen.append(i)
            after[a].append(i)
            waits[i] += 1
    sweep = [1] * len(nodes)
    ready = [i for i, w in enumerate(waits) if not w]
    fired: list[int] = []
    while ready:  # Kahn's algorithm: nodes on or after a cycle of waits never fire
        a = ready.pop()
        fired.append(a)
        s, pe = sweep[a], node_pe[a]
        for b in after[a]:
            sweep[b] = max(sweep[b], s + (pe >= node_pe[b]))
            waits[b] -= 1
            if not waits[b]:
                ready.append(b)
    del after, poppers  # freed before the counters, so lowering peaks no higher

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
            occupancy[c] = max(occupancy[c], lengths[c])
    sweeps = [tuple(group) for _, group in groupby(fired, sweep.__getitem__)]
    if len(fired) < len(nodes):
        sweeps.append(())  # the deadlock: a sweep that fires nothing
    blocked = tuple([
        (label, str(nodes[program[k]]),
         tuple([labels[c] for c in node_pops[program[k]] if not lengths[c]]),
         tuple([labels[c] for c in pushes[program[k]] if lengths[c] >= capacity]))
        for program, label, k in zip(programs, pe_labels, pointers) if k < len(program)
    ])
    drained, uncovered = ((), ()) if blocked else drain(work)
    return Design(work, cfg, pe_labels, tuple(chan_src), tuple(chan_dst), labels,
                  tuple(node_pops), tuple(node_pe), tuple(map(tuple, programs)), tuple(sweeps),
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
