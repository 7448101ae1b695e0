"""Processing-element array simulator driven by scheduling directives.

Iterations are placed onto PEs according to which loop dims are unrolled,
values travel through bounded FIFO channels (relay chains included), and a
deterministic event-driven sweep scheduler fires each PE's iterations in
program order.
Store directives drain final values into an assembled result matrix, and the
report carries occupancy and deadlock diagnostics.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from spatialqr.dataflow import (
    KERNELS,
    DataflowGraph,
    IterNode,
    MemorySource,
    build_graph,
    relay_view,
)
from spatialqr.numeric import AugmentedMatrix, Matrix, NonFiniteError
from spatialqr.specdsl import ConstRef, SpatialSpec


class WiringError(ValueError):
    """Channels cannot be laid out consistently for this configuration."""


class DrainError(ValueError):
    """Store directives covered a result position twice or not at all."""


class SimulationError(RuntimeError):
    """A run exhausted ``max_steps`` or left values behind in its channels."""


class PeId(NamedTuple):
    """One processing element: a function plus its unrolled-dim coordinates."""

    func: str
    fixed: tuple[tuple[str, int], ...]

    def label(self) -> str:
        inside = ",".join([f"{d}={v}" for d, v in self.fixed])
        return f"{self.func}({inside})"


@dataclass(frozen=True)
class SimConfig:
    """Placement and channel knobs for one simulation run.

    ``unroll`` maps function names to the dims kept unrolled; ``None`` means
    follow the spec's unroll directives (the fully spatial layout).  Folded
    dims execute in program order on their PE.
    """

    unroll: dict[str, tuple[str, ...]] | None = None
    channel_capacity: int = 2
    relay_enabled: bool = True
    max_steps: int = 1_000_000
    log_events: bool = False

    def __post_init__(self) -> None:
        if self.channel_capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

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


@dataclass
class Placement:
    """The PE of every node of a graph."""

    pes: list[PeId]  # sorted; a PE's index here is its scheduling priority
    node_pe: list[int]  # per node id, the index of its PE in ``pes``


def place(graph: DataflowGraph, cfg: SimConfig) -> Placement:
    """Map each iteration to the PE fixed at its unrolled-dim values."""
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
    pes = [PeId(func, tuple(zip(names[func], values))) for func, values in order]
    return Placement(pes, [rank[p] for p in node_pe])


# --- the compiled design ---------------------------------------------------------

class NodeOp(NamedTuple):
    """One iteration's firing, with channels named by their index in a :class:`Design`.

    The firing is ready when every channel in ``pops`` holds a value and
    every channel in ``room`` has a free slot.  ``wire`` guarantees that a
    firing pops at most one value from, and pushes at most one value into,
    each channel, so these two sets are the whole check; a channel the
    firing both pops and pushes frees its own slot and needs no room check.
    ``wakes`` lists the PE indices whose readiness this firing can change:
    the consumers of the channels it pushes to, the producers of the
    channels it pops from, and its own PE.
    """

    kernel: Callable[..., tuple[float, ...]]
    template: tuple[float | None, ...]  # the kernel's arguments, constants filled in
    pair: tuple[int, int, int] | None  # (channel, port, port) of the rotation pair
    fetches: tuple[tuple[int, int], ...]  # (channel, port)
    mems: tuple[tuple[int, int, int], ...]  # (row, col, port) of the input
    pushes: tuple[tuple[int, int], ...]  # (channel, output index, or _CS / _RELAY for a pair)
    stores: tuple[tuple[int, tuple[int, int]], ...]  # (output index, result position)
    pops: tuple[int, ...]  # the pair channel first, then ``fetches``' channels
    room: tuple[int, ...]
    wakes: tuple[int, ...]


@dataclass(frozen=True)
class Design:
    """A spec placed and wired at one shape: everything a run fixes before the data.

    Channels are ints; channel ``c`` runs from PE ``chan_src[c]`` to PE
    ``chan_dst[c]`` and is named ``chan_labels[c]`` in reports and errors.
    :func:`execute` runs any number of matrices of the shape on one design.
    """

    graph: DataflowGraph  # as built, before any relay view
    cfg: SimConfig
    pe_labels: tuple[str, ...]  # per PE index, which is also its scheduling priority
    chan_src: tuple[int, ...]
    chan_dst: tuple[int, ...]
    chan_labels: tuple[str, ...]
    ops: tuple[NodeOp, ...]  # per node id
    programs: tuple[tuple[int, ...], ...]  # per PE index, its node ids in program order


# channel tags and pair pushes as ints: tuple index or port >= 0, else one of these
_CS, _RELAY = -1, -2


def compile_design(spec: SpatialSpec, cfg: SimConfig, m: int, n: int) -> Design:
    """Build, place and wire ``spec`` at m x n; see :func:`wire`."""
    graph = build_graph(spec, m, n)
    return wire(graph, place(graph, cfg), cfg)


def wire(graph: DataflowGraph, placement: Placement, cfg: SimConfig) -> Design:
    """Turn value edges into bounded channels between placed PEs.

    With relaying enabled, rotation-pair edges are first rewritten into
    hop-by-hop chains along each relay directive's vector; only the chain
    head still receives the pair straight from its producer.  Edges between
    iterations folded onto one PE still go through a channel of the same
    capacity, so folding is purely a re-placement.  A channel is the int
    key (producer PE, tag, consumer PE, tag), numbered in order of first
    use, and gets its label once.

    Every channel must carry its values in the order its consumer pops
    them, one per producer firing.  Consumers are visited in program order,
    so that holds when the producer slots of each channel's flows strictly
    increase; the first channel that breaks it raises :class:`WiringError`.
    """
    work = graph
    if cfg.relay_enabled and any(f.relay() is not None for f in graph.spec.funcs):
        work = relay_view(graph)
    nodes = work.nodes
    node_pe = placement.node_pe
    pe_labels = tuple([pe.label() for pe in placement.pes])

    programs: list[list[int]] = [[] for _ in pe_labels]
    slot = [0] * len(nodes)  # a node's position in its PE's program
    for i, pe in enumerate(node_pe):
        slot[i] = len(programs[pe])
        programs[pe].append(i)

    # per channel: producer PE, its tag, consumer PE, its tag, and the
    # producer slot of its latest flow
    chan_src: list[int] = []
    src_tags: list[int] = []
    chan_dst: list[int] = []
    dst_tags: list[int] = []
    last_producer: list[int] = []
    faults: dict[int, str] = {}  # channel -> its flow-order fault
    found: dict[tuple[int, int, int, int], int] = {}
    fetches: list[tuple] = []  # per node: pair, channel fetches, memory fetches, pops
    pushes: list[list[tuple[int, int]]] = [[] for _ in nodes]
    for i, ins in enumerate(work.in_edges):
        dst_pe = node_pe[i]
        pair = None
        flows = []  # (producer node, its tag, our tag): the pair first, then data ports
        chans, mems, pops = [], [], []
        cs_edges = [e for e in ins if e.pattern == "cs"]
        if cs_edges:
            src, tag = _pair_source(cs_edges, nodes, i)
            flows.append((src, tag, _CS))
        for e in ins:
            source = e.source
            if isinstance(source, MemorySource):
                mems.append((source.row, source.col, e.port))
            elif e.pattern != "cs":
                flows.append((source.node, source.index, e.port))
        for src, src_tag, dst_tag in flows:
            src_pe, producer = node_pe[src], slot[src]
            key = (src_pe, src_tag, dst_pe, dst_tag)
            c = found.get(key)
            if c is None:
                c = found[key] = len(chan_src)
                chan_src.append(src_pe)
                src_tags.append(src_tag)
                chan_dst.append(dst_pe)
                dst_tags.append(dst_tag)
                last_producer.append(producer)
            else:
                if producer < last_producer[c]:
                    faults[c] = "push order does not match pop order"
                elif producer == last_producer[c]:
                    faults.setdefault(c, "one firing would push twice")
                last_producer[c] = producer
            pops.append(c)
            pushes[src].append((c, src_tag))
            if dst_tag == _CS:
                ports = sorted([e.port for e in cs_edges])
                pair = (c, ports[0], ports[1] if len(ports) > 1 else ports[0] + 1)
            else:
                chans.append((c, dst_tag))
        fetches.append((pair, tuple(chans), tuple(mems), tuple(pops)))

    tags = {_CS: "cs", _RELAY: "relay"}  # any other tag is a tuple index or a port
    labels = tuple([
        f"{pe_labels[a]}.{tags.get(s) or f't{s}'}->{pe_labels[b]}.{tags.get(d) or f'p{d}'}"
        for a, s, b, d in zip(chan_src, src_tags, chan_dst, dst_tags)
    ])
    if faults:
        c = min(faults)
        raise WiringError(f"channel {labels[c]}: {faults[c]}")

    kernels: dict[int, tuple] = {}  # id of a recurrence case -> (kernel, argument template)
    ops = []
    for i, (pair, chans, mems, pops) in enumerate(fetches):
        case = work.node_case[i]
        kernel = kernels.get(id(case))
        if kernel is None:
            kernel = kernels[id(case)] = (KERNELS[case.kernel], tuple(
                [arg.value if isinstance(arg, ConstRef) else None for arg in case.args]))
        pushed = tuple(pushes[i])
        stored = work.node_stores[i]
        ops.append(NodeOp(
            *kernel, pair, chans, mems, pushed,
            tuple([(stored[k], (stored[k + 1], stored[k + 2])) for k in range(0, len(stored), 3)]),
            pops,
            tuple([c for c, _ in pushed if c not in pops]),
            tuple(sorted({node_pe[i], *[chan_src[c] for c in pops],
                          *[chan_dst[c] for c, _ in pushed]})),
        ))
    return Design(graph, cfg, pe_labels, tuple(chan_src), tuple(chan_dst), labels,
                  tuple(ops), tuple(map(tuple, programs)))


def _pair_source(cs_edges, nodes: list[IterNode], sink: int) -> tuple[int, int]:
    """The producer node of a rotation pair and the tag of its channel."""
    producers = {e.source.node for e in cs_edges}
    if len(producers) != 1:
        raise WiringError(f"{nodes[sink]}: rotation pair drawn from several producers")
    producer = producers.pop()
    indices = sorted({e.source.index for e in cs_edges})
    if indices == [None]:
        tag = _RELAY if nodes[producer].func == nodes[sink].func else _CS
    elif indices == [0, 1]:
        tag = _CS
    else:
        raise WiringError(f"{nodes[sink]}: rotation pair uses tuple indices {indices}")
    return producer, tag


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
    events: list[str] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def total_firings(self) -> int:
        return sum(self.firings.values())


def run(spec: SpatialSpec, cfg: SimConfig, aug: AugmentedMatrix) -> SimReport:
    """Simulate the spec on the given input until completion or deadlock."""
    return execute(compile_design(spec, cfg, aug.m, aug.n), aug)


def execute(design: Design, aug: AugmentedMatrix) -> SimReport:
    """Run one input through ``design``, with fresh queues and counters.

    Each sweep visits PEs in a fixed order; a PE fires its next unfired
    iteration if and only if all its input channels hold a value and all its
    output channels have room.  A sweep that fires nothing while work remains
    is a deadlock and is reported with per-PE blocking diagnostics.

    Only PEs whose readiness may have changed are visited: a PE found not
    ready is dropped until a firing on one of its channels wakes it.  A PE
    woken by a firing earlier in the fixed order joins the current sweep,
    any other one the next sweep, so every sweep fires exactly the PEs a
    scan over all of them would.
    """
    graph, cfg = design.graph, design.cfg
    m, n = graph.m, graph.n
    if (aug.m, aug.n) != (m, n):
        raise ValueError(f"design is for {m}x{n} inputs, got {aug.m}x{aug.n}")
    nodes, ops, programs, labels = graph.nodes, design.ops, design.programs, design.chan_labels
    get = aug.inner.get
    queues = [deque() for _ in labels]
    sends = [0] * len(labels)
    occupancy = [0] * len(labels)
    pointers = [0] * len(programs)
    capacity, log_events = cfg.channel_capacity, cfg.log_events
    store_events: list[tuple[tuple[int, int], float, IterNode, int]] = []
    events: list[str] = []
    total = len(ops)
    fired = 0
    steps = 0

    # ``queued[i]`` is the sweep PE i is queued for; a PE is never queued for
    # the current and the next sweep at once, because only PEs at or before
    # the one firing go to the next sweep and those have left the heap.
    current = list(range(len(programs)))  # ascending, so already a heap
    queued = [1] * len(programs)
    status = "completed"
    blocked: list[dict] = []
    while fired < total:
        if steps >= cfg.max_steps:
            raise SimulationError(f"no completion within {cfg.max_steps} sweeps")
        steps += 1
        later: list[int] = []
        progressed = False
        while current:
            i = heapq.heappop(current)
            k = pointers[i]
            program = programs[i]
            if k >= len(program):
                continue
            node = program[k]
            op = ops[node]
            for c in op.pops:
                if not queues[c]:
                    break
            else:
                for c in op.room:
                    if len(queues[c]) >= capacity:
                        break
                else:
                    kernel, args, pair, fetches, mems, pushes, stores, _, _, wakes = op
                    args = list(args)
                    popped = None
                    if pair is not None:
                        c, lo, hi = pair
                        popped = queues[c].popleft()
                        args[lo], args[hi] = popped
                    for c, port in fetches:
                        args[port] = queues[c].popleft()
                    for row, col, port in mems:
                        args[port] = get(row, col)
                    try:
                        out = kernel(*args)
                    except NonFiniteError as exc:
                        raise NonFiniteError(f"{nodes[node]}: {exc}") from None
                    if not all(map(math.isfinite, out)):
                        raise NonFiniteError(f"non-finite kernel output at {nodes[node]}")
                    for c, index in pushes:
                        q = queues[c]
                        if len(q) >= capacity:
                            raise WiringError(f"push into full channel {labels[c]}")
                        q.append(out[index] if index >= 0 else popped if index == _RELAY
                                 else (out[0], out[1]))
                        sends[c] += 1
                        if len(q) > occupancy[c]:
                            occupancy[c] = len(q)
                    for index, position in stores:
                        store_events.append((position, out[index], nodes[node], index))
                    if log_events:
                        consumed = ",".join(repr(v) for v in args)
                        produced = ",".join(repr(v) for v in out)
                        events.append(
                            f"step={steps} pe={design.pe_labels[i]} iter={nodes[node]} "
                            f"consumed=[{consumed}] produced=[{produced}]"
                        )
                    pointers[i] = k + 1
                    fired += 1
                    progressed = True
                    for j in wakes:
                        if j > i:
                            if queued[j] != steps:
                                queued[j] = steps
                                heapq.heappush(current, j)
                        elif queued[j] != steps + 1:
                            queued[j] = steps + 1
                            later.append(j)
        if not progressed:
            status = "deadlock"
            blocked = _blocking_diagnostics(design, queues, pointers)
            break
        heapq.heapify(later)
        current = later

    if status == "completed":
        leftovers = [label for label, q in zip(labels, queues) if q]
        if leftovers:
            raise SimulationError(f"values left in channels after completion: {leftovers}")
        output, drained, uncovered = drain(graph, store_events)
    else:
        output, drained, uncovered = None, [], []

    by_label = sorted(range(len(labels)), key=labels.__getitem__)
    return SimReport(
        status=status,
        m=m,
        n=n,
        config=cfg.describe(),
        steps=steps,
        firings=dict(zip(design.pe_labels, pointers)),
        max_occupancy={labels[c]: occupancy[c] for c in by_label},
        channel_sends={labels[c]: sends[c] for c in by_label},
        output=output,
        drained=drained,
        uncovered=uncovered,
        blocked=blocked,
        events=events,
    )


def _blocking_diagnostics(design: Design, queues: list[deque], pointers: list[int]) -> list[dict]:
    labels, capacity = design.chan_labels, design.cfg.channel_capacity
    out: list[dict] = []
    for program, label, k in zip(design.programs, design.pe_labels, pointers):
        if k >= len(program):
            continue
        op = design.ops[program[k]]
        out.append({
            "pe": label,
            "iteration": str(design.graph.nodes[program[k]]),
            "waiting_on_empty": [labels[c] for c in op.pops if not queues[c]],
            "waiting_on_full": [labels[c] for c, _ in op.pushes if len(queues[c]) >= capacity],
        })
    return out


def expected_store_positions(graph: DataflowGraph) -> list[tuple[int, int]]:
    """Result positions the store directives name, with multiplicity."""
    return [
        (stored[i + 1], stored[i + 2])
        for stored in graph.node_stores
        for i in range(0, len(stored), 3)
    ]


def drain(
    graph: DataflowGraph,
    store_events: list[tuple[tuple[int, int], float, IterNode, int]],
) -> tuple[Matrix, list[tuple[int, int]], list[tuple[int, int]]]:
    """Assemble stored values into an M x (N+1) result.

    Asserts exactly-once coverage: a position stored twice, or a position the
    directives name that never arrived, raises :class:`DrainError`.
    Upper-triangle positions no directive covers are returned as diagnostics
    (this set is empty whenever eliminations reach the bottom row).
    """
    m, n = graph.m, graph.n
    output = Matrix.zeros(m, n + 1)
    seen: dict[tuple[int, int], int] = {}
    for position, value, _node, _idx in store_events:
        seen[position] = seen.get(position, 0) + 1
        output.set(position[0], position[1], value)
    doubles = sorted(p for p, count in seen.items() if count > 1)
    if doubles:
        raise DrainError(f"positions stored more than once: {doubles}")
    expected = expected_store_positions(graph)
    missing = sorted(set(expected) - set(seen))
    if missing:
        raise DrainError(f"positions never stored: {missing}")
    uncovered = sorted(
        (i, j)
        for i in range(1, m + 1)
        for j in range(i, n + 2)
        if (i, j) not in seen
    )
    return output, sorted(seen), uncovered


def report_to_json(report: SimReport) -> str:
    obj = {
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
    }
    if report.events:
        obj["events"] = report.events
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
