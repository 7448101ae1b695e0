import json
from collections import deque
from pathlib import Path

import pytest

from spatialqr.dataflow import IterNode, build_graph, evaluate_graph
from spatialqr.numeric import (
    AugmentedMatrix,
    NonFiniteError,
    qr_givens_reference,
    random_matrix,
)
from spatialqr import simulator
from spatialqr.simulator import (
    DrainError,
    SimConfig,
    SimulationError,
    WiringError,
    compile_design,
    drain,
    execute,
    folded_unroll,
    place,
    report_to_json,
    run,
    spec_unroll,
    wire,
)
from spatialqr.specdsl import (
    A_PRIME,
    KERNEL_ELIMINATE,
    BoundSpec,
    CallRef,
    FuncSpec,
    IntLit,
    MemoryRef,
    Name,
    RecurrenceCase,
    SpatialSpec,
    UnrollDirective,
    builtin_qr_spec,
)

FIXTURES = Path(__file__).parent / "fixtures"
SPEC = builtin_qr_spec()


def make_aug(m, n, seed=0):
    return AugmentedMatrix.from_parts(random_matrix(m, n, seed), [1.0] * m)


def config(mode="full", capacity=2, relay=True, **kw):
    unroll = spec_unroll(SPEC) if mode == "full" else folded_unroll(SPEC)
    return SimConfig(unroll=unroll, channel_capacity=capacity, relay_enabled=relay, **kw)


def x_count(m, n):
    return sum(max(0, m - col) for col in range(1, n + 1))


def y_count(m, n):
    return sum(max(0, m - col) * (n + 1 - col) for col in range(1, n + 1))


class TestPlacement:
    def test_full_unroll_one_iteration_per_pe(self):
        placement = place(build_graph(SPEC, 4, 4), config("full"))
        pes = set(placement.pes)
        assert len(pes) == 26
        assert sum(1 for pe in pes if pe.func == "X") == 6
        assert sum(1 for pe in pes if pe.func == "Y") == 20

    def test_row_folded_counts(self):
        placement = place(build_graph(SPEC, 4, 4), config("folded"))
        pes = set(placement.pes)
        x_pes = sorted(pe.fixed for pe in pes if pe.func == "X")
        y_pes = sorted(pe.fixed for pe in pes if pe.func == "Y")
        assert x_pes == [(("col", 1),), (("col", 2),), (("col", 3),)]
        assert len(y_pes) == 9

    def test_fold_preserves_program_order(self):
        cfg = config("folded")
        g = build_graph(SPEC, 4, 4)
        placement = place(g, cfg)
        pe = placement.node_pe[g.ids["X"][(1, 3)]]
        order = [g.nodes[i] for i, p in enumerate(placement.node_pe) if p == pe]
        assert order == [IterNode("X", (1, 4)), IterNode("X", (1, 3)), IterNode("X", (1, 2))]

    def test_unknown_unroll_dim_rejected(self):
        cfg = SimConfig(unroll={"X": ("bogus",), "Y": ()})
        with pytest.raises(WiringError):
            place(build_graph(SPEC, 4, 4), cfg)

    def test_unknown_unroll_function_rejected(self):
        cfg = SimConfig(unroll={"Z": (), "X": ("col",)})
        with pytest.raises(WiringError, match=r"unknown functions \['Z'\]"):
            place(build_graph(SPEC, 4, 4), cfg)
        with pytest.raises(WiringError, match=r"unknown functions \['Z'\]"):
            run(SPEC, cfg, make_aug(4, 4))


def channel_keys(design):
    """Per channel: (producer PE, tag, consumer PE, tag), read back from the design's tables."""
    for c, label in enumerate(design.chan_labels):
        src = design.pe_labels[design.chan_src[c]]
        dst = design.pe_labels[design.chan_dst[c]]
        head, tail = label.split("->")
        yield src, head[len(src) + 1:], dst, tail[len(dst) + 1:]


class TestWiring:
    def test_broadcast_without_relay(self):
        g = build_graph(SPEC, 4, 4)
        cfg = config("full", relay=False)
        design = wire(g, place(g, cfg), cfg)
        outgoing = [
            k for k in channel_keys(design)
            if k[0] == "X(col=1,row=4)" and k[3] == "cs"
        ]
        assert len(outgoing) == 4

    def test_single_head_channel_with_relay(self):
        g = build_graph(SPEC, 4, 4)
        cfg = config("full", relay=True)
        design = wire(g, place(g, cfg), cfg)
        outgoing = [
            k for k in channel_keys(design)
            if k[0] == "X(col=1,row=4)" and k[3] == "cs"
        ]
        assert len(outgoing) == 1
        assert outgoing[0][2] == "Y(col=1,row=4,k=2)"
        forwards = [
            k for k in channel_keys(design)
            if k[0] == "Y(col=1,row=4,k=2)" and k[1] == "relay"
        ]
        assert len(forwards) == 1
        assert forwards[0][2] == "Y(col=1,row=4,k=3)"

    def test_memory_ports_have_no_channels(self):
        g = build_graph(SPEC, 4, 4)
        cfg = config("full")
        design = wire(g, place(g, cfg), cfg)
        op = design.ops[g.ids["X"][(1, 4)]]
        assert {(row, col) for row, col, _ in op.mems} == {(4, 1), (3, 1)}
        assert op.pair is None and op.fetches == () and op.pops == ()


class TestRunEquivalence:
    @pytest.mark.parametrize("mode", ["full", "folded"])
    @pytest.mark.parametrize("relay", [True, False])
    def test_bitwise_match_4x4(self, mode, relay):
        aug = make_aug(4, 4, 0)
        rep = run(SPEC, config(mode, relay=relay), aug)
        assert rep.completed
        ref = qr_givens_reference(aug).r_aug
        for i, j in rep.drained:
            assert rep.output.get(i, j) == ref.inner.get(i, j)

    def test_matches_graph_evaluation_oracle(self):
        aug = make_aug(6, 4, 3)
        ref = qr_givens_reference(aug).r_aug
        via_graph = evaluate_graph(build_graph(SPEC, 6, 4), aug)
        rep = run(SPEC, config("folded", capacity=1), aug)
        assert via_graph.inner.data == ref.inner.data
        for i, j in rep.drained:
            assert rep.output.get(i, j) == ref.inner.get(i, j)

    def test_exactly_once_firing(self):
        rep = run(SPEC, config("folded"), make_aug(6, 4))
        assert rep.total_firings() == x_count(6, 4) + y_count(6, 4)

    def test_relay_conservation(self):
        rep = run(SPEC, config("folded", relay=True), make_aug(4, 4))
        pair_sends = sum(
            sends for label, sends in rep.channel_sends.items()
            if label.endswith(".cs")
        )
        head_sends = sum(
            sends for label, sends in rep.channel_sends.items()
            if ".cs->" in label
        )
        forward_sends = sum(
            sends for label, sends in rep.channel_sends.items()
            if ".relay->" in label
        )
        assert pair_sends == y_count(4, 4)
        assert head_sends == x_count(4, 4)
        assert forward_sends == y_count(4, 4) - x_count(4, 4)

    def test_trivial_size_completes_empty(self):
        rep = run(SPEC, config("full"), make_aug(1, 1))
        assert rep.completed and rep.steps == 0
        assert rep.total_firings() == 0
        assert rep.drained == []
        assert rep.uncovered == [(1, 1), (1, 2)]

    def test_deterministic_report(self):
        aug = make_aug(8, 8, 2)
        r1 = run(SPEC, config("folded", capacity=1), aug)
        r2 = run(SPEC, config("folded", capacity=1), aug)
        assert report_to_json(r1) == report_to_json(r2)

    def test_capacity_monotonicity(self):
        aug = make_aug(6, 4, 1)
        for mode in ("full", "folded"):
            for relay in (True, False):
                statuses = [
                    run(SPEC, config(mode, capacity=cap, relay=relay), aug).status
                    for cap in (1, 2, 8)
                ]
                for earlier, later in zip(statuses, statuses[1:]):
                    assert not (earlier == "completed" and later == "deadlock")

    def test_capacity_one_behavior_pinned(self):
        pins = json.loads((FIXTURES / "capacity1_behavior.json").read_text())
        assert pins["capacity"] == 1
        for key, expected in pins["runs"].items():
            size, mode, relay_part = key.split("/")
            m, n = (int(v) for v in size.split("x"))
            relay = relay_part == "relay=on"
            aug = make_aug(m, n, pins["seed"])
            rep = run(SPEC, config(mode, capacity=1, relay=relay), aug)
            assert rep.status == expected["status"], key
            assert rep.steps == expected["steps"], key

    def test_non_finite_input_names_iteration(self):
        aug = make_aug(4, 4)
        aug.inner.set(4, 1, float("nan"))
        with pytest.raises(NonFiniteError, match=r"X\(1, 4\)"):
            run(SPEC, config("full"), aug)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(channel_capacity=0)

    def test_invalid_spec_rejected(self):
        import dataclasses

        x = SPEC.func("X")
        broken = dataclasses.replace(x, cases=x.cases[:-1])
        spec = dataclasses.replace(
            SPEC, funcs=tuple(broken if f.name == "X" else f for f in SPEC.funcs)
        )
        with pytest.raises(ValueError, match="guard-gap"):
            run(spec, config("full"), make_aug(4, 4))


class TestDrain:
    def test_coverage_at_4x4(self):
        rep = run(SPEC, config("full"), make_aug(4, 4))
        expected = [(i, j) for i in range(1, 5) for j in range(i, 6)]
        assert rep.drained == expected
        assert len(rep.drained) == 14
        assert rep.uncovered == []

    def test_diagonal_head_provenance(self):
        # R[1][1] must come from the last eliminating iteration of column 1.
        aug = make_aug(4, 4, 5)
        ref = qr_givens_reference(aug).r_aug
        rep = run(SPEC, config("full"), aug)
        assert rep.output.get(1, 1) == ref.inner.get(1, 1)
        g = build_graph(SPEC, 4, 4)
        values = evaluate_graph(g, aug)
        assert rep.output.get(1, 1) == values.inner.get(1, 1)

    def test_store_provenance_matches_directives(self):
        g = build_graph(SPEC, 4, 4)
        cfg = config("full")
        design = compile_design(SPEC, cfg, 4, 4)

        def stores_of(node):
            return list(design.ops[g.ids[node.func][node.coords]].stores)

        assert stores_of(IterNode("X", (1, 2))) == [(3, (1, 1))]
        assert stores_of(IterNode("Y", (3, 4, 4))) == [(1, (3, 4)), (0, (4, 4))]
        assert stores_of(IterNode("Y", (3, 4, 5))) == [(1, (3, 5)), (0, (4, 5))]
        assert stores_of(IterNode("Y", (1, 4, 3))) == []
        assert stores_of(IterNode("X", (1, 4))) == []

    def test_bottom_row_comes_from_update_nodes(self):
        aug = make_aug(4, 4, 6)
        rep = run(SPEC, config("full"), aug)
        ref = qr_givens_reference(aug).r_aug
        assert rep.output.get(4, 4) == ref.inner.get(4, 4)
        assert rep.output.get(4, 5) == ref.inner.get(4, 5)

    def test_tall_matrix_reports_uncovered_tail(self):
        rep = run(SPEC, config("folded"), make_aug(6, 4))
        assert rep.uncovered == [(5, 5)]
        assert (5, 5) not in rep.drained

    def test_double_store_detected(self):
        events = [((1, 1), 2.5, IterNode("X", (1, 2)), 3),
                  ((1, 1), 2.5, IterNode("X", (1, 2)), 3)]
        with pytest.raises(DrainError, match="more than once"):
            drain(build_graph(SPEC, 4, 4), events)

    def test_missing_store_detected(self):
        with pytest.raises(DrainError, match="never stored"):
            drain(build_graph(SPEC, 4, 4), [])


def chain_spec():
    """Two iterations where the first needs the second's output.

    The dependence is acyclic, so the full unroll runs; folding both onto one
    PE inverts the needed firing order against the program order and jams.
    """
    row = Name("row")
    f = FuncSpec(
        name="F",
        dims=("row",),
        bounds=(BoundSpec("row", IntLit(1), 1, IntLit(2)),),
        tuple_arity=4,
        cases=(
            RecurrenceCase(
                "head", row.eq(1), KERNEL_ELIMINATE,
                (CallRef("F", (row + 1,), 3), MemoryRef(A_PRIME, IntLit(1), IntLit(1))),
            ),
            RecurrenceCase(
                "tail", row.ne(1), KERNEL_ELIMINATE,
                (MemoryRef(A_PRIME, IntLit(2), IntLit(1)),
                 MemoryRef(A_PRIME, IntLit(1), IntLit(1))),
            ),
        ),
        directives=(UnrollDirective("row"),),
        cell_map=(None, None, None, None),
    )
    return SpatialSpec(constants=("M", "N"), inputs=(A_PRIME,), funcs=(f,))


class TestDeadlock:
    def test_fold_induced_deadlock(self):
        spec = chain_spec()
        aug = make_aug(2, 2)
        rep = run(spec, SimConfig(unroll={"F": ()}), aug)
        assert rep.status == "deadlock"
        assert rep.output is None
        assert len(rep.blocked) == 1
        diag = rep.blocked[0]
        assert diag["pe"] == "F()"
        assert diag["iteration"] == "F(1,)"
        assert diag["waiting_on_empty"]

    def test_same_spec_completes_when_unrolled(self):
        spec = chain_spec()
        rep = run(spec, SimConfig(unroll={"F": ("row",)}), make_aug(2, 2))
        assert rep.completed
        assert rep.total_firings() == 2

    def test_deadlock_report_serializes(self):
        spec = chain_spec()
        rep = run(spec, SimConfig(unroll={"F": ()}), make_aug(2, 2))
        obj = json.loads(report_to_json(rep))
        assert obj["status"] == "deadlock"
        assert obj["output"] is None


class TestDesignReuse:
    @pytest.mark.parametrize("spec, cfg, shape", [
        (SPEC, config("full"), (4, 4)),
        (chain_spec(), SimConfig(unroll={"F": ()}), (2, 2)),  # deadlocks
    ])
    def test_executions_share_no_state(self, spec, cfg, shape):
        design = compile_design(spec, cfg, *shape)
        aug = make_aug(*shape)
        first = execute(design, aug)
        expected = report_to_json(first)
        for table in (first.firings, first.max_occupancy, first.channel_sends):
            for key in table:
                table[key] += 1
            table["stray"] = 1
        for entry in first.blocked:
            entry["waiting_on_empty"].append("stray")
        first.blocked.append({"pe": "stray"})
        assert report_to_json(execute(design, aug)) == expected


class TestSimulationErrors:
    def test_values_left_in_channels(self, monkeypatch):
        made = []

        def preloaded():
            """The first channel's queue starts with a stray value."""
            queue = deque([] if made else [0.5])
            made.append(queue)
            return queue

        monkeypatch.setattr(simulator, "deque", preloaded)
        with pytest.raises(SimulationError, match="values left in channels"):
            run(SPEC, config("full", capacity=8), make_aug(4, 4))
