import dataclasses
from pathlib import Path

import pytest

from spatialqr.dataflow import (
    CycleError,
    IterNode,
    build_graph,
    emit_dot,
    emit_trace,
    evaluate_graph,
    format_trace_text,
    graph_stats,
    graph_to_json,
    relay_view,
    trace_to_json,
)
from spatialqr.numeric import AugmentedMatrix, qr_givens_reference, random_matrix
from spatialqr.specdsl import (
    COL,
    K,
    ROW,
    CallRef,
    ValidationReport,
    builtin_qr_spec,
    walk,
)
from spatialqr.simulator import SimConfig, run

FIXTURES = Path(__file__).parent / "fixtures"


def x_count(m, n):
    return sum(max(0, m - col) for col in range(1, n + 1))


def y_count(m, n):
    return sum(max(0, m - col) * (n + 1 - col) for col in range(1, n + 1))


def iterations(func, m, n):
    return [node for node in build_graph(builtin_qr_spec(), m, n).nodes if node.func == func.name]


def in_edges(g, node):
    """(source, port, pattern) of every edge into ``node``, in ``g.edges`` order."""
    return [(source, port, pattern) for source, sink, port, pattern in g.edges if sink == node]


def make_aug(m, n, seed=0):
    return AugmentedMatrix.from_parts(random_matrix(m, n, seed), [1.0] * m)


class TestEnumeration:
    def test_x_order_at_4x4(self):
        spec = builtin_qr_spec()
        nodes = iterations(spec.func("X"), 4, 4)
        assert [node.coords for node in nodes] == [
            (1, 4), (1, 3), (1, 2), (2, 4), (2, 3), (3, 4),
        ]

    def test_y_first_four_at_4x4(self):
        spec = builtin_qr_spec()
        nodes = iterations(spec.func("Y"), 4, 4)
        assert len(nodes) == 20
        assert [node.coords for node in nodes[:4]] == [
            (1, 4, 2), (1, 4, 3), (1, 4, 4), (1, 4, 5),
        ]

    def test_column_with_empty_row_range(self):
        spec = builtin_qr_spec()
        nodes = iterations(spec.func("X"), 4, 4)
        assert all(node.coords[0] != 4 for node in nodes)

    def test_count_formulas(self):
        spec = builtin_qr_spec()
        for m in range(1, 9):
            for n in range(1, m + 1):
                assert len(iterations(spec.func("X"), m, n)) == x_count(m, n)
                assert len(iterations(spec.func("Y"), m, n)) == y_count(m, n)


class TestBuildGraph:
    def test_node_count_matches_trace(self):
        g = build_graph(builtin_qr_spec(), 4, 4)
        assert len(g.nodes) == 26
        assert len(emit_trace(g)) == 26

    def test_memory_pattern_edge(self):
        g = build_graph(builtin_qr_spec(), 4, 4)
        node = g.ids["X"][(1, 4)]
        sources = {(port, source) for source, port, _ in in_edges(g, node)}
        assert sources == {
            (0, ("A'", 4, 1)),
            (1, ("A'", 3, 1)),
        }
        assert g.node_case[node].label == "a"

    def test_both_from_y_pattern_edge(self):
        g = build_graph(builtin_qr_spec(), 4, 4)
        node = g.ids["X"][(2, 4)]
        sources = {(port, source) for source, port, _ in in_edges(g, node)}
        assert sources == {
            (0, (g.ids["Y"][(1, 4, 2)], 0)),
            (1, (g.ids["Y"][(1, 3, 2)], 0)),
        }
        assert g.node_case[node].label == "c"

    def test_in_degrees(self):
        g = build_graph(builtin_qr_spec(), 4, 4)
        for i, node in enumerate(g.nodes):
            expected = 2 if node.func == "X" else 4
            assert len(in_edges(g, i)) == expected

    def test_topo_order_is_valid(self):
        g = build_graph(builtin_qr_spec(), 6, 4)
        position = {node: i for i, node in enumerate(g.topo_order)}
        for source, sink, _, _ in g.edges:
            if len(source) == 2:  # a producer, not a memory load
                assert position[source[0]] < position[sink]

    def test_pattern_census_closed_form(self):
        spec = builtin_qr_spec()
        for m in range(1, 9):
            for n in range(1, m + 1):
                g = build_graph(spec, m, n)
                counts = {"a": 0, "b": 0, "c": 0, "d": 0}
                for i, node in enumerate(g.nodes):
                    if node.func == "X":
                        counts[g.node_case[i].label] += 1
                assert counts["a"] == (1 if m >= 2 else 0)
                assert counts["b"] == max(0, m - 2)
                assert counts["c"] == max(0, min(n, m - 1) - 1)
                assert counts["d"] == x_count(m, n) - sum(
                    counts[p] for p in "abc"
                )


class TestCycle:
    def test_self_call_raises_with_witness(self):
        spec = builtin_qr_spec()
        x = spec.func("X")
        # case "d" normally reads X one row below; make it read itself.
        d = x.cases[3]
        looped = dataclasses.replace(d, args=(CallRef("X", (COL, ROW), 3), d.args[1]))
        funcs = tuple(
            dataclasses.replace(f, cases=f.cases[:3] + (looped,)) if f.name == "X" else f
            for f in spec.funcs
        )
        with pytest.raises(CycleError) as exc:
            build_graph(dataclasses.replace(spec, funcs=funcs), 4, 4)
        witness = exc.value.witness
        assert witness
        assert witness[0] == witness[-1]
        assert witness[0].func == "X"
        assert "dependence cycle" in str(exc.value)

    @pytest.mark.parametrize("func,case,slot,call,m,n", [
        # Y(1, 2, k) reads its own output; nodes downstream of it are left
        # unsorted too, and some of them have no successors at all
        ("Y", 1, 2, CallRef("Y", (COL, ROW, K), 1), 3, 2),
        # X(col, M) and X(col, M-1) read each other
        ("X", 2, 0, CallRef("X", (COL, ROW - 1), 3), 5, 2),
    ])
    def test_witness_is_closed_path_of_edges(self, func, case, slot, call, m, n):
        spec = builtin_qr_spec()
        f = spec.func(func)
        old = f.cases[case]
        looped = dataclasses.replace(old, args=old.args[:slot] + (call,) + old.args[slot + 1:])
        cases = f.cases[:case] + (looped,) + f.cases[case + 1:]
        spec = dataclasses.replace(spec, funcs=tuple(
            dataclasses.replace(g, cases=cases) if g.name == func else g for g in spec.funcs
        ))
        with pytest.raises(CycleError) as exc:
            build_graph(spec, m, n)
        witness = exc.value.witness
        assert len(witness) >= 2 and witness[0] == witness[-1]
        edges = {
            (IterNode(arg.func, source), IterNode(firing.func, firing.coords))
            for firing in walk(spec, m, n, ValidationReport(m, n))
            for arg, source in zip(firing.case.args, firing.sources)
            if isinstance(arg, CallRef)
        }
        assert all(pair in edges for pair in zip(witness, witness[1:]))


class TestRelayCycle:
    """A relay chain that runs against the data flow closes a cycle that
    only the relay view has."""

    def spec(self):
        spec = builtin_qr_spec()
        y = spec.func("Y")
        return dataclasses.replace(spec, funcs=(
            spec.func("X"), dataclasses.replace(y, relay=(0, 1, 0))))

    def test_run_with_relay_raises_witness(self):
        with pytest.raises(CycleError) as exc:
            run(self.spec(), SimConfig(), make_aug(4, 3))
        assert str(exc.value) == "dependence cycle: Y(1, 4, 2) -> Y(1, 3, 2) -> Y(1, 4, 2)"
        assert exc.value.witness == [IterNode("Y", (1, 4, 2)), IterNode("Y", (1, 3, 2)),
                                     IterNode("Y", (1, 4, 2))]

    def test_relay_view_raises_and_graph_does_not(self):
        graph = build_graph(self.spec(), 4, 3)
        with pytest.raises(CycleError, match=r"Y\(1, 4, 2\) -> Y\(1, 3, 2\)"):
            relay_view(graph)

    def test_chain_across_eliminations_is_rejected(self):
        """Relayed down a column, Y(1, 3, 2) would apply X(1, 4)'s rotation
        instead of X(1, 3)'s, and no dependence cycle shows it."""
        spec = builtin_qr_spec()
        y = spec.func("Y")
        spec = dataclasses.replace(spec, funcs=(
            spec.func("X"), dataclasses.replace(y, relay=(0, -1, 0))))
        with pytest.raises(ValueError, match=r"relay chain Y\(1, 4, 2\) -> Y\(1, 3, 2\) would "
                                             r"pass on the pair of X\(1, 4\), but Y\(1, 3, 2\) "
                                             r"reads X\(1, 3\)'s"):
            run(spec, SimConfig(), make_aug(4, 3))

    def test_run_without_relay_completes(self):
        aug = make_aug(4, 3)
        rep = run(self.spec(), SimConfig(relay_enabled=False), aug)
        assert rep.completed
        ref = qr_givens_reference(aug).r_aug
        assert all(rep.output.get(i, j) == ref.inner.get(i, j) for i, j in rep.drained)


class TestTrace:
    def test_matches_golden_fixture(self):
        golden = (FIXTURES / "trace_4x4_golden.txt").read_text()
        assert format_trace_text(emit_trace(build_graph(builtin_qr_spec(), 4, 4))) == golden

    def test_first_and_last_events(self):
        events = emit_trace(build_graph(builtin_qr_spec(), 4, 4))
        first, last = events[0], events[-1]
        assert (first.col, first.row, first.k) == (1, 4, None)
        assert first.accesses[0].render() == "c,s[4,1](W)"
        assert (last.col, last.row, last.k) == (3, 4, 5)
        assert last.accesses[0].render() == "c,s[4,3](R)"
        assert [a.render() for a in last.accesses[1:]] == ["A'[4,5]", "A'[3,5]"]

    def test_access_shape_invariant(self):
        for e in emit_trace(build_graph(builtin_qr_spec(), 5, 3)):
            assert len(e.accesses) == 3
            cs, a1, a2 = e.accesses
            assert cs.name == "c,s"
            assert cs.mode == ("W" if e.k is None else "R")
            assert a1.mode == a2.mode == "RW"

    def test_relay_view_gives_the_same_trace(self):
        spec = builtin_qr_spec()
        for m in range(1, 9):
            for n in range(1, m + 2):
                g = build_graph(spec, m, n)
                assert emit_trace(relay_view(g)) == emit_trace(g), (m, n)

    def test_empty_trace(self):
        assert emit_trace(build_graph(builtin_qr_spec(), 1, 1)) == []
        assert format_trace_text([]) == ""

    def test_json_event_count(self):
        import json

        obj = json.loads(trace_to_json(emit_trace(build_graph(builtin_qr_spec(), 4, 4))))
        assert len(obj["events"]) == 26


class TestDot:
    def test_counts_and_shapes(self):
        g = build_graph(builtin_qr_spec(), 4, 4)
        dot = emit_dot(g)
        assert dot.count("[shape=") == 26
        assert '"X_1_4" [shape=ellipse];' in dot
        assert '"Y_1_4_2" [shape=box];' in dot

    def test_deterministic(self):
        g = build_graph(builtin_qr_spec(), 4, 4)
        assert emit_dot(g) == emit_dot(build_graph(builtin_qr_spec(), 4, 4))

    def test_empty_graph_is_valid(self):
        g = build_graph(builtin_qr_spec(), 1, 1)
        dot = emit_dot(g)
        assert dot.startswith("digraph dataflow {")
        assert dot.rstrip().endswith("}")
        assert "->" not in dot


class TestStats:
    def test_counts_at_4x4(self):
        g = build_graph(builtin_qr_spec(), 4, 4)
        stats = graph_stats(g)
        assert stats["x_nodes"] == 6
        assert stats["y_nodes"] == 20
        assert stats["cs_edges"] == 20  # one logical pair per update node

    def test_all_zero_for_1x1(self):
        stats = graph_stats(build_graph(builtin_qr_spec(), 1, 1))
        assert all(v == 0 for v in stats.values())

    def test_critical_path_brute_force(self):
        g = build_graph(builtin_qr_spec(), 4, 4)
        succs = {node: [] for node in range(len(g.nodes))}
        for source, sink, _, _ in g.edges:
            if len(source) == 2:  # a producer, not a memory load
                succs[source[0]].append(sink)
        memo = {}

        def longest(node):
            if node not in memo:
                memo[node] = 1 + max((longest(s) for s in succs[node]), default=0)
            return memo[node]

        expected = max(longest(node) for node in range(len(g.nodes)))
        assert graph_stats(g)["critical_path_length"] == expected

    def test_json_dump_deterministic(self):
        g = build_graph(builtin_qr_spec(), 4, 4)
        assert graph_to_json(g) == graph_to_json(build_graph(builtin_qr_spec(), 4, 4))


class TestRelayView:
    def test_head_keeps_direct_edge(self):
        """A chain head receives its producer's own c and s, so it is no relay hop."""
        g = relay_view(build_graph(builtin_qr_spec(), 4, 4))
        node = g.ids["Y"][(1, 4, 2)]
        assert node not in g.relay_from
        cs = [source for source, _, pattern in in_edges(g, node) if pattern == "cs"]
        x = g.ids["X"][(1, 4)]
        assert cs == [(x, 0), (x, 1)]

    def test_interior_takes_neighbour(self):
        g = relay_view(build_graph(builtin_qr_spec(), 4, 4))
        node = g.ids["Y"][(1, 4, 3)]
        cs = [source for source, _, pattern in in_edges(g, node) if pattern == "cs"]
        assert cs[0] == (g.ids["Y"][(1, 4, 2)], None)

    def test_evaluation_follows_the_chains(self):
        for m, n in [(4, 4), (6, 3), (5, 6)]:
            g = build_graph(builtin_qr_spec(), m, n)
            aug = make_aug(m, n)
            expected = evaluate_graph(g, aug).inner.data
            assert evaluate_graph(relay_view(g), aug).inner.data == expected

    def test_update_in_degree_drops_to_three(self):
        """On a relay hop the pair is one edge; a chain head keeps its c and s edges."""
        g = relay_view(build_graph(builtin_qr_spec(), 4, 4))
        hops = g.relay_from
        for i, node in enumerate(g.nodes):
            if node.func == "Y":
                assert len(in_edges(g, i)) == (3 if i in hops else 4)
        assert len(hops) == 14  # 20 update nodes, 6 of them chain heads


class TestGraphEvaluation:
    @pytest.mark.parametrize("m,n", [(4, 4), (6, 4), (8, 8), (2, 2), (5, 1), (3, 5)])
    def test_bitwise_match_with_reference(self, m, n):
        for seed in range(3):
            aug = make_aug(m, n, seed)
            expected = qr_givens_reference(aug).r_aug
            g = build_graph(builtin_qr_spec(), m, n)
            actual = evaluate_graph(g, aug)
            assert actual.inner.data == expected.inner.data

    def test_input_snapshot_not_mutated(self):
        aug = make_aug(4, 4)
        before = list(aug.inner.data)
        evaluate_graph(build_graph(builtin_qr_spec(), 4, 4), aug)
        assert aug.inner.data == before
