"""Base combinatorics: validation, medians, intervals, walls, convexity, hulls."""

import contextlib
import copy
import io
import pickle
import re
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import MEDIAN_FIXTURES, draw_product_or_wedge
from test_hyperclosure import drawn_complexes
from cubemedian import (
    MedianComplex,
    StructuralError,
    InvariantViolation,
    Violation,
    __version__,
    all_convex_subcomplexes,
    analyze,
    box,
    dimension,
    grid,
    hull,
    hyperclosure,
    interval,
    is_convex,
    median,
    orth,
    product_region,
    project,
    random_median,
    subcomplex,
    theta_classes,
    tree,
    validate,
    whole_complex,
)
from cubemedian import _nonmedian, carrier, comb_side, core
from cubemedian.cli import run
from cubemedian.generators import generate, parse_spec
from cubemedian.io import save_complex
from cubemedian.rng import SplitMix64


def _square_gap(cx):
    """The first triple (z^i, z^j, w), sorted, whose majority z^i^j is
    missing, found by the square scan of `validate`; None if there is none."""
    return cx._squares.gap


def members(mask):
    """Vertex indices of a bitmask."""
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


class TestStructural:
    def test_loop_rejected(self):
        with pytest.raises(StructuralError):
            MedianComplex(2, [(0, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(StructuralError):
            MedianComplex(2, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(StructuralError):
            MedianComplex(2, [(0, 2)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(StructuralError):
            MedianComplex(-1, [])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_neighbours_sorted(self, data):
        # appended along the sorted edge list, whatever order the edges came in
        n = data.draw(st.integers(1, 12))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                   .filter(lambda e: e[0] < e[1]), unique=True))
        edges = [(v, u) if data.draw(st.booleans()) else (u, v)
                 for u, v in data.draw(st.permutations(pairs))]
        cx = MedianComplex(n, edges)
        for v in range(n):
            assert cx.neighbors[v] == tuple(sorted({*(b for a, b in pairs if a == v),
                                                   *(a for a, b in pairs if b == v)}))


def component_of_zero(n, edges):
    """The connected component of vertex 0, relabelled 0..m-1 in order."""
    nbrs = {v: [] for v in range(n)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    index = {v: i for i, v in enumerate(sorted(seen))}
    return MedianComplex(len(index), [(index[u], index[v]) for u, v in edges
                                      if u in index and v in index])


@st.composite
def grid_edge_subsets(draw):
    """A grid of at most 16 vertices with a few edges removed (bipartite),
    cut down to the component of vertex 0."""
    w = draw(st.integers(1, 3))
    h = draw(st.integers(1, 3))
    index = {(i, j): i * (h + 1) + j for i in range(w + 1) for j in range(h + 1)}
    edges = [(index[c], index[(c[0] + 1, c[1])]) for c in index if c[0] < w]
    edges += [(index[c], index[(c[0], c[1] + 1)]) for c in index if c[1] < h]
    drop = draw(st.sets(st.integers(0, len(edges) - 1), max_size=4))
    return component_of_zero(len(index), [e for i, e in enumerate(edges) if i not in drop])


def induced_hypercube_subgraph(dim, chosen):
    """The subgraph of the dim-cube induced by the vertex set chosen, which
    holds vertex 0, cut down to the component of vertex 0."""
    chosen = sorted(chosen)
    index = {v: i for i, v in enumerate(chosen)}
    edges = [(index[a], index[b]) for a in chosen for b in chosen
             if a < b and (a ^ b).bit_count() == 1]
    return component_of_zero(len(chosen), edges)


@st.composite
def induced_hypercube_subgraphs(draw, dim=4):
    """induced_hypercube_subgraph on vertex 0 plus a drawn set, or on the
    whole cube minus a drawn set, so that small pieces, large pieces and the
    whole cube are all drawn."""
    top = (1 << dim) - 1
    picked = draw(st.sets(st.integers(1, top), max_size=top))
    chosen = picked | {0} if draw(st.booleans()) else set(range(top + 1)) - picked
    return induced_hypercube_subgraph(dim, chosen)


class TestValidate:
    def test_q2_passes(self, q2):
        assert validate(q2).passed

    def test_k3_fails_bipartite(self, k3):
        report = validate(k3)
        assert not report.passed
        assert any(f.invariant == "bipartite" and "odd cycle" in f.witness
                   for f in report.failures)

    def test_c6_fails_median(self, c6):
        report = validate(c6)
        assert not report.passed
        fail = next(f for f in report.failures if f.invariant == "unique-median")
        # the witness triple really has no median
        triple = eval(fail.witness.split(" has ")[0].replace("triple ", ""))
        assert oracles.medians_by_paths(c6, *triple) == set()

    @settings(max_examples=100, deadline=None)
    @given(cx=induced_hypercube_subgraphs(5))
    @example(cx=induced_hypercube_subgraph(3, range(7)))
    @example(cx=induced_hypercube_subgraph(5, (0, 1, 3, 7, 6, 4, 16)))
    # split classes that are not transitive: the square scan finds a gap
    # whose triple has a median by graph distance
    @example(cx=induced_hypercube_subgraph(
        5, [0, 4, 7, 9, 10, 12, 15, 16, 17, 18, 19, 20, 21, 22, 24, 29, 30, 31]))
    @example(cx=induced_hypercube_subgraph(
        5, [0, 1, 8, 9, 12, 15, 16, 17, 18, 20, 21, 23, 24, 26, 28, 29, 31]))
    def test_non_median_witness(self, cx):
        """validate() fails exactly the drawn pieces of the 5-cube that the
        table oracle fails; a pair it names as off the metric has a graph
        distance other than its wall count; and on every failing piece that
        is a partial cube it reports a unique-median triple that really has
        no median."""
        report = validate(cx)
        assert report.passed == oracles.table_validate(cx).passed
        invariants = {f.invariant for f in report.failures}
        for f in report.failures:
            pair = re.fullmatch(r"vertices (\d+) and (\d+) are (\d+) edges but (\d+) walls apart",
                                f.witness)
            if pair:
                u, v, d, walls = map(int, pair.groups())
                assert f.invariant == "partial-cube" and u < v
                assert oracles.nx_distances(cx)[u][v] == d != walls == cx.distance(u, v)
        if not report.passed and not invariants & {"wall-relation", "partial-cube"}:
            fail = next(f for f in report.failures if f.invariant == "unique-median")
            triple = eval(fail.witness.split(" has ")[0].replace("triple ", ""))
            assert oracles.medians_by_paths(cx, *triple) == set()

    def test_all_fixtures_pass(self, q2, p3, g33, box222, st2, st3, tree8, rm451):
        for cx in (q2, p3, g33, box222, st2, st3, tree8, rm451):
            assert cx.validated


NOT_MEDIAN = "no vertex has the required signs (the graph is not median)"


def run_quietly(argv):
    """cli.run with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestNonMedianStopsAtTheFirstSide:
    """Without validation, a non-median graph that has wall classes stops at
    `core._certified` with the not-median line: the closure at its first
    hyperplane side, and verify before its first case, the gates suite too."""

    @settings(max_examples=150, deadline=None)
    @given(cx=induced_hypercube_subgraphs(5))
    @example(cx=induced_hypercube_subgraph(3, (0, 1, 3, 7, 6, 4)))  # C6
    @example(cx=induced_hypercube_subgraph(3, range(7)))
    def test_induced_5cube_subgraphs(self, cx):
        if validate(cx).passed:
            return
        try:
            classes = cx.classes
        except InvariantViolation:
            return  # no wall classes: the run stops at those instead
        event("non-median with wall classes")
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "cx.json")
            save_complex(cx, path)
            for argv in (["analyze"], ["oracle"], ["verify", "--suite", "gates", "--cases", "40"]):
                assert run_quietly([argv[0], path, "--no-validate", *argv[1:]]) == (
                    1, "", f"error: invariant violation: {NOT_MEDIAN}\n")
        for h in classes:
            for read in (lambda: comb_side(h, -1), lambda: comb_side(h, 1),
                         lambda: carrier(h)):
                with pytest.raises(InvariantViolation, match=re.escape(NOT_MEDIAN)):
                    read()

    def test_certified_gate(self, q2, single_vertex, c6, k3):
        assert core._certified(q2) is None and core._certified(single_vertex) is None
        for cx in (c6, MedianComplex(0, [])):
            with pytest.raises(InvariantViolation, match=re.escape(NOT_MEDIAN)):
                core._certified(cx)
        with pytest.raises(InvariantViolation, match="not bipartite"):
            core._certified(k3)

    def test_vertex_at_names_the_cause(self, c6, q2):
        missing = next(w for w in range(1 << len(c6.classes)) if w not in c6.by_sign)
        with pytest.raises(InvariantViolation, match=re.escape(NOT_MEDIAN)):
            c6.vertex_at(missing)
        with pytest.raises(InvariantViolation, match="no vertex has sign vector 0b100$"):
            q2.vertex_at(0b100)


class TestValidateOracle:
    """validate() agrees with the table-based validation it replaced."""

    @staticmethod
    def agrees(cx):
        """validate() passes iff the table oracle does, and once the graph is a
        partial cube, the square check finds a gap iff the majority scan does."""
        report = validate(cx)
        assert report.passed == oracles.table_validate(cx).passed
        invariants = {f.invariant for f in report.failures}
        if not invariants & {"connected", "bipartite", "wall-relation", "partial-cube"}:
            assert (_square_gap(cx) is None) == (oracles.majority_gap(cx.signs) is None)

    def test_fixtures(self, q2, p3, g33, box222, st2, st3, tree8, rm451, single_vertex,
                      k3, c6):
        for cx in (q2, p3, g33, box222, st2, st3, tree8, rm451, single_vertex, k3, c6):
            self.agrees(cx)

    @pytest.mark.parametrize("n,edges,passed", [
        (3, [(0, 1), (1, 2), (0, 2)], False),                                  # K3
        (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], False),          # C6
        (5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)], False),          # K2,3
        (4, [(0, 1), (2, 3)], False),                                          # disconnected
        # K2,4: its wall classes give vertices 1 and 2 one sign vector
        (6, [(0, 4), (0, 5), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)], False),
        # majority-closed sign vectors, but vertices 3 and 4 are one wall
        # apart and not adjacent
        (8, [(0, 5), (0, 6), (0, 7), (1, 4), (1, 5), (1, 6), (2, 4), (2, 6), (2, 7),
             (3, 5), (3, 7)], False),
        # the 3-cube minus vertex 7: 3, 5 and 6 have majority 7
        (7, [(a, b) for a in range(7) for b in range(a + 1, 7) if (a ^ b).bit_count() == 1],
         False),
        # C6 (0-3-6-8-10-11) with a pendant vertex at each cycle vertex,
        # numbered between its two cycle neighbours: every failing square
        # pairs the first and last neighbour of its vertex
        (12, [(0, 3), (3, 6), (6, 8), (8, 10), (10, 11), (0, 11),
              (0, 5), (1, 3), (4, 6), (7, 8), (9, 10), (2, 11)], False),
    ])
    def test_non_median(self, n, edges, passed):
        cx = MedianComplex(n, edges)
        assert oracles.table_validate(cx).passed is passed
        assert validate(cx).passed is passed
        self.agrees(cx)

    def test_k23_names_the_wall_relation(self):
        k23 = MedianComplex(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        assert [f.invariant for f in validate(k23).failures] == ["wall-relation"]

    @settings(max_examples=80, deadline=None)
    @given(cx=grid_edge_subsets())
    def test_grid_edge_subsets(self, cx):
        self.agrees(cx)

    @settings(max_examples=80, deadline=None)
    @given(cx=induced_hypercube_subgraphs())
    @example(cx=induced_hypercube_subgraph(4, range(16)))
    def test_induced_hypercube_subgraphs(self, cx):
        self.agrees(cx)

    @settings(max_examples=150, deadline=None)
    @given(cx=induced_hypercube_subgraphs(5))
    @example(cx=induced_hypercube_subgraph(5, range(32)))
    def test_induced_5cube_subgraphs(self, cx):
        """The 5-cube holds a 3-cube minus a vertex inside larger pieces,
        which the 4-cube family rarely reaches."""
        self.agrees(cx)


def relabelled(cx, perm):
    """A fresh copy of cx with vertex v renamed perm[v]; nothing cached."""
    return MedianComplex(cx.vertex_count, [(perm[u], perm[v]) for u, v in cx.edges])


def assert_walls_match_oracles(cx):
    """Dual edge groups in order, halfspaces, combinatorial sides and signs
    equal those read off BFS distance tables, and the groups equal the
    square closure."""
    dist = oracles.table_distances(cx)
    groups = oracles.table_wall_classes(cx, dist)
    assert [h.dual_edges for h in cx.classes] == groups
    assert sorted(frozenset(h.dual_edges) for h in cx.classes) == oracles.theta_by_squares(cx)
    sides = oracles.table_halfspaces(cx, dist, groups)
    assert [(h.side_minus_mask, h.side_plus_mask) for h in cx.classes] == sides
    for h in cx.classes:
        ends = sum((1 << u) | (1 << v) for u, v in h.dual_edges)
        assert tuple(oracles.vertex_mask(s.vertices) for s in h.comb_sides) == (
            ends & h.side_minus_mask, ends & h.side_plus_mask)
    assert cx.signs == tuple(sum(1 << i for i, (_, plus) in enumerate(sides) if (plus >> v) & 1)
                             for v in range(cx.vertex_count))


def draw_median(data):
    """A drawn random_median, product or wedge complex, relabelled by a drawn
    vertex permutation, since class numbering follows vertex ids."""
    if data.draw(st.booleans()):
        dim = data.draw(st.integers(1, 5))
        count = data.draw(st.integers(1, min(10, 1 << dim)))
        cx = random_median(dim, count, seed=data.draw(st.integers(0, 2**64 - 1)))
    else:
        cx = draw_product_or_wedge(data)
    return relabelled(cx, data.draw(st.permutations(range(cx.vertex_count))))


class TestOneCertificate:
    """validate() and the walls share one 2-colouring and one sign index."""

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_two_colour_runs_once(self, name, request):
        cx = request.getfixturevalue(name)
        fresh = relabelled(cx, range(cx.vertex_count))
        with mock.patch.object(core, "_two_colour", wraps=core._two_colour) as spy:
            assert validate(fresh).passed
            assert len(fresh.by_sign) == len(fresh.signs) == fresh.vertex_count
        assert spy.call_count == 1

    def test_odd_cycle_from_the_shared_colouring(self, k3):
        with mock.patch.object(core, "_two_colour", wraps=core._two_colour) as spy:
            report = validate(k3)
            with pytest.raises(InvariantViolation, match="not bipartite"):
                k3.classes
        assert [(f.invariant, f.witness) for f in report.failures] == [
            ("bipartite", "odd cycle [1, 0, 2]")]
        assert spy.call_count == 1

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_by_sign_is_the_certified_index(self, name, request):
        cx = request.getfixturevalue(name)
        fresh = relabelled(cx, range(cx.vertex_count))
        assert validate(fresh).passed
        assert fresh.by_sign is fresh._walls[3]
        assert fresh.by_sign == {s: v for v, s in enumerate(fresh.signs)}

    def test_by_sign_checks_uncertified_signs(self, c6):
        # C6's split classes are not certified; its signs are still injective
        assert c6._walls[3] is None
        assert c6.by_sign == {s: v for v, s in enumerate(c6.signs)}


def no_fallback():
    """Make the class-by-class rule of MedianComplex.classes raise, where
    `core` looks it up when the one-BFS labelling does not certify itself."""
    def fail(cx):
        raise AssertionError("class-by-class rule used")
    return mock.patch.object(_nonmedian, "_classes_by_split", fail)


WRONG_LABELLING_EDGES = [(0, 1), (0, 5), (0, 11), (1, 2), (1, 3), (2, 4), (2, 6), (2, 11),
                         (3, 5), (3, 6), (4, 7), (5, 10), (6, 9), (6, 10), (7, 8), (7, 11),
                         (8, 9), (8, 10), (10, 11)]


class TestWallLabelling:
    """The one-BFS labelling against the table oracles, and proof that median
    input never reaches the class-by-class rule."""

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        cx = request.getfixturevalue(name)
        assert_walls_match_oracles(cx)
        with no_fallback():
            copy = relabelled(cx, range(cx.vertex_count))
            assert validate(copy).passed
            assert_walls_match_oracles(copy)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drawn(self, data):
        with no_fallback():
            cx = draw_median(data)
            assert validate(cx).passed
        assert_walls_match_oracles(cx)

    def test_consistent_wrong_labelling_rejected(self):
        # a bipartite graph on which the one-BFS rule gives signs that flip
        # one bit per edge and are injective, but are not its walls: the
        # square scan rejects them, and the class-by-class rule reports
        # the wall relation
        cx = MedianComplex(12, WRONG_LABELLING_EDGES)
        depth = core._two_colour(cx)[0]
        _, signs = core._label_by_bfs(cx, depth)
        assert len(set(signs)) == cx.vertex_count
        assert [(f.invariant, f.witness) for f in validate(cx).failures] == [
            ("wall-relation", "wall relation is not transitive: witness edges (2,4), (8,9)")]
        assert not oracles.table_validate(cx).passed

    def test_fallback_is_what_the_patch_removes(self, c6):
        # the patched helper is really the path non-median input takes, so
        # the tests under no_fallback() cannot pass without the patch acting
        with no_fallback(), pytest.raises(AssertionError, match="class-by-class rule used"):
            validate(relabelled(c6, range(6)))

    @staticmethod
    def assert_bfs_order(cx):
        """The colouring's visiting order is a BFS order from vertex 0."""
        depth, parent, _, order = cx._colouring
        assert order[0] == 0
        assert sorted(order) == [v for v in range(cx.vertex_count) if depth[v] >= 0]
        assert all(depth[a] <= depth[b] for a, b in zip(order, order[1:]))
        position = {v: k for k, v in enumerate(order)}
        assert all(position[parent[v]] < position[v] for v in order[1:])

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_visiting_order(self, name, request):
        self.assert_bfs_order(request.getfixturevalue(name))

    def test_visiting_order_disconnected(self):
        cx = MedianComplex(7, [(0, 3), (3, 5), (0, 6), (1, 2), (2, 4)])
        self.assert_bfs_order(cx)
        assert sorted(cx._colouring[3]) == [0, 3, 5, 6]

    def test_tree_2000(self):
        cx = tree(2000, seed=1)
        with no_fallback():
            copy = relabelled(cx, range(cx.vertex_count))
            assert validate(copy).passed
        assert len(copy.classes) == 1999 and dimension(copy) == 1


@st.composite
def random_bipartite_graphs(draw):
    """Edges drawn between two colour classes of 1..6 vertices, cut down to the
    component of vertex 0 and relabelled by a drawn permutation."""
    left, right = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pairs = [(a, left + b) for a in range(left) for b in range(right)]
    cx = component_of_zero(left + right, draw(st.lists(st.sampled_from(pairs), unique=True)))
    return relabelled(cx, draw(st.permutations(range(cx.vertex_count))))


@st.composite
def holed_grids(draw):
    """grid(w,h), w,h <= 6, minus a drawn set of vertices other than 0, cut
    down to the component of vertex 0."""
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    index = {(i, j): i * (h + 1) + j for i in range(w + 1) for j in range(h + 1)}
    holes = draw(st.sets(st.integers(1, len(index) - 1), max_size=4))
    edges = [(index[c], index[d]) for c in index for d in ((c[0] + 1, c[1]), (c[0], c[1] + 1))
             if d in index and index[c] not in holes and index[d] not in holes]
    return component_of_zero(len(index), edges)


def split_outcome(split, cx):
    """A split rule's class ids, dual edges, sides and signs, or its message."""
    try:
        classes, signs = split(cx)
    except InvariantViolation as exc:
        return str(exc)
    return [(h.class_id, h.dual_edges, h.side_minus_mask, h.side_plus_mask)
            for h in classes], signs


class TestSplitRule:
    """The class-by-class rule, labelling edges for the shared tail, against
    the rule that built its own halfspaces and signs; and on median input,
    against the one-BFS labelling."""

    @staticmethod
    def agrees(cx):
        got = split_outcome(_nonmedian._classes_by_split, cx)
        assert got == split_outcome(oracles.mask_split_classes, cx)
        return "not transitive" if isinstance(got, str) else "classes"

    @pytest.mark.parametrize("n,edges", [
        (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),                  # C6
        (5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),                  # K2,3
        (12, WRONG_LABELLING_EDGES),
    ])
    def test_named_graphs(self, n, edges):
        self.agrees(MedianComplex(n, edges))

    def test_holed_grid(self):
        g = grid(8, 8)
        centre = next(v for v, lab in g.labels.items() if lab == (4, 4))
        cx = MedianComplex(80, [(u - (u > centre), v - (v > centre)) for u, v in g.edges
                                if centre not in (u, v)])
        assert not validate(cx).passed
        self.agrees(cx)

    @settings(max_examples=100, deadline=None)
    @given(cx=induced_hypercube_subgraphs(4))
    def test_induced_4cube_subgraphs(self, cx):
        event(self.agrees(cx))

    @settings(max_examples=100, deadline=None)
    @given(cx=induced_hypercube_subgraphs(5))
    def test_induced_5cube_subgraphs(self, cx):
        event(self.agrees(cx))

    @settings(max_examples=100, deadline=None)
    @given(cx=random_bipartite_graphs())
    def test_random_bipartite(self, cx):
        event(self.agrees(cx))

    @settings(max_examples=60, deadline=None)
    @given(cx=holed_grids())
    def test_holed_grids(self, cx):
        event(self.agrees(cx))

    def test_tail_refuses_an_inconsistent_labelling(self, q2):
        # one class per edge of a square: the edge off the BFS tree flips three bits
        cx = relabelled(q2, range(4))
        depth = cx._colouring[0]
        label = {(a, b) if depth[a] < depth[b] else (b, a): i for i, (a, b) in enumerate(cx.edges)}
        assert core._walls_from_labels(cx, depth, label) is None

    @staticmethod
    def same_as_bfs(cx):
        bfs = split_outcome(lambda c: core._label_by_bfs(c, c._colouring[0]), cx)
        assert split_outcome(_nonmedian._classes_by_split, cx) == bfs
        assert bfs == split_outcome(lambda c: (c.classes, c.signs), cx)

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_median_fixtures(self, name, request):
        self.same_as_bfs(request.getfixturevalue(name))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_drawn_median(self, data):
        self.same_as_bfs(draw_median(data))


def tail_labellings(cx):
    """The edge labellings that the two rules of MedianComplex.classes pass
    to `_walls_from_labels` on cx: the one-BFS rule's when it gets that far,
    and the class-by-class rule's unless it finds the relation intransitive."""
    spy = mock.Mock(wraps=core._walls_from_labels)
    with mock.patch.object(core, "_walls_from_labels", spy), \
            mock.patch.object(_nonmedian, "_walls_from_labels", spy):
        core._label_by_bfs(cx, cx._colouring[0])
        with contextlib.suppress(InvariantViolation):
            _nonmedian._classes_by_split(cx)
    return [call.args[2] for call in spy.call_args_list]


def tail_outcome(walls):
    """A tail result's class ids, dual edges, sides and signs, or None."""
    if walls is None:
        return None
    classes, signs = walls
    return [(h.class_id, h.dual_edges, h.side_minus_mask, h.side_plus_mask)
            for h in classes], signs


class TestSubtreeHalfspaces:
    """The wall tail, walking one BFS order and folding subtree masks, against
    the tail that sorted by depth and transposed the relative signs bit by
    bit: the same classes and signs on every labelling the rules produce,
    and None from both on labellings the tail refuses."""

    @staticmethod
    def agrees(cx, label):
        depth = cx._colouring[0]
        got = tail_outcome(core._walls_from_labels(cx, depth, label))
        assert got == tail_outcome(oracles.transposed_halfspaces(cx, depth, label))
        return "refused" if got is None else "classes"

    def check(self, cx, rng=None):
        labellings = tail_labellings(cx)
        assert labellings
        for label in labellings:
            self.agrees(cx, label)

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_median_fixtures(self, name, request):
        self.check(request.getfixturevalue(name))

    test_random_median, test_products_and_wedges = drawn_complexes(check)

    @pytest.mark.parametrize("n,edges", [
        (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),                  # C6
        (5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),                  # K2,3
        (12, WRONG_LABELLING_EDGES),
    ])
    def test_named_non_median(self, n, edges):
        self.check(MedianComplex(n, edges))

    def test_holed_grid(self):
        g = grid(8, 8)
        centre = next(v for v, lab in g.labels.items() if lab == (4, 4))
        self.check(MedianComplex(80, [(u - (u > centre), v - (v > centre)) for u, v in g.edges
                                      if centre not in (u, v)]))

    @settings(max_examples=60, deadline=None)
    @given(cx=st.one_of(induced_hypercube_subgraphs(4), induced_hypercube_subgraphs(5),
                        random_bipartite_graphs(), holed_grids()))
    def test_drawn_non_median(self, cx):
        for label in tail_labellings(cx):
            event(self.agrees(cx, label))

    def test_refused_by_both(self, q2, g33):
        # one class per edge: every edge off the BFS tree flips more than its own bit
        for cx in (q2, g33):
            depth = cx._colouring[0]
            label = {(a, b) if depth[a] < depth[b] else (b, a): i
                     for i, (a, b) in enumerate(cx.edges)}
            assert self.agrees(cx, label) == "refused"

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_drawn_labellings(self, data):
        # arbitrary labels on a median complex's edges: many are refused
        cx = draw_median(data)
        depth = cx._colouring[0]
        label = {(a, b) if depth[a] < depth[b] else (b, a): data.draw(st.integers(0, 3))
                 for a, b in cx.edges}
        event(self.agrees(cx, label))


class TestCrossingAndDimension:
    """The crossing table from squares and the dimension as the largest set of
    pairwise crossing walls, against the quadrant and neighbour scans they
    replaced."""

    @staticmethod
    def agrees(cx):
        assert cx.crossing_masks == oracles.quadrant_crossing_masks(cx)
        assert dimension(cx) == oracles.neighbour_square_dimension(cx)

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        self.agrees(request.getfixturevalue(name))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drawn(self, data):
        self.agrees(draw_median(data))

    @pytest.mark.parametrize("spec", ["staircase(10)", "glued_staircase_ray(5)", "box(3,3,3)",
                                      "random_median(6,10,seed=3)", "box(1,1,1,1,1)"])
    def test_bench_sized(self, spec):
        self.agrees(generate(parse_spec(spec)))


class TestMedian:
    def test_q2_examples(self, q2):
        assert median(q2, 0, 1, 2) == 0

    def test_p3_midpoint(self, p3):
        assert median(p3, 0, 1, 2) == 1

    def test_degenerate(self, q2, st2):
        for cx in (q2, st2):
            for x in range(cx.vertex_count):
                for y in range(cx.vertex_count):
                    assert median(cx, x, x, y) == x

    def test_symmetry_all_permutations(self, st2):
        from itertools import combinations, permutations
        for x, y, z in combinations(range(st2.vertex_count), 3):
            values = {median(st2, *p) for p in permutations((x, y, z))}
            assert len(values) == 1

    @pytest.mark.parametrize("bad", [-1, 9, 10])
    def test_vertex_out_of_range(self, g33, bad):
        for args in ((bad, 0, 1), (0, bad, 1), (0, 1, bad)):
            with pytest.raises(ValueError, match="vertex index out of range"):
                median(g33, *args)

    def test_against_path_oracle(self, st2, rm451):
        from itertools import combinations
        for cx in (st2, rm451):
            for x, y, z in combinations(range(cx.vertex_count), 3):
                assert oracles.medians_by_paths(cx, x, y, z) == {median(cx, x, y, z)}


class TestInterval:
    def test_q2_diagonal(self, q2):
        assert interval(q2, 0, 3) == {0, 1, 2, 3}

    def test_p3_endpoints(self, p3):
        assert interval(p3, 0, 2) == {0, 1, 2}

    def test_reflexive(self, st2):
        for x in range(st2.vertex_count):
            assert interval(st2, x, x) == {x}

    @pytest.mark.parametrize("bad", [-1, 9, 10])
    def test_distance_out_of_range(self, g33, bad):
        for u, v in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match="vertex index out of range"):
                g33.distance(u, v)

    def test_distances_match_networkx(self, st3, box222):
        for cx in (st3, box222):
            nxd = oracles.nx_distances(cx)
            for u in range(cx.vertex_count):
                for v in range(cx.vertex_count):
                    assert cx.distance(u, v) == nxd[u][v]


class TestThetaClasses:
    def test_q2(self, q2):
        classes = theta_classes(q2)
        assert len(classes) == 2
        assert all(len(h.dual_edges) == 2 for h in classes)

    def test_p3(self, p3):
        classes = theta_classes(p3)
        assert len(classes) == 2
        assert all(len(h.dual_edges) == 1 for h in classes)

    def test_st2_has_four(self, st2):
        assert len(theta_classes(st2)) == 4

    def test_matches_square_closure(self, q2, p3, g33, st2, st3, box222, tree8, rm451):
        for cx in (q2, p3, g33, st2, st3, box222, tree8, rm451):
            ours = sorted(frozenset(h.dual_edges) for h in theta_classes(cx))
            assert ours == oracles.theta_by_squares(cx)

    def test_halfspaces_partition(self, st3):
        for h in theta_classes(st3):
            assert h.side_minus_mask | h.side_plus_mask == st3.full_mask
            assert not h.side_minus_mask & h.side_plus_mask
            for u, v in h.dual_edges:
                assert (h.side_minus_mask >> u) & 1 != (h.side_minus_mask >> v) & 1

    def test_canonical_numbering(self, st3):
        classes = theta_classes(st3)
        least = [min(h.dual_edges) for h in classes]
        assert least == sorted(least)
        for h in classes:
            u0 = min(h.dual_edges)[0]
            assert (h.side_minus_mask >> u0) & 1

    def test_nontransitive_raises(self):
        k23 = MedianComplex(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        with pytest.raises(InvariantViolation):
            theta_classes(k23)


class TestConvexity:
    def test_edge_is_convex(self, q2):
        assert is_convex(q2, [0, 1])

    def test_corner_path_is_not(self, q2):
        assert not is_convex(q2, [1, 0, 2])

    def test_empty_rejected(self, q2):
        with pytest.raises(ValueError):
            is_convex(q2, [])

    def test_halfspaces_convex(self, q2, p3, st2, st3, box222, rm451):
        for cx in (q2, p3, st2, st3, box222, rm451):
            for h in theta_classes(cx):
                for side in (members(h.side_minus_mask), members(h.side_plus_mask)):
                    assert is_convex(cx, side)
                    assert oracles.nx_is_convex(cx, side)

    def test_comb_sides_convex(self, q2, p3, st2, st3, box222, rm451):
        for cx in (q2, p3, st2, st3, box222, rm451):
            for h in theta_classes(cx):
                for side in h.comb_sides:
                    assert is_convex(cx, side.vertices)
                    assert oracles.nx_is_convex(cx, side.vertices)


class TestHull:
    def test_q2_opposite_corners(self, q2):
        assert hull(q2, [1, 2]).vertices == (0, 1, 2, 3)

    def test_idempotent_on_convex(self, st2):
        for verts in oracles.exhaustive_convex_subsets(st2):
            assert hull(st2, verts).vertices == verts

    def test_st2_corner_pair(self, st2):
        from conftest import by_label
        idx = by_label(st2)
        pts = [idx[(0, 0)], idx[(2, 1)]]
        assert hull(st2, pts).vertices == oracles.brute_hull(st2, pts)

    def test_matches_brute_force(self, q2, p3, st2, tree8, rm451):
        rng = SplitMix64(20240817)
        for cx in (q2, p3, st2, tree8, rm451):
            for _ in range(60):
                k = 1 + rng.randrange(min(4, cx.vertex_count))
                pts = rng.sample(range(cx.vertex_count), k)
                assert hull(cx, pts).vertices == oracles.brute_hull(cx, pts)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_closure_operator(self, st2, data):
        n = st2.vertex_count
        s = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        t = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        hs = hull(st2, s)
        # extensive, idempotent, monotone
        assert s <= set(hs.vertices)
        assert hull(st2, hs.vertices) == hs
        if s <= t:
            assert set(hs.vertices) <= set(hull(st2, t).vertices)


class TestDimension:
    def test_examples(self, p3, q2, box222, single_vertex, tree8, st3):
        assert dimension(p3) == 1
        assert dimension(q2) == 2
        assert dimension(box222) == 3
        assert dimension(single_vertex) == 0
        assert dimension(tree8) == 1
        assert dimension(st3) == 2


class TestConvexEnumeration:
    def test_matches_subset_scan(self, q2, p3, st2, tree8, rm451):
        for cx in (q2, p3, st2, tree8, rm451):
            ours = [s.vertices for s in all_convex_subcomplexes(cx)]
            assert sorted(ours) == sorted(oracles.exhaustive_convex_subsets(cx))

    def test_box_counts_closed_form(self, g33, box222):
        # convex subcomplexes of a product of paths are boxes of subpaths
        assert len(all_convex_subcomplexes(g33)) == 6 * 6
        assert len(all_convex_subcomplexes(box222)) == 6 * 6 * 6


def permuted(cx, seed):
    """Relabel a complex by a random vertex permutation."""
    rng = SplitMix64(seed)
    perm = rng.sample(range(cx.vertex_count), cx.vertex_count)
    edges = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in cx.edges]
    out = MedianComplex(cx.vertex_count, edges)
    assert validate(out).passed
    return out


class TestRelabelingInvariance:
    # vertex numbering carries no geometry; nothing may depend on index order
    def test_cycle_labeled_square(self):
        cyc = MedianComplex(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert validate(cyc).passed
        for h in theta_classes(cyc):
            for side in h.comb_sides:
                assert is_convex(cyc, side.vertices)

    def test_permuted_fixtures(self, q2, st2, rm451, tree8):
        from cubemedian import hyperclosure, oracle_hyperclosure
        for base in (q2, st2, rm451, tree8):
            for seed in (1, 2, 3):
                cx = permuted(base, seed)
                for h in theta_classes(cx):
                    for side in h.comb_sides:
                        assert is_convex(cx, side.vertices)
                closure = hyperclosure(cx)
                assert oracle_hyperclosure(cx) == closure.member_set
                assert len(closure) == len(hyperclosure(base))


class TestSubcomplex:
    def test_canonical_form(self, q2):
        assert subcomplex(q2, [3, 1, 1]).vertices == (1, 3)

    def test_check_flag(self, q2):
        with pytest.raises(ValueError):
            subcomplex(q2, [1, 2])

    def test_equality_is_vertex_equality(self, q2):
        assert subcomplex(q2, [0, 1]) == subcomplex(q2, (1, 0))
        assert subcomplex(q2, [0, 1]) != subcomplex(q2, [0, 2])

    def test_membership_outside_vertex_range(self, q2):
        whole = subcomplex(q2, range(4))
        assert [v in whole for v in (-4, -1, 0, 3, 4)] == [False, False, True, True, False]

    def test_key_is_immutable_and_hashed_by_its_ints(self, q2):
        s = subcomplex(q2, [0, 1])
        key = (s.crossing_mask, s.base)
        assert s.vertices == (0, 1)
        for name in ("crossing_mask", "base", "parent"):
            with pytest.raises(AttributeError):
                setattr(s, name, 0)
        assert (s.crossing_mask, s.base) == key and s.parent is q2
        assert hash(s) == hash(key)

    def test_record_reprs(self, st2):
        """The reprs these records had as dataclasses."""
        closure = hyperclosure(st2)
        member = closure.members[3]
        assert repr(member) == "ConvexSubcomplex(crossing_mask=0, base=3)"
        assert repr(closure.derivation[member]) == (
            "Derivation(kind='projection', class_id=0, sign=1, "
            "source=ConvexSubcomplex(crossing_mask=1, base=2))")
        assert repr(parse_spec("product(grid(1,1),tree(5,seed=2))")) == (
            "GeneratorSpec(kind='product', parameters=(GeneratorSpec(kind='grid', "
            "parameters=(1, 1), seed=None), GeneratorSpec(kind='tree', parameters=(5,), "
            "seed=2)), seed=None)")
        assert repr(validate(MedianComplex(0, [])).failures) == (
            "[InvariantFailure(invariant='connected', witness='empty complex')]")
        assert repr(validate(MedianComplex(0, []))) == (
            "ValidationReport(passed=False, failures=[InvariantFailure("
            "invariant='connected', witness='empty complex')])")
        assert repr(Violation("gates", "gate-crossing-law", {"Y": (0, 1)})) == (
            "Violation(suite='gates', invariant='gate-crossing-law', inputs={'Y': (0, 1)})")
        assert repr(product_region(subcomplex(grid(1, 1), [0, 1]), 0)) == (
            "ProductRegion(base=ConvexSubcomplex(crossing_mask=1, base=0), "
            "complement=ConvexSubcomplex(crossing_mask=2, base=0), "
            "region=ConvexSubcomplex(crossing_mask=3, base=0), "
            "coordinates={0: (0, 0), 1: (1, 0), 2: (0, 2), 3: (1, 2)})")
        assert repr(analyze(box(1))) == (
            "AnalysisReport(complex_stats={'vertices': 2, 'edges': 1, 'classes': 1, "
            "'dimension': 1}, hyperclosure_size=3, grade_histogram={0: 1, 1: 2}, "
            "multiplicity={'max': 2, 'histogram': {2: 2}}, longest_chain={'length': 2, "
            "'witness': [[0], [0, 1]]}, oracle_checked=False, oracle_agrees=None, "
            f"tool_version={__version__!r}, spec_echo={{'input': None, 'generator': 'box(1)', "
            "'validated': True, 'max_members': 100000, 'max_grade': 32, "
            "'with_oracle': False})")

    def test_records_are_immutable(self):
        """Assigning any field of a record raises, as it does for a NamedTuple."""
        records = [
            (validate(MedianComplex(0, [])), "passed failures"),
            (Violation("gates", "gate-crossing-law", {"Y": (0, 1)}), "suite invariant inputs"),
            (product_region(subcomplex(grid(1, 1), [0, 1]), 0),
             "base complement region coordinates"),
            (analyze(box(1)), "complex_stats hyperclosure_size grade_histogram multiplicity "
                              "longest_chain oracle_checked oracle_agrees tool_version spec_echo"),
        ]
        for record, names in records:
            for name in names.split():
                with pytest.raises(AttributeError):
                    setattr(record, name, None)


class TestVertexTable:
    """`vertices` is the per-key sign filter's tuple, filtered once per
    complex and key: equal keys built separately are one object."""

    @staticmethod
    def check(cx):
        for s in all_convex_subcomplexes(cx):
            assert s.vertices == oracles.sign_filter_vertices(s)
            assert core.ConvexSubcomplex(cx, s.crossing_mask, s.base).vertices is s.vertices

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        self.check(request.getfixturevalue(name))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drawn(self, data):
        self.check(draw_median(data))

    def test_equal_keys_in_two_complexes(self):
        # the q2/p3 pair of test_other_complex_rejected, built fresh so that
        # no key is interned yet: equal ints name unrelated vertex sets
        q2, p3 = grid(1, 1), box(2)
        pairs = [(subcomplex(q2, [0, 1]), subcomplex(p3, [0, 1])),
                 (whole_complex(q2), whole_complex(p3))]
        for s, t in pairs:
            assert (s.crossing_mask, s.base) == (t.crossing_mask, t.base)
        for s, t in pairs + [(t, s) for s, t in pairs]:
            for u in (s, t):
                fresh = core.ConvexSubcomplex(u.parent, u.crossing_mask, u.base)
                assert fresh.vertices == oracles.sign_filter_vertices(u)
        assert whole_complex(q2).vertices == (0, 1, 2, 3)
        assert whole_complex(p3).vertices == (0, 1, 2)

    def test_empty_filter_raises_on_every_read(self, c6):
        # unvalidated C6 has sign vectors but misses two of the eight sign
        # words: their keys hold no vertex, and nothing is stored for them
        missing = [w for w in range(1 << len(c6.classes)) if w not in c6.by_sign]
        assert len(missing) == 2
        for base in missing:
            s = core.ConvexSubcomplex(c6, 0, base)
            for key in (s, s, core.ConvexSubcomplex(c6, 0, base)):
                with pytest.raises(InvariantViolation, match="not median"):
                    key.vertices
            assert "vertices" not in s.__dict__


class TestInterning:
    """Each complex holds one object per key: every route to a convex set
    returns that object, and copies and pickles intern their own."""

    @staticmethod
    def check(cx):
        whole = whole_complex(cx)
        for s in all_convex_subcomplexes(cx):
            assert hull(cx, s.vertices) is s
            assert subcomplex(cx, reversed(s.vertices)) is s
            assert core.ConvexSubcomplex(cx, s.crossing_mask, s.base) is s
            assert project(whole, s) is s and project(s, whole) is s
        for v in range(cx.vertex_count):
            assert orth(hull(cx, [v]), v) is whole
        closure = hyperclosure(cx)
        for m in closure.members:
            x = m.vertices[-1]
            assert orth(orth(m, x), x) is m
        ids = {id(m) for m in closure.members}
        assert {id(s) for group in closure.parallel_classes for s in group} == ids
        assert {id(s) for s in closure.grade} == {id(s) for s in closure.derivation} == ids
        assert {id(d.source) for d in closure.derivation.values() if d.source} <= ids

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        self.check(request.getfixturevalue(name))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_drawn(self, data):
        self.check(draw_median(data))

    def test_equal_ints_in_two_complexes_are_two_objects(self, q2, p3):
        for s, t in [(subcomplex(q2, [0, 1]), subcomplex(p3, [0, 1])),
                     (whole_complex(q2), whole_complex(p3))]:
            assert (s.crossing_mask, s.base) == (t.crossing_mask, t.base) and s is not t
            assert core.ConvexSubcomplex(q2, s.crossing_mask, s.base) is s
            assert core.ConvexSubcomplex(p3, s.crossing_mask, s.base) is t

    def test_threads_building_one_key_get_one_object(self):
        # eight threads look up the same keys, new to a fresh complex, in the
        # key table at once; a lost setdefault would hand one thread its own object
        keys = [(s.crossing_mask, s.base) for s in all_convex_subcomplexes(box(1, 1, 1, 1))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                cx = box(1, 1, 1, 1)
                barrier = threading.Barrier(8, timeout=10)
                got = [None] * 8

                def build(i):
                    barrier.wait()
                    got[i] = [cx._keys[key] for key in keys]

                threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                    assert not t.is_alive()
                for j, key in enumerate(keys):
                    assert all(g[j] is cx._keys[key] for g in got)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("clone", ["deepcopy", "pickle"])
    def test_copies_and_pickles(self, clone, st3):
        clone = copy.deepcopy if clone == "deepcopy" else (
            lambda obj: pickle.loads(pickle.dumps(obj)))
        closure = hyperclosure(st3)
        key = closure.members[5]
        assert copy.copy(key) is key
        assert whole_complex(copy.copy(st3)).parent is not st3

        cx = clone(st3)
        assert cx is not st3 and cx.validated
        assert (cx.vertex_count, cx.edges, cx.labels, cx.generator, cx.signs) == (
            st3.vertex_count, st3.edges, st3.labels, st3.generator, st3.signs)

        k = clone(key)
        assert k.parent is not st3 and (k.crossing_mask, k.base) == (key.crossing_mask, key.base)
        assert k.vertices == key.vertices and hull(k.parent, k.vertices) is k

        h = clone(closure)
        cx = h.complex
        assert [m.vertices for m in h.members] == [m.vertices for m in closure.members]
        assert all(m.parent is cx and core.ConvexSubcomplex(cx, m.crossing_mask, m.base) is m
                   for m in h.members)
        assert h.grade[h.members[5]] == closure.grade[key]
        assert {d.source for d in h.derivation.values() if d.source} <= h.member_set
        assert [[m.vertices for m in g] for g in h.parallel_classes] == [
            [m.vertices for m in g] for g in closure.parallel_classes]
