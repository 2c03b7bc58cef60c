"""The hyperclosure: members, grades, limits, agreement with the pairwise
fixpoint oracle, the graded search over keys and the crossing-mask
lattice, multiplicity, chains and clean containers."""

import importlib
import re

import networkx as nx
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conftest import BENCH_SPECS, MEDIAN_FIXTURES, by_label, draw_product_or_wedge
import oracles
from oracles import (
    by_sig_parallel_classes,
    contained_member_pairs,
    containment_chain,
    copies_by_scan,
    crossing_pairs_by_squares,
    fixpoint_hyperclosure,
    gate_product_bijection_ok,
    graded_bfs_hyperclosure,
    lattice_members,
    mask_longest_chain,
    one_sided_orthogonal,
    orth_parallel_copies,
    per_copy_copies_check,
    per_case_gates_suite,
    per_case_orth_suite,
    per_member_maximal,
    vertex_mask,
)
from cubemedian import (
    ConvexSubcomplex,
    InvariantViolation,
    MedianComplex,
    ResourceLimitError,
    all_convex_subcomplexes,
    box,
    carrier,
    clean_container,
    comb_side,
    crossing_signature,
    generate,
    grades_report,
    grid,
    hull,
    hyperclosure,
    longest_chain,
    multiplicity,
    oracle_hyperclosure,
    orth,
    parallel_copies,
    parallel_into,
    parse_spec,
    project,
    random_median,
    save_complex,
    staircase,
    subcomplex,
    theta_classes,
    tree,
    verify,
    whole_complex,
)
from cubemedian import cli, core, gates
from cubemedian.rng import SplitMix64
from cubemedian.verify import _containments

# The fixpoint oracle costs about |F|^2 projections, about a million on the
# full 6-cube (64 vertices, 729 members), so drawn complexes stop below it.
ORACLE_VERTEX_CAP = 48
# copies_by_scan tests all 2^n vertex sets for convexity.
SCAN_VERTEX_CAP = 10
# The graded search over keys costs 2k·|F| projections, so drawn
# complexes stop at this size.
GRADED_BFS_VERTEX_CAP = 200


def closure_key(h):
    """Members in order, grades, derivations and parallel classes, by vertices."""
    def der(d):
        return (d.kind, d.class_id, d.sign, d.source.vertices if d.source else None)
    return ([m.vertices for m in h.members],
            {m.vertices: g for m, g in h.grade.items()},
            {m.vertices: der(d) for m, d in h.derivation.items()},
            [[m.vertices for m in group] for group in h.parallel_classes])


def assert_matches_fixpoint(cx):
    assert closure_key(hyperclosure(cx)) == closure_key(fixpoint_hyperclosure(cx))


class TestFixpoint:
    def test_p3_members(self, p3):
        h = hyperclosure(p3)
        assert [m.vertices for m in h.members] == [(0,), (1,), (2,), (0, 1, 2)]

    def test_q2_members(self, q2):
        h = hyperclosure(q2)
        assert len(h) == 9
        assert [m.vertices for m in h.members] == [
            (0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 3), (2, 3), (0, 1, 2, 3)]

    def test_single_vertex(self, single_vertex):
        h = hyperclosure(single_vertex)
        assert len(h) == 1 and h.members[0] == whole_complex(single_vertex)

    def test_seeds_present(self, st3):
        h = hyperclosure(st3)
        assert whole_complex(st3) in h.member_set
        for hc in theta_classes(st3):
            assert comb_side(hc, -1) in h.member_set
            assert comb_side(hc, +1) in h.member_set
            assert h.grade[comb_side(hc, -1)] == 1

    def test_member_limit(self, st2):
        with pytest.raises(ResourceLimitError) as err:
            hyperclosure(st2, max_members=5)
        assert err.value.limit == "max_members"

    def test_grade_limit(self, st2):
        with pytest.raises(ResourceLimitError) as err:
            hyperclosure(st2, max_grade=1)
        assert err.value.limit == "max_grade"


class TestLimitBoundaries:
    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_max_members_boundary(self, name, request):
        cx = request.getfixturevalue(name)
        size = len(hyperclosure(cx))
        assert len(hyperclosure(cx, max_members=size)) == size
        with pytest.raises(ResourceLimitError) as err:
            hyperclosure(cx, max_members=size - 1)
        assert err.value.limit == "max_members"
        assert f"max_members={size - 1}" in str(err.value)

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_max_grade_boundary(self, name, request):
        cx = request.getfixturevalue(name)
        top = max(hyperclosure(cx).grade.values())
        # the empty level after the top grade must not trip the limit
        assert hyperclosure(cx, max_grade=top).grade == hyperclosure(cx).grade
        with pytest.raises(ResourceLimitError) as err:
            hyperclosure(cx, max_grade=top - 1)
        assert err.value.limit == "max_grade"
        assert f"max_grade={top - 1}" in str(err.value)


class TestFixpointOracleAgreement:
    """The graded search against the pairwise worklist fixpoint it replaced."""

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        assert_matches_fixpoint(request.getfixturevalue(name))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_median(self, data):
        dim = data.draw(st.integers(1, 6))
        count = data.draw(st.integers(1, min(10, 1 << dim)))
        cx = random_median(dim, count, seed=data.draw(st.integers(0, 2**64 - 1)))
        assume(cx.vertex_count <= ORACLE_VERTEX_CAP)
        assert_matches_fixpoint(cx)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_products_and_wedges(self, data):
        cx = draw_product_or_wedge(data)
        assume(cx.vertex_count <= ORACLE_VERTEX_CAP)
        assert_matches_fixpoint(cx)


def assert_matches_graded_bfs(cx):
    h = hyperclosure(cx)
    assert closure_key(h) == closure_key(graded_bfs_hyperclosure(cx))
    # keys are interned and equality is identity: these are the member objects
    assert set(h.grade) == set(h.derivation) == h.member_set
    assert all(d.source in h.member_set for d in h.derivation.values()
               if d.source is not None)


class TestGradedBfsAgreement:
    """The search on int pairs, each side meeting each restriction once,
    against the graded search over keys it replaced."""

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        assert_matches_graded_bfs(request.getfixturevalue(name))

    @pytest.mark.parametrize("spec", BENCH_SPECS)
    def test_bench_complexes(self, spec):
        assert_matches_graded_bfs(generate(parse_spec(spec)))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_median(self, data):
        dim = data.draw(st.integers(1, 8))
        count = data.draw(st.integers(1, min(12, 1 << dim)))
        cx = random_median(dim, count, seed=data.draw(st.integers(0, 2**64 - 1)))
        assume(cx.vertex_count <= GRADED_BFS_VERTEX_CAP)
        assert_matches_graded_bfs(cx)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_products_and_wedges(self, data):
        cx = draw_product_or_wedge(data)
        assume(cx.vertex_count <= GRADED_BFS_VERTEX_CAP)
        assert_matches_graded_bfs(cx)


def limit_outcome(closure, cx, **limit):
    """The limit and message the closure raises under `limit`, or None."""
    try:
        closure(cx, **limit)
    except ResourceLimitError as err:
        return err.limit, str(err)
    return None


class TestLimitsAgreeWithGradedBfs:
    """Both searches find the new keys in the same order, so a limit fires
    at the same key, with the same name and message."""

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_every_max_members(self, name, request):
        cx = request.getfixturevalue(name)
        size = len(hyperclosure(cx))
        for n in range(1, size + 1):
            outcome = limit_outcome(hyperclosure, cx, max_members=n)
            assert outcome == limit_outcome(graded_bfs_hyperclosure, cx, max_members=n)
            assert outcome == (None if n == size else
                               ("max_members", f"hyperclosure exceeds max_members={n}"))

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_every_max_grade(self, name, request):
        cx = request.getfixturevalue(name)
        top = max(hyperclosure(cx).grade.values())
        for g in range(top + 1):
            outcome = limit_outcome(hyperclosure, cx, max_grade=g)
            assert outcome == limit_outcome(graded_bfs_hyperclosure, cx, max_grade=g)
            assert outcome == (None if g == top else
                               ("max_grade", f"hyperclosure grading exceeds max_grade={g}"))

    def test_refused_ingest_run(self):
        """The ingest workload refuses analyze --max-members 64 on grid(16,16)."""
        cx = grid(16, 16)
        outcome = limit_outcome(hyperclosure, cx, max_members=64)
        assert outcome == ("max_members", "hyperclosure exceeds max_members=64")
        assert outcome == limit_outcome(graded_bfs_hyperclosure, cx, max_members=64)


class TestClosureWork:
    """Work guards that count calls, not time."""

    def test_keys_built_grow_with_members(self, monkeypatch):
        # the graded search over keys built 180,898 keys here, one per projection
        cx = tree(300, seed=1)
        built = []
        new = core.ConvexSubcomplex.__new__

        def counting(cls, *args):
            built.append(args)
            return new(cls, *args)

        monkeypatch.setattr(core.ConvexSubcomplex, "__new__", staticmethod(counting))
        h = hyperclosure(cx)
        assert len(h) == 301
        assert len(built) < 10 * len(h)

    def test_no_gate_projection(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("hyperclosure() called gates.project")

        for module in (gates, importlib.import_module("cubemedian.hyperclosure")):
            if hasattr(module, "project"):
                monkeypatch.setattr(module, "project", refuse)
        for cx in (staircase(5), random_median(5, 7, seed=3), tree(40, seed=2)):
            assert len(hyperclosure(cx)) > 1


class TestOracleAgreement:
    def test_small_fixtures(self, q2, p3, st2, st3, tree8, rm451):
        for cx in (q2, p3, st2, st3, tree8, rm451):
            h = hyperclosure(cx)
            assert oracle_hyperclosure(cx) == h.member_set

    def test_single_vertex(self, single_vertex):
        assert oracle_hyperclosure(single_vertex) == \
            hyperclosure(single_vertex).member_set == \
            {whole_complex(single_vertex)}

    def test_oracle_bound_enforced(self, box222):
        with pytest.raises(ResourceLimitError) as err:
            oracle_hyperclosure(box222)
        assert err.value.limit == "oracle_vertex_bound"
        assert oracle_hyperclosure(box222, max_vertices=27) == \
            hyperclosure(box222).member_set


class TestClosureProperties:
    def test_projection_closure(self, st2, st3, rm451):
        rng = SplitMix64(31)
        for cx in (st2, st3, rm451):
            h = hyperclosure(cx)
            members = h.members
            for _ in range(1000):
                f = rng.choice(members)
                f2 = rng.choice(members)
                assert project(f, f2) in h.member_set

    def test_parallelism_closure(self, st2, st3, g33, rm451):
        for cx in (st2, st3, g33, rm451):
            h = hyperclosure(cx)
            for member in h.members:
                for copy in parallel_copies(member):
                    assert copy in h.member_set

    def test_parallel_classes_partition(self, st3):
        h = hyperclosure(st3)
        flattened = [m for group in h.parallel_classes for m in group]
        assert sorted(flattened, key=lambda s: (len(s), s.vertices)) == list(h.members)
        for group in h.parallel_classes:
            sigs = {crossing_signature(m) for m in group}
            assert len(sigs) == 1


class TestGrades:
    def test_q2(self, q2):
        assert grades_report(hyperclosure(q2)) == {0: 1, 1: 4, 2: 4}

    def test_p3(self, p3):
        assert grades_report(hyperclosure(p3)) == {0: 1, 1: 3}

    def test_single_vertex(self, single_vertex):
        assert grades_report(hyperclosure(single_vertex)) == {0: 1}

    def test_soundness(self, q2, st2, st3, rm451):
        # every grade-n member is an n-fold nested side projection
        for cx in (q2, st2, st3, rm451):
            h = hyperclosure(cx)
            for member in h.members:
                der = h.derivation[member]
                n = h.grade[member]
                if der.kind == "whole":
                    assert n == 0 and member == whole_complex(cx)
                elif der.kind == "side":
                    assert n == 1
                    assert member == comb_side(theta_classes(cx)[der.class_id], der.sign)
                else:
                    side = comb_side(theta_classes(cx)[der.class_id], der.sign)
                    assert project(side, der.source) == member
                    assert h.grade[der.source] == n - 1

    def test_verify_holds_sides_to_their_hulls(self, monkeypatch):
        """grading-soundness builds each side from its dual edges, not from the
        closure's own side keys: with those keys swapped, and `comb_side`
        with them, every side derivation names the wrong sign and is caught."""
        keys = core.HyperplaneClass.__dict__["comb_sides"].func

        def comb_sides(h):
            return keys(h)[::-1]

        cx = staircase(3)
        h = hyperclosure(cx)
        monkeypatch.setattr(core.HyperplaneClass, "comb_sides", core._lazy(comb_sides))
        swapped = hyperclosure(staircase(3))
        assert [m.vertices for m in swapped.members] == [m.vertices for m in h.members]
        found = verify.verify_complex(staircase(3), suite="closure", cases=50, max_violations=99)
        assert {v.invariant for v in found} == {"grading-soundness"}
        assert {v.inputs["F"] for v in found} >= {
            m.vertices for m in h.members if h.derivation[m].kind == "side"}


class TestMultiplicity:
    def test_q2_vertex0(self, q2):
        prof = multiplicity(hyperclosure(q2))
        assert prof.per_vertex[0] == 4
        assert prof.max_multiplicity == 4
        assert prof.histogram == {4: 4}

    def test_p3_vertex1(self, p3):
        prof = multiplicity(hyperclosure(p3))
        assert prof.per_vertex[1] == 2

    def test_grid_all_four(self, g33):
        prof = multiplicity(hyperclosure(g33))
        assert set(prof.per_vertex) == {4}

    def test_at_least_two_with_an_edge(self, st2, st3, tree8, rm451, box222):
        for cx in (st2, st3, tree8, rm451, box222):
            prof = multiplicity(hyperclosure(cx))
            assert min(prof.per_vertex) >= 2
            assert prof.max_multiplicity == max(prof.per_vertex)
            assert sum(prof.histogram.values()) == cx.vertex_count


class TestLongestChain:
    def test_q2(self, q2):
        length, chain = longest_chain(hyperclosure(q2))
        assert length == 3
        assert len(chain) == 3
        for a, b in zip(chain, chain[1:]):
            assert set(a.vertices) < set(b.vertices)

    def test_p3(self, p3):
        assert longest_chain(hyperclosure(p3))[0] == 2

    def test_single_vertex(self, single_vertex):
        assert longest_chain(hyperclosure(single_vertex))[0] == 1

    def test_chain_shares_vertex(self, st3):
        length, chain = longest_chain(hyperclosure(st3))
        common = set(chain[0].vertices)
        for m in chain:
            common &= set(m.vertices)
        assert common


class TestCleanContainer:
    def test_q2_example(self, q2):
        h = hyperclosure(q2)
        u = clean_container(h, whole_complex(q2), subcomplex(q2, [0, 2]), 0)
        assert u.vertices == (0, 1)

    def test_whole_in_whole_rejected(self, q2):
        h = hyperclosure(q2)
        with pytest.raises(ValueError):
            clean_container(h, whole_complex(q2), whole_complex(q2), 0)

    def test_non_member_rejected(self, st2):
        # carrier of the x=0|1 wall is convex but not a member
        h = hyperclosure(st2)
        square = subcomplex(st2, [0, 1, 2, 3])
        left_edge = subcomplex(st2, [0, 1])
        with pytest.raises(ValueError):
            clean_container(h, square, left_edge, 0)

    def test_other_complex_rejected(self, q2, p3):
        # the same keys on two complexes: equal hashes, unequal sets
        v, foreign_v = subcomplex(q2, [0, 1]), subcomplex(p3, [0, 1])
        assert hash(foreign_v) == hash(v) and foreign_v != v
        assert whole_complex(p3) != whole_complex(q2)
        h = hyperclosure(q2)
        assert clean_container(h, whole_complex(q2), v, 0) in h.member_set
        with pytest.raises(ValueError):
            clean_container(h, whole_complex(p3), v, 0)
        with pytest.raises(ValueError):
            clean_container(h, whole_complex(q2), foreign_v, 0)

    def test_basepoint_outside_rejected(self, q2):
        h = hyperclosure(q2)
        with pytest.raises(ValueError):
            clean_container(h, whole_complex(q2), subcomplex(q2, [0, 2]), 1)

    def test_st2_left_edge_in_whole(self, st2):
        idx = by_label(st2)
        h = hyperclosure(st2)
        v = subcomplex(st2, [idx[(0, 0)], idx[(0, 1)]])
        u = clean_container(h, whole_complex(st2), v, idx[(0, 0)])
        assert {st2.labels[w] for w in u.vertices} == {(0, 0), (1, 0), (2, 0)}

    def test_all_pairs_small_fixtures(self, q2, p3, st2, rm451):
        from cubemedian import gate
        for cx in (q2, p3, st2, rm451):
            h = hyperclosure(cx)
            crossing = cx.crossing_masks
            mask = {m: vertex_mask(m.vertices) for m in h.members}
            for f in h.members:
                for v in h.members:
                    if v == f or mask[v] & ~mask[f]:
                        continue
                    x = v.vertices[0]
                    u = clean_container(h, f, v, x)
                    sig_u, sig_v = crossing_signature(u), crossing_signature(v)
                    assert u in h.member_set
                    assert not sig_u & sig_v
                    assert all(crossing[a] >> b & 1 for a in sig_u for b in sig_v)
                    region = hull(cx, v.vertices + u.vertices)
                    assert vertex_mask(region.vertices) & ~mask[f] == 0
                    coords = {(gate(v, w), gate(u, w)) for w in region.vertices}
                    assert len(coords) == len(region) == len(v) * len(u)
                    for w in h.members:
                        if mask[w] & ~mask[f]:
                            continue
                        sig_w = crossing_signature(w)
                        if sig_w & sig_v:
                            continue
                        if all(crossing[a] >> b & 1 for a in sig_w for b in sig_v):
                            assert parallel_into(w, u)


def drawn_complexes(test):
    """Run test(cx, rng) on the median fixtures' drawn counterparts:
    hypothesis-drawn random_median complexes, products and wedges."""
    def random_median_case(self, data):
        dim = data.draw(st.integers(1, 6))
        count = data.draw(st.integers(1, min(10, 1 << dim)))
        cx = random_median(dim, count, seed=data.draw(st.integers(0, 2**64 - 1)))
        test(self, cx, SplitMix64(data.draw(st.integers(0, 2**64 - 1))))

    def product_or_wedge_case(self, data):
        cx = draw_product_or_wedge(data)
        test(self, cx, SplitMix64(data.draw(st.integers(0, 2**64 - 1))))

    wrap = settings(max_examples=25, deadline=None)
    return (wrap(given(data=st.data())(random_median_case)),
            wrap(given(data=st.data())(product_or_wedge_case)))


class TestChainOracleAgreement:
    """The chain over member masks against the DP over every containment
    pair and the vertex-mask chain before it: the same length and the same
    witness, so the least-index tie-break holds."""

    def check(self, cx, rng=None):
        h = hyperclosure(cx)
        length, chain = longest_chain(h)
        for oracle in (containment_chain, mask_longest_chain):
            expected_length, expected_chain = oracle(h)
            assert length == expected_length
            assert [m.vertices for m in chain] == [m.vertices for m in expected_chain]

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        self.check(request.getfixturevalue(name))

    @pytest.mark.parametrize("spec", BENCH_SPECS)
    def test_bench_complexes(self, spec):
        self.check(generate(parse_spec(spec)))

    test_random_median, test_products_and_wedges = drawn_complexes(check)


class TestChainMaskLemma:
    """The lemma the chain rests on: the members inside a member F, F
    included, have exactly the member masks inside F's mask, so every chain
    of masks below F's is realised by members inside F."""

    def check(self, cx, rng=None):
        members = hyperclosure(cx).members
        masks = {m.crossing_mask for m in members}
        inside = {f: {f.crossing_mask} for f in members}
        for f, v in contained_member_pairs(members):
            inside[f].add(v.crossing_mask)
        for f, found in inside.items():
            assert found == {t for t in masks if t & ~f.crossing_mask == 0}

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        self.check(request.getfixturevalue(name))

    @pytest.mark.parametrize("spec", BENCH_SPECS)
    def test_bench_complexes(self, spec):
        self.check(generate(parse_spec(spec)))

    test_random_median, test_products_and_wedges = drawn_complexes(check)


class TestLatticeOracle:
    """The members and parallel classes against the full-spread fibres of the
    crossing-mask lattice L, with no vertex bound, and the longest chain
    against the longest chain of masks in L."""

    def check(self, cx, rng=None):
        h = hyperclosure(cx)
        lattice = lattice_members(cx)
        assert ({frozenset(m.vertices for m in group) for group in h.parallel_classes} ==
                {frozenset(fibres) for fibres in lattice.values()})
        assert len(h.parallel_classes) == len(lattice)
        assert {m.vertices for m in h.members} == {f for fs in lattice.values() for f in fs}
        inclusions = nx.DiGraph((t, s) for s in lattice for t in lattice
                                if t != s and t & ~s == 0)
        inclusions.add_nodes_from(lattice)
        assert longest_chain(h)[0] == nx.dag_longest_path_length(inclusions) + 1

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        self.check(request.getfixturevalue(name))

    @pytest.mark.parametrize("spec", BENCH_SPECS)
    def test_bench_complexes(self, spec):
        self.check(generate(parse_spec(spec)))

    test_random_median, test_products_and_wedges = drawn_complexes(check)


def assert_canonical(s):
    """The key of S is the one its vertices recompute: the classes on which
    they differ, and their signs on the others."""
    signs = s.parent.signs
    s0 = signs[s.vertices[0]]
    free = 0
    for v in s.vertices:
        free |= signs[v] ^ s0
    assert (s.crossing_mask, s.base) == (free, s0 & ~free)


class TestCanonicalKeys:
    """Every constructor returns the canonical key of its vertex set, so
    equality and hashing by key agree with equality of vertex sets."""

    def check(self, cx, rng):
        subs = all_convex_subcomplexes(cx)
        n = cx.vertex_count
        made = [whole_complex(cx), *subs]
        for h in theta_classes(cx):
            made += [comb_side(h, -1), comb_side(h, +1), carrier(h)]
        for _ in range(20):
            made.append(hull(cx, rng.sample(range(n), 1 + rng.randrange(min(n, 4)))))
        for a in subs:
            made.append(subcomplex(cx, a.vertices))
            made.append(project(a, rng.choice(subs)))
            made.append(orth(a, rng.choice(a.vertices)))
            made += parallel_copies(a)
        closure = hyperclosure(cx)
        members = closure.members
        mask = {m: vertex_mask(m.vertices) for m in members}
        for f in members:
            inside = [v for v in members if v != f and mask[v] & ~mask[f] == 0]
            if inside:
                v = rng.choice(inside)
                made.append(clean_container(closure, f, v, rng.choice(v.vertices)))
        for s in made:
            assert_canonical(s)

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        self.check(request.getfixturevalue(name), SplitMix64(7))

    test_random_median, test_products_and_wedges = drawn_complexes(check)

    def test_verify_reports_a_key_its_vertices_do_not_recompute(self, p3, monkeypatch):
        """A projection keyed by the right crossing mask, fy & fz, through
        Y's first vertex: on the path that filter can miss a class of the
        mask, and verify must see it from the vertices."""
        monkeypatch.setattr(verify, "project", first_vertex_key)
        found = {v.invariant for v in verify.verify_complex(p3, suite="gates", cases=200)}
        assert "gate-crossing-law" in found

    @pytest.mark.parametrize("cap", [1, 2, 5, 7, 11])
    def test_verify_stops_at_the_violation_cap(self, cap, monkeypatch):
        """One case can fail several checks; recording stops at the cap, and
        what is kept is the first violations of the uncapped run."""
        monkeypatch.setattr(verify, "project", first_vertex_key)
        st4 = staircase(4)

        def run(max_violations):
            return [(v.suite, v.invariant, v.inputs) for v in verify.verify_complex(
                st4, suite="all", cases=200, seed=1, max_violations=max_violations)]

        uncapped = run(10_000)
        assert len(uncapped) > 11
        assert run(cap) == uncapped[:cap]

    def test_verify_ends_the_run_at_the_violation_cap(self, monkeypatch):
        """The violation that fills the cap ends the run: no later suite is
        entered, where a check at its loop head would enter and return."""
        monkeypatch.setattr(verify, "project", first_vertex_key)

        def entered(*args):
            pytest.fail("a suite was entered after the cap was filled")

        monkeypatch.setattr(verify, "_orth_suite", entered)
        monkeypatch.setattr(verify, "_closure_suite", entered)
        found = verify.verify_complex(staircase(4), suite="all", cases=200, seed=1,
                                      max_violations=1)
        assert [(v.suite, v.invariant) for v in found] == [("gates", "symmetric-parallelism")]

    @pytest.mark.parametrize("cap", [0, -1])
    def test_verify_refuses_a_cap_below_one(self, cap, p3):
        # a cap of 0 would return [] before any check: "0 violations" hiding "0 checks"
        with pytest.raises(ValueError, match=f"max_violations must be positive, not {cap}"):
            verify.verify_complex(p3, max_violations=cap)


def first_vertex_key(y, z):
    """A wrong `project`: the right crossing mask, fy & fz, with the base
    taken from Y's first vertex."""
    free = y.crossing_mask & z.crossing_mask
    return ConvexSubcomplex(y.parent, free, y.parent.signs[y.vertices[0]] & ~free)


def false_copy(kind, f):
    """A key `parallel_copies(F)` must not return, or None if F has none of
    that kind."""
    cx, free = f.parent, f.crossing_mask
    if kind == "base-without-vertex":
        bases = {s & ~free for s in cx.signs}
        empty = [b for b in range(1 << len(cx.classes)) if b & free == 0 and b not in bases]
        return ConvexSubcomplex(cx, free, empty[0]) if empty else None
    if kind == "base-inside-crossing-mask":
        return ConvexSubcomplex(cx, free, f.base | (free & -free)) if free else None
    return ConvexSubcomplex(cx, free ^ 1, f.base & ~1)  # wrong crossing mask


class TestCopiesParallelCheck:
    """verify's copies-parallel check, one pass over the signs for all copies
    of F, against the hull of each copy's vertices that it replaced."""

    def check(self, cx, rng):
        subs = all_convex_subcomplexes(cx)
        for f in subs if len(subs) <= 40 else rng.sample(subs, 40):
            copies = parallel_copies(f)
            perp = orth(f, f.vertices[0])
            assert verify._true_copies(f, copies, perp) == [True] * len(copies)
            assert per_copy_copies_check(f, copies)
            # every F-parallel key that holds a vertex, true copy or not,
            # and the keys one crossing-mask bit off F's
            free = f.crossing_mask
            claimed = list({ConvexSubcomplex(cx, free, s & ~free) for s in cx.signs})
            claimed += [ConvexSubcomplex(cx, free ^ (1 << i), f.base & ~(1 << i))
                        for i in range(len(cx.classes))]
            assert (verify._true_copies(f, claimed, perp) ==
                    [per_copy_copies_check(f, [c2]) for c2 in claimed])

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        self.check(request.getfixturevalue(name), SplitMix64(11))

    test_random_median, test_products_and_wedges = drawn_complexes(check)

    @pytest.mark.parametrize("kind", ["base-without-vertex", "base-inside-crossing-mask",
                                      "wrong-crossing-mask"])
    def test_false_copies_are_reported(self, kind, monkeypatch):
        """A false copy is a copies-parallel violation, and no product is
        checked with it; the per-copy check raised on one holding no vertex."""
        honest = verify.parallel_copies

        def tampered(f):
            false = false_copy(kind, f)
            return honest(f) + ([false] if false is not None else [])

        monkeypatch.setattr(verify, "parallel_copies", tampered)
        found = {v.invariant for v in verify.verify_complex(staircase(4), suite="gates",
                                                            cases=50, seed=1)}
        assert found == {"copies-parallel"}

    def test_hull_calls_per_case_are_bounded(self, monkeypatch):
        """A gates case hulls six random sets, recomputes five keys and spans
        one region: 12 hulls, however many copies F has.  Recomputing each
        copy took one more per copy, n of them for a singleton of a tree."""
        real, calls = verify.hull, []

        def counting(cx, vertices):
            calls.append(cx)
            return real(cx, vertices)

        monkeypatch.setattr(verify, "hull", counting)
        assert verify.verify_complex(tree(200, seed=1), suite="gates", cases=20) == []
        assert len(calls) <= 12 * 20


    def test_dropped_copy_is_reported(self, monkeypatch):
        """A copy list missing a true copy is a copies-complete violation and
        nothing else; the parallelism-closure check of each class relies on
        the list being whole."""
        honest = verify.parallel_copies

        def dropping(f):
            copies = honest(f)
            dropped = next((c for c in copies if c != f), None)
            return [c for c in copies if c != dropped]

        monkeypatch.setattr(verify, "parallel_copies", dropping)
        found = {v.invariant for v in verify.verify_complex(staircase(4), suite="gates",
                                                            cases=50, seed=1)}
        assert found == {"copies-complete"}


class TestParallelClass:
    """One pass over the signs per crossing mask, against the product-region
    slices and the member grouping it replaced, and the exhaustive scan."""

    def check(self, cx, rng):
        subs = all_convex_subcomplexes(cx)
        for a in subs if len(subs) <= 40 else rng.sample(subs, 40):
            copies = parallel_copies(a)
            assert copies == orth_parallel_copies(a)
            if cx.vertex_count <= SCAN_VERTEX_CAP:
                assert [c.vertices for c in copies] == copies_by_scan(a)
        # on a fresh complex, the closure runs no vertex filter: the passes
        # give every member its tuple before the member sort, and no other key
        fresh = MedianComplex(cx.vertex_count, cx.edges)

        def vertices(s):
            raise AssertionError(f"{s!r} filtered inside hyperclosure()")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core.ConvexSubcomplex, "vertices", core._lazy(vertices))
            h = hyperclosure(fresh)
        assert {s for s in fresh._keys.values() if "vertices" in s.__dict__} == h.member_set
        assert h.parallel_classes == by_sig_parallel_classes(h.members)

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        self.check(request.getfixturevalue(name), SplitMix64(13))

    test_random_median, test_products_and_wedges = drawn_complexes(check)

    def test_tampered_class_is_reported_once(self, monkeypatch):
        """The members of a class share one copy list, so a non-member added
        to it is one parallelism-closure violation, not one per member."""
        st4 = staircase(4)
        h = hyperclosure(st4)
        group = max(h.parallel_classes, key=len)
        assert len(group) > 1
        stranger = next(s for s in all_convex_subcomplexes(st4) if s not in h.member_set)
        honest = verify.parallel_copies

        def tampered(f):
            extra = [stranger] if f.crossing_mask == group[0].crossing_mask else []
            return honest(f) + extra

        monkeypatch.setattr(verify, "parallel_copies", tampered)
        found = [v.invariant for v in verify.verify_complex(st4, suite="closure",
                                                            cases=50, seed=1)]
        assert found == ["parallelism-closure"]


class TestContainedPairs:
    """The containments verify's clean-container checks read, one key lookup
    per member and larger member mask, against the all-pairs containment
    scan: the same pairs, sources ascending, so the F-major list verify
    samples from is the scan's list in the same order and every seed draws
    the same cases."""

    def check(self, cx, rng=None):
        h = hyperclosure(cx)
        members = h.members
        stream = list(_containments(h))
        sources = [j for j, _ in stream]
        assert sources == sorted(sources)
        f_major = sorted((i, j) for j, i in stream)
        assert ([(members[i], members[j]) for i, j in f_major] ==
                contained_member_pairs(members))

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        self.check(request.getfixturevalue(name))

    test_random_median, test_products_and_wedges = drawn_complexes(check)


class TestDeterminism:
    def test_repeated_runs_identical(self, st3):
        h1 = hyperclosure(st3)
        h2 = hyperclosure(st3)
        assert [m.vertices for m in h1.members] == [m.vertices for m in h2.members]
        assert {m.vertices: g for m, g in h1.grade.items()} == \
            {m.vertices: g for m, g in h2.grade.items()}


class TestMaximalityPerMask:
    """verify's clean-container maximality, one member of F per crossing
    mask, against the check over every member inside F: the same verdict on
    every contained pair, also with a clean container that is V itself,
    which fails the check on many pairs."""

    def check(self, cx, rng=None, *, degenerate=False):
        closure = hyperclosure(cx)
        found = []
        # more cases than pairs: every contained pair is checked, none drawn
        with pytest.MonkeyPatch.context() as mp:
            if degenerate:
                mp.setattr(verify, "clean_container", lambda h, f, v, x: v)
            verify._clean_container_checks(cx, SplitMix64(0), 10**9,
                                           verify._Recorder("closure", found, 10**9), closure)
        got = [(v.inputs["F"], v.inputs["V"]) for v in found
               if v.invariant == "clean-container-maximality"]
        want = []
        pairs = crossing_pairs_by_squares(cx)
        for f, v in contained_member_pairs(closure.members):
            u = v if degenerate else clean_container(closure, f, v, v.vertices[0])
            if not per_member_maximal(closure, f, v, u, pairs):
                want.append((f.vertices, v.vertices))
        assert sorted(got) == sorted(want)
        return want

    @pytest.mark.parametrize("degenerate", [False, True])
    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, degenerate, request):
        want = self.check(request.getfixturevalue(name), degenerate=degenerate)
        assert bool(want) == (degenerate and name != "single_vertex")

    def degenerate_check(self, cx, rng):
        self.check(cx, rng)
        self.check(cx, rng, degenerate=True)

    test_random_median, test_products_and_wedges = drawn_complexes(degenerate_check)


class TestOrthogonalByPolar:
    """verify's orthogonality test, S's crossing mask inside the polar of
    T's, against the loop over S's classes, on every ordered pair of
    members."""

    def check(self, cx, rng=None):
        members = hyperclosure(cx).members
        seen = set()
        for t in members:
            polar = verify._polar(cx, t.crossing_mask)
            for s in members:
                got = s.crossing_mask & ~polar == 0
                assert got == one_sided_orthogonal(cx, s, t)
                seen.add(got)
        return seen

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        seen = self.check(request.getfixturevalue(name))
        assert seen == ({True} if name == "single_vertex" else {False, True})

    test_random_median, test_products_and_wedges = drawn_complexes(check)


# the 3-cube less one vertex: wall classes, one sign vector per vertex, and no median
# for some triples, so gates onto its keys can meet a sign vector with no vertex
CUBE_LESS_ONE = MedianComplex(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6),
                                  (4, 6), (5, 6)])


class TestProductCheckAgainstGates:
    """verify's product check on pairs of gate sign vectors against the
    check by one gate pair per region vertex: the same verdict on every
    (F, true copy) and (V, clean container) region and on drawn triples of
    keys, and off median graphs the same line, raised at the same gate."""

    def check(self, cx, rng, fs):
        closure = hyperclosure(cx)
        cases = []
        for f in fs:
            copies = parallel_copies(f)
            is_copy = verify._true_copies(f, copies, orth(f, f.vertices[0]))
            cases += [(hull(cx, f.vertices + f2.vertices), f, gates.parallel_bridge(f, f2))
                      for f2, ok in zip(copies, is_copy) if ok]
        for j, i in _containments(closure):
            v, f = closure.members[j], closure.members[i]
            u = clean_container(closure, f, v, v.vertices[0])
            cases.append((hull(cx, v.vertices + u.vertices), v, u))
        products = len(cases)
        cases += [tuple(verify._random_convex(cx, rng) for _ in range(3)) for _ in range(40)]
        verdicts = [gate_product_bijection_ok(*case) for case in cases]
        assert [verify._product_bijection_ok(*case) for case in cases] == verdicts
        assert all(verdicts[:products])
        return set(verdicts)

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        cx = request.getfixturevalue(name)
        seen = self.check(cx, SplitMix64(29), all_convex_subcomplexes(cx))
        assert seen == ({True} if name == "single_vertex" else {False, True})

    test_random_median, test_products_and_wedges = drawn_complexes(
        lambda self, cx, rng: self.check(cx, rng, [verify._random_convex(cx, rng)
                                                   for _ in range(30)]))

    @staticmethod
    def outcome(check, case):
        """check(*case): its verdict or the line it raised, the sign vectors
        `vertex_at` received, and the (key, vertex) of each oracle `gate` call."""
        asked, gated = [], []
        honest_at, honest_gate = MedianComplex.vertex_at, oracles.gate
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(MedianComplex, "vertex_at",
                       lambda cx, sign: asked.append(sign) or honest_at(cx, sign))
            mp.setattr(oracles, "gate", lambda y, x: gated.append((y, x)) or honest_gate(y, x))
            try:
                result = check(*case)
            except InvariantViolation as exc:
                result = str(exc)
        return result, asked, gated

    def agree_off_median(self, case):
        """Both product checks on one (region, left, right) case: the same
        verdict, or the same line raised for the sign vector of the oracle's
        last `gate` call.  Returns the factor that call gates onto, or None
        when no sign vector is missing."""
        got, asked, _ = self.outcome(verify._product_bijection_ok, case)
        want, asked_by_gate, gated = self.outcome(gate_product_bijection_ok, case)
        assert got == want
        if not asked_by_gate:
            assert asked == []
            return None
        y, x = gated[-1]
        assert asked == asked_by_gate == [case[0].parent.signs[x] & y.crossing_mask | y.base]
        return "left" if len(gated) % 2 else "right"  # the oracle gates left, then right

    def test_non_median_line(self, tmp_path, capsys):
        path = tmp_path / "cube_less_one.json"
        save_complex(CUBE_LESS_ONE, path)
        assert cli.run(["verify", str(path), "--suite", "gates", "--cases", "40", "--seed", "1",
                        "--no-validate"]) == 1
        assert capsys.readouterr() == ("", f"error: invariant violation: {core._NOT_MEDIAN}\n")
        # the suite stops inside the product check, at the gate the per-vertex check stops at
        checked = []
        honest = verify._product_bijection_ok
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_product_bijection_ok", lambda *case: (
                checked.append(case) or honest(*case)))
            with pytest.raises(InvariantViolation, match=re.escape(core._NOT_MEDIAN)):
                verify.verify_complex(MedianComplex(7, CUBE_LESS_ONE.edges), "gates", 40, 1)
        assert self.agree_off_median(checked[-1]) is not None

    def missing_factors(self, cx, rng, cases=200):
        """The factors the first missing sign vector is on, over drawn triples
        of keys of a non-median complex."""
        return {self.agree_off_median(tuple(verify._random_convex(cx, rng) for _ in range(3)))
                for _ in range(cases)} - {None}

    def test_left_and_right_factor(self):
        g8, g4 = grid(8, 8), grid(4, 4)
        at8, at4 = by_label(g8), by_label(g4)
        # grid(4,4) less two holes: some vertices meet a missing sign vector on
        # both factors at once, a different one on each
        for cx in (MedianComplex(7, CUBE_LESS_ONE.edges), less_vertices(g8, {at8[4, 4]}),
                   less_vertices(g4, {at4[1, 2], at4[3, 2]})):
            assert self.missing_factors(cx, SplitMix64(31)) == {"left", "right"}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_drawn_non_median(self, data):
        """Drawn median complexes less one or two vertices, unvalidated, as
        `--no-validate` loads them, wherever they still have one sign vector
        per vertex."""
        spec =data.draw(st.sampled_from(("box(1,1,1)", "box(2,2,2)", "grid(3,3)", "staircase(3)",
                                          "random_median(4,6,seed={})")))
        g = generate(parse_spec(spec.format(data.draw(st.integers(0, 99)))))
        # with two holes, both gates of one vertex can miss, on different sign vectors
        cx = less_vertices(g, data.draw(st.sets(st.integers(1, g.vertex_count - 1),
                                                min_size=1, max_size=2)))
        assume(len(cx._colouring[3]) == cx.vertex_count)  # connected
        try:
            cx.by_sign
        except InvariantViolation:
            assume(False)  # no wall classes, or two vertices with one sign vector
        for factor in sorted(self.missing_factors(cx, SplitMix64(data.draw(st.integers(0, 99))),
                                                  cases=40)):
            event(f"first missing sign vector on the {factor} factor")


def less_vertices(cx, holes):
    """A fresh, unvalidated complex: cx without the holes, the other vertices
    renumbered in order."""
    index = {v: i for i, v in enumerate(v for v in range(cx.vertex_count) if v not in holes)}
    return MedianComplex(len(index), [(index[u], index[v]) for u, v in cx.edges
                                      if u in index and v in index])


def forced_failures(mp):
    """Checks that fail on some inputs only, each verdict a function of the
    check's own inputs, so a replayed verdict is the one a rerun would give."""
    mp.setattr(verify, "project", first_vertex_key)
    mp.setattr(verify, "is_convex", lambda cx, vertices: sum(vertices) % 3 != 1)
    mp.setattr(verify, "is_parallel", lambda s, t: (
        s.crossing_mask == t.crossing_mask and (s.base + 2 * t.base) % 5 != 3))
    mp.setattr(verify, "_product_bijection_ok", lambda region, left, right: (
        region.base + left.base + 3 * right.base + right.crossing_mask) % 4 != 1)
    honest_copies, honest_orth = verify.parallel_copies, verify.orth
    # copy lists that differ between keys of one crossing mask
    mp.setattr(verify, "parallel_copies", lambda f: [
        c for c in honest_copies(f) if c == f or (c.base + f.base) % 7 != 2])
    mp.setattr(verify, "orth", lambda a, x: (
        honest_orth(a, x) if (a.base + x) % 6 != 5 else hull(a.parent, [x])))


def per_case_violations(cx, suite, cases, seed, cap):
    """verify_complex with the per-case gates and orth suites."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_gates_suite", per_case_gates_suite)
        mp.setattr(verify, "_orth_suite", per_case_orth_suite)
        return verify.verify_complex(cx, suite, cases, seed, max_violations=cap)


class TestReplayedVerdicts:
    """verify evaluates each gates and orth check once per distinct input
    and replays the verdict when a draw repeats it: the same violations, in
    the same order and under any cap, as the suites that evaluate every
    check on every case, with checks forced to fail on some inputs."""

    def check(self, cx, rng, cases=300):
        seed = rng.randrange(1 << 16)
        with pytest.MonkeyPatch.context() as mp:
            forced_failures(mp)
            found = set()
            for suite, cap in [("gates", 10**6), ("orth", 10**6), ("all", 10**6),
                               ("all", 1), ("all", 2), ("all", 7)]:
                want = [(v.suite, v.invariant, v.inputs)
                        for v in per_case_violations(cx, suite, cases, seed, cap)]
                got = [(v.suite, v.invariant, v.inputs) for v in verify.verify_complex(
                    cx, suite, cases, seed, max_violations=cap)]
                assert got == want
                found |= {invariant for _, invariant, _ in got}
        return found

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        found = self.check(request.getfixturevalue(name), SplitMix64(17))
        if name in ("st3", "box222", "rm451"):
            # the forced failures reach every kind of gates and orth check
            assert {"gate-crossing-law", "projection-convex", "symmetric-parallelism",
                    "projection-currying", "copies-parallel", "copies-complete",
                    "parallel-product-bijection", "triple-complement", "contravariance",
                    "double-complement"} <= found

    test_random_median, test_products_and_wedges = drawn_complexes(
        lambda self, cx, rng: self.check(cx, rng, cases=60))

    def test_each_distinct_input_is_evaluated_once(self, monkeypatch):
        """On staircase(6), 1000 gates cases draw each F and each projection
        many times; parallel_copies and is_convex run once per distinct
        input, and replaying makes no key the per-case suite does not."""
        honest_copies, honest_convex = verify.parallel_copies, verify.is_convex
        calls = []
        monkeypatch.setattr(verify, "parallel_copies",
                            lambda f: calls.append(("F", f.vertices)) or honest_copies(f))
        monkeypatch.setattr(verify, "is_convex", lambda cx, vertices: calls.append(
            ("convex", tuple(vertices))) or honest_convex(cx, vertices))
        oracle_cx, cx = staircase(6), staircase(6)
        assert per_case_violations(oracle_cx, "gates", 1000, 1, 25) == []
        per_case = calls[:]
        calls.clear()
        assert verify.verify_complex(cx, "gates", 1000, 1) == []
        for kind in ("F", "convex"):
            drawn = [x for k, x in per_case if k == kind]
            evaluated = [x for k, x in calls if k == kind]
            assert len(drawn) == 1000
            assert len(evaluated) == len(set(drawn)) < len(drawn)
            assert set(evaluated) == set(drawn)
        assert set(cx._keys) == set(oracle_cx._keys)


class TestSampledHull:
    """`_random_convex`, its key folded from the draws as they come, against
    the hull of what `sample` draws over range(n): the same key, and the
    stream read as far."""

    def check(self, cx, rng):
        seed = rng.randrange(1 << 64)
        fused, plain = SplitMix64(seed), SplitMix64(seed)
        n = cx.vertex_count
        for _ in range(40):
            a = verify._random_convex(cx, fused)
            assert a == hull(cx, plain.sample(range(n), min(plain.choice((1, 1, 2, 2, 3)), n)))
            assert fused._state == plain._state

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        self.check(request.getfixturevalue(name), SplitMix64(23))

    test_random_median, test_products_and_wedges = drawn_complexes(check)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_paths_of_one_to_three_vertices(self, n):
        # k clamped to n, and every draw of n = 2 and 3 past its last slot
        self.check(box(n - 1) if n > 1 else MedianComplex(1, []), SplitMix64(n))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    def test_slot_map_branches(self, seed):
        """`_random_convex` against the swaps made on a list of slots, on the
        4-cycle: the same keys and stream, with every branch of its slot map
        taken (slot j after step 0, slot m after step 1)."""
        cx = grid(1, 1)
        fused, plain = SplitMix64(seed), SplitMix64(seed)
        hits = dict.fromkeys(("j == a", "m == j", "m == a", "neither"), 0)
        # about 200 draws of k = 3, each taking m == a with chance 1/6
        for _ in range(1000):
            k = (1, 1, 2, 2, 3)[plain.randrange(5)]
            slots, picked = list(range(4)), []
            for i in range(k):
                j = i + plain.randrange(4 - i)
                picked.append(j)
                slots[i], slots[j] = slots[j], slots[i]
            assert verify._random_convex(cx, fused) == hull(cx, slots[:k])
            assert fused._state == plain._state
            if k >= 2:
                hits["j == a"] += picked[1] == picked[0]
            if k == 3:
                a, j, m = picked
                hits["m == j" if m == j else "m == a" if m == a else "neither"] += 1
        assert all(hits.values()), hits


class Unmatched:
    """A stand-in key equal to nothing and inside nothing, itself included."""

    __hash__ = object.__hash__

    def __eq__(self, other):
        return False

    def __le__(self, other):
        return False


class TestCaseStreamPinned:
    """The cases verify draws, pinned as the inputs of violations forced by
    a check that always fails: a draw that moves changes the list."""

    def test_gates_and_closure_cases(self, monkeypatch):
        monkeypatch.setattr(verify, "is_parallel", lambda s, t: False)
        gates = [v.inputs for v in verify.verify_complex(staircase(3), "gates", 40, 7)]
        monkeypatch.setattr(verify, "parallel_into", lambda s, t: False)
        closure = [v.inputs for v in verify.verify_complex(staircase(4), "closure", 40, 7)]
        assert gates == PINNED_GATES_CASES
        assert closure == PINNED_CLOSURE_CASES

    def test_orth_cases(self, monkeypatch):
        # every check fails, and no cap cuts the stream short of the member pass
        never = Unmatched()
        monkeypatch.setattr(verify, "orth", lambda a, x: never)
        monkeypatch.setattr(verify, "_recomputed", lambda s: never)
        found = verify.verify_complex(staircase(3), "orth", 40, 7, max_violations=1000)
        assert [(v.invariant, v.inputs) for v in found] == PINNED_ORTH_CASES


@pytest.mark.parametrize("name", MEDIAN_FIXTURES)
def test_passing_run_records_nothing(name, request, monkeypatch):
    """The suites call the recorder only when a check fails."""
    failed = []
    monkeypatch.setattr(verify._Recorder, "fail",
                        lambda rec, invariant, **inputs: failed.append(invariant))
    assert verify.verify_complex(request.getfixturevalue(name), "all", 200, 3) == []
    assert failed == []


# Recorded with the pool-based `sample` and the check of every member inside F.
PINNED_GATES_CASES = [
    {'Y': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'Z': (6, 7, 8, 10, 11, 12)},
    {'C': (2,), 'D': (5, 6, 7, 8, 9, 10, 11, 12), 'E': (5,)},
    {'F': (5, 6, 7, 8, 9, 10, 11, 12)},
    {'F': (5, 6, 7, 8, 9, 10, 11, 12)},
    {'Y': (3,), 'Z': (2, 3, 4, 5, 6, 7, 8)},
    {'C': (4,), 'D': (5, 6, 7, 9, 10, 11), 'E': (1,)},
    {'F': (6,)},
    {'F': (6,)},
    {'Y': (0, 1, 2, 3, 5, 6, 9, 10), 'Z': (6, 7, 8)},
    {'C': (1,), 'D': (1,), 'E': (5, 6, 7, 8, 9, 10, 11, 12)},
    {'F': (0, 1, 2, 3)},
    {'F': (0, 1, 2, 3)},
    {'Y': (0, 2, 5, 9), 'Z': (8,)},
    {'C': (6, 10), 'D': (3, 6), 'E': (2, 5)},
    {'F': (2, 3, 5, 6, 9, 10)},
    {'F': (2, 3, 5, 6, 9, 10)},
    {'Y': (0, 1, 2, 3, 4), 'Z': (1, 3, 4, 6, 7, 10, 11)},
    {'C': (5,), 'D': (0, 1, 2, 3, 5, 6, 9, 10), 'E': (0, 1, 2, 3, 5, 6, 9, 10)},
    {'F': (5,)},
    {'F': (5,)},
    {'Y': (0, 1, 2, 3, 5, 6), 'Z': (11,)},
    {'C': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'D': (4,), 'E': (7, 8)},
    {'F': (2,)},
    {'F': (2,)},
    {'Y': (8,), 'Z': (1, 3, 4, 6, 7, 8)},
]

PINNED_CLOSURE_CASES = [
    {'F': (14, 15, 16, 17, 18), 'V': (14, 15), 'x': 14},
    {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18),
     'V': (2, 5, 9, 14), 'x': 2},
    {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18),
     'V': (9, 14), 'x': 9},
    {'F': (3, 6, 10, 15), 'V': (10, 15), 'x': 10},
    {'F': (1, 3, 6, 10, 15), 'V': (3, 6, 10, 15), 'x': 3},
    {'F': (5, 6, 7), 'V': (5, 6), 'x': 5},
    {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18),
     'V': (0, 2, 5, 9, 14), 'x': 0},
    {'F': (4, 7, 11, 16), 'V': (11, 16), 'x': 11},
    {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18),
     'V': (9, 14), 'x': 9},
    {'F': (4, 7, 11, 16), 'V': (11,), 'x': 11},
    {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18),
     'V': (12, 17), 'x': 12},
    {'F': (6, 10, 15), 'V': (10,), 'x': 10},
    {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18), 'V': (15,), 'x': 15},
    {'F': (12, 17), 'V': (12,), 'x': 12},
    {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18), 'V': (0,), 'x': 0},
    {'F': (2, 5, 9, 14), 'V': (9,), 'x': 9},
    {'F': (5, 6, 7), 'V': (7,), 'x': 7},
    {'F': (0, 2, 5, 9, 14), 'V': (2,), 'x': 2},
    {'F': (0, 2, 5, 9, 14), 'V': (14,), 'x': 14},
    {'F': (5, 6, 7, 8), 'V': (7,), 'x': 7},
    {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18), 'V': (11,), 'x': 11},
    {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18),
     'V': (14, 15, 16, 17, 18), 'x': 14},
    {'F': (11, 16), 'V': (11,), 'x': 11},
    {'F': (9, 10, 11, 12, 13), 'V': (9, 10, 11, 12), 'x': 9},
    {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18), 'V': (8,), 'x': 8},
]

# Recorded before the wall classes moved to one shared tail; the double-complement
# entries pin the sample of at most 8 points per member.
PINNED_ORTH_CASES = [
    ('triple-complement', {'A': (9,), 'a': 9}),
    ('contravariance', {'A': (5,), 'B': (5, 6, 7, 8), 'a': 5}),
    ('triple-complement', {'A': (6, 7, 8, 10, 11, 12), 'a': 6}),
    ('contravariance',
     {'A': (2, 3, 4, 5, 6, 7, 9, 10, 11), 'B': (2, 3, 4, 5, 6, 7, 9, 10, 11), 'a': 5}),
    ('triple-complement', {'A': (5,), 'a': 5}),
    ('contravariance',
     {'A': (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
      'B': (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'a': 7}),
    ('triple-complement', {'A': (7, 11), 'a': 7}),
    ('contravariance', {'A': (10, 11), 'B': (10, 11, 12), 'a': 11}),
    ('triple-complement', {'A': (11,), 'a': 11}),
    ('contravariance', {'A': (8,), 'B': (8,), 'a': 8}),
    ('triple-complement', {'A': (7,), 'a': 7}),
    ('contravariance', {'A': (8,), 'B': (7, 8), 'a': 8}),
    ('triple-complement', {'A': (2,), 'a': 2}),
    ('contravariance', {'A': (1,), 'B': (1,), 'a': 1}),
    ('triple-complement', {'A': (0, 1, 2, 3, 5, 6), 'a': 3}),
    ('contravariance', {'A': (8,), 'B': (8,), 'a': 8}),
    ('triple-complement', {'A': (10,), 'a': 10}),
    ('contravariance',
     {'A': (2, 3, 4, 5, 6, 7, 9, 10, 11), 'B': (2, 3, 4, 5, 6, 7, 9, 10, 11), 'a': 3}),
    ('triple-complement', {'A': (5,), 'a': 5}),
    ('contravariance', {'A': (2, 3, 4, 5, 6, 7, 8), 'B': (2, 3, 4, 5, 6, 7, 8), 'a': 7}),
    ('triple-complement', {'A': (5, 6, 7, 8), 'a': 6}),
    ('contravariance',
     {'A': (2, 3, 4, 5, 6, 7, 9, 10, 11), 'B': (2, 3, 4, 5, 6, 7, 9, 10, 11), 'a': 6}),
    ('triple-complement', {'A': (5, 6, 7, 9, 10, 11), 'a': 11}),
    ('contravariance', {'A': (0,), 'B': (0,), 'a': 0}),
    ('triple-complement', {'A': (3,), 'a': 3}),
    ('contravariance', {'A': (3,), 'B': (3,), 'a': 3}),
    ('triple-complement', {'A': (5, 6, 9, 10), 'a': 5}),
    ('contravariance', {'A': (7, 8), 'B': (7, 8), 'a': 8}),
    ('triple-complement', {'A': (8, 12), 'a': 12}),
    ('contravariance', {'A': (12,), 'B': (12,), 'a': 12}),
    ('triple-complement', {'A': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'a': 8}),
    ('contravariance',
     {'A': (3, 4, 6, 7, 8, 10, 11, 12), 'B': (3, 4, 6, 7, 8, 10, 11, 12), 'a': 8}),
    ('triple-complement', {'A': (0, 1, 2, 3), 'a': 3}),
    ('contravariance', {'A': (5,), 'B': (5,), 'a': 5}),
    ('triple-complement', {'A': (1,), 'a': 1}),
    ('contravariance', {'A': (9,), 'B': (9,), 'a': 9}),
    ('triple-complement', {'A': (2, 3, 4, 5, 6, 7, 9, 10, 11), 'a': 10}),
    ('contravariance', {'A': (1, 3, 6, 10), 'B': (1, 3, 6, 10), 'a': 10}),
    ('triple-complement', {'A': (5, 6, 7, 9, 10, 11), 'a': 7}),
    ('contravariance', {'A': (9,), 'B': (9,), 'a': 9}),
    ('triple-complement', {'A': (4,), 'a': 4}),
    ('contravariance', {'A': (0,), 'B': (0, 1, 2, 3, 5, 6, 9, 10), 'a': 0}),
    ('triple-complement', {'A': (10,), 'a': 10}),
    ('contravariance', {'A': (5, 6, 7, 9, 10, 11), 'B': (5, 6, 7, 9, 10, 11), 'a': 11}),
    ('triple-complement', {'A': (3,), 'a': 3}),
    ('contravariance', {'A': (10,), 'B': (10,), 'a': 10}),
    ('triple-complement', {'A': (0, 1, 2, 3), 'a': 1}),
    ('contravariance', {'A': (4, 7), 'B': (4, 7, 8), 'a': 7}),
    ('triple-complement', {'A': (5, 6), 'a': 5}),
    ('contravariance', {'A': (10,), 'B': (10,), 'a': 10}),
    ('triple-complement', {'A': (6,), 'a': 6}),
    ('contravariance',
     {'A': (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
      'B': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'a': 3}),
    ('triple-complement', {'A': (6, 7, 8), 'a': 6}),
    ('contravariance', {'A': (6, 7, 10, 11), 'B': (6, 7, 10, 11), 'a': 11}),
    ('triple-complement', {'A': (0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11), 'a': 11}),
    ('contravariance', {'A': (1, 3, 4, 6, 7, 10, 11), 'B': (1, 3, 4, 6, 7, 10, 11), 'a': 4}),
    ('triple-complement', {'A': (0, 1, 2, 3), 'a': 2}),
    ('contravariance', {'A': (3, 4, 6, 7, 8), 'B': (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'a': 6}),
    ('triple-complement', {'A': (7,), 'a': 7}),
    ('contravariance', {'A': (11,), 'B': (11,), 'a': 11}),
    ('triple-complement', {'A': (5,), 'a': 5}),
    ('contravariance', {'A': (0,), 'B': (0,), 'a': 0}),
    ('triple-complement', {'A': (2, 3, 4, 5, 6, 7, 8), 'a': 4}),
    ('contravariance', {'A': (7,), 'B': (7,), 'a': 7}),
    ('triple-complement', {'A': (10,), 'a': 10}),
    ('contravariance',
     {'A': (0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11), 'B': (0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11), 'a': 2}),
    ('triple-complement', {'A': (2, 3, 4, 5, 6, 7, 8), 'a': 5}),
    ('contravariance', {'A': (6, 7, 8, 10, 11, 12), 'B': (5, 6, 7, 8, 9, 10, 11, 12), 'a': 8}),
    ('triple-complement', {'A': (3,), 'a': 3}),
    ('contravariance', {'A': (2, 5, 9), 'B': (2, 5, 9), 'a': 2}),
    ('triple-complement', {'A': (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'a': 8}),
    ('contravariance', {'A': (6,), 'B': (6, 7), 'a': 6}),
    ('triple-complement', {'A': (11,), 'a': 11}),
    ('contravariance', {'A': (11,), 'B': (7, 8, 11, 12), 'a': 11}),
    ('triple-complement', {'A': (5, 6, 9, 10), 'a': 6}),
    ('contravariance', {'A': (0, 1, 2, 3), 'B': (0, 1, 2, 3), 'a': 3}),
    ('triple-complement', {'A': (10,), 'a': 10}),
    ('contravariance', {'A': (2,), 'B': (2,), 'a': 2}),
    ('triple-complement', {'A': (3, 6), 'a': 6}),
    ('contravariance', {'A': (6,), 'B': (6,), 'a': 6}),
    ('double-complement', {'F': (0,), 'x': 0}),
    ('double-complement', {'F': (1,), 'x': 1}),
    ('double-complement', {'F': (2,), 'x': 2}),
    ('double-complement', {'F': (3,), 'x': 3}),
    ('double-complement', {'F': (4,), 'x': 4}),
    ('double-complement', {'F': (5,), 'x': 5}),
    ('double-complement', {'F': (6,), 'x': 6}),
    ('double-complement', {'F': (7,), 'x': 7}),
    ('double-complement', {'F': (8,), 'x': 8}),
    ('double-complement', {'F': (9,), 'x': 9}),
    ('double-complement', {'F': (10,), 'x': 10}),
    ('double-complement', {'F': (11,), 'x': 11}),
    ('double-complement', {'F': (12,), 'x': 12}),
    ('double-complement', {'F': (0, 1), 'x': 0}),
    ('double-complement', {'F': (0, 1), 'x': 1}),
    ('double-complement', {'F': (2, 3), 'x': 2}),
    ('double-complement', {'F': (2, 3), 'x': 3}),
    ('double-complement', {'F': (5, 6), 'x': 5}),
    ('double-complement', {'F': (5, 6), 'x': 6}),
    ('double-complement', {'F': (5, 9), 'x': 5}),
    ('double-complement', {'F': (5, 9), 'x': 9}),
    ('double-complement', {'F': (6, 10), 'x': 6}),
    ('double-complement', {'F': (6, 10), 'x': 10}),
    ('double-complement', {'F': (7, 11), 'x': 7}),
    ('double-complement', {'F': (7, 11), 'x': 11}),
    ('double-complement', {'F': (8, 12), 'x': 8}),
    ('double-complement', {'F': (8, 12), 'x': 12}),
    ('double-complement', {'F': (9, 10), 'x': 9}),
    ('double-complement', {'F': (9, 10), 'x': 10}),
    ('double-complement', {'F': (2, 3, 4), 'x': 2}),
    ('double-complement', {'F': (2, 3, 4), 'x': 3}),
    ('double-complement', {'F': (2, 3, 4), 'x': 4}),
    ('double-complement', {'F': (2, 5, 9), 'x': 2}),
    ('double-complement', {'F': (2, 5, 9), 'x': 5}),
    ('double-complement', {'F': (2, 5, 9), 'x': 9}),
    ('double-complement', {'F': (3, 6, 10), 'x': 3}),
    ('double-complement', {'F': (3, 6, 10), 'x': 6}),
    ('double-complement', {'F': (3, 6, 10), 'x': 10}),
    ('double-complement', {'F': (4, 7, 11), 'x': 4}),
    ('double-complement', {'F': (4, 7, 11), 'x': 7}),
    ('double-complement', {'F': (4, 7, 11), 'x': 11}),
    ('double-complement', {'F': (5, 6, 7), 'x': 5}),
    ('double-complement', {'F': (5, 6, 7), 'x': 6}),
    ('double-complement', {'F': (5, 6, 7), 'x': 7}),
    ('double-complement', {'F': (9, 10, 11), 'x': 9}),
    ('double-complement', {'F': (9, 10, 11), 'x': 10}),
    ('double-complement', {'F': (9, 10, 11), 'x': 11}),
    ('double-complement', {'F': (0, 2, 5, 9), 'x': 0}),
    ('double-complement', {'F': (0, 2, 5, 9), 'x': 2}),
    ('double-complement', {'F': (0, 2, 5, 9), 'x': 5}),
    ('double-complement', {'F': (0, 2, 5, 9), 'x': 9}),
    ('double-complement', {'F': (1, 3, 6, 10), 'x': 1}),
    ('double-complement', {'F': (1, 3, 6, 10), 'x': 3}),
    ('double-complement', {'F': (1, 3, 6, 10), 'x': 6}),
    ('double-complement', {'F': (1, 3, 6, 10), 'x': 10}),
    ('double-complement', {'F': (5, 6, 7, 8), 'x': 5}),
    ('double-complement', {'F': (5, 6, 7, 8), 'x': 6}),
    ('double-complement', {'F': (5, 6, 7, 8), 'x': 7}),
    ('double-complement', {'F': (5, 6, 7, 8), 'x': 8}),
    ('double-complement', {'F': (9, 10, 11, 12), 'x': 9}),
    ('double-complement', {'F': (9, 10, 11, 12), 'x': 10}),
    ('double-complement', {'F': (9, 10, 11, 12), 'x': 11}),
    ('double-complement', {'F': (9, 10, 11, 12), 'x': 12}),
    ('double-complement', {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'x': 0}),
    ('double-complement', {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'x': 1}),
    ('double-complement', {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'x': 3}),
    ('double-complement', {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'x': 4}),
    ('double-complement', {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'x': 7}),
    ('double-complement', {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'x': 8}),
    ('double-complement', {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'x': 10}),
    ('double-complement', {'F': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'x': 11}),
]
