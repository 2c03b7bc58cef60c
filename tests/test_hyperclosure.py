"""The hyperclosure: members, grades, limits, agreement with the pairwise
fixpoint oracle, multiplicity, chains and clean containers."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import MEDIAN_FIXTURES, by_label, draw_product_or_wedge
from oracles import contained_member_pairs, fixpoint_hyperclosure, mask_longest_chain
from cubemedian import (
    ConvexSubcomplex,
    ResourceLimitError,
    all_convex_subcomplexes,
    carrier,
    clean_container,
    comb_side,
    crossing_signature,
    grades_report,
    hull,
    hyperclosure,
    longest_chain,
    multiplicity,
    oracle_hyperclosure,
    orth,
    parallel_copies,
    parallel_into,
    project,
    random_median,
    staircase,
    subcomplex,
    theta_classes,
    verify,
    whole_complex,
)
from cubemedian.hyperclosure import _containments
from cubemedian.rng import SplitMix64

# The fixpoint oracle costs about |F|^2 projections, about a million on the
# full 6-cube (64 vertices, 729 members), so drawn complexes stop below it.
ORACLE_VERTEX_CAP = 48


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
        if top == 0:
            return
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
            crossing = cx.crossing
            for f in h.members:
                for v in h.members:
                    if v == f or v.mask & ~f.mask:
                        continue
                    x = v.vertices[0]
                    u = clean_container(h, f, v, x)
                    sig_u, sig_v = crossing_signature(u), crossing_signature(v)
                    assert u in h.member_set
                    assert not sig_u & sig_v
                    assert all(b in crossing[a] for a in sig_u for b in sig_v)
                    region = hull(cx, v.vertices + u.vertices)
                    assert region.mask & ~f.mask == 0
                    coords = {(gate(v, w), gate(u, w)) for w in region.vertices}
                    assert len(coords) == len(region) == len(v) * len(u)
                    for w in h.members:
                        if w.mask & ~f.mask:
                            continue
                        sig_w = crossing_signature(w)
                        if sig_w & sig_v:
                            continue
                        if all(b in crossing[a] for a in sig_w for b in sig_v):
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
    """Containment by keys against the vertex-mask chain it replaced: the
    same length and the same witness, so the least-index tie-break holds."""

    def check(self, cx, rng=None):
        h = hyperclosure(cx)
        length, chain = longest_chain(h)
        expected_length, expected_chain = mask_longest_chain(h)
        assert length == expected_length
        assert [m.vertices for m in chain] == [m.vertices for m in expected_chain]

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        self.check(request.getfixturevalue(name))

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
        for f in members:
            inside = [v for v in members if v != f and v.mask & ~f.mask == 0]
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


class TestContainedPairs:
    """The containments the chain and the clean-container checks read, one
    key lookup per member and larger parallel class, against the all-pairs
    containment scan: the same pairs, sources ascending, so the F-major list
    verify samples from is the scan's list in the same order and every seed
    draws the same cases."""

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
