"""Orthogonal complements: formula vs definition, identities, compact witnesses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import MEDIAN_FIXTURES, by_label, draw_product_or_wedge
from cubemedian import (
    MedianComplex,
    crossing_signature,
    hull,
    hyperclosure,
    is_parallel,
    orth,
    random_median,
    subcomplex,
    whole_complex,
    witness_compact,
)
from cubemedian.core import all_convex_subcomplexes
from cubemedian.rng import SplitMix64


def random_convex(cx, rng):
    k = 1 + rng.randrange(min(3, cx.vertex_count))
    return hull(cx, rng.sample(range(cx.vertex_count), k))


class TestOrthExamples:
    def test_q2_edge(self, q2):
        assert orth(subcomplex(q2, [0, 1]), 0).vertices == (0, 2)

    def test_single_vertex_gives_whole(self, q2, st2):
        for cx in (q2, st2):
            for v in range(cx.vertex_count):
                assert orth(subcomplex(cx, [v]), v) == whole_complex(cx)

    def test_whole_gives_single_vertex(self, q2, st2, box222):
        for cx in (q2, st2, box222):
            for v in range(cx.vertex_count):
                assert orth(whole_complex(cx), v).vertices == (v,)

    def test_st2_bottom_row(self, st2):
        # the x=0|1 wall stops at height 1, so the complement at (2,0) is the
        # two-vertex column {(2,0),(2,1)}; frozen from the definition oracle
        idx = by_label(st2)
        bottom = subcomplex(st2, [idx[(0, 0)], idx[(1, 0)], idx[(2, 0)]])
        got = orth(bottom, idx[(2, 0)])
        assert got == oracles.orth_by_definition(bottom, idx[(2, 0)])
        assert {st2.labels[v] for v in got.vertices} == {(2, 0), (2, 1)}

    def test_basepoint_outside_rejected(self, q2):
        for x in (2, -1, 4):
            with pytest.raises(ValueError, match=f"basepoint {x} is not in the subcomplex"):
                orth(subcomplex(q2, [0, 1]), x)


def assert_matches_oracles(a, x):
    got = orth(a, x)
    assert got == oracles.projection_orth(a, x)
    assert got == oracles.orth_by_definition(a, x)


class TestProjectionOracleAgreement:
    """The sign filter against the projection construction it replaced and
    against the vertex-level definition."""

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_every_convex_set_and_basepoint(self, name, request):
        cx = request.getfixturevalue(name)
        for a in all_convex_subcomplexes(cx):
            for x in a.vertices:
                assert_matches_oracles(a, x)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_median(self, data):
        dim = data.draw(st.integers(1, 5))
        count = data.draw(st.integers(1, min(10, 1 << dim)))
        cx = random_median(dim, count, seed=data.draw(st.integers(0, 2**64 - 1)))
        self.check_drawn(cx, data)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_products_and_wedges(self, data):
        self.check_drawn(draw_product_or_wedge(data), data)

    @staticmethod
    def check_drawn(cx, data):
        # one drawn basepoint per convex set: staircase(2) x staircase(2) alone
        # has 7,225 (set, basepoint) pairs, about 2 s against both oracles
        rng = SplitMix64(data.draw(st.integers(0, 2**64 - 1)))
        for a in all_convex_subcomplexes(cx):
            assert_matches_oracles(a, rng.choice(a.vertices))


class TestPolarTable:
    """The polar kept once per crossing mask against the AND loop over the
    mask's classes that each orth call ran before it."""

    @staticmethod
    def check(cx):
        fresh = MedianComplex(cx.vertex_count, cx.edges)
        assert fresh._polars == {}  # filled on first ask, not at construction
        subs = all_convex_subcomplexes(fresh)
        for a in subs:
            x = a.vertices[-1]
            assert orth(a, x) == oracles.and_loop_orth(a, x)
        masks = {a.crossing_mask for a in subs}
        assert set(fresh._polars) == masks
        for mask in masks:
            assert fresh._polars[mask] == oracles.and_loop_polar(fresh, mask)

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        self.check(request.getfixturevalue(name))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_median(self, data):
        dim = data.draw(st.integers(1, 6))
        count = data.draw(st.integers(1, min(10, 1 << dim)))
        self.check(random_median(dim, count, seed=data.draw(st.integers(0, 2**64 - 1))))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_products_and_wedges(self, data):
        self.check(draw_product_or_wedge(data))


class TestFormulaVsDefinition:
    def test_exhaustive_small_fixtures(self, q2, p3, st2, tree8, rm451):
        for cx in (q2, p3, st2, tree8, rm451):
            for verts in oracles.exhaustive_convex_subsets(cx):
                a = subcomplex(cx, verts)
                for x in verts:
                    assert orth(a, x) == oracles.orth_by_definition(a, x)

    def test_sampled_larger_fixtures(self, st3, g33, box222):
        rng = SplitMix64(11)
        for cx in (st3, g33, box222):
            for _ in range(150):
                a = random_convex(cx, rng)
                x = rng.choice(a.vertices)
                assert orth(a, x) == oracles.orth_by_definition(a, x)


class TestIdentities:
    def test_triple_complement(self, st2, st3, g33, rm451):
        rng = SplitMix64(12)
        for cx in (st2, st3, g33, rm451):
            for _ in range(150):
                a = random_convex(cx, rng)
                x = rng.choice(a.vertices)
                o1 = orth(a, x)
                assert orth(orth(o1, x), x) == o1

    def test_double_complement_on_members(self, q2, p3, st2, st3, rm451):
        for cx in (q2, p3, st2, st3, rm451):
            closure = hyperclosure(cx)
            for member in closure.members:
                for x in member.vertices:
                    assert orth(orth(member, x), x) == member

    def test_contravariance(self, st2, st3, box222, rm451):
        rng = SplitMix64(13)
        for cx in (st2, st3, box222, rm451):
            for _ in range(150):
                b = random_convex(cx, rng)
                a = hull(cx, rng.sample(b.vertices, 1 + rng.randrange(len(b))))
                x = rng.choice(a.vertices)
                assert set(orth(b, x).vertices) <= set(orth(a, x).vertices)

    def test_complement_closure(self, q2, st2, st3, rm451):
        rng = SplitMix64(14)
        for cx in (q2, st2, st3, rm451):
            members = hyperclosure(cx).member_set
            for _ in range(100):
                a = random_convex(cx, rng)
                x = rng.choice(a.vertices)
                assert orth(a, x) in members

    def test_parallel_at_any_basepoint(self, st2, rm451):
        for cx in (st2, rm451):
            for verts in oracles.exhaustive_convex_subsets(cx):
                a = subcomplex(cx, verts)
                complements = [orth(a, x) for x in verts]
                assert all(is_parallel(complements[0], o) for o in complements[1:])


class TestBasedComplement:
    def test_invariants(self, st2, st3):
        rng = SplitMix64(15)
        for cx in (st2, st3):
            for _ in range(80):
                a = random_convex(cx, rng)
                x = rng.choice(a.vertices)
                complement = orth(a, x)
                assert x in complement
                sig_a = crossing_signature(a)
                sig_c = crossing_signature(complement)
                assert not sig_a & sig_c
                for i in sig_c:
                    for j in sig_a:
                        assert cx.crossing_masks[i] >> j & 1
                if len(a) == 1:
                    assert complement == whole_complex(cx)


class TestWitnessCompact:
    def test_q2_wall_side(self, q2):
        c, x = witness_compact(subcomplex(q2, [0, 2]))
        assert c.vertices == (0, 1) and x == 0
        assert orth(c, x) == subcomplex(q2, [0, 2])

    def test_whole_complex(self, st2):
        c, x = witness_compact(whole_complex(st2))
        assert len(c) == 1 and x in c
        assert orth(c, x) == whole_complex(st2)

    def test_st2_bottom_right_edge(self, st2):
        idx = by_label(st2)
        f = subcomplex(st2, [idx[(1, 0)], idx[(2, 0)]])
        c, x = witness_compact(f)
        assert orth(c, x) == f
        assert (c, x) in oracles.witnesses_by_search(f)

    def test_every_member_witnessed(self, q2, p3, st2, st3, rm451, tree8):
        for cx in (q2, p3, st2, st3, rm451, tree8):
            for member in hyperclosure(cx).members:
                c, x = witness_compact(member)
                assert x in c and x in member
                assert orth(c, x) == member

    def test_non_member_rejected(self, st2):
        # the left square is convex but not in the hyperclosure
        square = subcomplex(st2, [0, 1, 2, 3])
        with pytest.raises(ValueError):
            witness_compact(square)


class TestWitnessOracleAgreement:
    """The double complement against the derivation walk it replaced: on
    every convex set, witness_compact succeeds iff the set is a member, and
    on members both witnesses give the member back."""

    @staticmethod
    def check(cx):
        closure = hyperclosure(cx)
        for s in all_convex_subcomplexes(cx):
            if s not in closure.member_set:
                with pytest.raises(ValueError, match="is not a hyperclosure member"):
                    witness_compact(s)
                continue
            c, x = witness_compact(s)
            assert x in c and x in s and orth(c, x) == s
            c, x = oracles.derivation_witness(s, closure)
            assert x in c and orth(c, x) == s

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        self.check(request.getfixturevalue(name))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_median(self, data):
        dim = data.draw(st.integers(1, 5))
        count = data.draw(st.integers(1, min(10, 1 << dim)))
        self.check(random_median(dim, count, seed=data.draw(st.integers(0, 2**64 - 1))))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_products_and_wedges(self, data):
        self.check(draw_product_or_wedge(data))


class TestCharacterization:
    def test_complements_of_compacts_equal_members(self, q2, p3, st2, tree8, rm451):
        # both directions of the compact-complement characterization
        for cx in (q2, p3, st2, tree8, rm451):
            closure = hyperclosure(cx)
            complements = set()
            for verts in oracles.exhaustive_convex_subsets(cx):
                c = subcomplex(cx, verts)
                for x in verts:
                    complements.add(orth(c, x))
            assert complements == closure.member_set
