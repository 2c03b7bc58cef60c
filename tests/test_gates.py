"""Gates, projections, signatures, parallelism, carriers, product regions."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import BENCH_SPECS, MEDIAN_FIXTURES, by_label, draw_product_or_wedge
from cubemedian import (
    all_convex_subcomplexes,
    box,
    carrier,
    comb_side,
    crosses,
    crossing_signature,
    gate,
    generate,
    grid,
    hull,
    hyperclosure,
    is_convex,
    is_parallel,
    parallel_bridge,
    parallel_copies,
    parallel_into,
    parse_spec,
    product_region,
    project,
    random_median,
    separators,
    set_distance,
    subcomplex,
    theta_classes,
    whole_complex,
)
from cubemedian.rng import SplitMix64


def random_convex(cx, rng, max_seed=3):
    k = 1 + rng.randrange(min(max_seed, cx.vertex_count))
    return hull(cx, rng.sample(range(cx.vertex_count), k))


class TestGate:
    def test_q2_adjacent(self, q2):
        assert gate(subcomplex(q2, [0, 2]), 3) == 2

    def test_identity_inside(self, st2):
        for verts in oracles.exhaustive_convex_subsets(st2):
            y = subcomplex(st2, verts)
            for x in verts:
                assert gate(y, x) == x

    def test_st2_bottom_row(self, st2):
        idx = by_label(st2)
        bottom = subcomplex(st2, [idx[(0, 0)], idx[(1, 0)], idx[(2, 0)]])
        assert gate(bottom, idx[(1, 2)]) == idx[(1, 0)]

    def test_vertex_out_of_range_rejected(self, g33):
        # a negative index must not wrap around to the last vertex
        y = subcomplex(g33, [0, 1])
        for x in (-1, -9, g33.vertex_count):
            with pytest.raises(ValueError, match="vertex index out of range"):
                gate(y, x)

    def test_gate_is_unique_minimizer(self, st2, rm451):
        for cx in (st2, rm451):
            nxd = oracles.nx_distances(cx)
            for verts in oracles.exhaustive_convex_subsets(cx):
                y = subcomplex(cx, verts)
                for x in range(cx.vertex_count):
                    g = gate(y, x)
                    dmin = min(nxd[x][v] for v in verts)
                    assert nxd[x][g] == dmin
                    assert sum(1 for v in verts if nxd[x][v] == dmin) == 1


class TestProject:
    def test_q2_examples(self, q2):
        assert project(subcomplex(q2, [0, 2]), subcomplex(q2, [1, 3])).vertices == (0, 2)
        assert project(subcomplex(q2, [0, 1]), subcomplex(q2, [0, 2])).vertices == (0,)

    def test_projection_onto_self(self, st2):
        for verts in oracles.exhaustive_convex_subsets(st2):
            y = subcomplex(st2, verts)
            assert project(y, y) == y

    def test_cross_parent_rejected(self, q2, p3):
        with pytest.raises(ValueError):
            project(whole_complex(q2), whole_complex(p3))


class TestProjectFilterAgreement:
    """Projection by key arithmetic against the filter over Y's vertices it
    replaced."""

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_all_pairs_of_convex_sets(self, name, request):
        subs = all_convex_subcomplexes(request.getfixturevalue(name))
        for y in subs:
            for z in subs:
                assert project(y, z) == oracles.filter_project(y, z)

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
        # three drawn targets per convex set: a product of two staircase(2)
        # has about 900 convex sets, too many for all pairs
        rng = SplitMix64(data.draw(st.integers(0, 2**64 - 1)))
        subs = all_convex_subcomplexes(cx)
        for y in subs:
            for _ in range(3):
                z = rng.choice(subs)
                assert project(y, z) == oracles.filter_project(y, z)


class TestCrossingSignature:
    def test_single_vertex_empty(self, st2):
        for v in range(st2.vertex_count):
            assert crossing_signature(subcomplex(st2, [v])) == frozenset()

    def test_whole_complex_everything(self, q2):
        assert crossing_signature(whole_complex(q2)) == {0, 1}

    def test_st2_bottom_row_is_vertical_walls(self, st2):
        idx = by_label(st2)
        bottom = subcomplex(st2, [idx[(0, 0)], idx[(1, 0)], idx[(2, 0)]])
        sig = crossing_signature(bottom)
        assert len(sig) == 2
        for cid in sig:
            # a wall crossing the bottom row separates columns: every dual
            # edge is horizontal
            for u, v in theta_classes(st2)[cid].dual_edges:
                assert st2.labels[u][1] == st2.labels[v][1]


class TestCrosses:
    def test_q2_walls_cross(self, q2):
        h, w = theta_classes(q2)
        assert crosses(h, w)

    def test_p3_walls_disjoint(self, p3):
        h, w = theta_classes(p3)
        assert not crosses(h, w)

    def test_st2_side_walls(self, st2):
        idx = by_label(st2)

        def wall_of(a, b):
            e = (min(idx[a], idx[b]), max(idx[a], idx[b]))
            return next(h for h in theta_classes(st2) if e in h.dual_edges)

        u0 = wall_of((0, 0), (1, 0))   # vertical wall x=0|1
        v1 = wall_of((1, 1), (1, 2))   # horizontal wall y=1|2
        h0 = wall_of((0, 0), (0, 1))   # horizontal wall y=0|1
        assert not crosses(u0, v1)
        assert crosses(u0, h0)

    def test_self_cross_rejected(self, q2):
        h = theta_classes(q2)[0]
        with pytest.raises(ValueError):
            crosses(h, h)

    def test_matches_square_oracle(self, q2, p3, st2, st3, box222, tree8, rm451):
        for cx in (q2, p3, st2, st3, box222, tree8, rm451):
            classes = theta_classes(cx)
            expected = oracles.crossing_pairs_by_squares(cx)
            got = {(a.class_id, b.class_id)
                   for a, b in combinations(classes, 2) if crosses(a, b)}
            assert got == expected


class TestParallelism:
    def test_q2_wall_sides(self, q2):
        assert is_parallel(subcomplex(q2, [0, 2]), subcomplex(q2, [1, 3]))

    def test_all_vertices_parallel(self, st2):
        singles = [subcomplex(st2, [v]) for v in range(st2.vertex_count)]
        for a, b in combinations(singles, 2):
            assert is_parallel(a, b)

    def test_parallel_into(self, q2):
        assert parallel_into(subcomplex(q2, [0]), subcomplex(q2, [0, 1]))
        assert not parallel_into(subcomplex(q2, [0, 1]), subcomplex(q2, [0]))

    @pytest.mark.parametrize("op", [
        lambda a, b: a <= b,
        lambda a, b: b <= a,
        is_parallel,
        parallel_into,
        set_distance,
        separators,
        parallel_bridge,
        project,
    ])
    def test_cross_parent_rejected(self, op):
        # equal keys in two complexes name unrelated sets: the 1x1 grid and
        # the 1x1 box both key vertex 0 as (0, 0)
        a = subcomplex(grid(1, 1), [0])
        b = subcomplex(box(1, 1), [0])
        assert (a.crossing_mask, a.base) == (b.crossing_mask, b.base) and a != b
        with pytest.raises(ValueError, match="subcomplexes belong to different complexes"):
            op(a, b)


class TestParallelCopies:
    def test_q2_edge(self, q2):
        copies = parallel_copies(subcomplex(q2, [0, 1]))
        assert [c.vertices for c in copies] == [(0, 1), (2, 3)]

    def test_whole_is_alone(self, q2, st2):
        for cx in (q2, st2):
            assert parallel_copies(whole_complex(cx)) == [whole_complex(cx)]

    def test_matches_exhaustive_scan(self, q2, p3, st2, tree8, rm451):
        for cx in (q2, p3, st2, tree8, rm451):
            for verts in oracles.exhaustive_convex_subsets(cx):
                a = subcomplex(cx, verts)
                # in vertex-tuple order, which verify's sampling relies on
                got = [c.vertices for c in parallel_copies(a)]
                assert got == oracles.copies_by_scan(a)


class TestProductRegion:
    def test_q2_edge(self, q2):
        pr = product_region(subcomplex(q2, [0, 1]), 0)
        assert pr.region == whole_complex(q2)
        assert pr.complement.vertices == (0, 2)

    def test_single_vertex(self, st2):
        pr = product_region(subcomplex(st2, [3]), 3)
        assert pr.region == whole_complex(st2)
        assert pr.complement == whole_complex(st2)

    def test_g33_middle_column(self, g33):
        idx = by_label(g33)
        col = subcomplex(g33, [idx[(1, 0)], idx[(1, 1)], idx[(1, 2)]])
        pr = product_region(col, idx[(1, 0)])
        assert pr.complement.vertices == tuple(sorted(idx[(i, 0)] for i in range(3)))
        assert pr.region == whole_complex(g33)

    def test_invariants(self, st2, rm451):
        rng = SplitMix64(7)
        for cx in (st2, rm451):
            for _ in range(40):
                a = random_convex(cx, rng)
                pr = product_region(a, a.vertices[0])
                # bijection region <-> base x complement
                coords = set(pr.coordinates.values())
                assert len(coords) == len(pr.region) == len(a) * len(pr.complement)
                assert coords == {(u, v) for u in a.vertices
                                  for v in pr.complement.vertices}
                # crossing classes split between the factors, pairwise crossing
                sig_a = crossing_signature(a)
                sig_c = crossing_signature(pr.complement)
                assert crossing_signature(pr.region) == sig_a | sig_c
                assert not sig_a & sig_c
                for i in sig_a:
                    for j in sig_c:
                        assert cx.crossing_masks[i] >> j & 1

    def test_basepoint_must_be_inside(self, q2):
        for x in (3, -2, 4):
            with pytest.raises(ValueError, match=f"basepoint {x} is not in the subcomplex"):
                product_region(subcomplex(q2, [0, 1]), x)


class TestCarrier:
    def test_q2_vertical(self, q2):
        h = next(h for h in theta_classes(q2) if (0, 1) in h.dual_edges)
        assert carrier(h) == whole_complex(q2)

    def test_p3(self, p3):
        h = next(h for h in theta_classes(p3) if (0, 1) in h.dual_edges)
        assert carrier(h).vertices == (0, 1)

    def test_st2_left_wall(self, st2):
        idx = by_label(st2)
        e = (min(idx[(0, 0)], idx[(1, 0)]), max(idx[(0, 0)], idx[(1, 0)]))
        h = next(h for h in theta_classes(st2) if e in h.dual_edges)
        labels = {st2.labels[v] for v in carrier(h).vertices}
        assert labels == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_carrier_is_union_of_sides(self, st3):
        for h in theta_classes(st3):
            assert carrier(h).vertices == tuple(sorted(h.comb_sides[0].vertices +
                                                       h.comb_sides[1].vertices))
            assert is_convex(st3, carrier(h).vertices)


class TestKeysAgainstHulls:
    """Sides, carriers and product regions as keys from the crossing masks,
    against the hulls of their vertices that they replaced."""

    @staticmethod
    def check(cx, rng):
        for h in theta_classes(cx):
            for sign in (-1, 1):
                assert comb_side(h, sign) is oracles.hull_comb_side(h, sign)
            assert carrier(h) is oracles.hull_carrier(h)
            assert carrier(h).vertices == tuple(sorted(h.comb_sides[0].vertices +
                                                       h.comb_sides[1].vertices))
        n = cx.vertex_count
        subjects = list(hyperclosure(cx).members)
        subjects += [random_convex(cx, rng) for _ in range(min(n, 40))]
        subjects += [hull(cx, rng.sample(range(n), min(n, 6))) for _ in range(10)]
        for a in subjects:
            x = rng.choice(a.vertices)
            pr = product_region(a, x)
            assert pr.region is oracles.hull_product_region(a, x)
            assert set(pr.coordinates.values()) == {(u, v) for u in a.vertices
                                                    for v in pr.complement.vertices}

    @pytest.mark.parametrize("name", MEDIAN_FIXTURES)
    def test_fixtures(self, name, request):
        self.check(request.getfixturevalue(name), SplitMix64(11))

    @pytest.mark.parametrize("spec", BENCH_SPECS)
    def test_larger_complexes(self, spec):
        self.check(generate(parse_spec(spec)), SplitMix64(12))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_median(self, data):
        dim = data.draw(st.integers(1, 6))
        count = data.draw(st.integers(1, min(10, 1 << dim)))
        cx = random_median(dim, count, seed=data.draw(st.integers(0, 2**64 - 1)))
        self.check(cx, SplitMix64(data.draw(st.integers(0, 2**64 - 1))))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_products_and_wedges(self, data):
        cx = draw_product_or_wedge(data)
        self.check(cx, SplitMix64(data.draw(st.integers(0, 2**64 - 1))))


class TestGateLaws:
    def test_gate_crossing_law(self, st2, g33, box222, rm451):
        rng = SplitMix64(99)
        for cx in (st2, g33, box222, rm451):
            for _ in range(120):
                y, z = random_convex(cx, rng), random_convex(cx, rng)
                img = project(y, z)
                assert crossing_signature(img) == \
                    crossing_signature(y) & crossing_signature(z)
                assert is_convex(cx, img.vertices)

    def test_symmetric_parallelism(self, st2, rm451):
        rng = SplitMix64(100)
        for cx in (st2, rm451):
            for _ in range(120):
                y, z = random_convex(cx, rng), random_convex(cx, rng)
                assert is_parallel(project(y, z), project(z, y))

    def test_currying(self, st2, g33, rm451):
        rng = SplitMix64(101)
        for cx in (st2, g33, rm451):
            for _ in range(120):
                c, d, e = (random_convex(cx, rng) for _ in range(3))
                p1 = project(project(c, d), e)
                p2 = project(c, project(d, e))
                p3 = project(c, project(e, d))
                assert is_parallel(p1, p2) and is_parallel(p2, p3)

    def test_parallel_product_decomposition(self, st2, st3, rm451):
        rng = SplitMix64(102)
        for cx in (st2, st3, rm451):
            for _ in range(80):
                f = random_convex(cx, rng)
                f2 = rng.choice(parallel_copies(f))
                seps = separators(f, f2)
                region = hull(cx, f.vertices + f2.vertices)
                assert crossing_signature(region) == crossing_signature(f) | seps
                assert not crossing_signature(f) & seps
                bridge = parallel_bridge(f, f2)
                assert crossing_signature(bridge) == seps
                coords = {(gate(f, v), gate(bridge, v)) for v in region.vertices}
                assert len(coords) == len(region) == len(f) * len(bridge)
