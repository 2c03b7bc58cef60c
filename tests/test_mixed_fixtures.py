"""Closure/oracle agreement and invariant suites on composite fixtures.

The generated families are coordinate-labeled, which can hide any hidden
dependence on vertex numbering; this battery mixes products, wedges,
glued rays and random relabelings.
"""

import pytest

from oracles import vertex_mask
from cubemedian import (
    MedianComplex,
    box,
    crossing_signature,
    glued_staircase_ray,
    grid,
    hull,
    hyperclosure,
    oracle_hyperclosure,
    parallel_copies,
    product,
    random_median,
    separators,
    staircase,
    subcomplex,
    theta_classes,
    tree,
    validate,
    verify_complex,
    wedge,
)
from cubemedian.rng import SplitMix64


def permuted(cx, seed):
    rng = SplitMix64(seed)
    perm = rng.sample(range(cx.vertex_count), cx.vertex_count)
    edges = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in cx.edges]
    out = MedianComplex(cx.vertex_count, edges)
    assert validate(out).passed
    return out


def battery():
    yield "tree-x-path", product(tree(4, seed=3), box(2))
    yield "square-x-path", product(grid(1, 1), box(1))
    yield "wedge-squares", wedge(grid(1, 1), 3, grid(1, 1), 0)
    yield "wedge-st2-tree", wedge(staircase(2), 4, tree(5, seed=2), 0)
    yield "glued-ray-2", glued_staircase_ray(2)
    yield "permuted-st2", permuted(staircase(2), 99)
    yield "permuted-box", permuted(box(2, 2), 5)
    yield "rm-3-6", random_median(3, 6, seed=11)
    yield "rm-5-5", random_median(5, 5, seed=4)


class TestBattery:
    def test_oracle_agreement_small(self):
        for name, cx in battery():
            if cx.vertex_count <= 14:
                closure = hyperclosure(cx)
                assert oracle_hyperclosure(cx) == closure.member_set, name

    def test_invariant_suites(self):
        for name, cx in battery():
            violations = verify_complex(cx, suite="all", cases=150, seed=5)
            assert not violations, (name, violations[0])

    def test_parallelism_closure(self):
        for name, cx in battery():
            closure = hyperclosure(cx)
            for member in closure.members:
                for copy in parallel_copies(member):
                    assert copy in closure.member_set, name


class TestSeparatorSemantics:
    # classes crossing the hull of two parallel copies but neither copy are
    # exactly the classes with the copies in opposite halfspaces
    def test_separators_separate(self, st3, g33, rm451):
        rng = SplitMix64(77)
        for cx in (st3, g33, rm451):
            classes = theta_classes(cx)
            for _ in range(100):
                k = 1 + rng.randrange(min(3, cx.vertex_count))
                f = hull(cx, rng.sample(range(cx.vertex_count), k))
                f2 = rng.choice(parallel_copies(f))
                fm, f2m = vertex_mask(f.vertices), vertex_mask(f2.vertices)
                by_sides = {
                    h.class_id for h in classes
                    if (fm & ~h.side_minus_mask == 0 and f2m & ~h.side_plus_mask == 0) or
                       (fm & ~h.side_plus_mask == 0 and f2m & ~h.side_minus_mask == 0)}
                assert separators(f, f2) == by_sides


class TestProductStructure:
    def test_signatures_split_by_factor(self):
        left, right = staircase(2), tree(4, seed=1)
        prod = product(left, right)
        n2 = right.vertex_count
        # a slice {u} x right is convex and crossed by the right factor's walls
        for u in (0, 3):
            slice_verts = [u * n2 + w for w in range(n2)]
            sig = crossing_signature(subcomplex(prod, slice_verts))
            assert len(sig) == len(theta_classes(right))
        assert len(theta_classes(prod)) == \
            len(theta_classes(left)) + len(theta_classes(right))
