"""Gate maps and their derived structure.

The gate of a vertex in a convex subcomplex is its unique nearest point;
gating one convex subcomplex into another gives the projection.  A convex
subcomplex is keyed by its crossing mask (the wall classes on which it has
both signs) and its base (its signs on the other classes), and the crossing
mask controls everything here: two subcomplexes are parallel iff their
crossing masks agree, and a projection is crossed exactly by the classes
crossing both factors.  Gates and projections keep a vertex's signs on the
classes crossing the target and take the target's signs on the others, so
each is one bit expression over keys and sign vectors.

The queries on vertices and vertex sets live here too: the median of
three vertices, which is the gate of one in the interval of the other two,
intervals, convexity and the convex subcomplex on a vertex set, each read
from `hull`.  The hyperclosure pipeline works on keys and calls none of
them, so `analyze`, `build` and `export`, which do not load this module,
do not compile them.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .core import (
    ConvexSubcomplex,
    HyperplaneClass,
    MedianComplex,
    _bits,
    _same_parent,
    hull,
)
from .errors import InvariantViolation
from .orthocomplement import orth


def gate(y: ConvexSubcomplex, x: int) -> int:
    """The vertex of Y closest to x: x's signs on the classes crossing Y,
    Y's signs on the others."""
    cx = y.parent
    if not 0 <= x < cx.vertex_count:
        raise ValueError("vertex index out of range")
    sign = (cx.signs[x] & y.crossing_mask) | y.base
    v = cx.by_sign.get(sign)
    return cx.vertex_at(sign) if v is None else v  # vertex_at raises the missing vertex's line


def project(y: ConvexSubcomplex, z: ConvexSubcomplex) -> ConvexSubcomplex:
    """Gate image of Z in Y: the vertices of Y with Z's signs on the classes
    crossing Y but not Z.  It is crossed exactly by the classes crossing both."""
    _same_parent(y, z)
    fy, fz = y.crossing_mask, z.crossing_mask
    return ConvexSubcomplex(y.parent, fy & fz, y.base | (z.base & fy & ~fz))


def crossing_signature(s: ConvexSubcomplex) -> frozenset[int]:
    """Ids of the wall classes crossing S (for convex S: those with a dual
    edge inside S)."""
    return frozenset(_bits(s.crossing_mask))


def crosses(h: HyperplaneClass, w: HyperplaneClass) -> bool:
    """True iff the two walls cross: some square has one edge dual to each,
    which in a median graph means all four halfspace intersections of the
    two walls are nonempty."""
    if h.parent is not w.parent:
        raise ValueError("walls belong to different complexes")
    if h.class_id == w.class_id:
        raise ValueError("a wall does not cross itself")
    return (h.parent.crossing_masks[h.class_id] >> w.class_id) & 1 == 1


def is_parallel(s: ConvexSubcomplex, t: ConvexSubcomplex) -> bool:
    _same_parent(s, t)
    return s.crossing_mask == t.crossing_mask


def parallel_into(s: ConvexSubcomplex, t: ConvexSubcomplex) -> bool:
    _same_parent(s, t)
    return s.crossing_mask & ~t.crossing_mask == 0


def carrier(h: HyperplaneClass) -> ConvexSubcomplex:
    """Endpoints of the dual edges: the union of the two combinatorial sides,
    crossed by h and by the classes crossing h, with the sides' base off them."""
    free = h.comb_sides[0].crossing_mask | 1 << h.class_id
    return ConvexSubcomplex(h.parent, free, h.comb_sides[0].base & ~free)


def comb_side(h: HyperplaneClass, sign: int) -> ConvexSubcomplex:
    """Combinatorial hyperplane on one side of the wall (sign is -1 or +1), as
    the key in `h.comb_sides`: on walls not certified median it raises
    InvariantViolation."""
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    return h.comb_sides[sign > 0]


def set_distance(s: ConvexSubcomplex, t: ConvexSubcomplex) -> int:
    """The number of walls separating S and T: constant on both, with
    different signs."""
    _same_parent(s, t)
    return ((s.base ^ t.base) & ~(s.crossing_mask | t.crossing_mask)).bit_count()


def separators(f: ConvexSubcomplex, f2: ConvexSubcomplex) -> frozenset[int]:
    """Classes crossing hull(F ∪ F2) but neither F nor F2 (F, F2 parallel):
    those on which F and F2 are constant, with different signs."""
    _same_parent(f, f2)
    return frozenset(_bits((f.base ^ f2.base) & ~(f.crossing_mask | f2.crossing_mask)))


def parallel_bridge(f: ConvexSubcomplex, f2: ConvexSubcomplex) -> ConvexSubcomplex:
    """Hull of a shortest geodesic between F and F2 (least starting vertex)."""
    _same_parent(f, f2)
    signs = f.parent.signs
    fixed = ~f2.crossing_mask
    # d(v, F2) counts the classes missing F2 on which v differs from F2
    x = min(f.vertices, key=lambda v: (((signs[v] & fixed) ^ f2.base).bit_count(), v))
    return hull(f.parent, (x, gate(f2, x)))


class ProductRegion(NamedTuple):
    """Hull of a subcomplex and its orthogonal complement at a basepoint.

    coordinates maps each region vertex to its (base, complement) gate pair
    and is a bijection onto base × complement.
    """

    base: ConvexSubcomplex
    complement: ConvexSubcomplex
    region: ConvexSubcomplex
    coordinates: dict[int, tuple[int, int]]


def product_region(a: ConvexSubcomplex, basepoint: int) -> ProductRegion:
    """Product region of A at a point a of A: hull(A ∪ orth(A, a)) ≅ A × orth(A, a),
    crossed by the classes crossing either (both hold a), with a's signs off them."""
    if basepoint not in a:
        raise ValueError(f"basepoint {basepoint} is not in the subcomplex")
    complement = orth(a, basepoint)
    free = a.crossing_mask | complement.crossing_mask
    region = ConvexSubcomplex(a.parent, free, complement.base & ~free)
    coords = {v: (gate(a, v), gate(complement, v)) for v in region.vertices}
    return ProductRegion(base=a, complement=complement, region=region, coordinates=coords)


def parallel_copies(a: ConvexSubcomplex) -> list[ConvexSubcomplex]:
    """The full parallelism class of A: every key crossed by A's classes, by least vertex."""
    return list(a.parent.parallel_class(a.crossing_mask))


# -- vertex-set queries --------------------------------------------------


def median(cx: MedianComplex, x: int, y: int, z: int) -> int:
    """The vertex whose signs are the bitwise majority of those of x, y, z.

    >>> from cubemedian.generators import grid
    >>> median(grid(1, 1), 0, 1, 2)
    0
    """
    if not all(0 <= v < cx.vertex_count for v in (x, y, z)):
        raise ValueError("vertex index out of range")
    a, b, c = cx.signs[x], cx.signs[y], cx.signs[z]
    m = cx.by_sign.get((a & b) | (a & c) | (b & c))
    if m is None:
        raise InvariantViolation(f"triple ({x},{y},{z}) has no median")
    return m


def interval(cx: MedianComplex, x: int, y: int) -> frozenset[int]:
    """I(x,y) = {v : d(x,v)+d(v,y) = d(x,y)}: the vertices that agree with x
    and y where those two agree, which is hull({x, y})."""
    return frozenset(hull(cx, (x, y)).vertices)


def is_convex(cx: MedianComplex, vertices: Iterable[int]) -> bool:
    """True iff the set equals its hull."""
    verts = tuple(sorted(set(vertices)))
    if not verts:
        raise ValueError("is_convex requires a nonempty vertex set")
    return hull(cx, verts).vertices == verts


def subcomplex(parent: MedianComplex, vertices: Iterable[int]) -> ConvexSubcomplex:
    """The convex subcomplex on the given vertices; raises ValueError unless
    they form a nonempty convex set."""
    verts = tuple(sorted(set(vertices)))
    if not verts:
        raise ValueError("subcomplex must be nonempty")
    s = hull(parent, verts)
    if s.vertices != verts:
        raise ValueError(f"vertex set {verts} is not convex")
    return s
