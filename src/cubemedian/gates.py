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
"""

from __future__ import annotations

from .core import ConvexSubcomplex, HyperplaneClass, _bits, _Frozen, _same_parent, hull
from .orthocomplement import orth


def gate(y: ConvexSubcomplex, x: int) -> int:
    """The vertex of Y closest to x: x's signs on the classes crossing Y,
    Y's signs on the others."""
    if not 0 <= x < y.parent.vertex_count:
        raise ValueError("vertex index out of range")
    return y.parent.vertex_at((y.parent.signs[x] & y.crossing_mask) | y.base)


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
    crossed by h and by the classes crossing h."""
    return hull(h.parent, _bits(h.comb_minus_mask | h.comb_plus_mask))


def comb_side(h: HyperplaneClass, sign: int) -> ConvexSubcomplex:
    """Combinatorial hyperplane on one side of the wall (sign is -1 or +1),
    as the hull of its vertices: on non-median input that hull can be larger
    and its projections empty, which reading their vertices reports."""
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    mask = h.comb_minus_mask if sign < 0 else h.comb_plus_mask
    return hull(h.parent, _bits(mask))


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


class ProductRegion(_Frozen):
    """Hull of a subcomplex and its orthogonal complement at a basepoint.

    coordinates maps each region vertex to its (base, complement) gate pair
    and is a bijection onto base × complement.
    """

    def __init__(self, base: ConvexSubcomplex, complement: ConvexSubcomplex,
                 region: ConvexSubcomplex, coordinates: dict[int, tuple[int, int]]):
        self.__dict__.update(base=base, complement=complement, region=region,
                             coordinates=coordinates)


def product_region(a: ConvexSubcomplex, basepoint: int) -> ProductRegion:
    """Product region of A at a point of A: hull(A ∪ orth(A, a)) ≅ A × orth(A, a)."""
    if basepoint not in a:
        raise ValueError(f"basepoint {basepoint} is not in the subcomplex")
    cx = a.parent
    complement = orth(a, basepoint)
    region = hull(cx, a.vertices + complement.vertices)
    coords = {v: (gate(a, v), gate(complement, v)) for v in region.vertices}
    return ProductRegion(base=a, complement=complement, region=region, coordinates=coords)


def parallel_copies(a: ConvexSubcomplex) -> list[ConvexSubcomplex]:
    """The full parallelism class of A, in vertex order: the base slices of
    its product region, one through each b in orth(A, a), crossed by A's
    classes and with b's signs on the others."""
    cx, free = a.parent, a.crossing_mask
    bases = {cx.signs[b] & ~free for b in orth(a, a.vertices[0])}
    first_seen = dict.fromkeys(s & ~free for s in cx.signs)
    return [ConvexSubcomplex(cx, free, base) for base in first_seen if base in bases]
