"""Gate maps and their derived structure.

The gate of a vertex in a convex subcomplex is its unique nearest point;
gating one convex subcomplex into another gives the projection.  Crossing
signatures (the wall classes on which a subcomplex has both signs,
represented as a frozenset of class ids) control everything here: two
subcomplexes are parallel iff their signatures agree, and a projection is
crossed exactly by the classes crossing both factors.  Gates and
projections keep a vertex's signs on the classes crossing the target and
take the target's signs on the others, so each is one bit expression over
sign vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ConvexSubcomplex, HyperplaneClass, _agreeing, _from_mask, hull, subcomplex


def gate(y: ConvexSubcomplex, x: int) -> int:
    """The vertex of Y closest to x: x's signs on the classes crossing Y,
    Y's signs on the others."""
    if not 0 <= x < y.parent.vertex_count:
        raise ValueError("vertex index out of range")
    signs = y.parent.signs
    free = y.crossing_mask
    return y.parent.vertex_at((signs[x] & free) | (signs[y.vertices[0]] & ~free))


def project(y: ConvexSubcomplex, z: ConvexSubcomplex) -> ConvexSubcomplex:
    """Gate image of Z in Y: the vertices of Y with Z's signs on the classes
    crossing Y but not Z.  It is crossed exactly by the classes crossing both."""
    if y.parent is not z.parent:
        raise ValueError("projection requires subcomplexes of the same complex")
    fixed = y.crossing_mask & ~z.crossing_mask
    return _agreeing(y.parent, fixed, y.parent.signs[z.vertices[0]] & fixed, y.vertices)


def crossing_signature(s: ConvexSubcomplex) -> frozenset[int]:
    """Ids of the wall classes crossing S (for convex S: those with a dual
    edge inside S), cached on S."""
    return s.signature


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
    return crossing_signature(s) == crossing_signature(t)


def parallel_into(s: ConvexSubcomplex, t: ConvexSubcomplex) -> bool:
    return crossing_signature(s) <= crossing_signature(t)


def carrier(h: HyperplaneClass) -> ConvexSubcomplex:
    """Endpoints of the dual edges: the union of the two combinatorial sides."""
    return _from_mask(h.parent, h.comb_minus_mask | h.comb_plus_mask)


def comb_side(h: HyperplaneClass, sign: int) -> ConvexSubcomplex:
    """Combinatorial hyperplane on one side of the wall (sign is -1 or +1)."""
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    mask = h.comb_minus_mask if sign < 0 else h.comb_plus_mask
    return _from_mask(h.parent, mask)


def set_distance(s: ConvexSubcomplex, t: ConvexSubcomplex) -> int:
    """The number of walls separating S and T: constant on both, with
    different signs."""
    signs = s.parent.signs
    apart = signs[s.vertices[0]] ^ signs[t.vertices[0]]
    return (apart & ~(s.crossing_mask | t.crossing_mask)).bit_count()


def separators(f: ConvexSubcomplex, f2: ConvexSubcomplex) -> frozenset[int]:
    """Classes crossing hull(F ∪ F2) but neither F nor F2 (F, F2 parallel)."""
    region = hull(f.parent, f.vertices + f2.vertices)
    return crossing_signature(region) - crossing_signature(f) - crossing_signature(f2)


def parallel_bridge(f: ConvexSubcomplex, f2: ConvexSubcomplex) -> ConvexSubcomplex:
    """Hull of a shortest geodesic between F and F2 (least starting vertex)."""
    signs = f.parent.signs
    fixed = ~f2.crossing_mask
    t0 = signs[f2.vertices[0]]
    # d(v, F2) counts the classes missing F2 on which v differs from F2
    x = min(f.vertices, key=lambda v: (((signs[v] ^ t0) & fixed).bit_count(), v))
    return hull(f.parent, (x, gate(f2, x)))


@dataclass(frozen=True, eq=False)
class ProductRegion:
    """Hull of a subcomplex and its orthogonal complement at a basepoint.

    coordinates maps each region vertex to its (base, complement) gate pair
    and is a bijection onto base × complement.
    """

    base: ConvexSubcomplex
    complement: ConvexSubcomplex
    region: ConvexSubcomplex
    coordinates: dict[int, tuple[int, int]]


def product_region(a: ConvexSubcomplex, basepoint: int) -> ProductRegion:
    """Product region of A at a point of A: hull(A ∪ orth(A, a)) ≅ A × orth(A, a)."""
    from .orthocomplement import orth

    if basepoint not in a:
        raise ValueError(f"basepoint {basepoint} is not in the subcomplex")
    cx = a.parent
    complement = orth(a, basepoint)
    region = hull(cx, a.vertices + complement.vertices)
    coords = {v: (gate(a, v), gate(complement, v)) for v in region.vertices}
    return ProductRegion(base=a, complement=complement, region=region, coordinates=coords)


def parallel_copies(a: ConvexSubcomplex) -> list[ConvexSubcomplex]:
    """The full parallelism class of A: the base slices of its product region."""
    pr = product_region(a, a.vertices[0])
    slices: dict[int, list[int]] = {b: [] for b in pr.complement.vertices}
    for v in pr.region.vertices:
        slices[pr.coordinates[v][1]].append(v)
    copies = [subcomplex(a.parent, verts) for verts in slices.values()]
    copies.sort(key=lambda s: s.vertices)
    return copies
