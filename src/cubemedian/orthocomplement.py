"""Orthogonal complements of convex subcomplexes at a basepoint.

orth(A, a) is the convex subcomplex through a whose crossing classes are
exactly the classes that cross every class crossing A while missing every
parallel copy of A.  It is computed constructively: intersect the
projections onto Y of both combinatorial sides of every class crossing A,
where Y is the intersection of the combinatorial sides at a.

witness_compact inverts the construction: every hyperclosure member is the
orthogonal complement of some compact (here: any) convex subcomplex, built
by recursion over the member's derivation.
"""

from __future__ import annotations

from .core import ConvexSubcomplex, _from_mask, hull, subcomplex, whole_complex
from .errors import InvariantViolation
from .gates import crossing_signature, parallel_copies, project, set_distance


def orth(a: ConvexSubcomplex, basepoint: int) -> ConvexSubcomplex:
    """Orthogonal complement of A at a point of A.

    A single vertex has the whole complex as its complement; the whole
    complex has the single vertex.
    """
    if basepoint not in a:
        raise ValueError(f"basepoint {basepoint} is not in the subcomplex")
    cx = a.parent
    if len(a) == 1:
        return whole_complex(cx)
    sig = sorted(crossing_signature(a))
    classes = cx.classes
    y_mask = cx.full_mask
    for cid in sig:
        for comb in (classes[cid].comb_minus_mask, classes[cid].comb_plus_mask):
            if (comb >> basepoint) & 1:
                y_mask &= comb
    y = _from_mask(cx, y_mask)
    result = cx.full_mask
    for cid in sig:
        h = classes[cid]
        for side_mask in (h.comb_minus_mask, h.comb_plus_mask):
            result &= project(y, _from_mask(cx, side_mask)).mask
    return _from_mask(cx, result)


def witness_compact(f: ConvexSubcomplex, closure=None) -> tuple[ConvexSubcomplex, int]:
    """A convex subcomplex C and x ∈ C ∩ F with orth(C, x) = F.

    F must be a hyperclosure member.  The witness follows the member's
    derivation: the whole complex is the complement of any vertex, a
    combinatorial hyperplane is the complement of a dual edge, and a
    projection onto a side H is witnessed by hull(e ∪ C'), where C' is the
    recursive witness slid within its parallelism class and e is a dual
    edge of H, the pair chosen at minimal distance (ties: least edge, then
    least copy).
    """
    cx = f.parent
    if closure is None:
        from .hyperclosure import hyperclosure

        closure = hyperclosure(cx)
    if f not in closure.member_set:
        raise ValueError(f"{f.vertices} is not a hyperclosure member")
    return _witness(f, closure)


def _pick_basepoint(c: ConvexSubcomplex, f: ConvexSubcomplex) -> tuple[ConvexSubcomplex, int]:
    for x in c.vertices:
        if orth(c, x) == f:
            return c, x
    raise InvariantViolation(
        f"no basepoint of {c.vertices} has orthogonal complement {f.vertices}")


def _witness(f: ConvexSubcomplex, closure) -> tuple[ConvexSubcomplex, int]:
    cx = f.parent
    der = closure.derivation[f]
    if der.kind == "whole":
        return subcomplex(cx, [0]), 0
    if der.kind == "side":
        edge = cx.classes[der.class_id].dual_edges[0]
        return _pick_basepoint(subcomplex(cx, edge), f)
    c_prime, _ = _witness(der.source, closure)
    dual = cx.classes[der.class_id].dual_edges
    best = None
    for copy in parallel_copies(c_prime):
        for e in dual:
            d = set_distance(subcomplex(cx, e), copy)
            key = (d, e, copy.vertices)
            if best is None or key < best:
                best = key
    _, e, copy_vertices = best
    c = hull(cx, e + copy_vertices)
    return _pick_basepoint(c, f)
