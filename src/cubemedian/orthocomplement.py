"""Orthogonal complements of convex subcomplexes at a basepoint.

orth(A, a) is the set of vertices b such that every wall separating a from
b crosses every wall crossing A.  Over sign vectors these are the vertices
whose signs differ from a's only on K, the classes that cross every class
crossing A, so the complement is the convex subcomplex keyed by crossing
mask K and a's signs off K.

witness_compact inverts the construction: every hyperclosure member is the
orthogonal complement of some compact (here: any) convex subcomplex, built
by recursion over the member's derivation.
"""

from __future__ import annotations

from .core import ConvexSubcomplex, _bits, hull, subcomplex
from .errors import InvariantViolation
from .gates import parallel_copies, set_distance


def orth(a: ConvexSubcomplex, basepoint: int) -> ConvexSubcomplex:
    """Orthogonal complement of A at a point a of A.

    Let K be the classes crossing every class that crosses A: the AND of
    their crossing masks.  A vertex b belongs iff every class separating a
    from b is in K, that is iff b's signs differ from a's only on bits of
    K.  The result contains a and is convex, as an intersection of
    halfspaces.

    K is exactly the crossing mask of the result, so (K, a's signs off K)
    is its key.  Only classes in K can cross it.  Conversely, take j in K,
    let H be j's halfspace not holding a, and b the gate of a in H.  The
    walls separating a from b are those separating a from H: j, and walls
    w with H inside w's far side.  Such a w does not cross j, and j crosses
    every class crossing A, so w does not cross A; A then lies on a's side
    of w.  So each class i crossing A has both signs in A, on the near side
    of w, and in H (as j crosses i), on the far side: w crosses i, so w is
    in K.  Hence b is in the result, and j separates it from a.

    The two extreme cases need no branch.  Nothing crosses a single vertex,
    so K is every class and the complement is the whole complex.  No class
    crosses itself, so for the whole complex K is empty and the complement
    is the single vertex a.
    """
    if basepoint not in a:
        raise ValueError(f"basepoint {basepoint} is not in the subcomplex")
    cx = a.parent
    perp = (1 << len(cx.classes)) - 1  # K: every class until a class crossing A narrows it
    for i in _bits(a.crossing_mask):
        perp &= cx.crossing_masks[i]
    return ConvexSubcomplex(cx, perp, cx.signs[basepoint] & ~perp)


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
