"""Orthogonal complements of convex subcomplexes at a basepoint.

orth(A, a) is the set of vertices b such that every wall separating a from
b crosses every wall crossing A.  Over sign vectors these are the vertices
whose signs differ from a's only on K, the classes that cross every class
crossing A, so the complement is the convex subcomplex keyed by crossing
mask K and a's signs off K.

K depends on A only through its crossing mask: it is the polar of that
mask under the symmetric crossing relation, so taking it three times is
taking it once.  witness_compact uses this to invert the construction:
every hyperclosure member F is the orthogonal complement of a compact
(here: any) convex subcomplex, and the double complement orth(orth(F, x), x)
gives F back exactly when F is one.
"""

from __future__ import annotations

from .core import ConvexSubcomplex, _bits


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


def witness_compact(f: ConvexSubcomplex) -> tuple[ConvexSubcomplex, int]:
    """A convex subcomplex C and x ∈ C ∩ F with orth(C, x) = F: C = orth(F, x)
    for x the least vertex of F.  Raises ValueError unless F is a
    hyperclosure member.

    Write σ⊥ for the classes crossing every class of σ, so orth(A, a) is
    keyed by σ⊥ and a's signs off it, for σ the crossing mask of A.  As
    crossing is symmetric, every τ lies in τ⊥⊥, and ⊥ reverses inclusion,
    so σ⊥⊥⊥ = σ⊥.  A member F is a complement orth(A, a) (the
    characterization the oracle checks); as x ∈ F it equals orth(A', x)
    for the copy A' of A parallel through x, keyed by σ⊥ and x's signs off
    it.  So orth(orth(F, x), x), keyed by σ⊥⊥⊥ = σ⊥ and x's signs off it,
    is F.  Conversely, if it is F, F is the complement of orth(F, x), so a
    member.
    """
    x = f.vertices[0]
    c = orth(f, x)
    if orth(c, x) != f:
        raise ValueError(f"{f.vertices} is not a hyperclosure member")
    return c, x
