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

The paper's other description of the hyperclosure (Hagen–Susse,
arXiv:1609.01313) is the set of orthogonal complements of all convex
subcomplexes at their points.  `oracle_hyperclosure` computes it by brute
force from `all_convex_subcomplexes`, independently of the graded
projection search in `hyperclosure`, and `clean_container` takes one
complement inside a member.  Both are built on `orth`, so they live here
with `all_convex_subcomplexes`, which only the oracle calls: `analyze`
imports this module only when it runs the oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import ConvexSubcomplex, MedianComplex, _bits
from .errors import DEFAULT_ORACLE_BOUND, ResourceLimitError

if TYPE_CHECKING:
    from .hyperclosure import Hyperclosure


def orth(a: ConvexSubcomplex, basepoint: int) -> ConvexSubcomplex:
    """Orthogonal complement of A at a point a of A.

    Let K be the classes crossing every class that crosses A: the AND of
    their crossing masks, the polar of A's crossing mask.  A vertex b
    belongs iff every class separating a from b is in K, that is iff b's
    signs differ from a's only on bits of K.  The result contains a and is
    convex, as an intersection of halfspaces.

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

    K depends only on A's crossing mask, so each complex computes it once
    per mask, on the first ask, and keeps it (stored by dict.setdefault,
    as the keys are).
    """
    if basepoint not in a:
        raise ValueError(f"basepoint {basepoint} is not in the subcomplex")
    cx, mask = a.parent, a.crossing_mask
    perp = cx._polars.get(mask)
    if perp is None:
        perp = (1 << len(cx.classes)) - 1  # K: every class until a class crossing A narrows it
        for i in _bits(mask):
            perp &= cx.crossing_masks[i]
        perp = cx._polars.setdefault(mask, perp)
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


def clean_container(h: Hyperclosure, f: ConvexSubcomplex, v: ConvexSubcomplex,
                    x: int) -> ConvexSubcomplex:
    """The maximal member orthogonal to V inside F: orth(V, x) ∩ F.

    V must be a member properly contained in the member F, with x in V.
    The result is a member; V × result embeds in F, and any member of F
    whose signature is disjoint from and crossing V's is parallel into it.

    Both sets hold x, and two convex sets P, Q through x meet in a convex
    set crossed exactly by the classes crossing both: if class i crosses
    P and Q, the gate g of x in i's halfspace not holding x lies on a
    geodesic from x to every vertex of that halfspace, so in P and in Q,
    and i separates x from g.  So the key is (that AND, x's signs off it).
    """
    if f not in h.member_set or v not in h.member_set:
        raise ValueError("clean_container arguments must be hyperclosure members")
    if v == f or not v <= f:
        raise ValueError("V must be properly contained in F")
    if x not in v:
        raise ValueError(f"basepoint {x} is not in V")
    free = orth(v, x).crossing_mask & f.crossing_mask
    return ConvexSubcomplex(h.complex, free, h.complex.signs[x] & ~free)


def all_convex_subcomplexes(cx: MedianComplex) -> list[ConvexSubcomplex]:
    """Every convex subcomplex, as the closure of singletons under hull-insertion.

    Every convex set C is reached: grow from a singleton of C by repeatedly
    hulling in one more vertex of C; all intermediate hulls stay inside C.
    A hull is kept as its crossing classes and its signs on the others.
    """
    signs = cx.signs
    seen = {(0, s) for s in signs}
    queue = list(seen)
    for free, base in queue:
        for s in signs:
            grown = free | (s ^ base)
            if grown != free:
                key = (grown, base & ~grown)
                if key not in seen:
                    seen.add(key)
                    queue.append(key)
    subs = [ConvexSubcomplex(cx, free, base) for free, base in seen]
    return sorted(subs, key=lambda s: (len(s.vertices), s.vertices))


def oracle_hyperclosure(cx: MedianComplex, *,
                        max_vertices: int = DEFAULT_ORACLE_BOUND) -> frozenset[ConvexSubcomplex]:
    """Brute-force oracle: orthogonal complements of every convex subcomplex
    at every basepoint.  Guarded by a vertex bound; independent of the
    graded projection search."""
    if cx.vertex_count > max_vertices:
        raise ResourceLimitError(
            "oracle_vertex_bound",
            f"oracle limited to {max_vertices} vertices, complex has {cx.vertex_count}")
    out: set[ConvexSubcomplex] = set()
    for c in all_convex_subcomplexes(cx):
        for x in c.vertices:
            out.add(orth(c, x))
    return frozenset(out)
