"""The hyperclosure: the least family of convex subcomplexes containing the
whole complex and every combinatorial hyperplane that is closed under gate
projections and parallelism.

It is computed once, by breadth-first search over nested projections of
the hyperplane sides (Hagen–Susse, arXiv:1609.01313: every member is a
nested projection of combinatorial hyperplanes), deduplicating by key
(crossing mask, base).  Grades record the least number of nested
hyperplane-side projections producing each member (grade 0: the whole
complex; grade 1: combinatorial hyperplanes), and every member carries one
derivation in that normal form.  An independent brute-force oracle
recovers the same family as the set of orthogonal complements of convex
subcomplexes at their basepoints.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional

from .core import ConvexSubcomplex, MedianComplex, _lazy, all_convex_subcomplexes, whole_complex
from .errors import InvariantViolation, ResourceLimitError
from .gates import comb_side, project
from .orthocomplement import orth

DEFAULT_MAX_MEMBERS = 100_000
DEFAULT_MAX_GRADE = 32
DEFAULT_ORACLE_BOUND = 14


class Derivation(NamedTuple):
    """How a member arises: the whole complex, a hyperplane side, or a
    projection of a lower-grade member onto a hyperplane side."""

    kind: str  # "whole" | "side" | "projection"
    class_id: Optional[int] = None
    sign: Optional[int] = None
    source: Optional[ConvexSubcomplex] = None


class Hyperclosure:
    def __init__(self, complex: MedianComplex, members: tuple[ConvexSubcomplex, ...],
                 grade: dict[ConvexSubcomplex, int],
                 derivation: dict[ConvexSubcomplex, Derivation],
                 parallel_classes: tuple[tuple[ConvexSubcomplex, ...], ...],
                 max_members: int, max_grade: int):
        self.complex = complex
        self.members = members
        self.grade = grade
        self.derivation = derivation
        self.parallel_classes = parallel_classes
        self.max_members = max_members
        self.max_grade = max_grade

    @_lazy
    def member_set(self) -> frozenset[ConvexSubcomplex]:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)


def _hyperplane_sides(cx: MedianComplex) -> list[tuple[int, int, ConvexSubcomplex]]:
    """All combinatorial hyperplanes as (class_id, sign, side), in canonical order."""
    out = []
    for h in cx.classes:
        out.append((h.class_id, -1, comb_side(h, -1)))
        out.append((h.class_id, +1, comb_side(h, +1)))
    return out


def hyperclosure(cx: MedianComplex, *, max_members: int = DEFAULT_MAX_MEMBERS,
                 max_grade: int = DEFAULT_MAX_GRADE) -> Hyperclosure:
    """Compute the hyperclosure by graded projection of the hyperplane sides.

    Level 0 is the whole complex X.  Level n projects every side S onto
    every member f of level n-1 (sides outer, frontier inner), and each
    project(S, f) not seen before becomes a member of grade n, derived from
    (S, f).  The search stops at the first level that adds nothing.  The
    result equals the least family containing X and the sides that is
    closed under projection and parallelism.

    Write a vertex as its signs over the wall classes; a class crosses a
    convex Y iff both signs occur in Y.  The gate map g_Y keeps the sign of
    x on the classes crossing Y and takes Y's constant sign on the others,
    and project(Y, Z) = g_Y(Z).

    Closed under projection: for convex A and B, g_{g_A(B)} = g_A ∘ g_B
    (compare signs class by class: a class crossing A and B keeps x's sign,
    one missing A takes A's sign, one crossing A but missing B takes B's).
    A member of grade a is P = g_{S_a} ∘ ... ∘ g_{S_1}(X), so by induction
    g_P = g_{S_a} ∘ ... ∘ g_{S_1}, and projecting another nested side
    projection Q of length b onto P is a nested side projection of length
    a+b.  Breadth-first search reaches every finite word of sides.

    Closed under parallelism: let F' be parallel to a member F (the same
    classes cross both) and let W be the classes separating them.  Each
    w in W crosses every class h crossing F, because F and F' put both
    signs of h on either side of w.  Project F onto the F'-side
    combinatorial hyperplane C_w of each w in W, in order of decreasing
    size of w's F'-halfspace.  C_w is crossed exactly by the classes
    crossing w, so the crossing classes of F survive every step, and w
    itself takes the sign of F'.  A later C_v (v in W, not crossing w) lies
    in the F'-halfspace of w, because those halfspaces are nested and v's
    is the smaller, so w keeps the sign of F'.  A class h outside W not crossing
    F is constant with the same sign on F and F'; C_w lies on that side of
    h, or else h would cross w.  So the result is F', a nested side
    projection of F.

    The graded family therefore contains the whole complex and every side,
    and it is closed under both operations, so it equals the least such
    family.  tests/oracles.py keeps the pairwise worklist fixpoint this
    replaced, and the tests check that both agree.

    Raises ResourceLimitError naming the limit when the (max_members+1)-th
    member is found, or when a member of grade above max_grade appears; no
    partial result is kept.
    """
    if max_members < 1:
        raise ResourceLimitError(
            "max_members", f"hyperclosure exceeds max_members={max_members}")
    whole = whole_complex(cx)
    grade: dict[ConvexSubcomplex, int] = {whole: 0}
    derivation: dict[ConvexSubcomplex, Derivation] = {whole: Derivation("whole")}
    sides = _hyperplane_sides(cx)
    frontier = [whole]
    level = 0
    while frontier:
        level += 1
        new: list[ConvexSubcomplex] = []
        for cid, sign, side in sides:
            for f in frontier:
                p = project(side, f)
                if p in grade:
                    continue
                if level > max_grade:
                    raise ResourceLimitError(
                        "max_grade", f"hyperclosure grading exceeds max_grade={max_grade}")
                if len(grade) >= max_members:
                    raise ResourceLimitError(
                        "max_members", f"hyperclosure exceeds max_members={max_members}")
                grade[p] = level
                if level == 1:
                    derivation[p] = Derivation("side", class_id=cid, sign=sign)
                else:
                    derivation[p] = Derivation(
                        "projection", class_id=cid, sign=sign, source=f)
                new.append(p)
        frontier = new

    ordered = sorted(grade, key=lambda s: (len(s.vertices), s.vertices))
    by_sig: dict[int, list[ConvexSubcomplex]] = {}
    for m in ordered:
        by_sig.setdefault(m.crossing_mask, []).append(m)
    classes = tuple(tuple(group) for group in
                    sorted(by_sig.values(), key=lambda g: (len(g[0].vertices), g[0].vertices)))
    return Hyperclosure(complex=cx, members=tuple(ordered), grade=grade,
                        derivation=derivation, parallel_classes=classes,
                        max_members=max_members, max_grade=max_grade)


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


class MultiplicityProfile(NamedTuple):
    """How many members pass through each vertex; max_multiplicity is the
    factor-system bound witness."""

    per_vertex: tuple[int, ...]
    max_multiplicity: int
    histogram: dict[int, int]


def multiplicity(h: Hyperclosure) -> MultiplicityProfile:
    counts = [0] * h.complex.vertex_count
    for m in h.members:
        for v in m.vertices:
            counts[v] += 1
    hist = dict(sorted(Counter(counts).items()))
    return MultiplicityProfile(per_vertex=tuple(counts),
                               max_multiplicity=max(counts), histogram=hist)


def _containments(h: Hyperclosure):
    """Yield (j, i) for every pair of members with members[j] strictly inside
    members[i], j ascending.

    V = (T, a) lies in F = (S, b) iff T & ~S == 0 and a & ~S == b.  If so,
    each vertex of V has signs a off T, so a & ~S off S, which puts it in
    F.  Conversely, a class of T outside S has both signs in V and one in
    F; and once T lies in S, V's vertices show a & ~S off S, which must be
    F's base b.  Equal masks give equal keys, so strict containment needs
    S to contain T strictly, and each such member mask S leaves one
    candidate, (S, a & ~S): one dict lookup.
    """
    members = h.members
    index = {(m.crossing_mask, m.base): i for i, m in enumerate(members)}
    masks = dict.fromkeys(m.crossing_mask for m in members)
    above: dict[int, list[int]] = {}
    for j, v in enumerate(members):
        t, a = v.crossing_mask, v.base
        if t not in above:
            above[t] = [s for s in masks if s != t and t & ~s == 0]
        for s in above[t]:
            i = index.get((s, a & ~s))
            if i is not None:
                yield j, i


def longest_chain(h: Hyperclosure) -> tuple[int, list[ConvexSubcomplex]]:
    """Longest strictly nested chain of members (all share the least member's
    vertices), with a witness chain: the least index wins among equally long
    predecessors.  One pass over `_containments`: a member strictly inside
    another is smaller, so it comes first in size order and its length is
    final when its pairs arrive; each target sees its sources in ascending
    order and takes one only when it is strictly longer."""
    members = h.members
    best_len = [1] * len(members)
    prev = [-1] * len(members)
    for j, i in _containments(h):
        if best_len[j] >= best_len[i]:
            best_len[i] = best_len[j] + 1
            prev[i] = j
    top = max(range(len(members)), key=lambda i: (best_len[i], -i))
    chain = []
    i = top
    while i >= 0:
        chain.append(members[i])
        i = prev[i]
    chain.reverse()
    return best_len[top], chain


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


def grades_report(h: Hyperclosure) -> dict[int, int]:
    """Member counts per grade; the grades must exhaust the members."""
    if len(h.grade) != len(h.members):
        raise InvariantViolation("grades do not cover all members")
    return dict(sorted(Counter(h.grade.values()).items()))
