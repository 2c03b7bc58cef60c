"""The hyperclosure: the least family of convex subcomplexes containing the
whole complex and every combinatorial hyperplane that is closed under gate
projections and parallelism.

It is computed once, by breadth-first search over nested projections of
the hyperplane sides (Hagen–Susse, arXiv:1609.01313: every member is a
nested projection of combinatorial hyperplanes), deduplicating by key
(crossing mask, base).  Grades record the least number of nested
hyperplane-side projections producing each member (grade 0: the whole
complex; grade 1: combinatorial hyperplanes), and every member carries one
derivation in that normal form.  An independent brute-force oracle,
`orthocomplement.oracle_hyperclosure`, recovers the same family as the set
of orthogonal complements of convex subcomplexes at their basepoints; this
module does not import it, so `analyze` compiles it only when it runs it.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional

from .core import ConvexSubcomplex, MedianComplex, _lazy
from .errors import DEFAULT_MAX_GRADE, DEFAULT_MAX_MEMBERS, InvariantViolation, ResourceLimitError


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
                 parallel_classes: tuple[tuple[ConvexSubcomplex, ...], ...]):
        self.complex = complex
        self.members = members
        self.grade = grade
        self.derivation = derivation
        self.parallel_classes = parallel_classes

    @_lazy
    def member_set(self) -> frozenset[ConvexSubcomplex]:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)


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

    The search runs on (crossing mask, base) int pairs, and each side meets
    each restriction once.  Restriction lemma: with S = (M, b) and
    f = (m, c), where a base is zero on its own mask (so c & ~m = c),

        project(S, f) = (M & m, b | (c & M & ~m)) = (r_m, b | r_c)

    for r = (m & M, c & M), the restriction of f to M.  So the projection
    reads f only through r, and for a fixed side distinct restrictions
    give distinct results (r_c is the result's base on M, where b is zero).
    A level therefore restricts the frontier once per distinct side mask,
    and keeps for each restriction the first f in frontier order.  Every
    side of that mask projects only the restrictions its mask has not met
    at this level or an earlier one.  A skipped pair cannot change a grade
    or a derivation:
    - a later f of this level with a met restriction r gives, for each
      side, the same key as the first f with r, which that side reached
      earlier in its inner loop, so the key is already graded;
    - a restriction met at an earlier level gave, for every side of the
      mask, its key then, so the key is already graded, at a lower level.
    The pairs that remain are visited in the full loop's order, sides
    outer and frontier inner, so each new key is found at the same step,
    from the same side and the same first f, which is the source the full
    loop records (its later f's find the key graded).  The limits fire at the
    same new key for the same reason.  tests/oracles.py keeps the full
    loop over keys and the tests check that both agree.

    Keys become `ConvexSubcomplex` objects only after the search, one per
    member; derivation sources are members.

    Raises ResourceLimitError naming the limit when the (max_members+1)-th
    member is found, or when a member of grade above max_grade appears; no
    partial result is kept.
    """
    if max_members < 1:
        raise ResourceLimitError(
            "max_members", f"hyperclosure exceeds max_members={max_members}")
    if max_grade < 0:
        raise ResourceLimitError(
            "max_grade", f"hyperclosure grading exceeds max_grade={max_grade}")
    whole = ((1 << len(cx.classes)) - 1, 0)
    grade: dict[tuple[int, int], int] = {whole: 0}
    # sources stay int pairs until the keys are built
    derivation: dict[tuple[int, int], Derivation] = {whole: Derivation("whole")}
    sides = [(h.class_id, sign, s.crossing_mask, s.base)  # by class, minus side first
             for h in cx.classes for sign, s in zip((-1, 1), h.comb_sides)]
    # the restrictions each side mask has met, at this level or an earlier one
    met: dict[int, set[tuple[int, int]]] = {mask: set() for _, _, mask, _ in sides}
    frontier = [whole]
    level = 0
    while frontier:
        level += 1
        fresh = {}  # per side mask: each new restriction, with the first f giving it
        for mask, seen in met.items():
            fresh[mask] = out = []
            for f in frontier:
                r = (f[0] & mask, f[1] & mask)
                if r not in seen:
                    seen.add(r)
                    out.append((*r, f))
        new: list[tuple[int, int]] = []
        for cid, sign, mask, base in sides:
            for r_mask, r_base, f in fresh[mask]:
                p = (r_mask, base | r_base)
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

    key = {p: ConvexSubcomplex(cx, *p) for p in grade}
    # one pass per mask sets the members' vertex tuples, so the sort filters no key
    by_mask = {mask: tuple(cx.parallel_class(mask)) for mask in {p[0] for p in grade}}
    ordered = sorted(key.values(), key=lambda s: (len(s.vertices), s.vertices))
    classes = tuple(by_mask[mask] for mask in dict.fromkeys(m.crossing_mask for m in ordered))
    return Hyperclosure(
        complex=cx, members=tuple(ordered),
        grade={key[p]: g for p, g in grade.items()},
        derivation={key[p]: d if d.source is None else Derivation(*d[:3], key[d.source])
                    for p, d in derivation.items()},
        parallel_classes=classes)


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


def longest_chain(h: Hyperclosure) -> tuple[int, list[ConvexSubcomplex]]:
    """Longest strictly nested chain of members (all share the least member's
    vertices), with a witness chain: the least index wins among equally long
    predecessors.

    A member's length depends only on its crossing mask, in two steps:
    - Strictly nested members have strictly nested masks: V = (T, a) lies in
      F = (S, b) iff T & ~S == 0 and a & ~S == b, so equal masks plus
      containment give equal keys.
    - Take member masks T ⊊ S and any member F with mask S.  For any member
      V with mask T, project(F, V) is a member inside F crossed by exactly
      T.  So every chain of masks below S is realised inside F.
    So length[S] = 1 + max(length[T] for member masks T ⊊ S), in popcount
    order.  The DP over every containment pair (tests/oracles.py keeps it)
    updates a member only at a strict new maximum, so its predecessor is the
    least-index member inside it one shorter; the witness walks down the same
    way from the least-index member of greatest length.
    """
    length: dict[int, int] = {}
    for s in sorted({m.crossing_mask for m in h.members}, key=int.bit_count):
        # a mask seen before S that S contains is a proper subset of S
        length[s] = 1 + max((n for t, n in length.items() if t & ~s == 0), default=0)
    by_len: dict[int, list[ConvexSubcomplex]] = {}
    for m in h.members:
        by_len.setdefault(length[m.crossing_mask], []).append(m)
    top = max(by_len)
    chain = [by_len[top][0]]
    for n in range(top - 1, 0, -1):
        s, b = chain[-1].crossing_mask, chain[-1].base
        chain.append(next(m for m in by_len[n] if m.crossing_mask & ~s == 0 and m.base & ~s == b))
    return top, chain[::-1]


def grades_report(h: Hyperclosure) -> dict[int, int]:
    """Member counts per grade; the grades must exhaust the members."""
    if len(h.grade) != len(h.members):
        raise InvariantViolation("grades do not cover all members")
    return dict(sorted(Counter(h.grade.values()).items()))
