"""Randomized invariant suites over a complex.

Each suite draws cases from splitmix64, so a (complex, suite, cases, seed)
quadruple is a complete reproduction of any reported violation.  A random
convex subcomplex is keyed straight from its draws: `_random_convex` draws
its at most three vertices in closed form, as `SplitMix64.sample` would, in
the same order, and folds the drawn signs into (crossing_mask, base) as
`hull` does, so the stream and the keys are those of hull(sample(...)).
The orth suite's inner hull is hull(sample(...)) itself.

`cases` counts draws, not evaluations.  Every check of the gates and orth
suites is a pure function of its input keys, and a complex holds one
object per key, so a suite run evaluates each check once per distinct
input and replays the verdict when a draw repeats that input: the
recomputed key per key, the convexity of a projection per key, the copy
list of F and its verdicts per F, and the product checks per (F, F2).
Each case still draws every value and records every verdict in order, so
the violations, their order and the cap are those of evaluating every
case.  The tables are keyed by the full inputs, never by a crossing mask,
and live for one suite run.  The suites call the recorder only when a
check fails, and the violation that fills the cap ends the run:
`_Recorder.fail` raises there, and no later check or suite runs.

Some checks run whatever `cases` is, and scale with the complex and its
closure instead.  The orth suite takes the double complement of every
member of the closure, at up to 8 of its points, drawn from the stream
when it has more.  The closure suite builds one hull per class side, runs
parallelism-closure once per crossing mask of the members and
grading-soundness on every member.  Its clean-container checks run on
every pair of a member and a member inside it when the complex has at
most 12 vertices or there are at most `cases` pairs; otherwise on `cases`
pairs drawn with replacement.

The checks work on keys and sign vectors.  Orthogonality to V is one AND
against V's polar, the classes crossing every class of V, computed here
from the crossing table rather than read from `orth`'s; maximality tests
each member of F with that one AND.  A product check looks up each gate,
the vertex with signs s & mask | base, in the sign index, with no `gate`
call per region vertex.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .core import ConvexSubcomplex, MedianComplex, _bits, hull, whole_complex
from .gates import (
    crossing_signature,
    is_convex,
    is_parallel,
    parallel_bridge,
    parallel_copies,
    parallel_into,
    project,
    separators,
)
from .hyperclosure import Hyperclosure, hyperclosure
from .orthocomplement import clean_container, orth
from .rng import SplitMix64

SUITES = ("gates", "orth", "closure")


class Violation(NamedTuple):
    suite: str
    invariant: str
    inputs: dict


class _CapReached(Exception):
    """Raised by `_Recorder.fail` at the violation that fills the cap."""


class _Recorder:
    def __init__(self, suite: str, out: list[Violation], cap: int):
        self.suite = suite
        self.out = out
        self.cap = cap

    def fail(self, invariant: str, **inputs) -> None:
        """Record a failed check; the suites call it only on failure."""
        self.out.append(Violation(self.suite, invariant, {
            name: v.vertices if isinstance(v, ConvexSubcomplex) else v
            for name, v in inputs.items()}))
        if len(self.out) >= self.cap:
            raise _CapReached


_SIZES = (1, 1, 2, 2, 3)  # the vertex counts a random convex subcomplex is drawn from


def _random_convex(cx: MedianComplex, rng: SplitMix64) -> ConvexSubcomplex:
    """hull(cx, rng.sample(range(n), min(rng.choice(_SIZES), n))), drawn as
    that sample draws, with its partial Fisher-Yates written out for k <= 3,
    and keyed as the draws come: each vertex's signs are folded into the
    crossing mask, with none of hull's copy and range scans, which drawn
    vertices pass.

    Slot i holds i until a swap moves it.  Step 0 draws a = randrange(n),
    takes slot a and swaps slot 0 into it: slot a now holds 0.  Step 1
    draws j = 1 + randrange(n - 1) and takes slot j, which holds 0 if
    j == a (the only slot >= 1 step 0 wrote) and j otherwise; the swap then
    writes slot 1's value into slot j, which is 0 if a == 1 and 1
    otherwise.  Step 2 draws m = 2 + randrange(n - 2) and takes slot m: if
    m == j, slot j holds what step 1 wrote last, 0 if a == 1 else 1; else
    if m == a, slot a holds the 0 of step 0; else no swap has touched it,
    and it holds m.
    """
    n, signs, randrange = cx.vertex_count, cx.signs, rng.randrange
    k = _SIZES[randrange(5)]
    a = randrange(n)
    s0 = signs[a]
    if k == 1 or n == 1:
        return ConvexSubcomplex(cx, 0, s0)
    j = 1 + randrange(n - 1)
    free = signs[0 if j == a else j] ^ s0
    if k == 3 and n > 2:
        m = 2 + randrange(n - 2)
        if m == j:
            free |= signs[0 if a == 1 else 1] ^ s0
        elif m == a:
            free |= signs[0] ^ s0
        else:
            free |= signs[m] ^ s0
    return ConvexSubcomplex(cx, free, s0 & ~free)


def _recomputed(s):
    """The key S's vertices recompute; the checks below hold keys to it."""
    return hull(s.parent, s.vertices)


def _true_copies(f, copies, perp) -> list[bool]:
    """Whether each claimed copy of F is a slice of F × perp, one per b in perp =
    orth(F, x), x in F: parallel to F, with b's signs off F's mask.  It reads no fibre."""
    cx, free = f.parent, f.crossing_mask
    bases = {cx.signs[b] & ~free for b in perp}
    return [is_parallel(f, c2) and c2.base in bases for c2 in copies]


def _product_bijection_ok(region, left, right) -> bool:
    """Whether the gates onto left and right map region one to one onto
    left × right.  The gate of a vertex with signs s onto a key is the vertex
    with signs s & mask | base, so each gate is one lookup in `by_sign`.  The
    lookups run vertex by vertex, left before right, as a `gate` pair per
    vertex would, so the first sign vector with no vertex, which only a
    non-median input has, is the one `gate` would meet first, and
    `vertex_at` raises its line as `gate` does."""
    cx = region.parent
    signs, by_sign = cx.signs, cx.by_sign
    lm, lb, rm, rb = left.crossing_mask, left.base, right.crossing_mask, right.base
    try:
        pairs = {(by_sign[signs[v] & lm | lb], by_sign[signs[v] & rm | rb])
                 for v in region.vertices}
    except KeyError as exc:
        cx.vertex_at(exc.args[0])
        raise
    return len(pairs) == len(region) and len(region) == len(left) * len(right)


def _copies_verdicts(f, kept: dict[int, list[ConvexSubcomplex]]):
    """parallel_copies(F) with its verdicts: contains-self, copies-parallel,
    copies-complete, and the indices of the false copies.  F's list is
    replaced by the one kept for its crossing mask while the two compare
    equal, so a suite run holds one list per mask, not one per F."""
    copies = parallel_copies(f)
    last = kept.get(f.crossing_mask)
    if last == copies:
        copies = last
    else:
        kept[f.crossing_mask] = copies
    perp = orth(f, f.vertices[0])
    is_copy = _true_copies(f, copies, perp)
    false = tuple(i for i, ok in enumerate(is_copy) if not ok)
    complete = len({c2.base for c2, ok in zip(copies, is_copy) if ok}) == len(perp)
    return copies, f in copies, not false, complete, false


def _product_verdicts(f, f2) -> tuple[bool, bool]:
    """The parallel-product checks of F and a true copy F2: the signature of
    hull(F ∪ F2), and its gate bijection onto F × the bridge."""
    region = hull(f.parent, f.vertices + f2.vertices)
    seps = separators(f, f2)
    signature = (crossing_signature(region) == crossing_signature(f) | seps and
                 not crossing_signature(f) & seps)
    return signature, _product_bijection_ok(region, f, parallel_bridge(f, f2))


def _gates_suite(cx, rng, cases, rec: _Recorder):
    recomputed = functools.cache(_recomputed)
    convex = functools.cache(lambda s: is_convex(cx, s.vertices))
    kept: dict[int, list[ConvexSubcomplex]] = {}
    copies_of = functools.cache(lambda f: _copies_verdicts(f, kept))
    products = functools.cache(_product_verdicts)
    for _ in range(cases):
        y = _random_convex(cx, rng)
        z = _random_convex(cx, rng)
        img = project(y, z)
        key = recomputed(img)
        if key != img or key.crossing_mask != y.crossing_mask & z.crossing_mask:
            rec.fail("gate-crossing-law", Y=y, Z=z)
        if not convex(img):
            rec.fail("projection-convex", Y=y, Z=z)
        if not is_parallel(key, recomputed(project(z, y))):
            rec.fail("symmetric-parallelism", Y=y, Z=z)

        c = _random_convex(cx, rng)
        d = _random_convex(cx, rng)
        e = _random_convex(cx, rng)
        p1 = recomputed(project(project(c, d), e))
        p2 = recomputed(project(c, project(d, e)))
        p3 = recomputed(project(c, project(e, d)))
        if not (is_parallel(p1, p2) and is_parallel(p2, p3)):
            rec.fail("projection-currying", C=c, D=d, E=e)

        f = _random_convex(cx, rng)
        copies, has_self, parallel, complete, false = copies_of(f)
        if not has_self:
            rec.fail("copies-contain-self", F=f)
        if not parallel:
            rec.fail("copies-parallel", F=f)
        if not complete:
            rec.fail("copies-complete", F=f)
        i = rng.randrange(len(copies))  # as rng.choice(copies) draws
        if i in false:
            continue  # a false copy spans no product with F
        f2 = copies[i]
        signature, bijection = products(f, f2)
        if not signature:
            rec.fail("parallel-product-signature", F=f, F2=f2)
        if not bijection:
            rec.fail("parallel-product-bijection", F=f, F2=f2)


def _orth_suite(cx, rng, cases, rec: _Recorder, closure: Hyperclosure):
    recomputed = functools.cache(_recomputed)
    for _ in range(cases):
        a_sub = _random_convex(cx, rng)
        a = rng.choice(a_sub.vertices)
        o1 = recomputed(orth(a_sub, a))
        o3 = orth(orth(o1, a), a)
        if o3 != o1:
            rec.fail("triple-complement", A=a_sub, a=a)

        b_sub = _random_convex(cx, rng)
        inner = hull(cx, rng.sample(b_sub.vertices, 1 + rng.randrange(len(b_sub))))
        x = rng.choice(inner.vertices)
        if not recomputed(orth(b_sub, x)) <= recomputed(orth(inner, x)):
            rec.fail("contravariance", A=inner, B=b_sub, a=x)

    for member in closure.members:
        points = member.vertices
        if len(points) > 8:
            points = tuple(sorted(rng.sample(points, 8)))
        for x in points:
            if orth(orth(member, x), x) != member:
                rec.fail("double-complement", F=member, x=x)


def _closure_suite(cx, rng, cases, rec: _Recorder, closure: Hyperclosure):
    members = closure.members
    member_set = closure.member_set
    # each side by (class id, sign) as the hull of its dual-edge ends, not the closure's own keys
    sides = {(h.class_id, sign): hull(cx, [v for e in h.dual_edges for v in e if (side >> v) & 1])
             for h in cx.classes for sign, side in ((-1, h.side_minus_mask), (1, h.side_plus_mask))}
    for _ in range(cases):
        f = rng.choice(members)
        f2 = rng.choice(members)
        if project(f, f2) not in member_set:
            rec.fail("projection-closure", F=f, F2=f2)
        a_sub = _random_convex(cx, rng)
        a = rng.choice(a_sub.vertices)
        if orth(a_sub, a) not in member_set:
            rec.fail("complement-closure", A=a_sub, a=a)

    first_of_class: dict[int, ConvexSubcomplex] = {}  # a class's members share one copy list
    for member in members:
        if first_of_class.setdefault(member.crossing_mask, member) is member:
            if not member_set.issuperset(parallel_copies(member)):
                rec.fail("parallelism-closure", F=member)
        if not (member == _recomputed(member) and _sound_derivation(closure, sides, member)):
            rec.fail("grading-soundness", F=member, grade=closure.grade[member])

    _clean_container_checks(cx, rng, cases, rec, closure)


def _sound_derivation(closure: Hyperclosure, sides, member) -> bool:
    der = closure.derivation[member]
    n = closure.grade[member]
    if der.kind == "whole":
        return n == 0 and member == whole_complex(closure.complex)
    side = sides[der.class_id, der.sign]
    if der.kind == "side":
        return n == 1 and member == side
    return n == closure.grade[der.source] + 1 and project(side, der.source) == member


def _polar(cx, mask: int) -> int:
    """The classes crossing every class of the mask: the AND of their
    crossing masks, every class for mask 0.  S is orthogonal to T, every
    class crossing S crossing every class crossing T, iff S's crossing mask
    lies in the polar of T's.  It is computed from the crossing table, not
    read from the polars `orth` keeps, so the checks do not hold `orth` to
    itself."""
    perp = (1 << len(cx.classes)) - 1
    crossing = cx.crossing_masks
    for i in _bits(mask):
        perp &= crossing[i]
    return perp


def _containments(h: Hyperclosure):
    """Yield (j, i) for every pair of members with members[j] strictly inside
    members[i], j ascending.  V = (T, a) lies in F = (S, b) iff T & ~S == 0
    and a & ~S == b, and equal masks give equal keys, so each member mask S
    strictly above T leaves one candidate, (S, a & ~S): one dict lookup."""
    index = {(m.crossing_mask, m.base): i for i, m in enumerate(h.members)}
    masks = dict.fromkeys(t for t, _ in index)
    above = {t: [s for s in masks if s != t and t & ~s == 0] for t in masks}
    for j, v in enumerate(h.members):
        for s in above[v.crossing_mask]:
            i = index.get((s, v.base & ~s))
            if i is not None:
                yield j, i


def _clean_container_checks(cx, rng, cases, rec: _Recorder, closure: Hyperclosure):
    members = closure.members
    inside: dict[ConvexSubcomplex, list[ConvexSubcomplex]] = {}  # F, then the members in F
    for j, i in _containments(closure):
        inside.setdefault(members[i], [members[i]]).append(members[j])
    pairs = [(f, v) for f in members if f in inside for v in inside[f][1:]]
    if cx.vertex_count > 12 and len(pairs) > cases:
        pairs = [pairs[rng.randrange(len(pairs))] for _ in range(cases)]
    # maximality reads a member W of F only through its crossing mask (both in
    # its orthogonality to V and in parallel_into(W, U)), so one W per mask decides it
    one_per_mask: dict[ConvexSubcomplex, list[ConvexSubcomplex]] = {}
    member_set = closure.member_set
    for f, v in pairs:
        x = v.vertices[0]
        u = clean_container(closure, f, v, x)
        if u != _recomputed(u) or u not in member_set:
            rec.fail("clean-container-member", F=f, V=v, x=x)
        polar = _polar(cx, v.crossing_mask)
        if u.crossing_mask & ~polar:
            rec.fail("clean-container-orthogonal", F=f, V=v, x=x)
        region = hull(cx, v.vertices + u.vertices)
        if not (region <= f and _product_bijection_ok(region, v, u)):
            rec.fail("clean-container-product", F=f, V=v, x=x)
        if f not in one_per_mask:
            one_per_mask[f] = list({w.crossing_mask: w for w in inside[f]}.values())
        for w in one_per_mask[f]:
            if w.crossing_mask & ~polar == 0 and not parallel_into(w, u):
                rec.fail("clean-container-maximality", F=f, V=v, x=x)
                break


def verify_complex(cx: MedianComplex, suite: str = "all", cases: int = 1000,
                   seed: int = 0, max_violations: int = 25) -> list[Violation]:
    """Run the requested invariant suite(s); an empty result means no violation.
    A seed outside 0..2^64-1 would alias another under splitmix64, and a cap
    below 1 would return before any check ran."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if cases < 0:
        raise ValueError(f"cases must be nonnegative, not {cases}")
    if max_violations < 1:
        raise ValueError(f"max_violations must be positive, not {max_violations}")
    if not 0 <= seed < (1 << 64):
        raise ValueError(f"seed must be in 0..2^64-1, not {seed}")
    wanted = SUITES if suite == "all" else (suite,)
    violations: list[Violation] = []
    whole_complex(cx).vertices  # none on an empty complex: the not-median line, as for the closure
    closure = hyperclosure(cx) if {"orth", "closure"} & set(wanted) else None
    try:
        for name in wanted:
            rng = SplitMix64(seed * len(SUITES) + SUITES.index(name))
            rec = _Recorder(name, violations, max_violations)
            if name == "gates":
                _gates_suite(cx, rng, cases, rec)
            elif name == "orth":
                _orth_suite(cx, rng, cases, rec, closure)
            else:
                _closure_suite(cx, rng, cases, rec, closure)
    except _CapReached:  # the run ends at the violation that fills the cap
        pass
    return violations
