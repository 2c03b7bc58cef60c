"""Randomized invariant suites over a complex.

Each suite draws cases from splitmix64, so a (complex, suite, cases, seed)
quadruple is a complete reproduction of any reported violation.  A random
convex subcomplex is keyed straight from its draws: `_sampled_hull` draws
the vertices `SplitMix64.sample` would, by the same partial Fisher-Yates
in the same order, and folds their signs into (crossing_mask, base) as
`hull` does, so the stream and the keys are those of hull(sample(...)).

`cases` counts draws, not evaluations.  Every check of the gates and orth
suites is a pure function of its input keys, and a complex holds one
object per key, so a suite run evaluates each check once per distinct
input and replays the verdict when a draw repeats that input: the
recomputed key per key, the convexity of a projection per key, the copy
list of F and its verdicts per F, and the product checks per (F, F2).
Each case still draws every value and records every verdict in order, so
the violations, their order and the cap are those of evaluating every
case.  The tables are keyed by the full inputs, never by a crossing mask,
and live for one suite run.  The violation that fills the cap ends the
run: `_Recorder.check` raises there, and no later check or suite runs.
"""

from __future__ import annotations

import functools
from typing import Optional

from .core import ConvexSubcomplex, MedianComplex, _bits, hull, whole_complex
from .gates import (
    crossing_signature,
    gate,
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


class Violation:
    def __init__(self, suite: str, invariant: str, inputs: Optional[dict] = None):
        self.suite = suite
        self.invariant = invariant
        self.inputs = {} if inputs is None else inputs

    def __repr__(self) -> str:
        return (f"Violation(suite={self.suite!r}, invariant={self.invariant!r}, "
                f"inputs={self.inputs!r})")


class _CapReached(Exception):
    """Raised by `_Recorder.check` at the violation that fills the cap."""


class _Recorder:
    def __init__(self, suite: str, out: list[Violation], cap: int):
        self.suite = suite
        self.out = out
        self.cap = cap

    def check(self, ok: bool, invariant: str, **inputs) -> None:
        if not ok:
            self.out.append(Violation(self.suite, invariant, {
                name: v.vertices if isinstance(v, ConvexSubcomplex) else v
                for name, v in inputs.items()}))
            if len(self.out) >= self.cap:
                raise _CapReached


def _random_convex(cx: MedianComplex, rng: SplitMix64) -> ConvexSubcomplex:
    k = min(rng.choice((1, 1, 2, 2, 3)), cx.vertex_count)
    return _sampled_hull(cx, rng, range(cx.vertex_count), k)


def _sampled_hull(cx: MedianComplex, rng: SplitMix64, seq, k: int) -> ConvexSubcomplex:
    """hull(cx, rng.sample(seq, k)) for vertices seq of cx and 1 <= k <= len(seq),
    drawn as `SplitMix64.sample` draws (its partial Fisher-Yates, over the
    indices of seq) and keyed as the draws come: each vertex's signs are
    folded into the crossing mask, with none of hull's copy and range scans,
    which drawn vertices pass."""
    signs, n = cx.signs, len(seq)
    j = rng.randrange(n)
    s0, free = signs[seq[j]], 0
    moved = {j: 0}  # slot -> the index a swap put there
    for i in range(1, k):
        j = i + rng.randrange(n - i)
        free |= signs[seq[moved.get(j, j)]] ^ s0
        moved[j] = moved.get(i, i)
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
    coords = [(gate(left, v), gate(right, v)) for v in region.vertices]
    return (len(set(coords)) == len(region) and
            len(region) == len(left) * len(right))


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
        rec.check(key == img and key.crossing_mask == y.crossing_mask & z.crossing_mask,
                  "gate-crossing-law", Y=y, Z=z)
        rec.check(convex(img), "projection-convex", Y=y, Z=z)
        rec.check(is_parallel(key, recomputed(project(z, y))), "symmetric-parallelism", Y=y, Z=z)

        c, d, e = (_random_convex(cx, rng) for _ in range(3))
        p1, p2, p3 = (recomputed(p) for p in (project(project(c, d), e),
                                              project(c, project(d, e)),
                                              project(c, project(e, d))))
        rec.check(is_parallel(p1, p2) and is_parallel(p2, p3), "projection-currying",
                  C=c, D=d, E=e)

        f = _random_convex(cx, rng)
        copies, has_self, parallel, complete, false = copies_of(f)
        rec.check(has_self, "copies-contain-self", F=f)
        rec.check(parallel, "copies-parallel", F=f)
        rec.check(complete, "copies-complete", F=f)
        i = rng.randrange(len(copies))  # as rng.choice(copies) draws
        if i in false:
            continue  # a false copy spans no product with F
        f2 = copies[i]
        signature, bijection = products(f, f2)
        rec.check(signature, "parallel-product-signature", F=f, F2=f2)
        rec.check(bijection, "parallel-product-bijection", F=f, F2=f2)


def _orth_suite(cx, rng, cases, rec: _Recorder, closure: Hyperclosure):
    recomputed = functools.cache(_recomputed)
    for _ in range(cases):
        a_sub = _random_convex(cx, rng)
        a = rng.choice(a_sub.vertices)
        o1 = recomputed(orth(a_sub, a))
        o3 = orth(orth(o1, a), a)
        rec.check(o3 == o1, "triple-complement", A=a_sub, a=a)

        b_sub = _random_convex(cx, rng)
        inner = _sampled_hull(cx, rng, b_sub.vertices, 1 + rng.randrange(len(b_sub)))
        x = rng.choice(inner.vertices)
        rec.check(recomputed(orth(b_sub, x)) <= recomputed(orth(inner, x)),
                  "contravariance", A=inner, B=b_sub, a=x)

    for member in closure.members:
        points = member.vertices
        if len(points) > 8:
            points = tuple(sorted(rng.sample(points, 8)))
        for x in points:
            rec.check(orth(orth(member, x), x) == member, "double-complement", F=member, x=x)


def _closure_suite(cx, rng, cases, rec: _Recorder, closure: Hyperclosure):
    members = closure.members
    member_set = closure.member_set
    # each side by (class id, sign) as the hull of its dual-edge ends, not the closure's own keys
    sides = {(h.class_id, sign): hull(cx, [v for e in h.dual_edges for v in e if (side >> v) & 1])
             for h in cx.classes for sign, side in ((-1, h.side_minus_mask), (1, h.side_plus_mask))}
    for _ in range(cases):
        f = rng.choice(members)
        f2 = rng.choice(members)
        rec.check(project(f, f2) in member_set, "projection-closure", F=f, F2=f2)
        a_sub = _random_convex(cx, rng)
        a = rng.choice(a_sub.vertices)
        rec.check(orth(a_sub, a) in member_set, "complement-closure", A=a_sub, a=a)

    first_of_class: dict[int, ConvexSubcomplex] = {}  # a class's members share one copy list
    for member in members:
        if first_of_class.setdefault(member.crossing_mask, member) is member:
            rec.check(all(c in member_set for c in parallel_copies(member)),
                      "parallelism-closure", F=member)
        rec.check(member == _recomputed(member) and _sound_derivation(closure, sides, member),
                  "grading-soundness", F=member, grade=closure.grade[member])

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


def _orthogonal(cx, s, t) -> bool:
    """True iff every class crossing S crosses every class crossing T; as no
    class crosses itself, no class then crosses both.  Crossing is symmetric,
    so the loop runs over the sparser of the two masks."""
    a, b = sorted((s.crossing_mask, t.crossing_mask), key=int.bit_count)
    crossing = cx.crossing_masks
    return all(b & ~crossing[i] == 0 for i in _bits(a))


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
    # _orthogonal(W, V) and in parallel_into(W, U)), so one W per mask decides it
    one_per_mask: dict[ConvexSubcomplex, list[ConvexSubcomplex]] = {}
    for f, v in pairs:
        x = v.vertices[0]
        u = clean_container(closure, f, v, x)
        rec.check(u == _recomputed(u) and u in closure.member_set,
                  "clean-container-member", F=f, V=v, x=x)
        rec.check(_orthogonal(cx, u, v), "clean-container-orthogonal", F=f, V=v, x=x)
        region = hull(cx, v.vertices + u.vertices)
        rec.check(region <= f and _product_bijection_ok(region, v, u),
                  "clean-container-product", F=f, V=v, x=x)
        if f not in one_per_mask:
            one_per_mask[f] = list({w.crossing_mask: w for w in inside[f]}.values())
        maximal = all(parallel_into(w, u) for w in one_per_mask[f] if _orthogonal(cx, w, v))
        rec.check(maximal, "clean-container-maximality", F=f, V=v, x=x)


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
