"""Randomized invariant suites over a complex.

Each suite draws cases from splitmix64, so a (complex, suite, cases, seed)
quadruple is a complete reproduction of any reported violation.
"""

from __future__ import annotations

from typing import Optional

from .core import ConvexSubcomplex, MedianComplex, _bits, hull, is_convex, whole_complex
from .gates import (
    comb_side,
    crossing_signature,
    gate,
    is_parallel,
    parallel_bridge,
    parallel_copies,
    parallel_into,
    project,
    separators,
)
from .hyperclosure import Hyperclosure, _containments, clean_container, hyperclosure
from .orthocomplement import orth
from .rng import SplitMix64

SUITES = ("gates", "orth", "closure")


class Violation:
    def __init__(self, suite: str, invariant: str, inputs: Optional[dict] = None,
                 message: str = ""):
        self.suite = suite
        self.invariant = invariant
        self.inputs = {} if inputs is None else inputs
        self.message = message

    def __repr__(self) -> str:
        return (f"Violation(suite={self.suite!r}, invariant={self.invariant!r}, "
                f"inputs={self.inputs!r}, message={self.message!r})")


class _Recorder:
    def __init__(self, suite: str, out: list[Violation], cap: int):
        self.suite = suite
        self.out = out
        self.cap = cap

    def check(self, ok: bool, invariant: str, inputs: dict, message: str = "") -> None:
        if not ok and not self.full:
            self.out.append(Violation(self.suite, invariant, inputs, message))

    @property
    def full(self) -> bool:
        return len(self.out) >= self.cap


def _random_convex(cx: MedianComplex, rng: SplitMix64):
    k = min(rng.choice((1, 1, 2, 2, 3)), cx.vertex_count)
    return hull(cx, rng.sample(range(cx.vertex_count), k))


def _recomputed(s):
    """The key S's vertices recompute; the checks below hold keys to it."""
    return hull(s.parent, s.vertices)


def _product_bijection_ok(region, left, right) -> bool:
    coords = [(gate(left, v), gate(right, v)) for v in region.vertices]
    return (len(set(coords)) == len(region) and
            len(region) == len(left) * len(right))


def _gates_suite(cx, rng, cases, rec: _Recorder):
    for _ in range(cases):
        if rec.full:
            return
        y = _random_convex(cx, rng)
        z = _random_convex(cx, rng)
        img = project(y, z)
        key = _recomputed(img)
        inputs = {"Y": y.vertices, "Z": z.vertices}
        rec.check(key == img and key.crossing_mask == y.crossing_mask & z.crossing_mask,
                  "gate-crossing-law", inputs)
        rec.check(is_convex(cx, img.vertices), "projection-convex", inputs)
        rec.check(is_parallel(key, _recomputed(project(z, y))), "symmetric-parallelism", inputs)

        c, d, e = (_random_convex(cx, rng) for _ in range(3))
        p1, p2, p3 = (_recomputed(p) for p in (project(project(c, d), e),
                                               project(c, project(d, e)),
                                               project(c, project(e, d))))
        rec.check(is_parallel(p1, p2) and is_parallel(p2, p3), "projection-currying",
                  {"C": c.vertices, "D": d.vertices, "E": e.vertices})

        f = _random_convex(cx, rng)
        copies = parallel_copies(f)
        finputs = {"F": f.vertices}
        rec.check(f in copies, "copies-contain-self", finputs)
        rec.check(all(c2 == _recomputed(c2) and is_parallel(f, c2) for c2 in copies),
                  "copies-parallel", finputs)
        f2 = rng.choice(copies)
        region = hull(cx, f.vertices + f2.vertices)
        seps = separators(f, f2)
        pinputs = {"F": f.vertices, "F2": f2.vertices}
        rec.check(crossing_signature(region) == crossing_signature(f) | seps and
                  not crossing_signature(f) & seps,
                  "parallel-product-signature", pinputs)
        bridge = parallel_bridge(f, f2)
        rec.check(_product_bijection_ok(region, f, bridge),
                  "parallel-product-bijection", pinputs)


def _orth_suite(cx, rng, cases, rec: _Recorder, closure: Hyperclosure):
    for _ in range(cases):
        if rec.full:
            return
        a_sub = _random_convex(cx, rng)
        a = rng.choice(a_sub.vertices)
        o1 = _recomputed(orth(a_sub, a))
        o3 = orth(orth(o1, a), a)
        rec.check(o3 == o1, "triple-complement", {"A": a_sub.vertices, "a": a})

        b_sub = _random_convex(cx, rng)
        inner = hull(cx, rng.sample(b_sub.vertices,
                                    1 + rng.randrange(len(b_sub))))
        x = rng.choice(inner.vertices)
        rec.check(_recomputed(orth(b_sub, x)) <= _recomputed(orth(inner, x)),
                  "contravariance", {"A": inner.vertices, "B": b_sub.vertices, "a": x})

    for member in closure.members:
        if rec.full:
            return
        points = member.vertices
        if len(points) > 8:
            points = tuple(sorted(rng.sample(points, 8)))
        for x in points:
            rec.check(orth(orth(member, x), x) == member, "double-complement",
                      {"F": member.vertices, "x": x})


def _closure_suite(cx, rng, cases, rec: _Recorder, closure: Hyperclosure):
    members = closure.members
    member_set = closure.member_set
    for _ in range(cases):
        if rec.full:
            return
        f = rng.choice(members)
        f2 = rng.choice(members)
        rec.check(project(f, f2) in member_set, "projection-closure",
                  {"F": f.vertices, "F2": f2.vertices})
        a_sub = _random_convex(cx, rng)
        a = rng.choice(a_sub.vertices)
        rec.check(orth(a_sub, a) in member_set, "complement-closure",
                  {"A": a_sub.vertices, "a": a})

    for member in members:
        if rec.full:
            return
        rec.check(all(c in member_set for c in parallel_copies(member)),
                  "parallelism-closure", {"F": member.vertices})
        rec.check(member == _recomputed(member) and _sound_derivation(closure, member),
                  "grading-soundness", {"F": member.vertices, "grade": closure.grade[member]})

    _clean_container_checks(cx, rng, cases, rec, closure)


def _sound_derivation(closure: Hyperclosure, member) -> bool:
    cx = closure.complex
    der = closure.derivation[member]
    n = closure.grade[member]
    if der.kind == "whole":
        return n == 0 and member == whole_complex(cx)
    if der.kind == "side":
        return n == 1 and member == comb_side(cx.classes[der.class_id], der.sign)
    return (n == closure.grade[der.source] + 1 and
            project(comb_side(cx.classes[der.class_id], der.sign), der.source) == member)


def _orthogonal(cx, s, t) -> bool:
    """True iff every class crossing S crosses every class crossing T; as no
    class crosses itself, no class then crosses both."""
    crossing, t_mask = cx.crossing_masks, t.crossing_mask
    return all(t_mask & ~crossing[i] == 0 for i in _bits(s.crossing_mask))


def _clean_container_checks(cx, rng, cases, rec: _Recorder, closure: Hyperclosure):
    members = closure.members
    inside: dict[ConvexSubcomplex, list[ConvexSubcomplex]] = {}  # F, then the members in F
    for j, i in _containments(closure):
        inside.setdefault(members[i], [members[i]]).append(members[j])
    pairs = [(f, v) for f in members if f in inside for v in inside[f][1:]]
    if cx.vertex_count > 12 and len(pairs) > cases:
        pairs = [pairs[rng.randrange(len(pairs))] for _ in range(cases)]
    for f, v in pairs:
        if rec.full:
            return
        x = v.vertices[0]
        u = clean_container(closure, f, v, x)
        inputs = {"F": f.vertices, "V": v.vertices, "x": x}
        rec.check(u == _recomputed(u) and u in closure.member_set,
                  "clean-container-member", inputs)
        rec.check(_orthogonal(cx, u, v), "clean-container-orthogonal", inputs)
        region = hull(cx, v.vertices + u.vertices)
        rec.check(region <= f and _product_bijection_ok(region, v, u),
                  "clean-container-product", inputs)
        maximal = all(parallel_into(w, u) for w in inside[f] if _orthogonal(cx, w, v))
        rec.check(maximal, "clean-container-maximality", inputs)


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
    closure = hyperclosure(cx) if {"orth", "closure"} & set(wanted) else None
    for name in wanted:
        rng = SplitMix64(seed * len(SUITES) + SUITES.index(name))
        rec = _Recorder(name, violations, max_violations)
        if name == "gates":
            _gates_suite(cx, rng, cases, rec)
        elif name == "orth":
            _orth_suite(cx, rng, cases, rec, closure)
        else:
            _closure_suite(cx, rng, cases, rec, closure)
    return violations
