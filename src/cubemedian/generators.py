"""Deterministic constructors for the fixture families.

Every generated complex passes the gate `core._validated` before it is
returned, carries coordinate labels where the construction has natural
coordinates, and records its canonical spec string (identical spec,
identical complex, bit for bit).  A nested spec is glued as one edge list
and validated once, as a whole; `generate` says why that is as strict as
validating each node.  Randomized kinds draw from splitmix64 only.
"""

from __future__ import annotations

import functools
import heapq
import operator
import re
from typing import NamedTuple, Optional, Union

from .core import MedianComplex, _validated
from .rng import SplitMix64

KINDS = ("grid", "box", "tree", "product", "staircase", "wedge",
         "glued_staircase_ray", "random_median")
_RANDOM_KINDS = ("tree", "random_median")
MAX_SPEC_DEPTH = 64

Param = Union[int, "GeneratorSpec"]


class GeneratorSpec(NamedTuple):
    """kind plus kind-specific parameters; product and wedge nest sub-specs."""

    kind: str
    parameters: tuple[Param, ...]
    seed: Optional[int] = None


def spec_to_string(spec: GeneratorSpec) -> str:
    parts = [spec_to_string(p) if isinstance(p, GeneratorSpec) else str(p)
             for p in spec.parameters]
    if spec.seed is not None:
        parts.append(f"seed={spec.seed}")
    return f"{spec.kind}({','.join(parts)})"


# what parse_spec reads at its cursor, each after any whitespace: "seed=" is one
# token, so an argument never backtracks, and _NO_ARG is an empty argument list
# or the end of the text, where the missing ')' is the error
_SPACE, _WORD, _INT, _SEED = map(re.compile, (r"\s*", r"\w+", r"\d+", r"seed\s*="))
_OPEN, _CLOSE, _COMMA, _END, _NO_ARG = map(re.compile, (r"\(", r"\)", ",", r"\Z", r"(?=\)|\Z)"))


def parse_spec(text: str) -> GeneratorSpec:
    """Parse the compact spec form used by the CLI and the label block:
    `kind(arg,...)`, each arg an integer, `seed=`integer or a nested spec.

    Specs nested deeper than MAX_SPEC_DEPTH are rejected with ValueError.

    >>> spec_to_string(parse_spec("product( grid(1,1), tree(5, seed=2) )"))
    'product(grid(1,1),tree(5,seed=2))'
    """
    pos = 0

    def take(token: re.Pattern, expected: str = "") -> Optional[re.Match]:
        """Skip whitespace, then read the token at the cursor if it is there.
        If it is not and `expected` names it, that is the error."""
        nonlocal pos
        pos = _SPACE.match(text, pos).end()
        found = token.match(text, pos)
        if found:
            pos = found.end()
        elif expected:
            raise ValueError(f"bad generator spec {text!r}: expected {expected} at position {pos}")
        return found

    def node(depth: int) -> GeneratorSpec:
        kind = take(_WORD, "a generator kind")[0]
        if depth > MAX_SPEC_DEPTH:  # after the kind: a missing one is named at any depth
            raise ValueError(f"generator spec nests deeper than {MAX_SPEC_DEPTH} levels")
        if kind not in KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        take(_OPEN, "'('")
        params: list[Param] = []
        seed = None
        more = not take(_NO_ARG)
        while more:
            if digits := take(_INT):
                params.append(int(digits[0]))
            elif take(_SEED):
                if seed is not None:
                    raise ValueError(f"duplicate seed in {text!r}")
                seed = int(take(_INT, "an integer")[0])
            else:
                params.append(node(depth + 1))
            more = take(_COMMA)
        take(_CLOSE, "')'")
        return GeneratorSpec(kind, tuple(params), seed)

    spec = node(1)
    take(_END, "end of spec")
    return spec


# -- kind builders ----------------------------------------------------------


def _build_box(lengths: tuple[int, ...]):
    """The product of one labelled path per length, glued by `_product`."""
    return functools.reduce(_product, [
        (a + 1, [(i, i + 1) for i in range(a)], {i: (i,) for i in range(a + 1)})
        for a in lengths])


def _build_staircase(n: int):
    # squares (i,j) of [0,n]^2 with j <= i survive; take their 1-skeleton
    labels = set()
    edge_coords = set()
    for i in range(n):
        for j in range(i + 1):
            c00, c10 = (i, j), (i + 1, j)
            c01, c11 = (i, j + 1), (i + 1, j + 1)
            labels.update((c00, c10, c01, c11))
            edge_coords.update({(c00, c10), (c00, c01), (c10, c11), (c01, c11)})
    verts = sorted(labels)
    index = {c: i for i, c in enumerate(verts)}
    edges = sorted((min(index[a], index[b]), max(index[a], index[b]))
                   for a, b in edge_coords)
    return len(verts), edges, {index[c]: c for c in verts}


def _build_tree(n: int, seed: int):
    if n == 1:
        return 1, [], None
    rng = SplitMix64(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, w), max(u, w)))
    return n, sorted(edges), None


def _build_random_median(dim: int, count: int, seed: int):
    """Random words of dim bits (bit i is coordinate i) closed under majority,
    numbered in coordinate-tuple order, coordinate 0 first.  Points a, w are
    adjacent iff no other word lies between them.

    Closure.  A subset of {0,1}^dim is closed under majority iff it is the
    set of words whose projection onto every pair of coordinates i <= j
    occurs in it (Schaefer, STOC 1978).  Every subset of {0,1}^2 is closed
    under majority, and majority acts coordinatewise, so the closure of the
    points has their pair projections: it is the set of words that pass
    every pair test against the points.  The pairs (i, j) with x_j = b show
    x_i = 0 unless bit i is in the AND of the points on side b of j, and
    x_i = 1 only if it is in their OR; the diagonal i = j allows x_j = b
    only if some point has it.  The projection of the closure onto
    coordinates 0..j is the closure of the points' projection, so a prefix
    that passes every test among its own coordinates extends to a word:
    placing one coordinate at a time never dead-ends, and placing 0 before
    1 keeps the words in coordinate-tuple order.

    Edges.  Coordinates whose cuts of the closure are equal or complementary
    form a group, and these are the coordinates i, k where the points show
    only two of the patterns of (x_i, x_k), the equal or the complementary
    ones: again the closure has the points' pair projections.  A word is
    constant on a group up to complement, so two words one group apart have
    no word between them.  If a and w differ in coordinates i and k of
    different groups, some point y shows (w_i, a_k) or (a_i, w_k), and
    majority(a, w, y) lies between a and w and equals neither.  So the
    edges are the words one group apart; constant coordinates form no group.
    """
    rng = SplitMix64(seed)
    points: set[int] = set()
    while len(points) < count:
        points.add(rng.randrange(1 << dim))
    words = [0]
    for j in range(dim):
        low, tests = (1 << j) - 1, []
        for b in (0, 1):
            side = [p for p in points if p >> j & 1 == b]
            if side:  # the diagonal test: a value no point takes is no word's
                ones = functools.reduce(operator.and_, side) & low
                zeros = low & ~functools.reduce(operator.or_, side)
                tests.append((b << j, ones | zeros, ones))
        words = [w | bit for w in words for bit, care, ones in tests if w & care == ones]
    pts = list(points)
    groups: dict[tuple[int, ...], int] = {}
    for i in range(dim):
        cut = tuple((p ^ pts[0]) >> i & 1 for p in pts)
        if any(cut):
            groups[cut] = groups.get(cut, 0) | 1 << i
    index = {w: v for v, w in enumerate(words)}
    edges = [(v, index[w ^ g]) for w, v in index.items() for g in groups.values()
             if index.get(w ^ g, -1) > v]
    labels = {v: tuple(w >> i & 1 for i in range(dim)) for v, w in enumerate(words)}
    return len(words), sorted(edges), labels


def _product(a, b):
    """Graph product of two (n, edges, labels) triples: vertex pairs, edges in
    one coordinate at a time, tuple labels joined."""
    (n1, edges1, l1), (n2, edges2, l2) = a, b
    edges = [(u * n2 + w, v * n2 + w) for u, v in edges1 for w in range(n2)]
    edges += [(u * n2 + v, u * n2 + w) for u in range(n1) for v, w in edges2]
    labels = None
    if l1 and l2 and all(isinstance(l, tuple) for l in (*l1.values(), *l2.values())):
        labels = {u * n2 + v: l1[u] + l2[v] for u in range(n1) for v in range(n2)}
    return n1 * n2, edges, labels


def _wedge(a, v1, b, v2):
    """Identify v1 of triple a with v2 of triple b: a keeps its vertex indices,
    b's other vertices follow in their order, and the wedge has no labels."""
    (n1, edges1, _), (n2, edges2, _) = a, b
    if not 0 <= v1 < n1 or not 0 <= v2 < n2:
        raise ValueError("wedge vertex out of range")
    remap = [*range(n1, n1 + v2), v1, *range(n1 + v2, n1 + n2 - 1)]
    return n1 + n2 - 1, [*edges1, *((remap[u], remap[w]) for u, w in edges2)], None


def _triple(cx: MedianComplex):
    return cx.vertex_count, cx.edges, cx.labels


def product(x1: MedianComplex, x2: MedianComplex) -> MedianComplex:
    """Graph product: vertex pairs, edges in one coordinate at a time."""
    return _validated(MedianComplex(*_product(_triple(x1), _triple(x2))))


def wedge(x1: MedianComplex, v1: int, x2: MedianComplex, v2: int) -> MedianComplex:
    """Identify v1 in x1 with v2 in x2; x1 keeps its vertex indices."""
    return _validated(MedianComplex(*_wedge(_triple(x1), v1, _triple(x2), v2)))


def _require(cond: bool, message: str):
    if not cond:
        raise ValueError(message)


def generate(spec: GeneratorSpec) -> MedianComplex:
    """Build, validate and label the complex described by the spec.

    The spec is glued as one (n, edges, labels) triple and validated once, as
    a whole.  That is as strict as validating each node.  Every leaf builder
    makes a connected median graph (each kind's construction; random_median
    is proven in its builder).  A product, or a wedge at one vertex, of
    graphs is connected iff its parts are, and when they are it is median
    iff its parts are: each part is a gated subgraph of the product or the
    wedge, hence median if the whole is, and products and gated amalgams of
    median graphs are median.  So the whole is median iff every node is, and
    a node that came out wrong would still fail the one check.
    """
    cx = _validated(MedianComplex(*_build(spec)))
    cx.generator = spec_to_string(spec)
    return cx


def _build(spec: GeneratorSpec):
    """The (n, edges, labels) triple of the spec, its nodes glued in one
    recursion; every refusal is a ValueError, raised at the first bad node."""
    kind, params, seed = spec.kind, spec.parameters, spec.seed
    _require(kind in KINDS, f"unknown generator kind {kind!r}")
    if seed is not None:
        _require(kind in _RANDOM_KINDS, f"{kind} does not take a seed")
        # type, not isinstance: a bool would be recorded as True, which parse_spec refuses
        _require(type(seed) is int, "seed must be an integer")
        _require(0 <= seed < (1 << 64), "seed must fit in 64 bits")
    ints = all(type(p) is int for p in params)

    if kind == "product":
        _require(len(params) == 2 and all(isinstance(p, GeneratorSpec) for p in params),
                 "product needs two sub-specs")
        return _product(_build(params[0]), _build(params[1]))
    if kind == "wedge":
        _require(len(params) == 4 and isinstance(params[0], GeneratorSpec)
                 and isinstance(params[2], GeneratorSpec)
                 and type(params[1]) is int and type(params[3]) is int,
                 "wedge needs (spec, vertex, spec, vertex)")
        return _wedge(_build(params[0]), params[1], _build(params[2]), params[3])
    if kind == "grid":
        _require(ints and len(params) == 2 and min(params) >= 0, "grid(w,h) needs w,h >= 0")
        return _build_box(params)
    if kind == "box":
        _require(ints and len(params) >= 1 and min(params) >= 0,
                 "box(d1,...,dk) needs k >= 1 path lengths >= 0")
        return _build_box(params)
    if kind == "tree":
        _require(ints and len(params) == 1 and params[0] >= 1, "tree(n) needs n >= 1")
        return _build_tree(params[0], seed or 0)
    if kind == "staircase":
        _require(ints and len(params) == 1 and params[0] >= 1, "staircase(n) needs n >= 1")
        return _build_staircase(params[0])
    if kind == "random_median":
        _require(ints and len(params) == 2, "random_median(dim, count) needs two ints")
        dim, count = params
        # the closure can have up to 2^dim vertices, and no size limit is
        # checked before it is built, so the dimension is kept small
        _require(1 <= dim <= 8, "random_median dimension must be in 1..8")
        _require(1 <= count <= (1 << dim), "random_median count must be in 1..2^dim")
        return _build_random_median(dim, count, seed or 0)
    _require(ints and len(params) == 1 and params[0] >= 1, "glued_staircase_ray(n) needs n >= 1")
    # the path 0..n with staircase(k) wedged at path vertex k by its vertex 0,
    # the (0,0) corner
    n = params[0]
    ray = n + 1, [(k, k + 1) for k in range(n)], None
    for k in range(1, n + 1):
        ray = _wedge(ray, k, _build_staircase(k), 0)
    return ray


# -- convenience constructors ------------------------------------------------


def grid(w: int, h: int) -> MedianComplex:
    return generate(GeneratorSpec("grid", (w, h)))


def box(*lengths: int) -> MedianComplex:
    return generate(GeneratorSpec("box", tuple(lengths)))


def staircase(n: int) -> MedianComplex:
    return generate(GeneratorSpec("staircase", (n,)))


def tree(n: int, seed: int = 0) -> MedianComplex:
    return generate(GeneratorSpec("tree", (n,), seed=seed))


def random_median(dim: int, count: int, seed: int = 0) -> MedianComplex:
    return generate(GeneratorSpec("random_median", (dim, count), seed=seed))


def glued_staircase_ray(n: int) -> MedianComplex:
    return generate(GeneratorSpec("glued_staircase_ray", (n,)))
