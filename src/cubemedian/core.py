"""Finite median graphs: the combinatorial core.

A finite CAT(0) cube complex is represented by its 1-skeleton, a median
graph on vertices 0..n-1.  Wall classes (hyperplanes) are equivalence
classes of edges under the Djokovic relation; each wall splits the vertex
set into two halfspaces.  A vertex is fixed by the side of each wall it
lies on, so it is stored as its sign vector: an int with bit i set when the
vertex is on the plus side of class i.  The sign vectors embed the graph
isometrically in a hypercube, and distance, interval, median, hull and
convexity are bit expressions over them.

Convex subcomplexes are canonical sorted vertex tuples and are the currency
of every higher operation.  A convex set is the set of all vertices that
agree with it on the classes where its signs are constant; the other
classes are the ones crossing it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .errors import InvariantViolation, StructuralError


def _bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _two_colour(cx: "MedianComplex") -> tuple[list[int], list[int], Optional[tuple[int, int]]]:
    """BFS 2-colouring from vertex 0: colours (-1 if unreachable), BFS
    parents, and the first edge found joining two vertices of one colour."""
    n = cx.vertex_count
    color = [-1] * n
    parent = [-1] * n
    odd = None
    if n:
        color[0] = 0
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for y in cx.neighbors[x]:
                if color[y] < 0:
                    color[y] = color[x] ^ 1
                    parent[y] = x
                    queue.append(y)
                elif color[y] == color[x] and odd is None:
                    odd = (x, y)
    return color, parent, odd


class MedianComplex:
    """A finite graph with wall structure, intended to be a median graph.

    The constructor only checks that the adjacency is well-formed (indices
    in range, no loops, no duplicate edges); the median invariants are
    checked by `validate`.  Instances are immutable after construction; the
    wall classes and the sign vectors are computed on first use and cached.
    """

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]],
                 labels: Optional[dict] = None, generator: Optional[str] = None):
        if vertex_count < 0:
            raise StructuralError("vertex_count must be nonnegative")
        norm = []
        seen = set()
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise StructuralError(f"edge ({u},{v}) out of range 0..{vertex_count - 1}")
            if u == v:
                raise StructuralError(f"loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise StructuralError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        self.vertex_count = vertex_count
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(norm))
        nbrs: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.neighbors: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in nbrs)
        self.labels = dict(labels) if labels else None
        self.generator = generator
        self.validated = False
        self.full_mask = (1 << vertex_count) - 1

    # -- wall classes and sign vectors -------------------------------------

    @cached_property
    def classes(self) -> tuple["HyperplaneClass", ...]:
        """Wall classes, numbered by least edge.

        The first edge uv (in sorted order) in no class yet starts the next
        class: one BFS from u and v together splits the vertices into those
        nearer u (the minus side) and those nearer v, and every edge cut by
        the split is Djokovic-related to uv and joins the class.  An edge
        cut by two splits means the relation is not transitive.
        """
        color, _, odd = _two_colour(self)
        if -1 in color:
            raise InvariantViolation("wall classes undefined: graph is disconnected")
        if odd is not None:
            raise InvariantViolation(
                f"wall classes undefined: edge ({odd[0]},{odd[1]}) joins two vertices "
                "of one colour (graph is not bipartite)")
        edge_class: dict[tuple[int, int], int] = {}
        classes = []
        for u, v in self.edges:
            if (u, v) in edge_class:
                continue
            cid = len(classes)
            minus = self._nearer(u, v)
            dual = tuple(e for e in self.edges if ((minus >> e[0]) ^ (minus >> e[1])) & 1)
            ends = 0
            for a, b in dual:
                if edge_class.setdefault((a, b), cid) != cid:
                    raise InvariantViolation(
                        f"wall relation is not transitive: witness edges ({u},{v}), ({a},{b})")
                ends |= (1 << a) | (1 << b)
            classes.append(HyperplaneClass(self, cid, dual, minus, self.full_mask & ~minus,
                                           ends & minus, ends & ~minus))
        return tuple(classes)

    def _nearer(self, u: int, v: int) -> int:
        """Mask of the vertices nearer u than v, by one BFS from u and v
        together; a connected bipartite graph has no ties."""
        near = {u: True, v: False}
        queue = deque((u, v))
        while queue:
            x = queue.popleft()
            for y in self.neighbors[x]:
                if y not in near:
                    near[y] = near[x]
                    queue.append(y)
        return _mask_of(w for w, is_near in near.items() if is_near)

    @cached_property
    def signs(self) -> tuple[int, ...]:
        """signs[v] has bit i set iff v lies on the plus side of class i."""
        signs = [0] * self.vertex_count
        for h in self.classes:
            for w in _bits(h.side_plus_mask):
                signs[w] |= 1 << h.class_id
        return tuple(signs)

    @cached_property
    def by_sign(self) -> dict[int, int]:
        """The inverse of `signs`; raises unless the walls separate all vertices."""
        out: dict[int, int] = {}
        for w, s in enumerate(self.signs):
            first = out.setdefault(s, w)
            if first != w:
                raise InvariantViolation(
                    f"wall classes do not separate vertices {first} and {w}")
        return out

    def vertex_at(self, sign: int) -> int:
        """The vertex with the given sign vector."""
        v = self.by_sign.get(sign)
        if v is None:
            raise InvariantViolation(f"no vertex has sign vector {sign:#b}")
        return v

    def distance(self, u: int, v: int) -> int:
        """The number of walls separating u and v."""
        return (self.signs[u] ^ self.signs[v]).bit_count()

    @cached_property
    def crossing_masks(self) -> tuple[int, ...]:
        """Bit j of crossing_masks[i] is set iff wall j crosses wall i: all
        four intersections of their halfspaces are nonempty.  No wall
        crosses itself."""
        sides = [(h.side_minus_mask, h.side_plus_mask) for h in self.classes]
        masks = [0] * len(sides)
        for i, a in enumerate(sides):
            for j in range(i + 1, len(sides)):
                if all(x & y for x in a for y in sides[j]):
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        return tuple(masks)

    @cached_property
    def crossing(self) -> tuple[frozenset[int], ...]:
        """crossing[i] is the set of class ids whose wall crosses wall i."""
        return tuple(frozenset(_bits(m)) for m in self.crossing_masks)


@dataclass(frozen=True)
class HyperplaneClass:
    """A wall: an edge class with its two halfspaces, as vertex bitmasks.

    The minus side is the halfspace containing the least endpoint of the
    least dual edge, which makes class numbering and side order
    reproducible.  comb_minus/comb_plus (the combinatorial hyperplanes) are
    the endpoints of the dual edges inside each halfspace.
    """

    parent: MedianComplex = field(repr=False)
    class_id: int
    dual_edges: tuple[tuple[int, int], ...]
    side_minus_mask: int = field(repr=False)
    side_plus_mask: int = field(repr=False)
    comb_minus_mask: int = field(repr=False)
    comb_plus_mask: int = field(repr=False)

    @property
    def comb_minus(self) -> frozenset[int]:
        return frozenset(_bits(self.comb_minus_mask))

    @property
    def comb_plus(self) -> frozenset[int]:
        return frozenset(_bits(self.comb_plus_mask))


@dataclass(frozen=True)
class ConvexSubcomplex:
    """A convex subcomplex in canonical form: a strictly sorted vertex tuple.

    Equality is equality of vertex tuples within the same parent complex.
    """

    parent: MedianComplex = field(repr=False)
    vertices: tuple[int, ...]

    @cached_property
    def mask(self) -> int:
        return _mask_of(self.vertices)

    @cached_property
    def crossing_mask(self) -> int:
        """Bit i is set iff both signs of class i occur in the subcomplex."""
        signs = self.parent.signs
        s0 = signs[self.vertices[0]]
        m = 0
        for v in self.vertices:
            m |= signs[v] ^ s0
        return m

    @cached_property
    def signature(self) -> frozenset[int]:
        """Ids of the classes crossing the subcomplex."""
        return frozenset(_bits(self.crossing_mask))

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __contains__(self, v: int) -> bool:
        return v >= 0 and (self.mask >> v) & 1 == 1


def subcomplex(parent: MedianComplex, vertices: Iterable[int], *,
               check: bool = False) -> ConvexSubcomplex:
    """Canonicalize a vertex set; with check=True, require convexity."""
    verts = tuple(sorted(set(vertices)))
    if not verts:
        raise ValueError("subcomplex must be nonempty")
    if verts[-1] >= parent.vertex_count or verts[0] < 0:
        raise ValueError("vertex index out of range")
    if check and not is_convex(parent, verts):
        raise ValueError(f"vertex set {verts} is not convex")
    return ConvexSubcomplex(parent, verts)


def _from_mask(parent: MedianComplex, mask: int) -> ConvexSubcomplex:
    if not mask:
        raise InvariantViolation("empty vertex set where a convex subcomplex is required "
                                 "(the graph is not median)")
    return ConvexSubcomplex(parent, tuple(_bits(mask)))


def _agreeing(parent: MedianComplex, fixed: int, base: int,
              among: Iterable[int]) -> ConvexSubcomplex:
    """The vertices of `among` whose signs equal `base` on the bits of `fixed`."""
    signs = parent.signs
    verts = tuple(v for v in among if signs[v] & fixed == base)
    if not verts:
        raise InvariantViolation("no vertex has the required signs (the graph is not median)")
    return ConvexSubcomplex(parent, verts)


def whole_complex(cx: MedianComplex) -> ConvexSubcomplex:
    return ConvexSubcomplex(cx, tuple(range(cx.vertex_count)))


# -- validation -----------------------------------------------------------


@dataclass
class InvariantFailure:
    invariant: str
    witness: str


@dataclass
class ValidationReport:
    passed: bool
    failures: list[InvariantFailure]

    def summary(self) -> str:
        if self.passed:
            return "valid median complex"
        lines = [f"{f.invariant}: {f.witness}" for f in self.failures]
        return "invalid median complex: " + "; ".join(lines)


def _odd_cycle_witness(cx: MedianComplex, color: list[int], parent: list[int],
                       u: int, v: int) -> list[int]:
    path_u, path_v = [u], [v]
    while parent[path_u[-1]] >= 0:
        path_u.append(parent[path_u[-1]])
    while parent[path_v[-1]] >= 0:
        path_v.append(parent[path_v[-1]])
    while len(path_u) > 1 and len(path_v) > 1 and path_u[-2] == path_v[-2]:
        path_u.pop()
        path_v.pop()
    return path_u + path_v[::-1][1:]


def _non_edge_at_one_wall(cx: MedianComplex) -> Optional[tuple[int, int]]:
    """The first vertex pair whose signs differ in one bit but that is not an edge."""
    edges, by_sign, k = set(cx.edges), cx.by_sign, len(cx.classes)
    for v, s in enumerate(cx.signs):
        for i in range(k):
            w = by_sign.get(s ^ (1 << i), -1)
            if w > v and (v, w) not in edges:
                return v, w
    return None


def _square_gap(cx: MedianComplex) -> Optional[tuple[int, int, int]]:
    """The first triple (z^i, z^j, w), sorted, that breaks the square condition
    of `validate`: z in vertex order, then its neighbour pairs in order, and
    w the least vertex beyond walls i and j from z.  Beyond wall i from z is
    the halfspace holding z^i.  The majority of the triple, z^i^j, is missing.
    """
    signs, by_sign = cx.signs, cx.by_sign
    sides = [(h.side_minus_mask, h.side_plus_mask) for h in cx.classes]
    for z, s in enumerate(signs):
        flips = []
        for y in cx.neighbors[z]:
            i = (signs[y] ^ s).bit_length() - 1
            flips.append((y, 1 << i, sides[i][(signs[y] >> i) & 1]))
        for a, (y, bit_y, beyond_y) in enumerate(flips):
            for x, bit_x, beyond_x in flips[a + 1:]:
                if s ^ bit_y ^ bit_x not in by_sign:
                    quadrant = beyond_y & beyond_x
                    if quadrant:
                        w = (quadrant & -quadrant).bit_length() - 1
                        return tuple(sorted((y, x, w)))
    return None


def validate(cx: MedianComplex) -> ValidationReport:
    """Check the median-graph invariants, reporting every failure with a witness.

    Checks, in order: connectivity and bipartiteness (one BFS); that the
    wall classes exist and separate all vertices, so that the sign vectors
    are injective; that the edges are exactly the vertex pairs whose signs
    differ in one bit; the square condition (SC) below; and that removing
    any one wall class leaves exactly two components.  The later checks
    need sign vectors, so they are skipped when the graph is disconnected
    or odd or has no wall classes: a bipartite graph that is not a partial
    cube (K2,3, say) is reported by its wall-relation failure alone.

    SC: for every vertex z and every two neighbours z^i and z^j of z (z
    with bit i, resp. bit j, flipped), either z^i^j is a vertex or no
    vertex w has w_i != z_i and w_j != z_j.  It costs one lookup and one
    AND of two halfspace masks per pair of neighbours, sum of deg(z)^2 in
    all.  A failure is reported as the triple (z^i, z^j, w), whose
    majority z^i^j is missing.

    Why this is equivalent to the graph being median.  Let the sign vectors
    be injective, the edges exactly the pairs one bit apart, the graph
    connected and SC hold.  Every step of a path flips one bit.
    (1) SC gives an isometry.  Take a shortest path that flips some bit i
    twice, and the two flips of one bit that are nearest on it, so no bit
    flips twice between them.  Let b be the vertex just before the second
    flip of i, reached by flipping bit j, and a the vertex just before the
    first.  Then a differs from b in bits i and j, so SC at b, with
    neighbours b^i and b^j and witness a, puts b^j^i in V: the second flip
    of i moves one step earlier.  Repeating this brings the two flips
    together, so the path revisits a vertex, against minimality.  So
    shortest paths flip each bit at most once, and d(u,v) is the Hamming
    distance h(u,v); intervals are then the vertices that agree with both
    ends where the ends agree.
    (2) SC gives majority closure.  For x, y, z, let p be the vertex of
    I(y,z) nearest x.  If p != maj(x,y,z), then p differs from x in some
    bit i where y and z differ.  On a p-x geodesic, let i be the first such
    bit to flip; the flips before it are bits where y and z agree.  SC at
    the vertex just before the flip of i, with y or z (whichever differs
    from p in bit i) as witness, moves that flip one step earlier, and
    again, until p^i is in V.  But p^i is in I(y,z) and nearer x.  So
    maj(x,y,z) = p is in V, and as the three intervals of a triple meet
    exactly in its majority, every triple has one median.
    (3) A median graph satisfies SC: maj(z^i, z^j, w) = z^i^j.  Its
    Djokovic relation is transitive, its halfspace labelling is an
    isometric embedding (injective, and vertices one bit apart are
    adjacent), and its halfspaces are convex, hence connected, so it passes
    every other check too.
    """
    failures: list[InvariantFailure] = []
    n = cx.vertex_count
    if n == 0:
        failures.append(InvariantFailure("connected", "empty complex"))
        return ValidationReport(False, failures)

    color, parent, odd = _two_colour(cx)
    if -1 in color:
        failures.append(InvariantFailure(
            "connected", f"vertex {color.index(-1)} unreachable from vertex 0"))
    if odd is not None:
        cycle = _odd_cycle_witness(cx, color, parent, *odd)
        failures.append(InvariantFailure("bipartite", f"odd cycle {cycle}"))
    if failures:
        return ValidationReport(False, failures)

    try:
        cx.by_sign  # builds the classes and sign vectors, or says why they do not exist
    except InvariantViolation as exc:
        failures.append(InvariantFailure("wall-relation", str(exc)))
        return ValidationReport(False, failures)

    pair = _non_edge_at_one_wall(cx)
    if pair is not None:
        failures.append(InvariantFailure(
            "partial-cube", "vertices {} and {} are one wall apart but not adjacent".format(*pair)))
    triple = _square_gap(cx)
    if triple is not None:
        failures.append(InvariantFailure(
            "unique-median", "triple ({},{},{}) has medians []".format(*triple)))
    for h in cx.classes:
        removed = set(h.dual_edges)
        seen = [False] * n
        count = 0
        for start in range(n):
            if seen[start]:
                continue
            count += 1
            seen[start] = True
            stack = [start]
            while stack:
                a = stack.pop()
                for b in cx.neighbors[a]:
                    if not seen[b] and ((a, b) if a < b else (b, a)) not in removed:
                        seen[b] = True
                        stack.append(b)
        if count != 2:
            failures.append(InvariantFailure(
                "wall-cut", f"removing class {h.class_id} leaves {count} components"))

    report = ValidationReport(not failures, failures)
    cx.validated = report.passed
    return report


# -- base operations -------------------------------------------------------


def median(cx: MedianComplex, x: int, y: int, z: int) -> int:
    """The vertex whose signs are the bitwise majority of those of x, y, z.

    >>> from cubemedian.generators import grid
    >>> median(grid(1, 1), 0, 1, 2)
    0
    """
    a, b, c = cx.signs[x], cx.signs[y], cx.signs[z]
    m = cx.by_sign.get((a & b) | (a & c) | (b & c))
    if m is None:
        raise InvariantViolation(f"triple ({x},{y},{z}) has no median")
    return m


def interval(cx: MedianComplex, x: int, y: int) -> frozenset[int]:
    """I(x,y) = {v : d(x,v)+d(v,y) = d(x,y)}: the vertices that agree with x
    and y where those two agree, which is hull({x, y})."""
    return frozenset(hull(cx, (x, y)).vertices)


def theta_classes(cx: MedianComplex) -> tuple[HyperplaneClass, ...]:
    """Wall classes under the Djokovic relation, canonically numbered."""
    return cx.classes


def is_convex(cx: MedianComplex, vertices: Iterable[int]) -> bool:
    """True iff the set equals its hull."""
    verts = tuple(sorted(set(vertices)))
    if not verts:
        raise ValueError("is_convex requires a nonempty vertex set")
    return hull(cx, verts).vertices == verts


def hull(cx: MedianComplex, vertices: Iterable[int]) -> ConvexSubcomplex:
    """Least convex superset: every vertex that agrees with the set on the
    classes where the set's signs are constant."""
    verts = list(vertices)
    if not verts:
        raise ValueError("hull requires a nonempty vertex set")
    if not all(0 <= v < cx.vertex_count for v in verts):
        raise ValueError("vertex index out of range")
    signs = [cx.signs[v] for v in verts]
    free = 0
    for s in signs:
        free |= s ^ signs[0]
    return _agreeing(cx, ~free, signs[0] & ~free, range(cx.vertex_count))


def _max_clique(adj: list[int], n: int) -> int:
    best = 0

    def expand(cand: int, size: int):
        nonlocal best
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if size + 1 > best:
                best = size + 1
            expand(cand & adj[v], size + 1)

    expand((1 << n) - 1, 0)
    return best


def dimension(cx: MedianComplex) -> int:
    """Size of the largest cube, via the largest square-spanning edge set at a vertex."""
    nbr_masks = [_mask_of(a) for a in cx.neighbors]
    best = 0
    for v in range(cx.vertex_count):
        nbrs = cx.neighbors[v]
        k = len(nbrs)
        if k <= best:
            continue
        # adjacency among neighbors: u,w span a square at v iff they have a
        # second common neighbor; in a median graph pairwise squares close
        # into cubes
        adj = [0] * k
        for i in range(k):
            for j in range(i + 1, k):
                if nbr_masks[nbrs[i]] & nbr_masks[nbrs[j]] & ~(1 << v):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        best = max(best, _max_clique(adj, k))
    return best


def all_convex_subcomplexes(cx: MedianComplex) -> list[ConvexSubcomplex]:
    """Every convex subcomplex, as the closure of singletons under hull-insertion.

    Every convex set C is reached: grow from a singleton of C by repeatedly
    hulling in one more vertex of C; all intermediate hulls stay inside C.
    A hull is kept as its crossing classes and its signs on the others.
    """
    signs = cx.signs
    seen = {(0, s) for s in signs}
    queue = deque(seen)
    while queue:
        free, base = queue.popleft()
        for s in signs:
            grown = free | (s ^ base)
            if grown != free:
                key = (grown, base & ~grown)
                if key not in seen:
                    seen.add(key)
                    queue.append(key)
    n = cx.vertex_count
    subs = {_agreeing(cx, ~free, base, range(n)) for free, base in seen}
    return sorted(subs, key=lambda s: (len(s.vertices), s.vertices))
