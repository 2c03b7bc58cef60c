"""Finite median graphs: the combinatorial core.

A finite CAT(0) cube complex is represented by its 1-skeleton, a median
graph on vertices 0..n-1.  Wall classes (hyperplanes) are equivalence
classes of edges under the Djokovic relation; each wall splits the vertex
set into two halfspaces.  A vertex is fixed by the side of each wall it
lies on, so it is stored as its sign vector: an int with bit i set when the
vertex is on the plus side of class i.  The sign vectors embed the graph
isometrically in a hypercube, and distance, interval, median, hull and
convexity are bit expressions over them (`median`, `interval`,
`is_convex` and `subcomplex` are in `gates`, next to the gate maps).

One BFS from vertex 0 labels the classes and the sign vectors, and one
pass over the pairs of neighbours of every vertex (the square condition)
certifies that labelling, proves the graph median and finds the squares,
which give the crossing walls.  No step loops over all vertices or all
edges once per class, except the class-by-class rule that non-median
input falls back to (see `MedianComplex.classes`).  That rule and the
witnesses of failed checks live in `_nonmedian`, imported only when
they run, so a process given a median graph does not compile them.

A convex set is the set of all vertices that agree with it on the classes
where its signs are constant; the other classes are the ones crossing it.
So a convex subcomplex is keyed by two ints, its crossing mask and its
base (its signs on the classes not crossing it), and that key is the
currency of every higher operation: hull, projection, complement,
parallel copies and containment are bit expressions over keys.  Each
complex holds one object per key, and a key cannot be rebound; its sorted
vertex tuple is filtered once, or set by one pass per parallel class.

Records are NamedTuples or plain classes, not dataclasses: importing
dataclasses pulls in inspect, ast, dis and tokenize, start-up that every
CLI process would pay.  `_lazy` stands in for functools.cached_property.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import InvariantViolation, StructuralError

# raised where a wall arithmetic that holds only on median graphs finds no vertex
_NOT_MEDIAN = "no vertex has the required signs (the graph is not median)"


class _lazy:
    """An attribute computed on first read, like functools.cached_property
    but without its lock: the value goes into the instance dict, which later
    reads find before this non-data descriptor.  That write bypasses
    __setattr__, so `_Frozen` classes can use it."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class _Frozen:
    """Refuses attribute assignment; constructors write the instance dict."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _two_colour(cx: "MedianComplex", source: int = 0
                ) -> tuple[list[int], list[int], Optional[tuple[int, int]]]:
    """BFS 2-colouring from `source`: depths (-1 if unreachable; the colour
    is the depth's parity), BFS parents, and the first edge found joining
    two vertices of one colour."""
    n = cx.vertex_count
    depth = [-1] * n
    parent = [-1] * n
    odd = None
    if n:
        depth[source] = 0
        queue = deque([source])
        while queue:
            x = queue.popleft()
            for y in cx.neighbors[x]:
                if depth[y] < 0:
                    depth[y] = depth[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif depth[y] == depth[x] and odd is None:
                    odd = (x, y)
    return depth, parent, odd


class MedianComplex:
    """A finite graph with wall structure, intended to be a median graph.

    The constructor only checks that the adjacency is well-formed (indices
    in range, no loops, no duplicate edges); the median invariants are
    checked by `validate`.  Instances are immutable after construction; the
    wall classes and the sign vectors are computed on first use and cached,
    and so is the one object of each convex subcomplex key.
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
        self._keys: dict[tuple[int, int], ConvexSubcomplex] = {}  # see ConvexSubcomplex
        self._polars: dict[int, int] = {}  # crossing mask -> its polar, see orthocomplement.orth

    def __reduce__(self):
        return MedianComplex, (self.vertex_count, self.edges, self.labels, self.generator), {
            "validated": self.validated}

    # -- wall classes and sign vectors -------------------------------------

    @_lazy
    def classes(self) -> tuple["HyperplaneClass", ...]:
        """Wall classes, numbered by least edge.

        Two rules label the edges, and one tail, `_walls_from_labels`, does
        the rest for both.  The first rule is one BFS from vertex 0
        (Beneteau, Chalopin, Chepoi and Vaxes, arXiv:1907.10398).  The
        predecessors of a vertex v are its neighbours one step nearer vertex
        0.  If v has a single predecessor u, the edge uv opens a new class.
        Otherwise each edge uv joins the class of xw, where w is another
        predecessor of v and x the common predecessor of u and w: in a median
        graph x = median(u, w, 0) is unique, and uv is opposite xw in the
        square u-v-w-x.  The tail numbers the classes by least edge, sets the
        signs along the BFS tree, s(v) = s(u) ^ bit(class(uv)), checks that
        the ends of every edge differ in exactly its own class bit, and
        orients each class so that the least endpoint of the least dual edge
        is on the minus side.

        The BFS rule is sound only on median graphs, so its labelling is kept
        only if it certifies itself: it passes the tail's edge check, the
        signs are injective, and the square condition of `validate` holds
        with its adjacency lookups.  Then the graph is median (see
        `validate`) and the labelling is its Djokovic partition.  Otherwise,
        which happens only on non-median input, the second rule labels the
        edges class by class: the first edge uv in no class yet starts the
        next class, one BFS from u and v together splits the vertices into
        those nearer u and those nearer v, and every edge cut by the split
        joins the class.  An edge cut by two splits means the relation is
        not transitive.
        """
        return self._walls[0]

    @_lazy
    def signs(self) -> tuple[int, ...]:
        """signs[v] has bit i set iff v lies on the plus side of class i."""
        return self._walls[1]

    @_lazy
    def _colouring(self) -> tuple[list[int], list[int], Optional[tuple[int, int]]]:
        """`_two_colour` from vertex 0, once for the walls and `validate` alike."""
        return _two_colour(self)

    @_lazy
    def _walls(self) -> tuple[tuple["HyperplaneClass", ...], tuple[int, ...],
                              Optional["_Squares"], Optional[dict[int, int]]]:
        """The classes, the signs, and the square scan and sign index that
        certified them (both None when the classes were built class by class)."""
        depth, _, odd = self._colouring
        if -1 in depth:
            raise InvariantViolation("wall classes undefined: graph is disconnected")
        if odd is not None:
            raise InvariantViolation(
                f"wall classes undefined: edge ({odd[0]},{odd[1]}) joins two vertices "
                "of one colour (graph is not bipartite)")
        labelled = _label_by_bfs(self, depth)
        if labelled is not None:
            classes, signs = labelled
            by_sign = {s: v for v, s in enumerate(signs)}
            if len(by_sign) == self.vertex_count:
                squares = _scan_squares(self, classes, signs, by_sign)
                if squares.gap is None and squares.non_adjacent is None:
                    return classes, signs, squares, by_sign
        from ._nonmedian import _classes_by_split

        return (*_classes_by_split(self), None, None)

    @_lazy
    def _squares(self) -> "_Squares":
        """The square scan of `validate` over the classes and signs."""
        return self._walls[2] or _scan_squares(self, self.classes, self.signs, self.by_sign)

    @_lazy
    def by_sign(self) -> dict[int, int]:
        """The inverse of `signs`; raises unless the walls separate all vertices."""
        if self._walls[3] is not None:
            return self._walls[3]
        out: dict[int, int] = {}
        for w, s in enumerate(self.signs):
            first = out.setdefault(s, w)
            if first != w:
                raise InvariantViolation(
                    f"wall classes do not separate vertices {first} and {w}")
        return out

    def vertex_at(self, sign: int) -> int:
        """The vertex with the given sign vector.  A missing one means a
        non-median graph when the square scan did not certify the walls."""
        v = self.by_sign.get(sign)
        if v is None:
            if self._walls[2] is None:
                raise InvariantViolation(_NOT_MEDIAN)
            raise InvariantViolation(f"no vertex has sign vector {sign:#b}")
        return v

    def parallel_class(self, mask: int) -> Iterator["ConvexSubcomplex"]:
        """Every convex subcomplex crossed by exactly `mask`, by least vertex:
        the fibres {v : s_v & ~mask == b} whose spread, the OR of their XORs
        with their first sign, is `mask`.  Each key gets its tuple from this pass."""
        signs = self.signs
        fibres: dict[int, list[int]] = {}
        for v, s in enumerate(signs):
            fibres.setdefault(s & ~mask, []).append(v)
        for base, verts in fibres.items():
            first, spread = signs[verts[0]], 0
            for v in verts:
                spread |= signs[v] ^ first
            if spread == mask:
                s = ConvexSubcomplex(self, mask, base)
                s.__dict__.setdefault("vertices", tuple(verts))
                yield s

    def distance(self, u: int, v: int) -> int:
        """The number of walls separating u and v."""
        if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
            raise ValueError("vertex index out of range")
        return (self.signs[u] ^ self.signs[v]).bit_count()

    @_lazy
    def crossing_masks(self) -> tuple[int, ...]:
        """Bit j of crossing_masks[i] is set iff walls i and j cross: some
        square has one edge dual to each.  In a median graph that holds iff
        all four intersections of their halfspaces are nonempty (Sageev).
        The square scan of `validate` finds the squares.  No wall crosses
        itself."""
        return self._squares.crossing


def _label_by_bfs(cx: MedianComplex, depth: list[int]
                  ) -> Optional[tuple[tuple["HyperplaneClass", ...], tuple[int, ...]]]:
    """The one-BFS rule of `MedianComplex.classes`, through `_walls_from_labels`;
    None where two predecessors of a vertex have no unique common predecessor,
    or the ends of an edge differ in more than its own class bit."""
    n, nbrs = cx.vertex_count, cx.neighbors
    preds = [[u for u in nbrs[v] if depth[u] < depth[v]] for v in range(n)]
    opened: dict[tuple[int, int], int] = {}  # (nearer, farther end) -> class, in order of opening
    for v in sorted(range(n), key=depth.__getitem__)[1:]:
        p = preds[v]
        if len(p) == 1:
            opened[(p[0], v)] = len(opened)
            continue
        for a, u in enumerate(p):
            w = p[a - 1]
            common = [x for x in preds[u] if x in preds[w]]
            if len(common) != 1:
                return None
            opened[(u, v)] = opened[(common[0], w)]
    return _walls_from_labels(cx, depth, opened)


def _walls_from_labels(cx: MedianComplex, depth: list[int], label: dict[tuple[int, int], object]
                       ) -> Optional[tuple[tuple["HyperplaneClass", ...], tuple[int, ...]]]:
    """The classes and signs of an edge labelling: `label` maps every edge,
    as (nearer, farther end) from vertex 0, to its class.  The classes are
    numbered by least edge, and the signs set along the BFS tree of
    `cx._colouring`, relative to vertex 0; None unless the ends of every
    edge then differ in exactly its own class bit.  Each class is oriented
    so that the least endpoint of its least dual edge is on the minus side."""
    dual: dict[object, list[tuple[int, int]]] = {}  # label -> its edges, least edge first
    for a, b in cx.edges:
        dual.setdefault(label[(a, b) if depth[a] < depth[b] else (b, a)], []).append((a, b))
    bit = {c: 1 << i for i, c in enumerate(dual)}
    parent = cx._colouring[1]
    rel = [0] * cx.vertex_count
    for v in sorted(range(cx.vertex_count), key=depth.__getitem__)[1:]:
        rel[v] = rel[parent[v]] ^ bit[label[(parent[v], v)]]
    if any(rel[u] ^ rel[v] != bit[c] for (u, v), c in label.items()):
        return None
    # halfspaces away from vertex 0, by one transposition of the relative signs
    away = [0] * len(dual)
    for v, s in enumerate(rel):
        bit_v = 1 << v
        for i in _bits(s):
            away[i] |= bit_v
    full, flip, classes = cx.full_mask, 0, []
    for i, edges in enumerate(dual.values()):
        plus = away[i]
        if (rel[edges[0][0]] >> i) & 1:  # the least end of the least edge goes to the minus side
            plus, flip = full & ~plus, flip | 1 << i
        classes.append(HyperplaneClass(cx, i, tuple(edges), full & ~plus, plus))
    return tuple(classes), tuple(s ^ flip for s in rel)


class _Squares(NamedTuple):
    """What one pass over all pairs of neighbours found: see `_scan_squares`."""

    crossing: tuple[int, ...]
    gap: Optional[tuple[int, int, int]]
    non_adjacent: Optional[tuple[int, int]]


def _scan_squares(cx: MedianComplex, classes: tuple["HyperplaneClass", ...],
                  signs: tuple[int, ...], by_sign: dict[int, int]) -> _Squares:
    """The square condition of `validate`, in one pass: every vertex z in
    order, then every two neighbours z^i, z^j of z in order.  The signs must
    be injective and differ in one bit along every edge.

    Where z^i^j is a vertex adjacent to both, the square sets bit j of
    crossing[i] and bit i of crossing[j].  Where it is a vertex not adjacent
    to one of them, that pair is one bit apart but not adjacent; the first
    such pair, sorted, is `non_adjacent`.  Where it is no vertex but some w
    lies beyond walls i and j from z (beyond wall i from z is the
    halfspace holding z^i), the first triple (z^i, z^j, w), sorted, with w
    least, is `gap`: its majority z^i^j is missing.
    """
    sides = [(h.side_minus_mask, h.side_plus_mask) for h in classes]
    adjacent = [frozenset(a) for a in cx.neighbors]
    crossing = [0] * len(classes)
    gap = non_adjacent = None
    for z, s in enumerate(signs):
        flips = []
        for y in cx.neighbors[z]:
            bit = signs[y] ^ s
            i = bit.bit_length() - 1
            flips.append((y, i, bit, sides[i][(signs[y] >> i) & 1]))
        for a, (y, i, bit_y, beyond_y) in enumerate(flips):
            for x, j, bit_x, beyond_x in flips[a + 1:]:
                w = by_sign.get(s ^ bit_y ^ bit_x)
                if w is None:
                    quadrant = beyond_y & beyond_x
                    if quadrant and gap is None:
                        gap = tuple(sorted((y, x, (quadrant & -quadrant).bit_length() - 1)))
                elif w in adjacent[y] and w in adjacent[x]:
                    crossing[i] |= bit_x
                    crossing[j] |= bit_y
                elif non_adjacent is None:
                    far = x if w in adjacent[y] else y
                    non_adjacent = (w, far) if w < far else (far, w)
    return _Squares(tuple(crossing), gap, non_adjacent)


class HyperplaneClass(_Frozen):
    """A wall: an edge class with its two halfspaces, as vertex bitmasks.

    The minus side is the halfspace containing the least endpoint of the
    least dual edge, which makes class numbering and side order
    reproducible.  The combinatorial hyperplanes are keys (`comb_sides`).
    Each complex builds its walls once, so walls compare by identity.
    """

    def __init__(self, parent: MedianComplex, class_id: int,
                 dual_edges: tuple[tuple[int, int], ...], side_minus_mask: int,
                 side_plus_mask: int):
        self.__dict__.update(parent=parent, class_id=class_id, dual_edges=dual_edges,
                             side_minus_mask=side_minus_mask, side_plus_mask=side_plus_mask)

    def __repr__(self) -> str:
        return f"HyperplaneClass(class_id={self.class_id!r}, dual_edges={self.dual_edges!r})"

    @_lazy
    def comb_sides(self) -> tuple["ConvexSubcomplex", "ConvexSubcomplex"]:
        """The combinatorial hyperplanes (minus, plus), the dual-edge ends on each
        side, as keys: crossed by the classes crossing this wall, off them the signs
        of that side's end of the least dual edge.  Raises unless certified median."""
        cx = self.parent
        if cx._walls[2] is None:
            raise InvariantViolation(_NOT_MEDIAN)
        free = cx.crossing_masks[self.class_id]
        return tuple(ConvexSubcomplex(cx, free, cx.signs[e] & ~free) for e in self.dual_edges[0])


class ConvexSubcomplex(_Frozen):
    """A convex subcomplex, keyed by the wall classes that cross it and its
    signs on the others.

    A convex set is the set of all vertices whose signs equal `base` on the
    classes outside `crossing_mask`, so the pair fixes it.  Every
    constructor gives the exact crossing mask, which makes the key
    canonical, and returns the parent's one object for the two ints (stored
    by dict.setdefault, so two threads building it get one object): equality
    is identity, and the hash is on the two ints alone.  The key cannot be
    rebound; its ascending vertex tuple is filtered from the signs on first
    read unless `parallel_class` set it.
    """

    def __new__(cls, parent: MedianComplex, crossing_mask: int, base: int) -> "ConvexSubcomplex":
        s = parent._keys.get((crossing_mask, base))
        if s is None:
            s = object.__new__(cls)
            s.__dict__.update(parent=parent, crossing_mask=crossing_mask, base=base)
            s = parent._keys.setdefault((crossing_mask, base), s)
        return s

    def __reduce__(self):
        return ConvexSubcomplex, (self.parent, self.crossing_mask, self.base)

    def __hash__(self) -> int:
        return hash((self.crossing_mask, self.base))

    def __repr__(self) -> str:
        return f"ConvexSubcomplex(crossing_mask={self.crossing_mask!r}, base={self.base!r})"

    def __le__(self, other: "ConvexSubcomplex") -> bool:
        """Containment: other's crossing mask covers self's, and off it the bases agree."""
        _same_parent(self, other)
        free = other.crossing_mask
        return self.crossing_mask & ~free == 0 and self.base & ~free == other.base

    @_lazy
    def vertices(self) -> tuple[int, ...]:
        """An empty filter is not stored, so it raises on every read."""
        fixed, base = ~self.crossing_mask, self.base
        verts = tuple(v for v, s in enumerate(self.parent.signs) if s & fixed == base)
        if not verts:
            raise InvariantViolation(_NOT_MEDIAN)
        return verts

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __contains__(self, v: int) -> bool:
        cx = self.parent
        return 0 <= v < cx.vertex_count and cx.signs[v] & ~self.crossing_mask == self.base


def _same_parent(s: ConvexSubcomplex, t: ConvexSubcomplex) -> None:
    """Keys compare only within one complex: equal ints of two complexes
    name unrelated vertex sets."""
    if s.parent is not t.parent:
        raise ValueError("subcomplexes belong to different complexes")


def whole_complex(cx: MedianComplex) -> ConvexSubcomplex:
    return ConvexSubcomplex(cx, (1 << len(cx.classes)) - 1, 0)


# -- validation -----------------------------------------------------------


class InvariantFailure(NamedTuple):
    invariant: str
    witness: str


class ValidationReport:
    def __init__(self, passed: bool, failures: list[InvariantFailure]):
        self.passed = passed
        self.failures = failures

    def summary(self) -> str:
        if self.passed:
            return "valid median complex"
        lines = [f"{f.invariant}: {f.witness}" for f in self.failures]
        return "invalid median complex: " + "; ".join(lines)


def validate(cx: MedianComplex) -> ValidationReport:
    """Check the median-graph invariants, reporting every failure with a witness.

    Checks, in order: connectivity and bipartiteness (one BFS); that the
    wall classes exist and separate all vertices, so that the sign vectors
    are injective, with the ends of every edge differing in exactly its own
    class bit (both rules of `MedianComplex.classes` ensure that); and the
    square condition (SC) below.  SC needs sign vectors, so it is skipped
    when the graph is disconnected or odd or has no wall classes: a
    bipartite graph that is not a partial cube (K2,3, say) is reported by
    its wall-relation failure alone.

    SC: for every vertex z and every two neighbours z^i and z^j of z (z
    with bit i, resp. bit j, flipped), either z^i^j is a vertex adjacent to
    both z^i and z^j, or z^i^j is no vertex and no vertex w has w_i != z_i
    and w_j != z_j.  It costs one lookup, and two neighbour-set lookups or
    one AND of two halfspace masks, per pair of neighbours: sum of deg(z)^2
    in all.  A vertex z^i^j not adjacent to z^i (say) is reported as a
    pair one wall apart but not adjacent; a missing z^i^j as the triple
    (z^i, z^j, w), whose majority it is (but see
    `_nonmedian._gap_failure`).  The labelling of `MedianComplex.classes`
    passed this scan when it was kept, so on a median graph `validate`
    costs that labelling, whose BFS it reads.

    Why this is equivalent to the graph being median.  Let the sign vectors
    be injective, every edge flip exactly one bit, the graph be connected
    and SC hold.
    (1) SC gives an isometry.  Take a shortest path that flips some bit
    twice, and of all pairs of flips of one bit on it a nearest one, say of
    bit i, so no bit flips twice between them.  Let b be the vertex just
    before the second flip of i, reached by flipping bit j, and a the
    vertex just before the first.  Then a differs from b in bits i and j,
    so SC at b, with neighbours b^i and b^j and witness a, puts b^j^i in V,
    adjacent to b^j and to b^i: the path through b^j^i in place of b has
    the same length, and its second flip of i is one step earlier.
    Repeating this brings the two flips together, so the path revisits a
    vertex, against minimality.  So shortest paths flip each bit at most
    once, d(u,v) is the Hamming distance h(u,v), vertices one bit apart
    are adjacent, and intervals are the vertices that agree with both ends
    where the ends agree.
    (2) SC gives majority closure.  For x, y, z, let p be the vertex of
    I(y,z) nearest x.  If p != maj(x,y,z), then p differs from x in some
    bit i where y and z differ.  On a p-x geodesic, let i be the first such
    bit to flip; the flips before it are bits where y and z agree.  SC at
    the vertex just before the flip of i, with y or z (whichever differs
    from p in bit i) as witness, moves that flip one step earlier, and
    again, until p^i is in V.  But p^i is in I(y,z) and nearer x.  So
    maj(x,y,z) = p is in V, and as the three intervals of a triple meet
    exactly in its majority, every triple has one median.  Two edges are
    Djokovic-related iff they flip the same bit (d = h), so the classes
    are the Djokovic classes.
    (3) A median graph passes every check.  Its Djokovic relation is
    transitive, and its halfspace labelling is an isometric embedding:
    injective, every edge flips its own class bit, and vertices one bit
    apart are adjacent.  SC holds because maj(z^i, z^j, w) = z^i^j, which is
    one bit from z^i and from z^j.  Its halfspaces are convex, hence
    connected, so removing one wall class always leaves two components;
    that needs no check of its own.
    """
    failures: list[InvariantFailure] = []
    n = cx.vertex_count
    if n == 0:
        failures.append(InvariantFailure("connected", "empty complex"))
        return ValidationReport(False, failures)

    depth, parent, odd = cx._colouring
    if -1 in depth:
        failures.append(InvariantFailure(
            "connected", f"vertex {depth.index(-1)} unreachable from vertex 0"))
    if odd is not None:
        from ._nonmedian import _odd_cycle_witness

        cycle = _odd_cycle_witness(cx, depth, parent, *odd)
        failures.append(InvariantFailure("bipartite", f"odd cycle {cycle}"))
    if failures:
        return ValidationReport(False, failures)

    try:
        squares = cx._squares  # builds the classes, signs and square scan, or says why not
    except InvariantViolation as exc:
        failures.append(InvariantFailure("wall-relation", str(exc)))
        return ValidationReport(False, failures)

    if squares.non_adjacent is not None:
        failures.append(InvariantFailure(
            "partial-cube",
            "vertices {} and {} are one wall apart but not adjacent".format(*squares.non_adjacent)))
    if squares.gap is not None:
        from ._nonmedian import _gap_failure

        failures.append(_gap_failure(cx, squares.gap))

    report = ValidationReport(not failures, failures)
    cx.validated = report.passed
    return report


# -- base operations -------------------------------------------------------


def theta_classes(cx: MedianComplex) -> tuple[HyperplaneClass, ...]:
    """Wall classes under the Djokovic relation, canonically numbered."""
    return cx.classes


def hull(cx: MedianComplex, vertices: Iterable[int]) -> ConvexSubcomplex:
    """Least convex superset: every vertex that agrees with the set on the
    classes where the set's signs are constant."""
    verts = list(vertices)
    if not verts:
        raise ValueError("hull requires a nonempty vertex set")
    if min(verts) < 0 or max(verts) >= cx.vertex_count:
        raise ValueError("vertex index out of range")
    signs = cx.signs
    s0 = signs[verts[0]]
    free = 0
    for v in verts:
        free |= signs[v] ^ s0
    return ConvexSubcomplex(cx, free, s0 & ~free)


def _max_clique(adj: Sequence[int], n: int) -> int:
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
    """Size of the largest cube: the largest set of pairwise crossing walls,
    since pairwise crossing hyperplanes span a cube (Sageev)."""
    return _max_clique(cx.crossing_masks, len(cx.classes))
