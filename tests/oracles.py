"""Brute-force oracles, independent of the library's algorithms.

Everything here works by exhaustive enumeration (2^n subset scans, 4-cycle
scans, networkx BFS) and is only meant for fixtures of at most ~14
vertices.  These implementations deliberately avoid the library's sign
vectors, gate maps and fixpoints wherever the corresponding operation is
under test.  The exceptions are algorithms the library used before and
replaced, kept as references it must reproduce because they are slow but
obviously right: `fixpoint_hyperclosure`, the pairwise worklist fixpoint
that preceded the graded search; `table_validate`, the validation by
all-pairs distance and interval tables that preceded the sign-vector
checks; `majority_gap`, the triple scan for majority closure that
preceded the square condition; `projection_orth`, the orthogonal
complement by projecting onto both combinatorial sides of every crossing
class, which preceded the sign filter; `quadrant_crossing_masks`, the
crossing table by halfspace quadrants, which preceded the crossing table
from squares; and `neighbour_square_dimension`, the dimension by the
squares at each vertex, which preceded the largest clique of crossing
walls; `filter_project`, the projection as a filter over the target's
vertices, which preceded the projection by key arithmetic;
`mask_longest_chain`, the chain by vertex-mask containment, which
preceded containment by keys; `tuple_random_median`, the random median
generator on coordinate tuples with its triple scans, which preceded the
generator on sign words; `majority_random_median`, that generator on sign
words with its majority fixpoint and its edges by minimal XORs, which
preceded the words built from the points' pair projections; `contained_member_pairs`, the all-pairs
containment scan that preceded the containment lookups by key; and
`derivation_witness`, the compact witness built along a member's
derivation, which preceded the double complement in `witness_compact`;
`sign_filter_vertices`, the vertex filter each key ran for itself, which
preceded the filter once per complex and key; and `per_copy_copies_check`,
verify's copies-parallel check by one hull per copy, which preceded the
one pass over the signs; `orth_parallel_copies`, the parallel copies as
the base slices of the product region, which preceded one pass over the
signs per crossing mask (`MedianComplex.parallel_class`); and
`by_sig_parallel_classes`, the members grouped by crossing signature,
which preceded the closure's classes from that pass; and
`graded_bfs_hyperclosure`, the graded search that projected every side
onto every frontier member as keys, which preceded the search on int
pairs in which each side meets each restriction once; and
`hull_comb_side`, `hull_carrier` and `hull_product_region`, the
combinatorial hyperplanes, carriers and product regions as hulls of their
vertices, which preceded their keys from the crossing masks; and
`and_loop_polar` and `and_loop_orth`, the polar of a crossing mask by one
AND per class of the mask on every call, which preceded the polar kept
once per mask in `orth`; `PoolSplitMix64`, splitmix64 with a
method call per raw draw, the rejection bound recomputed per draw and
`sample` over a copy of the whole population, which preceded the inlined
step, one bound per n, the sparse sample and the block of outputs per
pass; and `per_member_maximal`,
the clean-container maximality check over every member inside F, which
preceded one member per crossing mask; `containment_chain`, the longest
chain by a DP over every containment pair of members, which preceded one
pass over the member masks; and `one_sided_orthogonal`, verify's
orthogonality test looping over the first argument's classes, which
preceded the loop over the sparser mask and then the one AND against the
second argument's polar; `gate_product_bijection_ok`, verify's product
check by one `gate` pair per region vertex, which preceded the lookups
of the gates' sign vectors in the sign index; `mask_split_classes`, the
class-by-class wall rule with halfspaces built one bit at a time, one
n-bit mask shift per edge and class, and signs read off the plus sides,
which preceded the split rule's edge labelling through the tail it shares
with the one-BFS rule; and `transposed_halfspaces`, the wall tail with
the vertices sorted by depth and each halfspace filled by visiting every
set bit of every relative sign vector, which preceded one walk of the
BFS order and the halfspaces by one fold of subtree masks; and
`wedged_glued_ray`, glued_staircase_ray(n) by n
validated wedges of validated staircases, which preceded one edge list
validated once; and `coordinate_box`, the box built from its coordinate
tuples with one edge per coordinate step, which preceded the box as the
product of its paths; and `nodewise_generate`, `generate` validating each node
of a nested spec, with `product` and `wedge` glued on validated complexes
and the glued ray by its own renumbering (`_build_glued_ray`), which
preceded one recursion over (n, edges, labels) triples validated once as
a whole; and `char_parse_spec`, the spec parser that walked the
text one character at a time, which preceded the compiled token patterns
of `parse_spec`; and `per_case_gates_suite` and `per_case_orth_suite`,
verify's gates and orth suites evaluating every check on every case,
which preceded one evaluation per distinct input with the verdict
replayed for repeated draws; and `argparse_parser`, the CLI's argparse
parser, which preceded the command table read by `cli.parse_args`; and
`per_pair_oracle_hyperclosure`, the oracle with one `orth` call and one
key per (convex set, point) pair, which preceded one polar per convex
key and the complements collected as int pairs; and `square_staircase`,
the staircase as the union of its squares' corners and sides, which
preceded the grid restricted to y <= min(x+1, n); and `dual_edge_dot`,
the DOT export colouring each edge through a map from the classes' dual
edges, which preceded the class read off the XOR of its ends' signs.
`lattice_members` is the
member set and its parallel classes read off the crossing-mask lattice,
with no search and no vertex bound.
"""

import argparse
import functools
import heapq
import itertools
import operator
from collections import deque
from itertools import combinations
from typing import Optional

import networkx as nx

from cubemedian import MedianComplex, __version__, hull, orth, subcomplex
from cubemedian._nonmedian import _odd_cycle_witness
from cubemedian.cli import SUITE_CHOICES
from cubemedian.core import (
    ConvexSubcomplex,
    HyperplaneClass,
    InvariantFailure,
    ValidationReport,
    _bits,
    _max_clique,
    _validated,
    whole_complex,
)
from cubemedian.generators import (
    _RANDOM_KINDS,
    KINDS,
    MAX_SPEC_DEPTH,
    GeneratorSpec,
    Param,
    _build_random_median,
    _build_tree,
    _require,
    spec_to_string,
    staircase,
    wedge,
)
from cubemedian.errors import DEFAULT_ORACLE_BOUND, InvariantViolation, ResourceLimitError
from cubemedian.io import PALETTE
from cubemedian.gates import (
    crossing_signature,
    gate,
    is_parallel,
    parallel_copies,
    project,
    set_distance,
)
from cubemedian.orthocomplement import all_convex_subcomplexes
from cubemedian.rng import SplitMix64
from cubemedian.hyperclosure import (
    DEFAULT_MAX_GRADE,
    DEFAULT_MAX_MEMBERS,
    Derivation,
    Hyperclosure,
)
from cubemedian import verify
from cubemedian.verify import _containments


def _from_mask(cx, mask):
    return subcomplex(cx, _bits(mask))


def vertex_mask(vertices):
    """The bitmask with bit v set for each vertex v."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def nx_graph(cx):
    g = nx.Graph()
    g.add_nodes_from(range(cx.vertex_count))
    g.add_edges_from(cx.edges)
    return g


def nx_distances(cx):
    return dict(nx.all_pairs_shortest_path_length(nx_graph(cx)))


@functools.lru_cache(maxsize=None)
def nx_interval_masks(cx):
    """ival[x][y] is the bitmask of the vertices on x-y geodesics, from networkx distances."""
    d = nx_distances(cx)
    n = cx.vertex_count
    return [[sum(1 << w for w in range(n) if d[x][w] + d[w][y] == d[x][y])
             for y in range(n)] for x in range(n)]


def nx_is_convex(cx, verts):
    """True iff the set contains every networkx geodesic between two of its
    vertices and induces a connected subgraph."""
    ival = nx_interval_masks(cx)
    mask = sum(1 << v for v in set(verts))
    return (all(ival[x][y] & ~mask == 0 for x, y in combinations(verts, 2))
            and nx.is_connected(nx_graph(cx).subgraph(verts)))


@functools.lru_cache(maxsize=None)
def exhaustive_convex_subsets(cx):
    """All nonempty convex vertex sets, by scanning all 2^n subsets with nx_is_convex."""
    n = cx.vertex_count
    assert n <= 14, "subset scan limited to 14 vertices"
    out = []
    for mask in range(1, 1 << n):
        verts = tuple(v for v in range(n) if (mask >> v) & 1)
        if nx_is_convex(cx, verts):
            out.append(verts)
    return tuple(out)


def brute_hull(cx, vertices):
    """Intersection of all convex supersets."""
    want = set(vertices)
    best = None
    for verts in exhaustive_convex_subsets(cx):
        if want <= set(verts):
            best = set(verts) if best is None else best & set(verts)
    assert best is not None
    return tuple(sorted(best))


def theta_by_squares(cx):
    """Edge partition from the opposite-edges-in-4-cycles transitive closure."""
    edges = list(cx.edges)
    index = {e: i for i, e in enumerate(edges)}
    parent = list(range(len(edges)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    nbr = {v: set(cx.neighbors[v]) for v in range(cx.vertex_count)}
    for (a, b) in edges:
        for c in nbr[a]:
            if c == b:
                continue
            for d in nbr[b] & nbr[c]:
                if d == a:
                    continue
                # 4-cycle a-b-d-c: (a,b) opposite (c,d)
                e2 = (c, d) if c < d else (d, c)
                union(index[(a, b)], index[e2])
    groups = {}
    for e, i in index.items():
        groups.setdefault(find(i), set()).add(e)
    return sorted(frozenset(g) for g in groups.values())


def crossing_pairs_by_squares(cx):
    """Pairs of wall classes realized by adjacent edges of some 4-cycle."""
    edge_class = {}
    for h in cx.classes:
        for e in h.dual_edges:
            edge_class[e] = h.class_id
    nbr = {v: set(cx.neighbors[v]) for v in range(cx.vertex_count)}
    pairs = set()
    for (a, b) in cx.edges:
        for c in nbr[a]:
            if c == b:
                continue
            for d in nbr[b] & nbr[c]:
                if d == a:
                    continue
                e1 = edge_class[(a, b)]
                e2 = edge_class[(a, c) if a < c else (c, a)]
                pairs.add((min(e1, e2), max(e1, e2)))
    return pairs


def separating_classes(cx, a, b):
    """Wall classes with a and b in opposite halfspaces."""
    out = set()
    for h in cx.classes:
        sa = (h.side_minus_mask >> a) & 1
        sb = (h.side_minus_mask >> b) & 1
        if sa != sb:
            out.add(h.class_id)
    return out


def orth_by_definition(a_sub, basepoint):
    """Vertex-level complement oracle: b belongs iff every class separating
    it from the basepoint crosses every class crossing A (a class never
    crosses itself, so classes crossing A are excluded automatically)."""
    cx = a_sub.parent
    sig = {h.class_id for h in cx.classes
           if any(u in a_sub and v in a_sub for u, v in h.dual_edges)}
    pairs = crossing_pairs_by_squares(cx)
    perp = {h.class_id for h in cx.classes
            if all((min(h.class_id, i), max(h.class_id, i)) in pairs for i in sig)}
    verts = [b for b in range(cx.vertex_count)
             if separating_classes(cx, basepoint, b) <= perp]
    return subcomplex(cx, verts)


def comb_ends_masks(h):
    """(minus, plus) bitmasks of the dual-edge endpoints on each side of h."""
    ends = sum((1 << u) | (1 << v) for u, v in h.dual_edges)
    return ends & h.side_minus_mask, ends & h.side_plus_mask


def hull_comb_side(h, sign):
    """The combinatorial hyperplane on one side of h (sign -1 or +1), as the
    hull of the dual-edge endpoints on that side."""
    return hull(h.parent, _bits(comb_ends_masks(h)[sign > 0]))


def hull_carrier(h):
    """The hull of every dual-edge endpoint of h."""
    minus, plus = comb_ends_masks(h)
    return hull(h.parent, _bits(minus | plus))


def hull_product_region(a, basepoint):
    """hull(A ∪ orth(A, a)), from the two vertex sets."""
    return hull(a.parent, a.vertices + orth(a, basepoint).vertices)


def hull_hyperplane_sides(cx):
    """All combinatorial hyperplanes as (class_id, sign, side), in canonical
    order, each the hull of its dual-edge endpoints."""
    return [(h.class_id, sign, hull_comb_side(h, sign)) for h in cx.classes for sign in (-1, 1)]


def projection_orth(a, basepoint):
    """Orthogonal complement by projection: intersect the projections onto Y
    of both combinatorial sides of every class crossing A, where Y is the
    intersection of the combinatorial sides at the basepoint.  A single
    vertex has the whole complex as its complement."""
    if basepoint not in a:
        raise ValueError(f"basepoint {basepoint} is not in the subcomplex")
    cx = a.parent
    if len(a) == 1:
        return whole_complex(cx)
    sig = sorted(crossing_signature(a))
    classes = cx.classes
    y_mask = cx.full_mask
    for cid in sig:
        for comb in comb_ends_masks(classes[cid]):
            if (comb >> basepoint) & 1:
                y_mask &= comb
    y = _from_mask(cx, y_mask)
    result = cx.full_mask
    for cid in sig:
        for side_mask in comb_ends_masks(classes[cid]):
            result &= vertex_mask(project(y, _from_mask(cx, side_mask)).vertices)
    return _from_mask(cx, result)


def copies_by_scan(a_sub):
    """All convex sets with the same crossing signature as A."""
    cx = a_sub.parent

    def sig_of(verts):
        vs = set(verts)
        return frozenset(h.class_id for h in cx.classes
                         if any(u in vs and v in vs for u, v in h.dual_edges))

    want = sig_of(a_sub.vertices)
    return sorted(verts for verts in exhaustive_convex_subsets(cx)
                  if sig_of(verts) == want)


def witnesses_by_search(f):
    """All (C, x) with orth(C, x) == F, over every convex C and basepoint."""
    cx = f.parent
    out = []
    for verts in exhaustive_convex_subsets(cx):
        c = subcomplex(cx, verts)
        for x in verts:
            if orth(c, x) == f:
                out.append((c, x))
    return out


def medians_by_paths(cx, x, y, z):
    """Median oracle: vertices on geodesics between all three pairs, via networkx."""
    g = nx_graph(cx)
    d = nx_distances(cx)

    def between(u, v):
        return {w for w in range(cx.vertex_count) if d[u][w] + d[w][v] == d[u][v]}

    return between(x, y) & between(y, z) & between(x, z)


def orth_parallel_copies(a):
    """The full parallelism class of A, in vertex order: the base slices of
    its product region, one through each b in orth(A, a), crossed by A's
    classes and with b's signs on the others."""
    cx, free = a.parent, a.crossing_mask
    bases = {cx.signs[b] & ~free for b in orth(a, a.vertices[0])}
    first_seen = dict.fromkeys(s & ~free for s in cx.signs)
    return [ConvexSubcomplex(cx, free, base) for base in first_seen if base in bases]


def by_sig_parallel_classes(members):
    """Members (in (size, vertices) order) grouped by crossing signature,
    the groups ordered by their first member."""
    by_sig = {}
    for m in members:
        by_sig.setdefault(crossing_signature(m), []).append(m)
    return tuple(tuple(group) for group in
                 sorted(by_sig.values(), key=lambda g: (len(g[0].vertices), g[0].vertices)))


def fixpoint_hyperclosure(cx, *, max_members=DEFAULT_MAX_MEMBERS,
                          max_grade=DEFAULT_MAX_GRADE):
    """Compute the hyperclosure as a worklist fixpoint, then grade it.

    Every popped member is projected against every member in both
    directions and all its parallel copies are added, until nothing new
    appears; a grading pass then rebuilds the family breadth-first from the
    hyperplane sides and raises if it leaves the fixpoint or stalls short
    of it.  About |F|^2 projections: for fixtures of a few hundred members.
    """
    whole = whole_complex(cx)
    members = set()
    member_list = []
    queue = []

    def add(s):
        if s not in members:
            if len(members) >= max_members:
                raise ResourceLimitError(
                    "max_members", f"hyperclosure exceeds max_members={max_members}")
            members.add(s)
            member_list.append(s)
            heapq.heappush(queue, (s.vertices, s))

    add(whole)
    sides = hull_hyperplane_sides(cx)
    for _, _, side in sides:
        add(side)

    # pending members in canonical vertex-list order; the result is a set
    # fixpoint, so scheduling cannot change it
    while queue:
        _, f = heapq.heappop(queue)
        for f2 in list(member_list):
            add(project(f, f2))
            add(project(f2, f))
        for copy in orth_parallel_copies(f):
            add(copy)

    grade = {whole: 0}
    derivation = {whole: Derivation("whole")}
    frontier = [whole]
    level = 0
    while len(grade) < len(members):
        level += 1
        if level > max_grade:
            raise ResourceLimitError(
                "max_grade", f"hyperclosure grading exceeds max_grade={max_grade}")
        new = []
        for cid, sign, side in sides:
            for f in frontier:
                p = project(side, f)
                if p not in grade:
                    if p not in members:
                        raise InvariantViolation(
                            "grading produced a subcomplex outside the fixpoint")
                    grade[p] = level
                    if level == 1:
                        derivation[p] = Derivation("side", class_id=cid, sign=sign)
                    else:
                        derivation[p] = Derivation(
                            "projection", class_id=cid, sign=sign, source=f)
                    new.append(p)
        if not new:
            raise InvariantViolation("grading stalled before exhausting the members")
        frontier = new

    ordered = sorted(members, key=lambda s: (len(s.vertices), s.vertices))
    return Hyperclosure(complex=cx, members=tuple(ordered), grade=grade,
                        derivation=derivation,
                        parallel_classes=by_sig_parallel_classes(ordered))


def graded_bfs_hyperclosure(cx, *, max_members=DEFAULT_MAX_MEMBERS,
                            max_grade=DEFAULT_MAX_GRADE):
    """The graded search over keys: every side projected with `project` onto
    every frontier member, sides outer, frontier inner, one key per
    projection.  About 2k·|F| projections."""
    if max_members < 1:
        raise ResourceLimitError(
            "max_members", f"hyperclosure exceeds max_members={max_members}")
    if max_grade < 0:
        raise ResourceLimitError(
            "max_grade", f"hyperclosure grading exceeds max_grade={max_grade}")
    whole = whole_complex(cx)
    grade: dict[ConvexSubcomplex, int] = {whole: 0}
    derivation: dict[ConvexSubcomplex, Derivation] = {whole: Derivation("whole")}
    sides = hull_hyperplane_sides(cx)
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

    # one pass per mask sets the members' vertex tuples, so the sort filters no key
    by_mask = {mask: tuple(cx.parallel_class(mask)) for mask in {m.crossing_mask for m in grade}}
    ordered = sorted(grade, key=lambda s: (len(s.vertices), s.vertices))
    classes = tuple(by_mask[mask] for mask in dict.fromkeys(m.crossing_mask for m in ordered))
    return Hyperclosure(complex=cx, members=tuple(ordered), grade=grade,
                        derivation=derivation, parallel_classes=classes)


def table_distances(cx):
    """All-pairs distance table (BFS); -1 marks unreachable pairs."""
    n = cx.vertex_count
    table = []
    for src in range(n):
        row = [-1] * n
        row[src] = 0
        queue = deque([src])
        while queue:
            x = queue.popleft()
            dx = row[x] + 1
            for y in cx.neighbors[x]:
                if row[y] < 0:
                    row[y] = dx
                    queue.append(y)
        table.append(row)
    return table


def table_interval_masks(cx, dist):
    """ival[x][y] is the bitmask of I(x,y) = {v : d(x,v)+d(v,y) = d(x,y)}."""
    n = cx.vertex_count
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        dx = dist[x]
        table[x][x] = 1 << x
        for y in range(x + 1, n):
            dy = dist[y]
            dxy = dx[y]
            m = 0
            for v in range(n):
                if dx[v] + dy[v] == dxy:
                    m |= 1 << v
            table[x][y] = m
            table[y][x] = m
    return table


def table_wall_classes(cx, dist):
    """Dual edge groups of the wall classes, by halfspace pair per edge and the
    pairwise Djokovic check; raises InvariantViolation where they are undefined."""
    n = cx.vertex_count
    full_mask = (1 << n) - 1
    if n and any(d < 0 for d in dist[0]):
        raise InvariantViolation("wall classes undefined: graph is disconnected")
    by_key = {}
    edge_key = {}
    for u, v in cx.edges:
        mu = 0
        mv = 0
        du, dv = dist[u], dist[v]
        for w in range(n):
            if du[w] < dv[w]:
                mu |= 1 << w
            elif dv[w] < du[w]:
                mv |= 1 << w
        if mu | mv != full_mask:
            raise InvariantViolation(
                f"wall classes undefined: edge ({u},{v}) has equidistant vertices "
                "(graph is not bipartite)")
        key = (mu, mv) if mu < mv else (mv, mu)
        by_key.setdefault(key, []).append((u, v))
        edge_key[(u, v)] = key
    # the Djokovic relation must match the halfspace grouping pairwise,
    # otherwise it is not transitive and the graph is not median
    edges = cx.edges
    for i, (x, y) in enumerate(edges):
        for (u, v) in edges[i + 1:]:
            related = dist[x][u] + dist[y][v] != dist[x][v] + dist[y][u]
            if related != (edge_key[(x, y)] == edge_key[(u, v)]):
                raise InvariantViolation(
                    f"wall relation is not transitive: witness edges ({x},{y}), ({u},{v})")
    return [tuple(sorted(dual)) for dual in sorted(by_key.values(), key=lambda es: min(es))]


def table_halfspaces(cx, dist, groups):
    """(minus, plus) halfspace masks of each dual edge group: the minus side
    is the set of vertices nearer the least endpoint of its least edge."""
    sides = []
    for dual in groups:
        u, v = dual[0]
        minus = sum(1 << w for w in range(cx.vertex_count) if dist[u][w] < dist[v][w])
        sides.append((minus, cx.full_mask & ~minus))
    return sides


def quadrant_crossing_masks(cx):
    """Bit j of crossing_masks[i] is set iff wall j crosses wall i: all
    four intersections of their halfspaces are nonempty.  No wall
    crosses itself."""
    sides = [(h.side_minus_mask, h.side_plus_mask) for h in cx.classes]
    masks = [0] * len(sides)
    for i, a in enumerate(sides):
        for j in range(i + 1, len(sides)):
            if all(x & y for x in a for y in sides[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return tuple(masks)


def neighbour_square_dimension(cx):
    """Size of the largest cube, via the largest square-spanning edge set at a vertex."""
    nbr_masks = [vertex_mask(a) for a in cx.neighbors]
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


def majority_gap(signs: tuple[int, ...]) -> Optional[tuple[int, int, int]]:
    """The first triple x < y < z whose bitwise majority is no sign vector."""
    present = frozenset(signs)
    for x, sx in enumerate(signs):
        for y in range(x + 1, len(signs)):
            both, either = sx & signs[y], sx | signs[y]
            if not {both | (s & either) for s in signs[y + 1:]} <= present:
                z = next(z for z in range(y + 1, len(signs))
                         if both | (signs[z] & either) not in present)
                return x, y, z
    return None


def table_validate(cx):
    """Median-graph validation by tables: connectivity, bipartiteness, unique
    medians for all vertex triples from the interval table, the pairwise
    Djokovic check, and that removing any one wall class leaves exactly two
    components.  Metric checks are skipped when the graph is disconnected or
    odd.  Cubic in the vertex count; leaves cx.validated unchanged."""
    failures = []
    n = cx.vertex_count
    if n == 0:
        failures.append(InvariantFailure("connected", "empty complex"))
        return ValidationReport(False, failures)

    color = [-1] * n
    parent = [-1] * n
    color[0] = 0
    queue = deque([0])
    odd = None
    while queue:
        x = queue.popleft()
        for y in cx.neighbors[x]:
            if color[y] < 0:
                color[y] = color[x] ^ 1
                parent[y] = x
                queue.append(y)
            elif color[y] == color[x] and odd is None:
                odd = (x, y)
    unreachable = [v for v in range(n) if color[v] < 0]
    if unreachable:
        failures.append(InvariantFailure(
            "connected", f"vertex {unreachable[0]} unreachable from vertex 0"))
    if odd is not None:
        cycle = _odd_cycle_witness(cx, color, parent, *odd)
        failures.append(InvariantFailure("bipartite", f"odd cycle {cycle}"))
    if failures:
        return ValidationReport(False, failures)

    dist = table_distances(cx)
    ivals = table_interval_masks(cx, dist)
    for x in range(n):
        row_x = ivals[x]
        for y in range(x + 1, n):
            ixy = row_x[y]
            row_y = ivals[y]
            for z in range(y + 1, n):
                m = ixy & row_y[z] & row_x[z]
                if m.bit_count() != 1:
                    meds = list(_bits(m))
                    failures.append(InvariantFailure(
                        "unique-median", f"triple ({x},{y},{z}) has medians {meds}"))
                    break
            else:
                continue
            break
        else:
            continue
        break

    try:
        classes = table_wall_classes(cx, dist)
    except InvariantViolation as exc:
        failures.append(InvariantFailure("wall-relation", str(exc)))
        classes = []

    for class_id, dual in enumerate(classes):
        removed = set(dual)
        comp = [-1] * n
        count = 0
        for start in range(n):
            if comp[start] >= 0:
                continue
            count += 1
            comp[start] = count
            queue = deque([start])
            while queue:
                a = queue.popleft()
                for b in cx.neighbors[a]:
                    e = (a, b) if a < b else (b, a)
                    if e in removed or comp[b] >= 0:
                        continue
                    comp[b] = count
                    queue.append(b)
        if count != 2:
            failures.append(InvariantFailure(
                "wall-cut", f"removing class {class_id} leaves {count} components"))

    return ValidationReport(not failures, failures)


def sign_filter_vertices(s):
    """The vertices of the key S, ascending: those whose signs equal S's base
    off S's crossing mask.  Raises if there is none."""
    fixed = ~s.crossing_mask
    verts = tuple(v for v, sign in enumerate(s.parent.signs) if sign & fixed == s.base)
    if not verts:
        raise InvariantViolation("no vertex has the required signs (the graph is not median)")
    return verts


def per_copy_copies_check(f, copies):
    """True iff every copy is the key its own vertices recompute and is
    parallel to F; a copy that holds no vertex raises."""
    return all(c2 == hull(c2.parent, c2.vertices) and is_parallel(f, c2) for c2 in copies)


def filter_project(y, z):
    """Gate image of Z in Y: the vertices of Y with Z's signs on the classes
    crossing Y but not Z."""
    if y.parent is not z.parent:
        raise ValueError("projection requires subcomplexes of the same complex")
    signs = y.parent.signs
    fixed = y.crossing_mask & ~z.crossing_mask
    base = signs[z.vertices[0]] & fixed
    return subcomplex(y.parent, [v for v in y.vertices if signs[v] & fixed == base])


def mask_longest_chain(h):
    """Longest strictly nested chain of members, by vertex-mask containment,
    with a witness chain (least index among equally long predecessors)."""
    members = h.members  # already sorted by size
    masks = [vertex_mask(m.vertices) for m in members]
    best_len = [1] * len(members)
    prev = [-1] * len(members)
    for i, m in enumerate(members):
        mi = masks[i]
        for j in range(i):
            if len(members[j]) >= len(m):
                break
            if masks[j] & ~mi == 0 and best_len[j] + 1 > best_len[i]:
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


def containment_chain(h):
    """Longest strictly nested chain of members, by a DP over every
    containment pair, with a witness chain (least index among equally long
    predecessors).  A member strictly inside another is smaller, so it comes
    first in size order and its length is final when its pairs arrive; each
    target sees its sources in ascending order and takes one only when it is
    strictly longer."""
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


def contained_member_pairs(members):
    """The pairs (F, V) of members with V properly inside F, by all |F|^2
    containment tests, F-major in member order."""
    return [(f, v) for f in members for v in members if v != f and v <= f]


def _pick_basepoint(c, f):
    for x in c.vertices:
        if orth(c, x) == f:
            return c, x
    raise InvariantViolation(
        f"no basepoint of {c.vertices} has orthogonal complement {f.vertices}")


def derivation_witness(f, closure):
    """A convex C and x with orth(C, x) = F, following the member's
    derivation: the whole complex is the complement of any vertex, a
    combinatorial hyperplane is the complement of a dual edge, and a
    projection onto a side H is witnessed by hull(e ∪ C'), where C' is the
    recursive witness slid within its parallelism class and e is a dual
    edge of H, the pair chosen at minimal distance (ties: least edge, then
    least copy)."""
    cx = f.parent
    der = closure.derivation[f]
    if der.kind == "whole":
        return subcomplex(cx, [0]), 0
    if der.kind == "side":
        edge = cx.classes[der.class_id].dual_edges[0]
        return _pick_basepoint(subcomplex(cx, edge), f)
    c_prime, _ = derivation_witness(der.source, closure)
    dual = cx.classes[der.class_id].dual_edges
    best = None
    for copy in parallel_copies(c_prime):
        for e in dual:
            d = set_distance(subcomplex(cx, e), copy)
            key = (d, e, copy.vertices)
            if best is None or key < best:
                best = key
    _, e, copy_vertices = best
    c = hull(cx, e + copy_vertices)
    return _pick_basepoint(c, f)


def _tuple_majority(a, b, c):
    return tuple((x & y) | (x & z) | (y & z) for x, y, z in zip(a, b, c))


def tuple_random_median(dim, count, seed):
    """The random median builder on coordinate tuples: majority closure by
    scanning every new point against all pairs, edges by a betweenness scan
    over all triples.  Returns (vertex count, edges, labels)."""
    rng = SplitMix64(seed)
    points = set()
    while len(points) < count:
        word = rng.randrange(1 << dim)
        points.add(tuple((word >> i) & 1 for i in range(dim)))
    frontier = set(points)
    while frontier:
        new = set()
        pts = sorted(points)
        for a in sorted(frontier):
            for b, c in combinations(pts, 2):
                m = _tuple_majority(a, b, c)
                if m not in points:
                    new.add(m)
        points |= new
        frontier = new
    verts = sorted(points)
    index = {p: i for i, p in enumerate(verts)}

    def between(u, w, v):
        return all(wi == ui for ui, vi, wi in zip(u, v, w) if ui == vi)

    edges = []
    for a, b in combinations(verts, 2):
        if not any(between(a, w, b) for w in verts if w != a and w != b):
            edges.append((index[a], index[b]))
    return len(verts), sorted(edges), {i: p for p, i in index.items()}


def majority_random_median(dim: int, count: int, seed: int):
    """The random median builder on sign words: majority closure by scanning
    every frontier point against all pairs of points, and for each point the
    edges to the words w where a ^ w is inclusion-minimal among the a ^ x,
    none lying between.  Returns (vertex count, edges, labels)."""
    rng = SplitMix64(seed)
    points: set[int] = set()
    while len(points) < count:
        points.add(rng.randrange(1 << dim))
    # close under majority; each round only needs triples touching a point
    # added in the previous round
    frontier = set(points)
    while frontier:
        pts = list(points)
        new = set()
        for a in frontier:
            for b in pts:
                both, either = a & b, a | b
                new.update({both | (c & either) for c in pts})
        new -= points
        points |= new
        frontier = new
    verts = sorted(points, key=lambda w: [(w >> i) & 1 for i in range(dim)])
    index = {w: i for i, w in enumerate(verts)}
    edges = []
    for a in verts:
        minimal: list[int] = []
        for d in sorted((a ^ w for w in verts if w != a), key=int.bit_count):
            if all(m & ~d for m in minimal):
                minimal.append(d)
        edges.extend((index[a], index[a ^ d]) for d in minimal if index[a] < index[a ^ d])
    labels = {i: tuple((w >> j) & 1 for j in range(dim)) for i, w in enumerate(verts)}
    return len(verts), sorted(edges), labels


def and_loop_polar(cx, mask):
    """σ⊥ for σ = mask: the AND of the crossing masks of the classes of σ,
    every class for σ empty."""
    perp = (1 << len(cx.classes)) - 1
    for i in _bits(mask):
        perp &= cx.crossing_masks[i]
    return perp


def and_loop_orth(a, basepoint):
    """orth(A, a) keyed by the polar of A's crossing mask, recomputed here,
    and a's signs off it."""
    if basepoint not in a:
        raise ValueError(f"basepoint {basepoint} is not in the subcomplex")
    cx = a.parent
    perp = and_loop_polar(cx, a.crossing_mask)
    return ConvexSubcomplex(cx, perp, cx.signs[basepoint] & ~perp)


def per_pair_oracle_hyperclosure(cx: MedianComplex, *,
                                 max_vertices: int = DEFAULT_ORACLE_BOUND
                                 ) -> frozenset[ConvexSubcomplex]:
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


class PoolSplitMix64:
    """splitmix64 drawn one method call per raw output, the rejection bound
    recomputed per call, and `sample` by a partial Fisher-Yates over a copy
    of the population."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed):
        self._state = seed & self._MASK

    def next64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def randrange(self, n):
        if not isinstance(n, int):
            raise TypeError(f"randrange() bound must be an int, not {type(n).__name__}")
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        if n > 1 << 64:
            raise ValueError(f"randrange() bound must be at most 2^64, not {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next64()
            if r < limit:
                return r % n

    def choice(self, seq):
        if not seq:
            raise ValueError("choice() on empty sequence")
        return seq[self.randrange(len(seq))]

    def sample(self, seq, k):
        pool = list(seq)
        if k > len(pool):
            raise ValueError("sample() larger than population")
        if k < 0:
            raise ValueError(f"sample() size must be nonnegative, not {k}")
        for i in range(k):
            j = i + self.randrange(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def per_member_maximal(closure, f, v, u, pairs):
    """True iff every member W inside F (F itself included) that is
    orthogonal to V, by the 4-cycles of their classes, is parallel
    into U.  `pairs` is `crossing_pairs_by_squares(closure.complex)`,
    passed in so that one scan serves every pair checked on a complex."""
    sig_v = crossing_signature(v)

    def orthogonal(w):
        return all((min(a, b), max(a, b)) in pairs for a in crossing_signature(w) for b in sig_v)

    return all(crossing_signature(w) <= crossing_signature(u)
               for w in closure.members if w <= f and orthogonal(w))


def one_sided_orthogonal(cx, s, t):
    """True iff every class crossing S crosses every class crossing T, by a
    loop over the classes crossing S."""
    crossing, t_mask = cx.crossing_masks, t.crossing_mask
    return all(t_mask & ~crossing[i] == 0 for i in _bits(s.crossing_mask))


def gate_product_bijection_ok(region, left, right) -> bool:
    """Whether gating onto left and right maps region one to one onto
    left × right, by the gate pair of each region vertex."""
    coords = [(gate(left, v), gate(right, v)) for v in region.vertices]
    return (len(set(coords)) == len(region) and
            len(region) == len(left) * len(right))


def lattice_members(cx):
    """The hyperclosure read off the crossing-mask lattice: a dict from each
    mask M of L to the vertex tuples of its full-spread fibres, which are the
    members crossed by exactly M and form one parallel class.

    L is the AND-closure of {all classes} and the classes' crossing masks,
    the polars σ⊥ of all class sets σ.  A member is orth(A, a) for some
    convex A, so its mask is a polar, in L; every M in L is the mask of a
    nested side projection, and closure under parallelism adds every fibre
    {v : s_v & ~M == b} on which all of M varies.  A fibre is grouped here
    from the signs, and its spread is the classes some of its vertices have
    and some lack.
    """
    full = (1 << len(cx.classes)) - 1
    lattice, frontier = {full}, {full}
    while frontier:
        frontier = {m & c for m in frontier for c in cx.crossing_masks} - lattice
        lattice |= frontier
    out = {}
    for mask in lattice:
        fibres = {}
        for v, sign in enumerate(cx.signs):
            fibres.setdefault(sign & ~mask, []).append(v)
        out[mask] = []
        for verts in fibres.values():
            signs = [cx.signs[v] for v in verts]
            spread = functools.reduce(operator.or_, signs) & ~functools.reduce(operator.and_, signs)
            if spread == mask:
                out[mask].append(tuple(verts))
    return out


def mask_split_classes(cx):
    """The class-by-class rule of `MedianComplex.classes`, with the signs:
    one two-source BFS and one edge scan per class."""
    edge_class: dict[tuple[int, int], int] = {}
    classes = []
    for u, v in cx.edges:
        if (u, v) in edge_class:
            continue
        cid = len(classes)
        near = {u: True, v: False}
        queue = deque((u, v))
        while queue:
            x = queue.popleft()
            for y in cx.neighbors[x]:
                if y not in near:
                    near[y] = near[x]
                    queue.append(y)
        minus = vertex_mask(w for w, is_near in near.items() if is_near)
        dual = tuple(e for e in cx.edges if ((minus >> e[0]) ^ (minus >> e[1])) & 1)
        for a, b in dual:
            if edge_class.setdefault((a, b), cid) != cid:
                raise InvariantViolation(
                    f"wall relation is not transitive: witness edges ({u},{v}), ({a},{b})")
        classes.append(HyperplaneClass(cx, cid, dual, minus, cx.full_mask & ~minus))
    signs = [0] * cx.vertex_count
    for h in classes:
        for w in _bits(h.side_plus_mask):
            signs[w] |= 1 << h.class_id
    return tuple(classes), tuple(signs)


def transposed_halfspaces(cx, depth, label):
    """`core._walls_from_labels` with the vertices sorted by depth, and the
    halfspaces away from vertex 0 by a transposition of the relative signs,
    one set bit at a time: the sum of all depths in big-int ORs."""
    dual = {}
    for a, b in cx.edges:
        dual.setdefault(label[(a, b) if depth[a] < depth[b] else (b, a)], []).append((a, b))
    bit = {c: 1 << i for i, c in enumerate(dual)}
    parent = cx._colouring[1]
    rel = [0] * cx.vertex_count
    for v in sorted(range(cx.vertex_count), key=depth.__getitem__)[1:]:
        rel[v] = rel[parent[v]] ^ bit[label[(parent[v], v)]]
    if any(rel[u] ^ rel[v] != bit[c] for (u, v), c in label.items()):
        return None
    away = [0] * len(dual)
    for v, s in enumerate(rel):
        for i in _bits(s):
            away[i] |= 1 << v
    full, flip, classes = cx.full_mask, 0, []
    for i, edges in enumerate(dual.values()):
        plus = away[i]
        if (rel[edges[0][0]] >> i) & 1:
            plus, flip = full & ~plus, flip | 1 << i
        classes.append(HyperplaneClass(cx, i, tuple(edges), full & ~plus, plus))
    return tuple(classes), tuple(s ^ flip for s in rel)


def coordinate_box(lengths: tuple[int, ...]):
    """box(*lengths) as an (n, edges, labels) triple, from its coordinate tuples."""
    ranges = [range(side + 1) for side in lengths]
    coords = list(itertools.product(*ranges))
    index = {c: i for i, c in enumerate(coords)}
    edges = []
    for c in coords:
        for axis in range(len(lengths)):
            if c[axis] < lengths[axis]:
                d = c[:axis] + (c[axis] + 1,) + c[axis + 1:]
                edges.append((index[c], index[d]))
    return len(coords), sorted(edges), {i: c for c, i in index.items()}


def square_staircase(n: int):
    """staircase(n) as an (n, edges, labels) triple, square by square."""
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


def dual_edge_dot(cx: MedianComplex, name: str = "mediancomplex") -> str:
    """`io.to_dot` with each edge's class looked up in a map built from the
    classes' dual edges."""
    edge_class = {}
    for h in cx.classes:
        for e in h.dual_edges:
            edge_class[e] = h.class_id
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for v in range(cx.vertex_count):
        label = str(cx.labels[v]) if cx.labels and v in cx.labels else str(v)
        lines.append(f'  v{v} [label="{label}"];')
    for u, v in cx.edges:
        color = PALETTE[edge_class[(u, v)] % len(PALETTE)]
        lines.append(f'  v{u} -- v{v} [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

def wedged_glued_ray(n):
    """glued_staircase_ray(n) before its generator stamp, by wedges."""
    # path 0..n with staircase(k) wedged at path vertex k, at its (0,0) corner
    cx = MedianComplex(n + 1, [(k, k + 1) for k in range(n)])
    for k in range(1, n + 1):
        st = staircase(k)
        corner = next(i for i, lab in st.labels.items() if lab == (0, 0))
        cx = wedge(cx, k, st, corner)
    return cx


def _nodewise_product(x1: MedianComplex, x2: MedianComplex) -> MedianComplex:
    """Graph product: vertex pairs, edges in one coordinate at a time."""
    n1, n2 = x1.vertex_count, x2.vertex_count
    edges = []
    for u, v in x1.edges:
        for w in range(n2):
            edges.append((u * n2 + w, v * n2 + w))
    for u in range(n1):
        for v, w in x2.edges:
            edges.append((u * n2 + v, u * n2 + w))
    labels = None
    if x1.labels and x2.labels:
        l1, l2 = x1.labels, x2.labels
        if all(isinstance(l, tuple) for l in l1.values()) and \
                all(isinstance(l, tuple) for l in l2.values()):
            labels = {u * n2 + v: l1[u] + l2[v] for u in range(n1) for v in range(n2)}
    return _validated(MedianComplex(n1 * n2, sorted(edges), labels=labels))


def _nodewise_wedge(x1: MedianComplex, v1: int, x2: MedianComplex, v2: int) -> MedianComplex:
    """Identify v1 in x1 with v2 in x2; x1 keeps its vertex indices."""
    if not 0 <= v1 < x1.vertex_count or not 0 <= v2 < x2.vertex_count:
        raise ValueError("wedge vertex out of range")
    n1 = x1.vertex_count
    remap = {}
    nxt = n1
    for w in range(x2.vertex_count):
        if w == v2:
            remap[w] = v1
        else:
            remap[w] = nxt
            nxt += 1
    edges = list(x1.edges)
    for u, w in x2.edges:
        a, b = remap[u], remap[w]
        edges.append((min(a, b), max(a, b)))
    return _validated(MedianComplex(nxt, sorted(edges)))


def nodewise_generate(spec: GeneratorSpec) -> MedianComplex:
    """`generate` as it validated each node of a nested spec."""
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
        cx = _nodewise_product(nodewise_generate(params[0]), nodewise_generate(params[1]))
    elif kind == "wedge":
        _require(len(params) == 4 and isinstance(params[0], GeneratorSpec)
                 and isinstance(params[2], GeneratorSpec)
                 and type(params[1]) is int and type(params[3]) is int,
                 "wedge needs (spec, vertex, spec, vertex)")
        cx = _nodewise_wedge(nodewise_generate(params[0]), params[1],
                              nodewise_generate(params[2]), params[3])
    else:  # a leaf kind; product and wedge validate what they glue
        if kind == "grid":
            _require(ints and len(params) == 2 and min(params) >= 0, "grid(w,h) needs w,h >= 0")
            n, edges, labels = coordinate_box(params)
        elif kind == "box":
            _require(ints and len(params) >= 1 and min(params) >= 0,
                     "box(d1,...,dk) needs k >= 1 path lengths >= 0")
            n, edges, labels = coordinate_box(params)
        elif kind == "tree":
            _require(ints and len(params) == 1 and params[0] >= 1, "tree(n) needs n >= 1")
            n, edges, labels = _build_tree(params[0], seed or 0)
        elif kind == "staircase":
            _require(ints and len(params) == 1 and params[0] >= 1, "staircase(n) needs n >= 1")
            n, edges, labels = square_staircase(params[0])
        elif kind == "random_median":
            _require(ints and len(params) == 2, "random_median(dim, count) needs two ints")
            dim, count = params
            # the closure can have up to 2^dim vertices, and no size limit is
            # checked before it is built, so the dimension is kept small
            _require(1 <= dim <= 8, "random_median dimension must be in 1..8")
            _require(1 <= count <= (1 << dim), "random_median count must be in 1..2^dim")
            n, edges, labels = _build_random_median(dim, count, seed or 0)
        else:  # glued_staircase_ray
            _require(ints and len(params) == 1 and params[0] >= 1,
                     "glued_staircase_ray(n) needs n >= 1")
            n, edges, labels = _build_glued_ray(params[0])
        cx = _validated(MedianComplex(n, edges, labels=labels))
    cx.generator = spec_to_string(spec)
    return cx


def _build_glued_ray(n: int):
    # path 0..n with staircase(k) wedged at path vertex k at its (0,0) corner, its
    # vertex 0; as `wedge` numbers them, its other vertices follow all before them
    edges, count = [(k, k + 1) for k in range(n)], n + 1
    for k in range(1, n + 1):
        m, st_edges, _ = square_staircase(k)
        remap = [k, *range(count, count + m - 1)]  # increasing, as k < count
        edges += [(remap[a], remap[b]) for a, b in st_edges]
        count += m - 1
    return count, sorted(edges), None


def char_parse_spec(text: str) -> GeneratorSpec:
    """Parse the compact spec form used by the CLI and the label block.

    Specs nested deeper than MAX_SPEC_DEPTH are rejected with ValueError.
    A spec cut short after a comma raises IndexError.
    """
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def fail(expected: str):
        raise ValueError(f"bad generator spec {text!r}: expected {expected} at position {pos}")

    def parse_int() -> int:
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start:
            fail("an integer")
        return int(text[start:pos])

    def parse_name() -> str:
        nonlocal pos
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        if pos == start:
            fail("a generator kind")
        return text[start:pos]

    def parse_node(depth: int) -> GeneratorSpec:
        nonlocal pos
        if depth > MAX_SPEC_DEPTH:
            raise ValueError(f"generator spec nests deeper than {MAX_SPEC_DEPTH} levels")
        skip_ws()
        name = parse_name()
        if name not in KINDS:
            raise ValueError(f"unknown generator kind {name!r}")
        skip_ws()
        if pos >= len(text) or text[pos] != "(":
            fail("'('")
        pos += 1
        params: list[Param] = []
        seed = None

        def parse_arg():
            nonlocal pos, seed
            if text[pos].isdigit():
                params.append(parse_int())
                return
            word_start = pos
            word = parse_name()
            skip_ws()
            if word == "seed" and pos < len(text) and text[pos] == "=":
                pos += 1
                skip_ws()
                if seed is not None:
                    raise ValueError(f"duplicate seed in {text!r}")
                seed = parse_int()
            else:
                pos = word_start
                params.append(parse_node(depth + 1))

        skip_ws()
        if pos < len(text) and text[pos] != ")":
            parse_arg()
            skip_ws()
            while pos < len(text) and text[pos] == ",":
                pos += 1
                skip_ws()
                parse_arg()
                skip_ws()
        if pos >= len(text) or text[pos] != ")":
            fail("')'")
        pos += 1
        return GeneratorSpec(name, tuple(params), seed)

    node = parse_node(1)
    skip_ws()
    if pos != len(text):
        fail("end of spec")
    return node


def _check(rec, ok, invariant, **inputs):
    """Record the failed check with rec.fail unless ok: the per-case suites
    hold a verdict for every check, where verify's suites call the recorder
    only on failure."""
    if not ok:
        rec.fail(invariant, **inputs)


def per_case_gates_suite(cx, rng, cases, rec):
    """verify's gates suite with every check evaluated on every case.  It
    reads each library function through the `verify` module, so a test that
    patches one there patches it here too."""
    v = verify
    for _ in range(cases):
        y = v._random_convex(cx, rng)
        z = v._random_convex(cx, rng)
        img = v.project(y, z)
        key = v._recomputed(img)
        _check(rec, key == img and key.crossing_mask == y.crossing_mask & z.crossing_mask,
               "gate-crossing-law", Y=y, Z=z)
        _check(rec, v.is_convex(cx, img.vertices), "projection-convex", Y=y, Z=z)
        _check(rec, v.is_parallel(key, v._recomputed(v.project(z, y))),
               "symmetric-parallelism", Y=y, Z=z)

        c, d, e = (v._random_convex(cx, rng) for _ in range(3))
        p1, p2, p3 = (v._recomputed(p) for p in (v.project(v.project(c, d), e),
                                                 v.project(c, v.project(d, e)),
                                                 v.project(c, v.project(e, d))))
        _check(rec, v.is_parallel(p1, p2) and v.is_parallel(p2, p3), "projection-currying",
               C=c, D=d, E=e)

        f = v._random_convex(cx, rng)
        copies = v.parallel_copies(f)
        _check(rec, f in copies, "copies-contain-self", F=f)
        perp = v.orth(f, f.vertices[0])
        is_copy = v._true_copies(f, copies, perp)
        _check(rec, all(is_copy), "copies-parallel", F=f)
        _check(rec, len({c2.base for c2, ok in zip(copies, is_copy) if ok}) == len(perp),
               "copies-complete", F=f)
        i = rng.randrange(len(copies))
        if not is_copy[i]:
            continue
        f2 = copies[i]
        region = v.hull(cx, f.vertices + f2.vertices)
        seps = v.separators(f, f2)
        _check(rec, v.crossing_signature(region) == v.crossing_signature(f) | seps and
               not v.crossing_signature(f) & seps,
               "parallel-product-signature", F=f, F2=f2)
        bridge = v.parallel_bridge(f, f2)
        _check(rec, v._product_bijection_ok(region, f, bridge),
               "parallel-product-bijection", F=f, F2=f2)


def per_case_orth_suite(cx, rng, cases, rec, closure):
    """verify's orth suite with every check evaluated on every case, read
    through the `verify` module as `per_case_gates_suite` is."""
    v = verify
    for _ in range(cases):
        a_sub = v._random_convex(cx, rng)
        a = rng.choice(a_sub.vertices)
        o1 = v._recomputed(v.orth(a_sub, a))
        o3 = v.orth(v.orth(o1, a), a)
        _check(rec, o3 == o1, "triple-complement", A=a_sub, a=a)

        b_sub = v._random_convex(cx, rng)
        inner = v.hull(cx, rng.sample(b_sub.vertices, 1 + rng.randrange(len(b_sub))))
        x = rng.choice(inner.vertices)
        _check(rec, v._recomputed(v.orth(b_sub, x)) <= v._recomputed(v.orth(inner, x)),
               "contravariance", A=inner, B=b_sub, a=x)

    for member in closure.members:
        points = member.vertices
        if len(points) > 8:
            points = tuple(sorted(rng.sample(points, 8)))
        for x in points:
            _check(rec, v.orth(v.orth(member, x), x) == member, "double-complement",
                   F=member, x=x)


def argparse_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubemedian",
        description="Analyze finite CAT(0) cube complexes given as median graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="generate a complex and write it to a file")
    p.add_argument("--kind", required=True,
                   help="generator kind (grid, box, tree, product, staircase, "
                        "wedge, glued_staircase_ray, random_median)")
    p.add_argument("--params", nargs="*", default=[],
                   help="kind parameters: integers, or nested specs like 'grid(1,1)'")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("analyze", help="run the hyperclosure pipeline on a complex file")
    p.add_argument("file")
    p.add_argument("--max-members", type=int, default=DEFAULT_MAX_MEMBERS)
    p.add_argument("--max-grade", type=int, default=DEFAULT_MAX_GRADE)
    p.add_argument("--with-oracle", action="store_true")
    p.add_argument("--oracle-bound", type=int, default=DEFAULT_ORACLE_BOUND)
    p.add_argument("--no-validate", action="store_true")
    p.add_argument("-o", "--output", default=None, help="report file (default: stdout)")

    p = sub.add_parser("verify", help="run randomized invariant suites")
    p.add_argument("file")
    p.add_argument("--suite", choices=SUITE_CHOICES, default="all")
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-validate", action="store_true")

    p = sub.add_parser("oracle", help="diff the hyperclosure against the brute-force oracle")
    p.add_argument("file")
    p.add_argument("--max-members", type=int, default=DEFAULT_MAX_MEMBERS)
    p.add_argument("--max-grade", type=int, default=DEFAULT_MAX_GRADE)
    p.add_argument("--oracle-bound", type=int, default=DEFAULT_ORACLE_BOUND)
    p.add_argument("--no-validate", action="store_true")

    p = sub.add_parser("export", help="write a DOT file with class-colored edges")
    p.add_argument("file")
    p.add_argument("--dot", required=True)
    p.add_argument("--no-validate", action="store_true")
    return parser
