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
generator on sign words; `contained_member_pairs`, the all-pairs
containment scan that preceded the containment lookups by key; and
`derivation_witness`, the compact witness built along a member's
derivation, which preceded the double complement in `witness_compact`.
"""

import functools
import heapq
from collections import deque
from itertools import combinations
from typing import Optional

import networkx as nx

from cubemedian import hull, orth, subcomplex
from cubemedian.core import (
    InvariantFailure,
    ValidationReport,
    _bits,
    _mask_of,
    _max_clique,
    _odd_cycle_witness,
    whole_complex,
)
from cubemedian.errors import InvariantViolation, ResourceLimitError
from cubemedian.gates import crossing_signature, parallel_copies, project, set_distance
from cubemedian.rng import SplitMix64
from cubemedian.hyperclosure import (
    DEFAULT_MAX_GRADE,
    DEFAULT_MAX_MEMBERS,
    Derivation,
    Hyperclosure,
    _hyperplane_sides,
)


def _from_mask(cx, mask):
    return subcomplex(cx, _bits(mask))


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
    perp = {h.class_id for h in cx.classes
            if h.class_id not in sig and sig <= cx.crossing[h.class_id]}
    verts = [b for b in range(cx.vertex_count)
             if separating_classes(cx, basepoint, b) <= perp]
    return subcomplex(cx, verts)


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
        for comb in (classes[cid].comb_minus_mask, classes[cid].comb_plus_mask):
            if (comb >> basepoint) & 1:
                y_mask &= comb
    y = _from_mask(cx, y_mask)
    result = cx.full_mask
    for cid in sig:
        h = classes[cid]
        for side_mask in (h.comb_minus_mask, h.comb_plus_mask):
            result &= project(y, _from_mask(cx, side_mask)).mask
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
    sides = _hyperplane_sides(cx)
    for _, _, side in sides:
        add(side)

    # pending members in canonical vertex-list order; the result is a set
    # fixpoint, so scheduling cannot change it
    while queue:
        _, f = heapq.heappop(queue)
        for f2 in list(member_list):
            add(project(f, f2))
            add(project(f2, f))
        for copy in parallel_copies(f):
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
    by_sig = {}
    for m in ordered:
        by_sig.setdefault(crossing_signature(m), []).append(m)
    classes = tuple(tuple(group) for group in
                    sorted(by_sig.values(), key=lambda g: (len(g[0].vertices), g[0].vertices)))
    return Hyperclosure(complex=cx, members=tuple(ordered), grade=grade,
                        derivation=derivation, parallel_classes=classes,
                        max_members=max_members, max_grade=max_grade)


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
    best_len = [1] * len(members)
    prev = [-1] * len(members)
    for i, m in enumerate(members):
        mi = m.mask
        for j in range(i):
            if len(members[j]) >= len(m):
                break
            if members[j].mask & ~mi == 0 and best_len[j] + 1 > best_len[i]:
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
