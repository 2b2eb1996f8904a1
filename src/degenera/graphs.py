"""Multigraphs in the dart (half-edge) model, with exact automorphism groups.

Edge k of a graph carries the two darts 2k and 2k+1; the involution pairing
them is implicit in that numbering.  A loop is an edge whose two darts sit
at the same vertex, so it contributes 2 to the degree.  The genus of a
connected graph is |E| - |V| + 1, which equals the rank of its cycle space.

Automorphisms are permutations of the darts that commute with the involution
and descend to a vertex bijection.  The group is assembled from local
generators (parallel-edge swaps and loop dart flips, which span everything
fixing all vertices) together with canonical dart lifts of a small
generating set of the multiplicity-preserving vertex automorphisms.  That
set comes from a search along a breadth-first vertex base with
first-in-orbit pruning: each base point needs at most (orbit length - 1)
generators, so their number follows the orbit lengths, not |Aut|, and
those lengths give |Aut| with no stabilizer chain.  One
iterative first-solution backtrack serves both that search and
find_isomorphism.  The dart action is the only group built: a vertex
orbit is the set of vertices of the darts in one dart orbit, and an edge
orbit the set of their edges.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import factorial

from .perms import Perm, PermGroup


class DartGraph:
    """Connected multigraph stored as an edge list over vertices 0..n-1.

    Pass require_connected=False only for derived comparison objects such
    as single-orbit subgraphs, which may fall apart into components.
    """

    __slots__ = ("vertex_count", "edges", "connected", "_dart_vertex", "_degrees")

    def __init__(self, vertex_count, edges, require_connected=True):
        if vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError("edge (%d, %d) out of range" % (u, v))
        # a connected graph has a spanning tree, so |V| <= |E| + 1; checked
        # first so an absurd vertex count fails before per-vertex lists exist
        if require_connected and vertex_count > len(edges) + 1:
            raise ValueError("graph is not connected")
        self.vertex_count = vertex_count
        self.edges = edges
        dart_vertex = []
        for u, v in edges:
            dart_vertex.append(u)
            dart_vertex.append(v)
        self._dart_vertex = tuple(dart_vertex)
        degrees = [0] * vertex_count
        for d in dart_vertex:
            degrees[d] += 1
        self._degrees = tuple(degrees)
        self.connected = self._check_connected()
        if require_connected and not self.connected:
            raise ValueError("graph is not connected")

    def _check_connected(self):
        if self.vertex_count == 1:
            return True
        adjacency = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        seen = {0}
        queue = [0]
        while queue:
            x = queue.pop()
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return len(seen) == self.vertex_count

    @classmethod
    def from_darts(cls, dart_vertex, involution, require_connected=True):
        """Build from explicit darts and a pairing involution."""
        n_darts = len(dart_vertex)
        if sorted(involution) != list(range(n_darts)):
            raise ValueError("involution is not a permutation of the darts")
        edges = []
        for d in range(n_darts):
            e = involution[d]
            if e == d:
                raise ValueError("involution fixes dart %d" % d)
            if involution[e] != d:
                raise ValueError("involution is not self-inverse at dart %d" % d)
            if d < e:
                edges.append((dart_vertex[d], dart_vertex[e]))
        vertex_count = max(dart_vertex) + 1 if dart_vertex else 1
        return cls(vertex_count, edges, require_connected=require_connected)

    @classmethod
    def parse(cls, text):
        """Parse the plain text format: a 'vertices N' line then 'edge u v' lines."""
        vertex_count = None
        edges = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "vertices" and len(parts) == 2 and vertex_count is None:
                try:
                    vertex_count = int(parts[1])
                except ValueError:
                    raise ValueError("line %d: bad vertex count %r" % (lineno, parts[1]))
            elif parts[0] == "edge" and len(parts) == 3 and vertex_count is not None:
                try:
                    edges.append((int(parts[1]), int(parts[2])))
                except ValueError:
                    raise ValueError("line %d: bad edge %r" % (lineno, line))
            else:
                raise ValueError("line %d: cannot parse %r" % (lineno, line))
        if vertex_count is None:
            raise ValueError("missing 'vertices N' header line")
        return cls(vertex_count, edges)

    def to_text(self):
        lines = ["vertices %d" % self.vertex_count]
        lines.extend("edge %d %d" % (u, v) for u, v in self.edges)
        return "\n".join(lines) + "\n"

    @property
    def edge_count(self):
        return len(self.edges)

    @property
    def dart_count(self):
        return 2 * len(self.edges)

    @property
    def involution(self):
        out = []
        for k in range(len(self.edges)):
            out.append(2 * k + 1)
            out.append(2 * k)
        return tuple(out)

    def vertex_of(self, dart):
        return self._dart_vertex[dart]

    def edge_of(self, dart):
        return dart // 2

    def partner(self, dart):
        return dart ^ 1

    def dart_pair(self, edge):
        return (2 * edge, 2 * edge + 1)

    def is_loop(self, edge):
        u, v = self.edges[edge]
        return u == v

    def darts_at(self, vertex):
        return tuple(d for d in range(self.dart_count) if self._dart_vertex[d] == vertex)

    def degree(self, vertex):
        return self._degrees[vertex]

    def degrees(self):
        return self._degrees

    def min_degree(self):
        return min(self._degrees)

    def is_stable(self):
        return self.min_degree() >= 3

    def all_degrees_even(self):
        return all(d % 2 == 0 for d in self._degrees)

    def genus(self):
        """First Betti number |E| - |V| + 1 of the connected graph."""
        return self.edge_count - self.vertex_count + 1

    def multiplicity(self, u, v):
        """Number of edges joining u and v (loops when u == v)."""
        key = (min(u, v), max(u, v))
        return sum(1 for a, b in self.edges if (min(a, b), max(a, b)) == key)

    def parallel_classes(self):
        """Edge ids grouped by unordered endpoints, keys sorted."""
        classes = {}
        for k, (u, v) in enumerate(self.edges):
            classes.setdefault((min(u, v), max(u, v)), []).append(k)
        return dict(sorted(classes.items()))

    def dart_at(self, edge, vertex):
        """The dart of a non-loop edge sitting at the given endpoint."""
        u, v = self.edges[edge]
        if u == v:
            raise ValueError("edge %d is a loop" % edge)
        if vertex == u:
            return 2 * edge
        if vertex == v:
            return 2 * edge + 1
        raise ValueError("vertex %d is not an endpoint of edge %d" % (vertex, edge))

    def __eq__(self, other):
        return (
            isinstance(other, DartGraph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return "DartGraph(%d vertices, %d edges)" % (self.vertex_count, self.edge_count)


def complete_graph(n):
    """K_n on vertices 0..n-1."""
    return DartGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a, b):
    """K_{a,b} with part A on 0..a-1 and part B on a..a+b-1."""
    return DartGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def circulant_graph(genus):
    """Cycle graph on genus-1 vertices with chords at distances 1 and 2."""
    if genus < 7:
        raise ValueError("circulant family needs genus >= 7")
    n = genus - 1
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, (i + 2) % n) for i in range(n)]
    return DartGraph(n, edges)


def doubled_cycle(genus):
    """Cycle on genus-1 vertices with every edge doubled."""
    if genus < 4:
        raise ValueError("double-cycle family needs genus >= 4")
    n = genus - 1
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, (i + 1) % n))
    return DartGraph(n, edges)


def theta_loops():
    """Two vertices joined by a doubled edge, each carrying one loop."""
    return DartGraph(2, [(0, 1), (0, 1), (0, 0), (1, 1)])


def family(name, genus=None):
    """Build one of the named degree-4 families: k5, circulant, double-cycle, theta-loops."""
    if name == "k5":
        return complete_graph(5)
    if name == "circulant":
        if genus is None:
            raise ValueError("circulant family needs --genus")
        return circulant_graph(genus)
    if name == "double-cycle":
        if genus is None:
            raise ValueError("double-cycle family needs --genus")
        return doubled_cycle(genus)
    if name == "theta-loops":
        return theta_loops()
    raise ValueError("unknown family %r" % name)


FAMILY_NAMES = ("k5", "circulant", "double-cycle", "theta-loops")


class _VertexMatcher:
    """A partial multiplicity-preserving vertex map a -> b, grown by backtracking.

    Each vertex carries the signature (degree, loop count, sorted neighbour
    multiplicities), and an image must share it.  A candidate image is
    checked only against the neighbours already mapped: their multiplicities
    must match, and the total multiplicity from the candidate to mapped
    vertices (kept per vertex of b) must equal that of the vertex, so no
    unmatched edge hides among the mapped vertices.
    """

    def __init__(self, a, b):
        self.n = a.vertex_count
        self.nbrs_a, self.sig_a = _neighbourhoods(a)
        self.nbrs_b, self.sig_b = _neighbourhoods(b)
        self.sorted_b = [sorted(nb) for nb in self.nbrs_b]
        self.image = [None] * self.n
        self.used = [False] * self.n
        self.load = [0] * self.n
        self.order = _search_order(self.nbrs_a)

    def assign(self, v, w):
        self.image[v] = w
        self.used[w] = True
        load = self.load
        for x, m in self.nbrs_b[w].items():
            load[x] += m

    def unassign(self, v):
        w = self.image[v]
        self.image[v] = None
        self.used[w] = False
        load = self.load
        for x, m in self.nbrs_b[w].items():
            load[x] -= m

    def fits(self, v, w):
        """Whether v -> w agrees with every vertex mapped so far."""
        if self.used[w] or self.sig_a[v] != self.sig_b[w]:
            return False
        image = self.image
        at_w = self.nbrs_b[w]
        total = 0
        for u, m in self.nbrs_a[v].items():
            x = image[u]
            if x is not None:
                if at_w.get(x) != m:
                    return False
                total += m
        return total == self.load[w]

    def candidates(self, v):
        """Possible images of v in ascending order: the neighbours of a mapped
        neighbour's image, or every vertex when no neighbour is mapped yet."""
        for u in self.nbrs_a[v]:
            x = self.image[u]
            if x is not None:
                return self.sorted_b[x]
        return range(self.n)

    def complete(self, pending):
        """First completion mapping the pending vertices in turn, or None.

        An iterative depth-first search with an explicit stack: each level
        tries its candidates in ascending order.  The partial map is left as
        it was on entry.
        """
        frames = [[self.candidates(pending[0]), 0]]
        found = None
        while frames:
            depth = len(frames) - 1
            v = pending[depth]
            if self.image[v] is not None:
                self.unassign(v)
            frame = frames[-1]
            options, k = frame
            while k < len(options) and not self.fits(v, options[k]):
                k += 1
            if k == len(options):
                frames.pop()
                continue
            frame[1] = k + 1
            self.assign(v, options[k])
            if depth + 1 == len(pending):
                found = tuple(self.image)
                break
            frames.append([self.candidates(pending[depth + 1]), 0])
        for v in pending:
            if self.image[v] is not None:
                self.unassign(v)
        return found


def _neighbourhoods(graph):
    """Per vertex: {neighbour: multiplicity} without loops, and its signature."""
    nbrs = [{} for _ in range(graph.vertex_count)]
    loops = [0] * graph.vertex_count
    for u, v in graph.edges:
        if u == v:
            loops[u] += 1
        else:
            nbrs[u][v] = nbrs[u].get(v, 0) + 1
            nbrs[v][u] = nbrs[v].get(u, 0) + 1
    sigs = [
        (graph.degree(v), loops[v], tuple(sorted(nb.values())))
        for v, nb in enumerate(nbrs)
    ]
    return nbrs, sigs


def _search_order(nbrs):
    """Breadth-first order over every component, smallest unvisited root first.

    Every vertex but a root follows one of its neighbours, so in any suffix
    of the order preceded by an arbitrary mapped prefix, a vertex has a
    mapped neighbour unless it is a root.
    """
    seen = [False] * len(nbrs)
    order = []
    for root in range(len(nbrs)):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        head = len(order) - 1
        while head < len(order):
            x = order[head]
            head += 1
            for y in sorted(nbrs[x]):
                if not seen[y]:
                    seen[y] = True
                    order.append(y)
    return order


def _vertex_generators(graph):
    """Generators of the vertex automorphism group, by first-in-orbit pruning.

    The base is the search order b_0, b_1, ..., and levels run from the
    deepest up.  At level i the generators found so far fix b_0..b_i and
    generate the stabilizer of those points.  Each image w of b_i outside
    their orbit of b_i gets one search for a first automorphism fixing
    b_0..b_(i-1) and sending b_i to w; a hit joins the generators and grows
    the orbit.  The orbit then holds every image of b_i, so by Schreier's
    lemma level i ends with the stabilizer of b_0..b_(i-1), after at most
    (orbit length - 1) new generators.  Returns the generators and the
    group order, the product of those final orbit lengths.
    """
    matcher = _VertexMatcher(graph, graph)
    base = matcher.order
    for v in base:
        matcher.assign(v, v)
    gens = []
    order = 1
    for i in range(len(base) - 1, -1, -1):
        b = base[i]
        matcher.unassign(b)
        orbit = {b}
        for w in matcher.candidates(b):
            if w in orbit or not matcher.fits(b, w):
                continue
            matcher.assign(b, w)
            sigma = matcher.complete(base[i + 1:])
            matcher.unassign(b)
            if sigma is not None:
                gens.append(sigma)
                orbit = PermGroup(len(base), map(Perm._unchecked, gens)).orbit(b)
        order *= len(orbit)
    return gens, order


def _lift_vertex_map(a, b, sigma):
    """Canonical dart map covering sigma: k-th parallel edge to k-th parallel edge."""
    classes_b = b.parallel_classes()
    images = [None] * a.dart_count
    for (u, v), edge_ids in a.parallel_classes().items():
        su, sv = sigma[u], sigma[v]
        targets = classes_b[(min(su, sv), max(su, sv))]
        for e, f in zip(edge_ids, targets):
            if u == v:
                images[2 * e] = 2 * f
                images[2 * e + 1] = 2 * f + 1
            else:
                images[a.dart_at(e, u)] = b.dart_at(f, su)
                images[a.dart_at(e, v)] = b.dart_at(f, sv)
    return images


def _local_generators(graph):
    """Dart permutations fixing every vertex: parallel swaps and loop flips."""
    gens = []
    identity = list(range(graph.dart_count))
    for (u, v), edge_ids in graph.parallel_classes().items():
        for e, f in zip(edge_ids, edge_ids[1:]):
            images = identity[:]
            if u == v:
                images[2 * e], images[2 * f] = 2 * f, 2 * e
                images[2 * e + 1], images[2 * f + 1] = 2 * f + 1, 2 * e + 1
            else:
                de, df = graph.dart_at(e, u), graph.dart_at(f, u)
                images[de], images[df] = df, de
                de, df = graph.dart_at(e, v), graph.dart_at(f, v)
                images[de], images[df] = df, de
            gens.append(Perm(images))
    for e in range(graph.edge_count):
        if graph.is_loop(e):
            images = identity[:]
            images[2 * e], images[2 * e + 1] = 2 * e + 1, 2 * e
            gens.append(Perm(images))
    return gens


_DARTLESS = "a vertex with no dart has no image under a dart permutation"


class GraphAut:
    """Automorphism group of a graph in its faithful action on darts.

    order is |Aut|, known from the generator search, so reading it builds
    no stabilizer chain; group.order() recomputes it through one.  Vertex
    and edge orbits are read off the dart orbits: dart d sits at vertex
    vertex_of(d) on edge d >> 1.
    """

    def __init__(self, graph, group, order):
        self.graph = graph
        self.group = group
        self.order = order

    def vertex_perm(self, p):
        """Vertex permutation covered by a dart permutation in the group."""
        images = [None] * self.graph.vertex_count
        for d in range(self.graph.dart_count):
            v = self.graph.vertex_of(d)
            w = self.graph.vertex_of(p.images[d])
            if images[v] is None:
                images[v] = w
            elif images[v] != w:
                raise ValueError("dart permutation does not cover a vertex map")
        if None in images:
            raise ValueError(_DARTLESS)
        return Perm(images)

    @cached_property
    def _dart_orbits(self):
        if 0 in self.graph.degrees():
            raise ValueError(_DARTLESS)
        return self.group.orbits()

    def _orbits(self, point_of):
        orbits = self._dart_orbits
        return sorted({tuple(sorted({point_of(d) for d in orb})) for orb in orbits})

    def vertex_orbits(self):
        return self._orbits(self.graph.vertex_of)

    def edge_orbits(self):
        return self._orbits(self.graph.edge_of)

    def is_vertex_transitive(self):
        return len(self.vertex_orbits()) == 1


@lru_cache(maxsize=128)
def automorphism_group(graph):
    """The full automorphism group of the graph, acting on darts.

    Its order is the number of vertex automorphisms times the order of the
    kernel of the vertex action, which permutes each class of m parallel
    edges (m!) and each class of k loops at a vertex, flipping loops too
    (k! 2^k).
    """
    gens = _local_generators(graph)
    vertex_gens, order = _vertex_generators(graph)
    for sigma in vertex_gens:
        gens.append(Perm(_lift_vertex_map(graph, graph, sigma)))
    for (u, v), edge_ids in graph.parallel_classes().items():
        k = len(edge_ids)
        order *= factorial(k) << (k if u == v else 0)
    return GraphAut(graph, PermGroup(graph.dart_count, gens), order)


def is_vertex_transitive(graph):
    return automorphism_group(graph).is_vertex_transitive()


def edge_orbits(graph):
    return automorphism_group(graph).edge_orbits()


def is_admissible(graph):
    """Whether fixing all darts at vertices of degree >= 4 forces the identity.

    Only defined for stable graphs (minimum degree 3).  Any graph whose
    degrees are all at least 4 is admissible, since the dart action is
    faithful; degree-3 vertices leave room for residual symmetry.
    """
    if not graph.is_stable():
        raise ValueError("admissibility needs minimum degree 3")
    constrained = [
        d for d in range(graph.dart_count) if graph.degree(graph.vertex_of(d)) >= 4
    ]
    if len(constrained) == graph.dart_count:
        return True
    aut = automorphism_group(graph)
    return aut.group.pointwise_stabilizer(constrained).is_trivial()


def find_isomorphism(a, b):
    """A dart bijection a -> b respecting involution and incidence, or None."""
    if a.vertex_count != b.vertex_count or a.edge_count != b.edge_count:
        return None
    if sorted(a.degrees()) != sorted(b.degrees()):
        return None
    matcher = _VertexMatcher(a, b)
    sigma = matcher.complete(matcher.order)
    return None if sigma is None else _lift_vertex_map(a, b, sigma)


def is_isomorphic(a, b):
    return find_isomorphism(a, b) is not None


def check_dart_isomorphism(a, b, images):
    """Verify that a dart map is a bijection matching involution and vertices."""
    if sorted(images) != list(range(a.dart_count)) or a.dart_count != b.dart_count:
        return False
    vertex_image = {}
    for d in range(a.dart_count):
        if images[a.partner(d)] != b.partner(images[d]):
            return False
        v = a.vertex_of(d)
        w = b.vertex_of(images[d])
        if vertex_image.setdefault(v, w) != w:
            return False
    return len(set(vertex_image.values())) == len(vertex_image)


def cycle_basis(graph):
    """Fundamental cycles of the non-tree edges over a breadth-first spanning tree.

    Each basis element is the sorted tuple of edge ids whose symmetric
    difference closes the cycle; a loop contributes the singleton of itself.
    """
    parent_edge = [None] * graph.vertex_count
    order = [0]
    seen = {0}
    tree_edges = set()
    queue = 0
    while queue < len(order):
        x = order[queue]
        queue += 1
        for k, (u, v) in enumerate(graph.edges):
            if u == v:
                continue
            other = None
            if u == x:
                other = v
            elif v == x:
                other = u
            if other is not None and other not in seen:
                seen.add(other)
                parent_edge[other] = k
                tree_edges.add(k)
                order.append(other)

    def path_to_root(v):
        out = set()
        while parent_edge[v] is not None:
            k = parent_edge[v]
            out.add(k)
            u, w = graph.edges[k]
            v = u if w == v else w
        return out

    basis = []
    for k, (u, v) in enumerate(graph.edges):
        if k in tree_edges:
            continue
        cycle = {k} | (path_to_root(u) ^ path_to_root(v))
        basis.append(tuple(sorted(cycle)))
    return basis


def cycle_space_rank(graph):
    return len(cycle_basis(graph))
