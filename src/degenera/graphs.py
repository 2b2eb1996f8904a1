"""Multigraphs in the dart (half-edge) model, with exact automorphism groups.

Edge k of a graph carries the two darts 2k and 2k+1; the involution pairing
them is implicit in that numbering.  A loop is an edge whose two darts sit
at the same vertex, so it contributes 2 to the degree.  The genus of a
connected graph is |E| - |V| + 1, which equals the rank of its cycle space.

Automorphisms are permutations of the darts that commute with the
involution and descend to a vertex bijection.  The kernel of the vertex
action is generated by the parallel-edge swaps and loop flips, each kept as
its dart transpositions; it is extended by canonical dart lifts of a small
generating set of the multiplicity-preserving vertex automorphisms.  That
set comes from a search along a breadth-first vertex base with
first-in-orbit pruning: each base point needs at most (orbit length - 1)
generators, so their number follows the orbit lengths, not |Aut|, and those
lengths give |Aut| with no stabilizer chain.  Rooted at one vertex and run
on every level, the search gives Aut, and the generators found before the
root's level, with the kernel, generate its stabilizer; run only on the
levels after a prefix of the base, it gives the prefix's pointwise
stabilizer, which with the kernel counts the automorphisms fixing a set of
darts (GraphAut.fixing_order).  The search is an iterative
first-solution backtrack on one graph.  Vertex-transitivity comes from the
root's orbit length, edge orbits from the lifts merged with the parallel
classes, and the orbit of a dart from the lifts and the few kernel
generators that move it, so no command builds the kernel's permutations:
the group with every generator explicit is built only when read.
"""

from __future__ import annotations

from functools import cached_property
from math import factorial

from .perms import Perm, PermGroup, orbit_walk


class DartGraph:
    """Connected multigraph stored as an edge list over vertices 0..n-1.

    Pass require_connected=False only for derived comparison objects such
    as single-orbit subgraphs, which may fall apart into components.
    """

    __slots__ = ("vertex_count", "edges", "_dart_vertex", "_degrees")

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
        if require_connected and not self._check_connected():
            raise ValueError("graph is not connected")

    def _check_connected(self):
        adjacency = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        return len(orbit_walk((0,), adjacency.__getitem__)) == self.vertex_count

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

    @property
    def edge_count(self):
        return len(self.edges)

    @property
    def dart_count(self):
        return 2 * len(self.edges)

    def vertex_of(self, dart):
        return self._dart_vertex[dart]

    def edge_of(self, dart):
        return dart // 2

    def partner(self, dart):
        return dart ^ 1

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


# the double cycle of this genus takes 0.13-0.22 s and 21-30 MiB per command
GENUS_LIMIT = 4096


def family(name, genus=None):
    """Build one of the named degree-4 families: k5, circulant, double-cycle, theta-loops.

    A genus above GENUS_LIMIT is rejected before any edge list is built.
    """
    if genus is not None and genus > GENUS_LIMIT:
        raise ValueError("genus %d exceeds the limit %d" % (genus, GENUS_LIMIT))
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
    """A partial multiplicity-preserving vertex self-map, grown by backtracking.

    Each vertex carries the signature (degree, loop count, sorted neighbour
    multiplicities), and an image must share it.  A candidate image is
    checked only against the neighbours already mapped: their multiplicities
    must match, and the total multiplicity from the candidate to mapped
    vertices (kept per image vertex) must equal that of the vertex, so no
    unmatched edge hides among the mapped vertices.
    """

    def __init__(self, graph, prefix):
        self.n = graph.vertex_count
        self.nbrs, self.sig = _neighbourhoods(graph)
        self.sorted_nbrs = [sorted(nb) for nb in self.nbrs]
        self.image = [None] * self.n
        self.used = [False] * self.n
        self.load = [0] * self.n
        self.order = _search_order(self.sorted_nbrs, prefix)

    def assign(self, v, w):
        self.image[v] = w
        self.used[w] = True
        load = self.load
        for x, m in self.nbrs[w].items():
            load[x] += m

    def unassign(self, v):
        w = self.image[v]
        self.image[v] = None
        self.used[w] = False
        load = self.load
        for x, m in self.nbrs[w].items():
            load[x] -= m

    def fits(self, v, w):
        """Whether v -> w agrees with every vertex mapped so far."""
        if self.used[w] or self.sig[v] != self.sig[w]:
            return False
        image = self.image
        at_w = self.nbrs[w]
        total = 0
        for u, m in self.nbrs[v].items():
            x = image[u]
            if x is not None:
                if at_w.get(x) != m:
                    return False
                total += m
        return total == self.load[w]

    def candidates(self, v):
        """Possible images of v in ascending order: the neighbours of a mapped
        neighbour's image, or every vertex when no neighbour is mapped yet."""
        for u in self.nbrs[v]:
            x = self.image[u]
            if x is not None:
                return self.sorted_nbrs[x]
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


def _search_order(sorted_nbrs, prefix):
    """The prefix, then breadth-first from it and from the smallest
    unvisited vertex of each component left; a root is the prefix (root,).
    sorted_nbrs is the matcher's per-vertex sorted neighbour list.

    Every vertex after the prefix but a component's start follows one of
    its neighbours, so in any suffix of the order preceded by an arbitrary
    mapped prefix, only a component's start may lack a mapped neighbour.
    """
    order = orbit_walk(prefix, sorted_nbrs.__getitem__)
    placed = set(order)
    for start in range(len(sorted_nbrs)):
        if start not in placed:
            component = orbit_walk((start,), sorted_nbrs.__getitem__)
            placed.update(component)
            order += component
    return order


def _vertex_generators(graph, prefix, pinned=0):
    """Generators of the vertex automorphisms fixing the first pinned base
    points, by first-in-orbit pruning.

    The base b_0, b_1, ... is the search order from prefix, and levels run
    from the deepest up to level pinned.  At level i the generators found
    so far fix b_0..b_i and generate the stabilizer of those points.  Each
    image w of b_i outside their orbit of b_i gets one search for a first
    automorphism fixing b_0..b_(i-1) and sending b_i to w; a hit joins the
    generators and grows the orbit.  By Schreier's lemma level i ends with
    the stabilizer of b_0..b_(i-1), after at most (orbit length - 1) new
    generators (Seress, Permutation Group Algorithms, 2003, 4.1).  With
    pinned 0 the generators found before level 0 generate the stabilizer
    of b_0.  Returns the generators in the order found, the order of their
    group (the product of the final orbit lengths) and the last orbit length.
    """
    matcher = _VertexMatcher(graph, prefix)
    base = matcher.order
    for v in base:
        matcher.assign(v, v)
    gens = []
    order = orbit_length = 1
    for i in range(len(base) - 1, pinned - 1, -1):
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
                orbit = set(orbit_walk((b,), lambda x: [g[x] for g in gens]))
        orbit_length = len(orbit)
        order *= orbit_length
    return gens, order, orbit_length


def _lift_vertex_map(graph, sigma, classes):
    """Canonical dart map covering sigma: k-th parallel edge to k-th parallel edge.

    classes is graph.parallel_classes().  Dart 2e sits at graph.edges[e][0],
    so a pair of darts keeps its order exactly when both edges start at
    corresponding endpoints.
    """
    ends = graph.edges
    images = [None] * graph.dart_count
    for (u, v), edge_ids in classes.items():
        su, sv = sigma[u], sigma[v]
        targets = classes[(min(su, sv), max(su, sv))]
        for e, f in zip(edge_ids, targets):
            flip = (ends[e][0] != u) ^ (ends[f][0] != su)
            images[2 * e] = 2 * f + flip
            images[2 * e + 1] = 2 * f + 1 - flip
    return images


class GraphAut:
    """Automorphism group of a graph in its faithful action on darts.

    The group is the kernel of the vertex action (S_m on each class of m
    parallel edges, C_2 wr S_k on each class of k loops), generated by
    kernel, extended by lifts, the canonical dart lifts of the vertex
    generators.  order is |Aut| from the generator search, rooted at root,
    whose orbit has root_orbit vertices.  group, with every kernel
    generator a dart permutation, is built when first read; no command
    reads it, only the benchmark's re-check of certificates.

    Edge orbits and vertex-transitivity come from the generators, so they
    are defined also when a vertex has no dart, which only a disconnected
    graph or the one-vertex graph without edges has.
    """

    def __init__(self, graph, classes, order, vertex_gens, lifts, root, root_orbit):
        self.graph = graph
        self.classes = classes
        self.order = order
        self.vertex_gens = vertex_gens
        self.lifts = lifts
        self.root = root
        self.root_orbit = root_orbit

    @cached_property
    def kernel(self):
        """The kernel generators, each a tuple of dart transpositions: the
        swap of each pair of adjacent edges in a class, classes in key
        order, then the flip of every loop, loops sorted."""
        edges = self.graph.edges
        swaps, flips = [], []
        for (u, v), edge_ids in self.classes.items():
            for e, f in zip(edge_ids, edge_ids[1:]):
                flip = edges[e] != edges[f]
                swaps.append(((2 * e, 2 * f + flip), (2 * e + 1, 2 * f + 1 - flip)))
            if u == v:
                flips += [((2 * e, 2 * e + 1),) for e in edge_ids]
        return swaps + sorted(flips)

    def _dart_perms(self, kernel, lifts):
        """The kernel generators as dart permutations, then the lifts."""
        gens, identity = [], tuple(range(self.graph.dart_count))
        for transpositions in kernel:
            images = list(identity)  # shares the identity's int objects
            for x, y in transpositions:
                images[x], images[y] = y, x
            gens.append(tuple(images))
        return [Perm._unchecked(p) for p in gens + list(lifts)]

    @cached_property
    def group(self):
        generators = self._dart_perms(self.kernel, self.lifts)
        return PermGroup(self.graph.dart_count, generators)

    def branch_generators(self):
        """The kernel generators that move a dart at root, then the lifts
        fixing root.  With the rest of the kernel they generate the
        stabilizer of root; on the darts at root these alone give its image."""
        root, vertex_of = self.root, self.graph.vertex_of
        at_root = [t for t in self.kernel if any(vertex_of(x) == root for x, _ in t)]
        fixing = [p for p, s in zip(self.lifts, self.vertex_gens) if s[root] == root]
        return self._dart_perms(at_root, fixing)

    @property
    def generator_count(self):
        """len(group.generators) on a connected graph, without building it."""
        return len(self.kernel) + len(self.lifts)

    @cached_property
    def _moves(self):
        """Per dart, its images under those of group.generators that can
        move it, in their order: the kernel generators, then every lift."""
        moves = [[] for _ in range(self.graph.dart_count)]
        for transpositions in self.kernel:
            for x, y in transpositions:
                moves[x].append(y)
                moves[y].append(x)
        for p in self.lifts:
            for x, y in enumerate(p):
                moves[x].append(y)
        return moves

    def orbit(self, dart):
        """The orbit of a dart, listed as group.orbit lists it."""
        return orbit_walk((dart,), self._moves.__getitem__)

    def edge_orbits(self):
        """The lifts' orbits on edges, merged with the parallel classes,
        each sorted, by least edge."""
        count = self.graph.edge_count
        cycle = list(range(count))
        for ids in self.classes.values():
            for e, f in zip(ids, ids[1:] + ids[:1]):
                cycle[e] = f
        maps = [[d >> 1 for d in p[::2]] for p in self.lifts] + [cycle]
        images = list(zip(*maps))  # per edge, its image under each map
        placed = [False] * count
        orbits = []
        for x in range(count):
            if not placed[x]:
                orbit = orbit_walk((x,), images.__getitem__)
                for y in orbit:
                    placed[y] = True
                orbits.append(tuple(sorted(orbit)))
        return orbits

    def is_vertex_transitive(self):
        return self.root_orbit == self.graph.vertex_count

    def fixing_order(self, darts):
        """The number of automorphisms that fix every listed dart.

        Such an automorphism fixes the darts' edges and their ends.  Over
        each vertex automorphism fixing the ends, the canonical lift fixes
        every edge between them, so the count is the vertex search pinned
        at the ends times the kernel on the edges with no listed dart.
        """
        edges = {d >> 1 for d in darts}
        ends = sorted({w for e in edges for w in self.graph.edges[e]})
        pinned = _vertex_generators(self.graph, ends, len(ends))[1]
        return pinned * _kernel_order(self.classes, edges)


def _kernel_order(classes, fixed):
    """The order of the kernel of the vertex action on the edges not in
    fixed, which permutes the f such edges of a class (f!) and flips them
    too if they are loops (f! 2^f)."""
    order = 1
    for (u, v), edge_ids in classes.items():
        f = sum(e not in fixed for e in edge_ids)
        order *= factorial(f) << (f if u == v else 0)
    return order


def automorphism_group(graph, root=0):
    """The full automorphism group of the graph, acting on darts.

    The generator search is rooted at the vertex root, so the returned
    GraphAut also carries the length of its orbit.  Its order is the number
    of vertex automorphisms times the order of the kernel of the vertex
    action.  Nothing is cached: a caller passes the result on.
    """
    if not 0 <= root < graph.vertex_count:
        raise ValueError("root vertex %d out of range" % root)
    classes = graph.parallel_classes()
    vertex_gens, order, root_orbit = _vertex_generators(graph, (root,))
    lifts = [tuple(_lift_vertex_map(graph, sigma, classes)) for sigma in vertex_gens]
    order *= _kernel_order(classes, ())
    return GraphAut(graph, classes, order, vertex_gens, lifts, root, root_orbit)


def is_admissible(aut):
    """Whether fixing all darts at vertices of degree >= 4 forces the identity.

    Takes the GraphAut of a stable graph.  All degrees >= 4 make it
    admissible (the dart action is faithful), none make it so iff Aut is
    trivial; else it is so iff only the identity fixes those darts.
    """
    graph = aut.graph
    if not graph.is_stable():
        raise ValueError("admissibility needs minimum degree 3")
    degrees = graph.degrees()
    if min(degrees) >= 4:
        return True
    if max(degrees) < 4:
        return aut.order == 1
    heavy = [d for d in range(graph.dart_count) if degrees[graph.vertex_of(d)] >= 4]
    return aut.fixing_order(heavy) == 1


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

