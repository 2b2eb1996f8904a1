"""Independent oracles and fixtures used across the test suite.

Everything here is deliberately naive: brute-force closures (which also
list a group's elements), Sylvester determinants over Fractions,
exhaustive dart-permutation filters, networkx vertex automorphisms with the
orbit bound they give along a base, the vertex map a dart automorphism
covers, vertex orbits from the vertex generators alone, vertex and edge
stabilizers from Schreier-Sims chains on a lifted action (darts, vertices
and edges) built here from each generator's vertex and edge images, coset
tables (for reconstruction and the even-orbit search), the vertex search
order as one queue over its list, the explicit
automorphism group (every parallel swap and loop flip as a dart
permutation, then the lifts), a breadth-first cycle basis (its rank is the
genus), long division in GF(p)[x] with its quotient, a list-scan byte
sieve and trial-division factorization.  The fixtures are permutations
from cycles, K_{a,b}, the graph file text of a graph and the quartic
x^4 - x - 1.  None of it shares code with the package internals it checks.
"""

import functools
import itertools
import math
from fractions import Fraction

from degenera.frobenius import IntPoly
from degenera.perms import Perm

DEMO_QUARTIC = IntPoly((-1, -1, 0, 0, 1))


def from_cycles(degree, cycles):
    """The permutation with the given disjoint cycles, e.g. from_cycles(4, [(0, 1, 2)])."""
    images = list(range(degree))
    seen = set()
    for cyc in cycles:
        for x in cyc:
            if x in seen:
                raise ValueError("cycles are not disjoint at point %d" % x)
            seen.add(x)
        for i, x in enumerate(cyc):
            images[x] = cyc[(i + 1) % len(cyc)]
    return Perm(images)


def compose_images(a, b):
    """Image tuple of a∘b (b applied first)."""
    return tuple(a[x] for x in b)


def brute_closure(generators, limit=2 * 10**4):
    """Set of image tuples generated by repeated left-multiplication."""
    if not generators:
        return {()}
    degree = len(generators[0])
    gens = [tuple(g) for g in generators]
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in gens:
            for h in frontier:
                prod = compose_images(g, h)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        if len(seen) > limit:
            raise RuntimeError("closure exceeded limit %d" % limit)
        frontier = nxt
    return seen


def group_elements(group, limit=2 * 10**4):
    """Image tuples of every element of a PermGroup, by brute_closure."""
    gens = [g.images for g in group.generators]
    return brute_closure(gens or [tuple(range(group.degree))], limit)


def brute_coset_orbit_sizes(g0, group_elements, subgroup_elements):
    """Orbit sizes of left multiplication by g0 on left cosets, from scratch.

    Cosets are materialized as frozensets of image tuples, so nothing from
    the package's coset machinery is reused.
    """
    subgroup = [tuple(h) for h in subgroup_elements]
    cosets = {frozenset(compose_images(g, h) for h in subgroup)
              for g in map(tuple, group_elements)}
    g0 = tuple(g0)
    sizes = []
    remaining = set(cosets)
    while remaining:
        start = min(remaining, key=sorted)
        current = start
        size = 0
        while True:
            remaining.discard(current)
            size += 1
            current = frozenset(compose_images(g0, x) for x in current)
            if current == start:
                break
        sizes.append(size)
    return tuple(sorted(sizes, reverse=True))


def exhaustive_dart_automorphisms(graph):
    """All dart permutations commuting with the involution and covering a
    vertex bijection, by filtering the full symmetric group.  Only viable
    for graphs with at most 8 darts."""
    n = graph.dart_count
    assert n <= 8
    out = []
    for images in itertools.permutations(range(n)):
        if any(images[d ^ 1] != images[d] ^ 1 for d in range(n)):
            continue
        vmap = {}
        ok = True
        for d in range(n):
            v, w = graph.vertex_of(d), graph.vertex_of(images[d])
            if vmap.setdefault(v, w) != w:
                ok = False
                break
        if ok and len(set(vmap.values())) == len(vmap):
            out.append(Perm(images))
    return out


def sylvester_resultant(a_coeffs, b_coeffs):
    """Resultant via the Sylvester matrix determinant over Fractions."""
    a = list(a_coeffs)
    b = list(b_coeffs)
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    da, db = len(a) - 1, len(b) - 1
    if da < 0 or db < 0:
        return 0
    if da == 0:
        return a[0] ** db
    if db == 0:
        return b[0] ** da
    size = da + db
    rows = []
    for i in range(db):
        row = [0] * size
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        rows.append(row)
    for i in range(da):
        row = [0] * size
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        rows.append(row)
    matrix = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if matrix[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
            det = -det
        det *= matrix[col][col]
        inv = 1 / matrix[col][col]
        for r in range(col + 1, size):
            factor = matrix[r][col] * inv
            if factor:
                for c in range(col, size):
                    matrix[r][c] -= factor * matrix[col][c]
    assert det.denominator == 1
    return int(det)


def divmod_mod(a, f, p):
    """(quotient, remainder) of a by monic f in GF(p)[x]; a's entries must
    lie in 0..p-1, and a becomes the remainder, without trailing zeros."""
    n = len(f) - 1
    quot = [0] * (len(a) - n)
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k]
        if c:
            shift = k - n
            quot[shift] = c
            for i in range(n):
                a[shift + i] = (a[shift + i] - c * f[i]) % p
    del a[n:]
    while a and a[-1] == 0:
        a.pop()
    return quot, a


def listed_sieve(bound):
    """Ascending primes <= bound: a byte sieve read back by a list scan."""
    if bound < 2:
        return []
    sieve = bytearray(bound + 1)
    for i in range(2, int(bound**0.5) + 1):
        if not sieve[i]:
            sieve[i * i :: i] = b"\x01" * ((bound - i * i) // i + 1)
    return [i for i in range(2, bound + 1) if not sieve[i]]


def trial_division_factors(coeffs, p):
    """List of (monic factor, multiplicity) of a monic poly mod p by trial
    division over monic polynomials of ascending degree."""

    def polydiv(num, den):
        num = list(num)
        out = [0] * (len(num) - len(den) + 1)
        for shift in range(len(num) - len(den), -1, -1):
            lead = num[shift + len(den) - 1] % p
            out[shift] = lead
            for i in range(len(den)):
                num[shift + i] = (num[shift + i] - lead * den[i]) % p
        rem = [c % p for c in num[: len(den) - 1]]
        while rem and rem[-1] == 0:
            rem.pop()
        return out, rem

    f = [c % p for c in coeffs]
    assert f and f[-1] == 1
    factors = []
    d = 1
    while len(f) > 1:
        if len(f) - 1 < 2 * d:
            factors.append((tuple(f), 1))
            break
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            mult = 0
            while len(f) - 1 >= d:
                quot, rem = polydiv(f, divisor)
                if rem:
                    break
                f = quot
                mult += 1
            if mult:
                factors.append((tuple(divisor), mult))
                if len(f) == 1:
                    break
        if len(f) == 1:
            break
        d += 1
    return factors


def trial_division_degree_pattern(coeffs, p):
    """Degree pattern with ramification reported as None, via
    trial_division_factors."""
    factors = trial_division_factors(coeffs, p)
    if any(mult > 1 for _, mult in factors):
        return None
    return tuple(
        sorted((len(f) - 1 for f, _ in factors), reverse=True)
    )


def sympy_degree_pattern(coeffs, p):
    """Factor degree multiset of the poly mod p via sympy, None if any
    factor repeats (sympy imported lazily; only tests need it)."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor

    desc = [ZZ(c % p) for c in reversed(coeffs)]
    _, factors = gf_factor(desc, p, ZZ)
    if any(mult > 1 for _, mult in factors):
        return None
    degrees = [len(fac) - 1 for fac, _ in factors if len(fac) > 1]
    return tuple(sorted(degrees, reverse=True))


def vertex_perm(graph, p):
    """Vertex permutation covered by a dart automorphism p of the graph."""
    images = [None] * graph.vertex_count
    for d in range(graph.dart_count):
        v = graph.vertex_of(d)
        w = graph.vertex_of(p.images[d])
        if images[v] is None:
            images[v] = w
        elif images[v] != w:
            raise ValueError("dart permutation does not cover a vertex map")
    if None in images:
        raise ValueError("a vertex with no dart has no image under a dart permutation")
    return Perm(images)


def vertex_orbits(aut):
    """Orbits of the vertex generators of a GraphAut, each sorted, by least vertex."""
    from degenera.perms import PermGroup

    gens = [Perm(s) for s in aut.vertex_gens]
    return PermGroup(aut.graph.vertex_count, gens).orbits()


def _lifted_stabilizer(aut, start, count, index):
    """Stabilizer of lifted point start + index, restricted back to the darts.

    The lifted group acts on darts 0..D-1, vertices from D and edges from
    D + V; each generator's vertex images come from vertex_perm and its
    edge images from d >> 1 on the even darts.
    """
    from degenera.perms import PermGroup

    if not 0 <= index < count:
        raise ValueError("index %d out of range 0..%d" % (index, count - 1))
    graph = aut.graph
    darts, vertices = graph.dart_count, graph.vertex_count
    lifted = PermGroup(
        darts + vertices + graph.edge_count,
        [
            Perm(
                g.images
                + tuple(darts + w for w in vertex_perm(graph, g).images)
                + tuple(darts + vertices + (d >> 1) for d in g.images[::2])
            )
            for g in aut.group.generators
        ],
    )
    fixed = lifted.pointwise_stabilizer((start + index,))
    return PermGroup(darts, [Perm(h.images[:darts]) for h in fixed.generators])


def explicit_kernel(graph):
    """The kernel of the vertex action as dart permutations: per parallel
    class, keys sorted, the swap of each pair of adjacent edges, then the
    flip of every loop in edge order."""
    gens = []
    for (u, v), edge_ids in graph.parallel_classes().items():
        for e, f in zip(edge_ids, edge_ids[1:]):
            images = list(range(graph.dart_count))
            if u == v:
                pairs = [(2 * e, 2 * f), (2 * e + 1, 2 * f + 1)]
            else:
                pairs = [(graph.dart_at(e, w), graph.dart_at(f, w)) for w in (u, v)]
            for a, b in pairs:
                images[a], images[b] = b, a
            gens.append(Perm(images))
    for e in range(graph.edge_count):
        if graph.is_loop(e):
            images = list(range(graph.dart_count))
            images[2 * e], images[2 * e + 1] = 2 * e + 1, 2 * e
            gens.append(Perm(images))
    return gens


def explicit_group(aut):
    """Aut with every kernel generator explicit, then the lifts."""
    from degenera.perms import PermGroup

    lifts = [Perm(p) for p in aut.lifts]
    return PermGroup(aut.graph.dart_count, explicit_kernel(aut.graph) + lifts)


def explicit_root_stabilizer(aut):
    """The stabilizer of the search's root: every kernel generator, then
    the lifts of the vertex generators fixing the root."""
    from degenera.perms import PermGroup

    root = aut.root
    lifts = [Perm(p) for p, s in zip(aut.lifts, aut.vertex_gens) if s[root] == root]
    return PermGroup(aut.graph.dart_count, explicit_kernel(aut.graph) + lifts)


def image_order(group, orbit):
    """The order of a PermGroup's image on one of its orbits, from a
    Schreier-Sims chain on the orbit's points."""
    from degenera.perms import PermGroup

    position = {x: i for i, x in enumerate(orbit)}
    images = [Perm([position[g.images[x]] for x in orbit]) for g in group.generators]
    return PermGroup(len(orbit), images).order()


def vertex_stabilizer(aut, v):
    """G2 = Stab(v) from a Schreier-Sims chain on the lifted points pinned at v."""
    return _lifted_stabilizer(aut, aut.graph.dart_count, aut.graph.vertex_count, v)


def edge_stabilizer(aut, e):
    """Stabilizer of edge e (its darts may swap), from a chain pinned at e."""
    graph = aut.graph
    start = graph.dart_count + graph.vertex_count
    return _lifted_stabilizer(aut, start, graph.edge_count, e)


def tower_groups(cd):
    """G1, G2, G3 and G4 of a tower as Schreier-Sims chain-built groups.

    G2 and G4 are point stabilizers of the lifted action restricted to the
    darts, and G3 fixes the base dart inside G2: the chain route that the
    orbit-stabilizer orders of the tower are checked against.
    """
    from degenera.graphs import automorphism_group

    aut = automorphism_group(cd.graph)
    g2 = vertex_stabilizer(aut, cd.base_vertex)
    return (
        aut.group,
        g2,
        g2.pointwise_stabilizer((cd.base_dart,)),
        edge_stabilizer(aut, cd.base_edge),
    )


def coset_gamma_dagger(cd):
    """Graph rebuilt from a stabilizer tower by explicit coset tables.

    Darts are the cosets G1/G3; dart gG3 sits at vertex gG2 on edge gG4,
    each coset found by linear search through a CosetAction.  This keeps
    the reconstruction's coset claim under test independently of the
    package's walk of the orbit of the base dart.
    """
    from degenera.graphs import DartGraph
    from degenera.perms import CosetAction

    g1, g2, g3, g4 = tower_groups(cd)
    dart_cosets = CosetAction(g1, g3)
    vertex_cosets = CosetAction(g1, g2)
    edge_cosets = CosetAction(g1, g4)
    by_edge = {}
    dart_vertex = []
    for d, rep in enumerate(dart_cosets.transversal):
        dart_vertex.append(vertex_cosets.coset_index(rep))
        by_edge.setdefault(edge_cosets.coset_index(rep), []).append(d)
    edges = [(dart_vertex[a], dart_vertex[b]) for a, b in by_edge.values()]
    return DartGraph(vertex_cosets.coset_count, edges, require_connected=False)


def coset_even_orbit_search(group, subgroup, point):
    """Even-orbit search by the image rule over an explicit coset table.

    subgroup must fix point.  Coset gH is read as the point g(point), so
    each element of the group (enumerated through its chain) acts on
    Ω = group·point through a CosetAction permutation.  The distinct images
    are ranked as the package ranks them: a power-of-two order that no
    image fixing coset 0 has first, then order, then the image tuple.
    Returns None when no image has only even cycles, else the chosen image
    (the image of each point of Ω, in sorted order) and its cycle lengths,
    sorted descending: the chosen image has 2-power order, so the odd
    power that the package reports keeps those lengths.
    """
    from degenera.perms import CosetAction

    action = CosetAction(group, subgroup)
    points = [rep.images[point] for rep in action.transversal]
    omega = sorted(points)
    images = set()
    for p in group_elements(group):
        on_cosets = action.permutation(Perm(p)).images
        moved = dict(zip(points, (points[j] for j in on_cosets)))
        images.add(tuple(moved[x] for x in omega))
    orders = {}
    fixed_orders = set()
    for image in images:
        sizes = [len(c) for c in omega_cycles(omega, image)]
        orders[image] = math.lcm(*sizes)
        if image[omega.index(point)] == point:
            fixed_orders.add(orders[image])
    even = [
        image for image in images
        if all(len(c) % 2 == 0 for c in omega_cycles(omega, image))
    ]
    if not even:
        return None

    def rank(image):
        k = orders[image]
        return (not (k & (k - 1) == 0 and k not in fixed_orders), k, image)

    best = min(even, key=rank)
    sizes = sorted((len(c) for c in omega_cycles(omega, best)), reverse=True)
    return best, tuple(sizes)


def omega_cycles(omega, image):
    """Cycles of the map omega[i] -> image[i], fixed points included."""
    moved = dict(zip(omega, image))
    seen = set()
    cycles = []
    for x in omega:
        if x not in seen:
            cycle = [x]
            seen.add(x)
            while moved[cycle[-1]] != x:
                cycle.append(moved[cycle[-1]])
                seen.add(cycle[-1])
            cycles.append(tuple(cycle))
    return cycles


def odd_powers(images):
    """The odd powers of a permutation given as an image tuple."""
    p = Perm(images)
    return [(p**k).images for k in range(1, p.order() + 1, 2)]


def relabel_graph(graph, vertex_images, shuffle_edges=None):
    """Copy of the graph under a vertex bijection, optionally with edges
    reordered and endpoints flipped to exercise representation choices."""
    from degenera.graphs import DartGraph

    edges = [(vertex_images[u], vertex_images[v]) for u, v in graph.edges]
    if shuffle_edges is not None:
        edges = [edges[i] for i in shuffle_edges]
        edges = [
            (v, u) if k % 2 else (u, v) for k, (u, v) in enumerate(edges)
        ]
    return DartGraph(graph.vertex_count, edges)


def random_connected_multigraph(rng, vertex_count, extra_edges, min_degree=None):
    """Random connected multigraph: a random spanning tree plus random
    extra edges (loops allowed), topped up until min_degree is met."""
    from degenera.graphs import DartGraph

    edges = []
    for v in range(1, vertex_count):
        edges.append((rng.randrange(v), v))
    for _ in range(extra_edges):
        u = rng.randrange(vertex_count)
        v = rng.randrange(vertex_count)
        edges.append((u, v))
    if min_degree is not None:
        while True:
            degrees = [0] * vertex_count
            for u, v in edges:
                degrees[u] += 1
                degrees[v] += 1
            short = [v for v in range(vertex_count) if degrees[v] < min_degree]
            if not short:
                break
            v = short[0]
            edges.append((v, rng.randrange(vertex_count)))
    return DartGraph(vertex_count, edges)


def complete_bipartite(a, b):
    """K_{a,b} with part A on 0..a-1 and part B on a..a+b-1."""
    from degenera.graphs import DartGraph

    return DartGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def graph_text(graph):
    """The graph in the plain text format that DartGraph.parse reads."""
    lines = ["vertices %d" % graph.vertex_count]
    lines.extend("edge %d %d" % (u, v) for u, v in graph.edges)
    return "\n".join(lines) + "\n"


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


def petersen_graph():
    """The Petersen graph: outer 5-cycle, inner pentagram, five spokes."""
    from degenera.graphs import DartGraph

    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return DartGraph(10, edges)


def prism_graph(n):
    """The prism C_n x K_2: two n-cycles joined by n rungs."""
    from degenera.graphs import DartGraph

    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return DartGraph(2 * n, edges)


def admissible_by_chain(graph):
    """Admissibility from a Schreier-Sims chain on the darts pinned at every
    dart of a vertex of degree >= 4: the subgroup fixing them is trivial."""
    from degenera.graphs import automorphism_group

    constrained = [
        d for d in range(graph.dart_count) if graph.degree(graph.vertex_of(d)) >= 4
    ]
    group = automorphism_group(graph).group
    return group.pointwise_stabilizer(constrained).order() == 1


def networkx_vertex_automorphisms(graph):
    """Every multiplicity- and loop-preserving vertex automorphism, as a
    tuple of images, from networkx's MultiGraphMatcher (imported lazily)."""
    from networkx.algorithms.isomorphism import MultiGraphMatcher

    ng = _networkx_multigraph(graph)
    return [
        tuple(m[v] for v in range(graph.vertex_count))
        for m in MultiGraphMatcher(ng, ng).isomorphisms_iter()
    ]


def _networkx_multigraph(graph):
    import networkx as nx

    ng = nx.MultiGraph()
    ng.add_nodes_from(range(graph.vertex_count))
    ng.add_edges_from(graph.edges)
    return ng


def networkx_dart_isomorphism(a, b):
    """A dart bijection a -> b, or None: networkx's first MultiGraphMatcher
    vertex isomorphism, lifted k-th parallel edge to k-th parallel edge
    (dart 2e sits at a.edges[e][0], dart 2e+1 at a.edges[e][1])."""
    from networkx.algorithms.isomorphism import MultiGraphMatcher

    if a.edge_count != b.edge_count:
        return None
    matcher = MultiGraphMatcher(_networkx_multigraph(a), _networkx_multigraph(b))
    sigma = next(matcher.isomorphisms_iter(), None)
    if sigma is None:
        return None
    pools = {}
    for f, (x, y) in enumerate(b.edges):
        pools.setdefault((min(x, y), max(x, y)), []).append(f)
    images = []
    for u, v in a.edges:
        su, sv = sigma[u], sigma[v]
        f = pools[(min(su, sv), max(su, sv))].pop(0)
        flip = int(b.edges[f][0] != su)
        images += [2 * f + flip, 2 * f + 1 - flip]
    return images


def dart_group_order(graph, vertex_automorphism_count):
    """|Aut| on darts from the vertex automorphism count: the kernel of the
    vertex action permutes each class of m parallel edges (m!) and each
    class of k loops at a vertex, flipping loops too (k! 2^k)."""
    order = vertex_automorphism_count
    for (u, v), edge_ids in graph.parallel_classes().items():
        k = len(edge_ids)
        order *= math.factorial(k) * (2**k if u == v else 1)
    return order


def breadth_first_base(graph):
    """Vertices in breadth-first order from vertex 0, neighbours ascending."""
    neighbours = [set() for _ in range(graph.vertex_count)]
    for u, v in graph.edges:
        if u != v:
            neighbours[u].add(v)
            neighbours[v].add(u)
    order = [0]
    seen = {0}
    for x in order:
        for y in sorted(neighbours[x]):
            if y not in seen:
                seen.add(y)
                order.append(y)
    return order


def listed_search_order(graph, prefix):
    """The vertex search order from one queue over the order list: the
    prefix, then breadth-first from it, neighbours ascending, and from the
    smallest unvisited vertex of each component left."""
    nbrs = [set() for _ in range(graph.vertex_count)]
    for u, v in graph.edges:
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    order, seen, head = list(prefix), set(prefix), 0
    for start in range(len(nbrs)):
        while head < len(order):
            for y in sorted(nbrs[order[head]]):
                if y not in seen:
                    seen.add(y)
                    order.append(y)
            head += 1
        if start not in seen:
            seen.add(start)
            order.append(start)
    return order


def base_orbit_bound(automorphisms, base):
    """Sum over base levels of (orbit length - 1), each orbit that of b_i
    under the automorphisms fixing b_0..b_(i-1), read off the full list."""
    bound = 0
    for i, b in enumerate(base):
        fixing = [s for s in automorphisms if all(s[x] == x for x in base[:i])]
        bound += len({s[b] for s in fixing}) - 1
    return bound


def _signatures(vertex_count, edges):
    """Per vertex: (degree, loop count, sorted multiplicities to the others)."""
    loops = [0] * vertex_count
    mult = [{} for _ in range(vertex_count)]
    for u, v in edges:
        if u == v:
            loops[u] += 1
        else:
            mult[u][v] = mult[u].get(v, 0) + 1
            mult[v][u] = mult[v].get(u, 0) + 1
    return [
        (2 * loops[x] + sum(mult[x].values()), loops[x], tuple(sorted(mult[x].values())))
        for x in range(vertex_count)
    ]


def labelled_stable_multigraphs(genus):
    """Connected stable multigraphs of the genus (loops allowed) as DartGraphs
    on 0..n-1, each labelled so its vertex signatures (degree, loop count,
    sorted multiplicities) do not increase; every isomorphism class has such
    a labelling, most have several.

    Stability gives 3n <= 2|E| = 2(n + genus - 1), so n <= 2 genus - 2.  For
    each n and each non-increasing degree sequence the multiplicities of
    the vertex pairs, loops included, are chosen in row order, row i ending
    with degree i met."""
    from degenera.graphs import DartGraph

    def degree_sequences(count, total, cap):
        if count == 0:
            if total == 0:
                yield ()
            return
        for d in range(min(cap, total - 3 * (count - 1)), 2, -1):
            for rest in degree_sequences(count - 1, total - d, d):
                yield (d,) + rest

    out = []
    for n in range(1, 2 * genus - 1):
        edge_count = n + genus - 1
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        for degrees in degree_sequences(n, 2 * edge_count, 2 * edge_count):
            need = list(degrees)
            chosen = []

            def fill(k):
                if k == len(pairs):
                    yield list(chosen)
                    return
                i, j = pairs[k]
                top = need[i] // 2 if i == j else min(need[i], need[j])
                for m in range(top, -1, -1):
                    need[i] -= 2 * m if i == j else m
                    need[j] -= 0 if i == j else m
                    if j < n - 1 or not need[i]:
                        chosen.extend([(i, j)] * m)
                        yield from fill(k + 1)
                        del chosen[len(chosen) - m:]
                    need[i] += 2 * m if i == j else m
                    need[j] += 0 if i == j else m

            for edges in fill(0):
                sigs = _signatures(n, edges)
                if all(a >= b for a, b in zip(sigs, sigs[1:])):
                    try:
                        out.append(DartGraph(n, edges))
                    except ValueError:  # not connected
                        pass
    return out


def brute_canonical_form(graph):
    """The least sorted edge list over every relabelling that permutes only
    vertices of equal signature, for a graph labelled as
    labelled_stable_multigraphs labels it: two such labellings of one
    graph differ by exactly such a permutation."""
    sigs = _signatures(graph.vertex_count, graph.edges)
    blocks = []
    for x in range(graph.vertex_count):
        if x and sigs[x] == sigs[x - 1]:
            blocks[-1].append(x)
        else:
            blocks.append([x])
    best = None
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        p = [y for block in images for y in block]
        key = sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in graph.edges)
        if best is None or key < best:
            best = key
    return (graph.vertex_count, tuple(best))


@functools.lru_cache(maxsize=None)
def stable_graphs_by_canonical_form(genus):
    """One graph per isomorphism class of connected stable multigraphs of the
    genus, deduplicated by brute_canonical_form; built once per genus and
    shared, so a tuple."""
    classes = {}
    for g in labelled_stable_multigraphs(genus):
        classes.setdefault(brute_canonical_form(g), g)
    return tuple(classes.values())


def stable_graphs_by_networkx(genus):
    """One graph per isomorphism class, deduplicated by networkx's multigraph
    isomorphism test against the classes found so far with the same
    sorted signatures."""
    import networkx as nx

    buckets = {}
    for g in labelled_stable_multigraphs(genus):
        bucket = buckets.setdefault(tuple(sorted(_signatures(g.vertex_count, g.edges))), [])
        ng = _networkx_multigraph(g)
        if not any(nx.is_isomorphic(ng, other) for _, other in bucket):
            bucket.append((g, ng))
    return [g for bucket in buckets.values() for g, _ in bucket]
