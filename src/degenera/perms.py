"""Permutation groups on {0, ..., n-1} with coset actions and even-orbit search.

A permutation is stored as its image tuple, so p sends i to p.images[i].
Products compose right-to-left: (a * b)(x) = a(b(x)).  Groups build, on
demand, a deterministic stabilizer chain (Schreier-Sims with the base
chosen greedily on first moved points, completed without recursion),
which gives order, membership and pointwise stabilizers without
randomness; no command builds one.

Two breadth-first walks serve the package: orbit_walk (orbits, the
vertex base) and _walk_tree, which also keeps how each point was reached
(the chain's transversals, and the word lifting the image that
even_orbit_search picks on one orbit Ω, the caller bounding its size).
CosetAction and verify_certificate re-check a certificate from the chain
of the whole group, independently of that search, and so does
pointwise_stabilizer.  Everything in this module is exact and
reproducible: identical inputs yield identical outputs, including the
certificate picked by even_orbit_search and the breadth-first order of
every orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm


class Perm:
    """A permutation of {0, ..., degree-1} stored as a one-line image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation of 0..n-1: %r" % (images,))
        self.images = images

    @classmethod
    def _unchecked(cls, images):
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree):
        return cls._unchecked(tuple(range(degree)))

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch: %d vs %d" % (self.degree, other.degree))
        a = self.images
        return Perm._unchecked(tuple(map(a.__getitem__, other.images)))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Perm._unchecked(tuple(inv))

    def __pow__(self, k):
        n = len(self.images)
        if k < 0:
            return self.inverse() ** (-k)
        result = Perm.identity(n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_identity(self):
        return self.images == tuple(range(len(self.images)))

    def first_moved(self):
        """Smallest point not fixed, or None for the identity."""
        for i, x in enumerate(self.images):
            if x != i:
                return i
        return None

    def cycles(self, include_fixed=False):
        """Disjoint cycles, each starting at its smallest point, ordered by that point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def order(self):
        cycs = self.cycles()
        if not cycs:
            return 1
        return lcm(*(len(c) for c in cycs))

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Perm(%r)" % list(self.images)


def orbit_walk(starts, step):
    """The distinct starts in their order, then breadth-first what step
    reaches from them; step(x) lists x's neighbours in visit order."""
    walk, seen = list(starts), set(starts)
    for x in walk:
        for y in step(x):
            if y not in seen:
                seen.add(y)
                walk.append(y)
    return walk


def _walk_tree(start, step):
    """orbit_walk((start,), step) with the tree it grows: returns the walk
    and, per point, None for the start, else (index in the walk of the
    point that first reached it, index of the point in that step)."""
    walk, seen, parents = [start], {start}, [None]
    for i, x in enumerate(walk):
        for j, y in enumerate(step(x)):
            if y not in seen:
                seen.add(y)
                walk.append(y)
                parents.append((i, j))
    return walk, parents


class _ChainLevel:
    __slots__ = ("point", "gens", "transversal", "checked")

    def __init__(self, point, degree):
        self.point = point
        self.gens = []
        self.transversal = {point: Perm.identity(degree)}
        self.checked = set()


class _StabilizerChain:
    """Deterministic Schreier-Sims stabilizer chain.

    Strong generators are stored at the deepest level whose base prefix they
    fix; the generating set of level i is the union of the lists at levels
    >= i.  An optional base_prefix pins the first base points; the strong
    generators past the prefix then generate their pointwise stabilizer.
    """

    def __init__(self, degree, generators, base_prefix=()):
        self.degree = degree
        self.levels = []
        for b in base_prefix:
            self._new_level(b)
        for g in generators:
            self._park(g, 0)
        self._complete()

    def _new_level(self, point):
        self.levels.append(_ChainLevel(point, self.degree))

    def _gens_for(self, i):
        return [g for lvl in self.levels[i:] for g in lvl.gens]

    def sift(self, p, start=0):
        """Reduce p from level start on; returns (residue, level index where it stuck)."""
        for i in range(start, len(self.levels)):
            lvl = self.levels[i]
            x = p.images[lvl.point]
            u = lvl.transversal.get(x)
            if u is None:
                return p, i
            if x != lvl.point:
                p = u.inverse() * p
        return p, len(self.levels)

    def contains(self, p):
        residue, _ = self.sift(p)
        return residue.is_identity()

    def _park(self, g, start):
        """Sift g from level start on and keep its residue, unless it is the
        identity, at the level where it stuck; returns that level, or None."""
        residue, i = self.sift(g, start)
        if residue.is_identity():
            return None
        if i == len(self.levels):
            self._new_level(residue.first_moved())
        self.levels[i].gens.append(residue)
        return i

    def _rebuild_orbit(self, i):
        """Level i's transversal from its Schreier tree, keyed in walk order."""
        lvl = self.levels[i]
        gens = self._gens_for(i)
        walk, parents = _walk_tree(lvl.point, lambda x: [g.images[x] for g in gens])
        lvl.transversal = transversal = {lvl.point: Perm.identity(self.degree)}
        for y, (k, j) in zip(walk[1:], parents[1:]):
            transversal[y] = gens[j] * transversal[walk[k]]

    def _complete(self):
        """Verify every level's Schreier generators, deepest level first.

        Levels below i are complete while level i is checked.  A residue
        that fails to sift joins the level where it stuck, and the check
        moves down to that level, so every level whose generating set grew
        is checked again on the way back up.  Pairs already checked are not
        repeated, and no call recurses.
        """
        i = len(self.levels) - 1
        while i >= 0:
            j = self._first_new_residue(i)
            i = i - 1 if j is None else j

    def _first_new_residue(self, i):
        """Check level i's unchecked Schreier generators until one does not sift.

        Returns the level that residue joined, or None when level i is
        complete.
        """
        self._rebuild_orbit(i)
        lvl = self.levels[i]
        for g in self._gens_for(i):
            for x in lvl.transversal:
                key = (g.images, x)
                if key in lvl.checked:
                    continue
                lvl.checked.add(key)
                s = g * lvl.transversal[x]
                residue = lvl.transversal[s.images[lvl.point]].inverse() * s
                j = self._park(residue, i + 1)
                if j is not None:
                    return j
        return None

    def order(self):
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n


class PermGroup:
    """Group generated by a list of permutations of common degree."""

    def __init__(self, degree, generators):
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree %d != %d" % (g.degree, degree))
        self.degree = degree
        self.generators = tuple(g for g in generators if not g.is_identity())
        self._chain_obj = None

    @property
    def _chain(self):
        if self._chain_obj is None:
            self._chain_obj = _StabilizerChain(self.degree, self.generators)
        return self._chain_obj

    def order(self):
        return self._chain.order()

    def __contains__(self, p):
        if not isinstance(p, Perm) or p.degree != self.degree:
            return False
        return self._chain.contains(p)

    def contains_group(self, other):
        """True when every generator of other lies in this group."""
        return other.degree == self.degree and all(g in self for g in other.generators)

    def orbit(self, point):
        """Orbit of a point, listed breadth-first with generators in order."""
        if not 0 <= point < self.degree:
            raise ValueError("point %d out of range 0..%d" % (point, self.degree - 1))
        gens = self.generators
        return orbit_walk((point,), lambda x: [g.images[x] for g in gens])

    def orbits(self, points=None):
        """Orbit partition of the given points (default all), sorted by minimum."""
        if points is None:
            points = range(self.degree)
        wanted = set(points)
        placed = set()
        out = []
        for x in sorted(wanted):
            if x not in placed:
                orb = set(self.orbit(x))
                placed |= orb
                out.append(tuple(sorted(orb & wanted)))
        return out

    def pointwise_stabilizer(self, points):
        """Subgroup fixing every listed point, via a chain with a pinned base prefix."""
        prefix = sorted(set(points))
        for x in prefix:
            if not 0 <= x < self.degree:
                raise ValueError("point %d out of range" % x)
        if not prefix:
            return self
        chain = _StabilizerChain(self.degree, self.generators, base_prefix=prefix)
        return PermGroup(self.degree, chain._gens_for(len(prefix)))


class CosetAction:
    """Left action of a group on the left cosets of a subgroup.

    Coset 0 is the subgroup itself and the transversal is built
    breadth-first from the group generators, so the numbering is
    deterministic.  g0 sends coset gH to (g0 g)H.  The walk is not
    orbit_walk: a coset is seen by a membership search, not a hash.
    """

    def __init__(self, group, subgroup):
        if subgroup.degree != group.degree or not group.contains_group(subgroup):
            raise ValueError("coset action requires a subgroup of the acting group")
        self.group = group
        self.subgroup = subgroup
        self.transversal = [Perm.identity(group.degree)]
        self._rep_inverses = [Perm.identity(group.degree)]
        queue = 0
        while queue < len(self.transversal):
            rep = self.transversal[queue]
            queue += 1
            for g in group.generators:
                moved = g * rep
                if self._find(moved) is None:
                    self.transversal.append(moved)
                    self._rep_inverses.append(moved.inverse())

    @property
    def coset_count(self):
        return len(self.transversal)

    def _find(self, p):
        chain = self.subgroup._chain
        for j, rep_inv in enumerate(self._rep_inverses):
            if chain.contains(rep_inv * p):
                return j
        return None

    def coset_index(self, p):
        """Index of the coset pH."""
        j = self._find(p)
        if j is None:
            raise ValueError("element does not lie in the acting group")
        return j

    def permutation(self, g0):
        """The permutation g0 induces on coset indices."""
        if g0 not in self.group:
            raise ValueError("element is not in the acting group")
        return Perm._unchecked(
            tuple(self.coset_index(g0 * rep) for rep in self.transversal)
        )

    def cyclic_orbit_sizes(self, g0):
        """Orbit sizes of <g0> on the cosets, sorted descending, fixed points included."""
        sizes = [len(c) for c in self.permutation(g0).cycles(include_fixed=True)]
        return tuple(sorted(sizes, reverse=True))


@dataclass(frozen=True)
class OrbitCertificate:
    """A group element whose cyclic orbits on a coset space all have even size."""

    element: Perm
    element_order: int
    orbit_sizes: tuple


def _is_two_power(n):
    return n >= 2 and n & (n - 1) == 0


def _best_image(group, point):
    """The image on Ω = orbit(point) that even_orbit_search certifies with.

    Returns (Ω as a sorted tuple, the image as a permutation of positions
    in Ω, the generator indices whose product lifts it, outermost first),
    or None when no image has only even cycles.
    """
    orbit = tuple(sorted(group.orbit(point)))
    if len(orbit) % 2:
        return None
    position = {x: i for i, x in enumerate(orbit)}
    on_orbit = [tuple(position[g.images[x]] for x in orbit) for g in group.generators]
    moves, identity = [a.__getitem__ for a in on_orbit], tuple(range(len(orbit)))
    elements, parents = _walk_tree(identity, lambda a: [tuple(map(f, a)) for f in moves])
    home = position[point]
    orders = []
    fixed_orders = set()
    even = []
    for i, a in enumerate(elements):
        lengths = [len(c) for c in Perm._unchecked(a).cycles(include_fixed=True)]
        k = lcm(*lengths)
        orders.append(k)
        if a[home] == home:
            fixed_orders.add(k)
        if all(n % 2 == 0 for n in lengths):
            even.append(i)
    if not even:
        return None

    def rank(i):
        k = orders[i]
        return (not (_is_two_power(k) and k not in fixed_orders), k, elements[i])

    best = min(even, key=rank)
    word = []
    i = best
    while parents[i] is not None:
        i, j = parents[i]
        word.append(j)
    return orbit, elements[best], word


def even_orbit_search(group, point):
    """Search for an element whose cycles on the orbit Ω of point all have even length.

    Ω is the coset space group/Stab(point), so an element's cycle lengths on Ω,
    fixed points included, are its cyclic orbit sizes on those cosets, and
    whether they are all even depends only on the element's image in the action
    on Ω.  An odd |Ω| leaves an odd cycle under every element and ends the
    search at once.  Otherwise the image of the group on Ω (at most |Ω|!
    elements) is walked breadth-first, keeping one word in the generators per
    image element.  Image elements are ranked by the rule: first those whose
    order is a power of two that no image element fixing point has (such an
    element fixes no point of Ω, so its cycles are all even), then by
    increasing order, then by the image tuple.  The best one with only even
    cycles has 2-power order, since the power of an image that keeps only its
    2-part has even cycles too and ranks no later.  It is lifted by multiplying
    along its word to some g in the group, and the certificate is g^k, where k
    is the odd part of the order n of g: an odd power keeps every 2-power cycle
    on Ω, so g^k has the cycle lengths of the chosen image there, and its order
    is n & -n, the 2-part of n.  Returns an OrbitCertificate, or None when no
    image element has only even cycles.
    """
    found = _best_image(group, point)
    if found is None:
        return None
    _, image, word = found
    g = Perm.identity(group.degree)
    for j in word:
        g = g * group.generators[j]
    n = g.order()
    sizes = sorted((len(c) for c in Perm._unchecked(image).cycles()), reverse=True)
    return OrbitCertificate(
        element=g ** (n // (n & -n)), element_order=n & -n, orbit_sizes=tuple(sizes)
    )


# remainders mod this power of ten have at most 600 digits, which
# int.__repr__ converts under any digit limit (the lowest is 640)
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def decimal_text(n):
    """int.__repr__(n), also for a nonnegative n of more digits than the
    interpreter converts at once (a group order): its chunks are converted
    lowest first, each below the limit.  The limit itself stays in force."""
    tail = ""
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        tail = "%0*d" % (_CHUNK_DIGITS, low) + tail
    return int.__repr__(n) + tail


def verify_certificate(cert, group, subgroup):
    """Recompute a certificate's orbit sizes from scratch and check evenness."""
    if cert.element not in group:
        return False
    if cert.element.order() != cert.element_order:
        return False
    sizes = CosetAction(group, subgroup).cyclic_orbit_sizes(cert.element)
    return sizes == tuple(cert.orbit_sizes) and all(s % 2 == 0 for s in sizes)
