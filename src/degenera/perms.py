"""Permutation groups on {0, ..., n-1} with coset actions and even-orbit search.

A permutation is stored as its image tuple, so p sends i to p.images[i].
Products compose right-to-left: (a * b)(x) = a(b(x)).  Groups build, on
demand, a deterministic stabilizer chain (Schreier-Sims with the base
chosen greedily on first moved points, completed without recursion),
which gives order, membership and element enumeration without randomness.

even_orbit_search builds no chain on the group's own points: it works on
the image of the group on one orbit Ω, whose order it reads from a chain on
the |Ω| points and whose elements it walks breadth-first, and it lifts the
image it chooses along a word in the generators.  CosetAction and
verify_certificate re-check a certificate from the chain of the whole
group, independently of that search.  Everything in this module is exact
and reproducible: identical inputs yield identical outputs, including the
certificate picked by even_orbit_search.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

DEFAULT_ENUMERATION_CAP = 10**6


class EnumerationCapError(RuntimeError):
    """Raised when an operation would enumerate more group elements than allowed."""


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

    @classmethod
    def from_cycles(cls, degree, cycles):
        """Build a permutation from disjoint cycles, e.g. from_cycles(4, [(0, 1, 2)])."""
        images = list(range(degree))
        seen = set()
        for cyc in cycles:
            for x in cyc:
                if x in seen:
                    raise ValueError("cycles are not disjoint at point %d" % x)
                seen.add(x)
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return cls(images)

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

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return "Perm(%r)" % list(self.images)


class _ChainLevel:
    __slots__ = ("point", "gens", "transversal", "order_list", "checked")

    def __init__(self, point, degree):
        self.point = point
        self.gens = []
        self.transversal = {point: Perm.identity(degree)}
        self.order_list = [point]
        self.checked = set()


class _StabilizerChain:
    """Deterministic Schreier-Sims stabilizer chain.

    Strong generators are stored at the deepest level whose base prefix they
    fix; the generating set of level i is the union of the lists at levels
    >= i.  An optional base_prefix pins the first base points, which makes
    pointwise stabilizers read off as chain suffixes.
    """

    def __init__(self, degree, generators, base_prefix=()):
        self.degree = degree
        self.levels = []
        for b in base_prefix:
            self._new_level(b)
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree %d != %d" % (g.degree, degree))
            self._park(g)
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

    def _park(self, g):
        residue, i = self.sift(g)
        if residue.is_identity():
            return
        if i == len(self.levels):
            self._new_level(residue.first_moved())
        self.levels[i].gens.append(residue)

    def _rebuild_orbit(self, i):
        lvl = self.levels[i]
        gens = self._gens_for(i)
        lvl.transversal = {lvl.point: Perm.identity(self.degree)}
        lvl.order_list = [lvl.point]
        queue = 0
        while queue < len(lvl.order_list):
            x = lvl.order_list[queue]
            queue += 1
            ux = lvl.transversal[x]
            for g in gens:
                y = g.images[x]
                if y not in lvl.transversal:
                    lvl.transversal[y] = g * ux
                    lvl.order_list.append(y)

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
            for x in lvl.order_list:
                key = (g.images, x)
                if key in lvl.checked:
                    continue
                lvl.checked.add(key)
                s = g * lvl.transversal[x]
                residue = lvl.transversal[s.images[lvl.point]].inverse() * s
                if residue.is_identity():
                    continue
                residue, j = self.sift(residue, i + 1)
                if residue.is_identity():
                    continue
                if j == len(self.levels):
                    self._new_level(residue.first_moved())
                self.levels[j].gens.append(residue)
                return j
        return None

    def order(self):
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n

    def iter_elements(self):
        """All group elements, one per transversal combination, in a fixed order.

        The combinations run like an odometer, the last level fastest;
        prefix[i] is the product of the representatives chosen at levels
        before i, so each element costs one product.
        """
        reps = [[lvl.transversal[x] for x in sorted(lvl.transversal)] for lvl in self.levels]
        prefix = [Perm.identity(self.degree)]
        chosen = []
        while True:
            while len(chosen) < len(reps):
                chosen.append(0)
                prefix.append(prefix[-1] * reps[len(chosen) - 1][0])
            yield prefix[-1]
            while chosen and chosen[-1] + 1 == len(reps[len(chosen) - 1]):
                chosen.pop()
                prefix.pop()
            if not chosen:
                return
            chosen[-1] += 1
            prefix[-1] = prefix[-2] * reps[len(chosen) - 1][chosen[-1]]

    def suffix(self, k):
        """A fresh chain view for the subgroup fixing the first k base points."""
        sub = object.__new__(_StabilizerChain)
        sub.degree = self.degree
        sub.levels = self.levels[k:]
        return sub


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

    @classmethod
    def _from_chain(cls, degree, generators, chain):
        group = cls(degree, generators)
        group._chain_obj = chain
        return group

    def order(self):
        return self._chain.order()

    def __contains__(self, p):
        if not isinstance(p, Perm) or p.degree != self.degree:
            return False
        return self._chain.contains(p)

    def contains_group(self, other):
        """True when every generator of other lies in this group."""
        return other.degree == self.degree and all(g in self for g in other.generators)

    def is_trivial(self):
        return self.order() == 1

    def elements(self, cap=DEFAULT_ENUMERATION_CAP):
        """All elements in a deterministic order.  Refuses to exceed cap."""
        n = self.order()
        if n > cap:
            raise EnumerationCapError(
                "enumeration cap exceeded: group order %d > cap %d" % (n, cap)
            )
        return list(self._chain.iter_elements())

    def orbit(self, point):
        """Orbit of a point as a set."""
        if not 0 <= point < self.degree:
            raise ValueError("point %d out of range 0..%d" % (point, self.degree - 1))
        seen = {point}
        queue = [point]
        while queue:
            x = queue.pop()
            for g in self.generators:
                y = g.images[x]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen

    def orbits(self, points=None):
        """Orbit partition of the given points (default all), sorted by minimum."""
        if points is None:
            points = range(self.degree)
        wanted = set(points)
        placed = set()
        out = []
        for x in sorted(wanted):
            if x not in placed:
                orb = self.orbit(x)
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
        sub = chain.suffix(len(prefix))
        gens = [g for lvl in sub.levels for g in lvl.gens]
        return PermGroup._from_chain(self.degree, gens, sub)


def group_from_generators(generators, degree=None):
    """PermGroup spanned by the generators; degree defaults to theirs."""
    generators = list(generators)
    if degree is None:
        if not generators:
            raise ValueError("degree required for an empty generating set")
        degree = generators[0].degree
    return PermGroup(degree, generators)


class CosetAction:
    """Left action of a group on the left cosets of a subgroup.

    Coset 0 is the subgroup itself and the transversal is built
    breadth-first from the group generators, so the numbering is
    deterministic.  g0 sends coset gH to (g0 g)H.
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


def _image_walk(generators):
    """Breadth-first walk of the group generated by permutations of 0..m-1.

    generators are image tuples, at least one.  Returns the elements as
    image tuples in walk order, the identity first, and for each element
    after the first the pair (earlier element index, generator index)
    whose product gives it: element = generators[j] * elements[i].
    """
    identity = tuple(range(len(generators[0])))
    elements = [identity]
    seen = {identity}
    parents = [None]
    for i, a in enumerate(elements):
        for j, g in enumerate(generators):
            b = tuple(map(g.__getitem__, a))
            if b not in seen:
                seen.add(b)
                elements.append(b)
                parents.append((i, j))
    return elements, parents


def _best_image(group, point, cap):
    """The image on Ω = orbit(point) that even_orbit_search certifies with.

    Returns (Ω as a sorted tuple, the image as a permutation of positions
    in Ω, the generator indices whose product lifts it, outermost first),
    or None when no image has only even cycles.  Raises
    EnumerationCapError before the walk when the image has more than cap
    elements.
    """
    orbit = tuple(sorted(group.orbit(point)))
    if len(orbit) % 2:
        return None
    position = {x: i for i, x in enumerate(orbit)}
    on_orbit = [tuple(position[g.images[x]] for x in orbit) for g in group.generators]
    size = PermGroup(len(orbit), map(Perm._unchecked, on_orbit)).order()
    if size > cap:
        raise EnumerationCapError(
            "enumeration cap exceeded: the image on an orbit of %d points has "
            "%d elements > cap %d" % (len(orbit), size, cap)
        )
    elements, parents = _image_walk(on_orbit)
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


def even_orbit_search(group, point, cap=DEFAULT_ENUMERATION_CAP):
    """Search for an element whose cycles on the orbit Ω of point all have even length.

    Ω is the coset space group/Stab(point), so an element's cycle lengths
    on Ω, fixed points included, are its cyclic orbit sizes on those
    cosets, and whether they are all even depends only on the element's
    image in the action on Ω.  An odd |Ω| leaves an odd cycle under every
    element and ends the search at once.  Otherwise the image of the group
    on Ω (at most |Ω|! elements) is walked breadth-first, keeping one word
    in the generators per image element; the order of the image is read
    first from a stabilizer chain on the |Ω| points, and an image larger
    than cap is refused before the walk.  Image elements are ranked by
    the rule: first those whose order is a power of two that no image
    element fixing point has (such an element fixes no point of Ω, so its
    cycles are all even), then by increasing order, then by the image
    tuple.  The best one with only even cycles has 2-power order, since
    the power of an image that keeps only its 2-part has even cycles too
    and ranks no later.  It is lifted by multiplying along its word to
    some g in the group, and the certificate is g^k, where k is the odd
    part of the order of g: an odd power keeps every 2-power cycle on Ω,
    and the order of g^k is a power of two.  Returns an OrbitCertificate,
    or None when no image element has only even cycles.
    """
    found = _best_image(group, point, cap)
    if found is None:
        return None
    orbit, _, word = found
    g = Perm.identity(group.degree)
    for j in word:
        g = g * group.generators[j]
    n = g.order()
    element = g ** (n // (n & -n))
    on_orbit = set(orbit)
    sizes = sorted(
        (len(c) for c in element.cycles(include_fixed=True) if c[0] in on_orbit),
        reverse=True,
    )
    return OrbitCertificate(
        element=element, element_order=element.order(), orbit_sizes=tuple(sizes)
    )


def verify_certificate(cert, group, subgroup):
    """Recompute a certificate's orbit sizes from scratch and check evenness."""
    if cert.element not in group:
        return False
    if cert.element.order() != cert.element_order:
        return False
    sizes = CosetAction(group, subgroup).cyclic_orbit_sizes(cert.element)
    return sizes == tuple(cert.orbit_sizes) and all(s % 2 == 0 for s in sizes)
