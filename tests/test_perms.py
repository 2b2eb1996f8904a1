import random
import sys

import pytest

from degenera import perms
from degenera.perms import (
    CosetAction,
    Perm,
    PermGroup,
    even_orbit_search,
    orbit_walk,
    verify_certificate,
)
from helpers import (
    brute_closure,
    brute_coset_orbit_sizes,
    compose_images,
    from_cycles,
    group_elements,
    odd_powers,
)


def s_n(n):
    return PermGroup(n, [from_cycles(n, [(0, 1)]), from_cycles(n, [tuple(range(n))])])


def a4():
    return PermGroup(4, [from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(1, 2, 3)])])


def dihedral(n):
    rotation = from_cycles(n, [tuple(range(n))])
    reflection = Perm([(n - i) % n for i in range(n)])
    return PermGroup(n, [rotation, reflection])


class TestPerm:
    def test_identity_and_call(self):
        p = Perm.identity(5)
        assert p.is_identity() and p(3) == 3 and p.degree == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            Perm([0, 0, 1])
        with pytest.raises(ValueError):
            Perm([0, 2])

    def test_compose_order_convention(self):
        # (a*b)(x) = a(b(x))
        a = Perm([1, 0, 2])
        b = Perm([0, 2, 1])
        assert (a * b).images == (1, 2, 0)
        assert (b * a).images == (2, 0, 1)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            Perm([1, 0]) * Perm([1, 0, 2])

    def test_inverse_pow(self):
        rng = random.Random(11)
        for _ in range(40):
            images = list(range(7))
            rng.shuffle(images)
            p = Perm(images)
            assert (p * p.inverse()).is_identity()
            assert p**0 == Perm.identity(7)
            assert p**3 == p * p * p
            assert p**-2 == (p.inverse()) ** 2
            assert p ** p.order() == Perm.identity(7)

    def test_cycles(self):
        p = from_cycles(6, [(0, 1, 2), (4, 5)])
        assert p.cycles() == [(0, 1, 2), (4, 5)]
        assert p.cycles(include_fixed=True) == [(0, 1, 2), (3,), (4, 5)]
        assert p.order() == 6

    def test_from_cycles_overlap(self):
        with pytest.raises(ValueError):
            from_cycles(4, [(0, 1), (1, 2)])


class TestPermGroup:
    def test_symmetric_group_order(self):
        assert s_n(5).order() == 120

    def test_dihedral_order(self):
        assert dihedral(6).order() == 12

    def test_trivial(self):
        g = PermGroup(4, [])
        assert g.order() == 1
        assert Perm.identity(4) in g
        assert Perm([1, 0, 2, 3]) not in g

    def test_point_stabilizer(self):
        g = s_n(5)
        stab = g.pointwise_stabilizer((0,))
        assert stab.order() == 24
        assert all(p[0] == 0 for p in group_elements(stab))
        assert g.pointwise_stabilizer((0, 1)).order() == 6

    def test_orbits(self):
        g = PermGroup(5, [from_cycles(5, [(0, 1, 2)])])
        assert g.orbits() == [(0, 1, 2), (3,), (4,)]
        assert g.orbit(1) == [1, 2, 0]
        assert g.orbits(points=(3, 4)) == [(3,), (4,)]
        assert g.orbits(points=(1, 4)) == [(1,), (4,)]

    def test_orbit_walk_is_breadth_first(self):
        # 0 reaches 1 and 2, then 1 reaches 4 before 2 reaches 3; a
        # depth-first walk would list 3 before 4
        g = PermGroup(5, [from_cycles(5, [(0, 1), (2, 3)]), from_cycles(5, [(0, 2), (1, 4)])])
        assert g.orbit(0) == [0, 1, 2, 4, 3]

    def test_orbit_walk_lists_its_starts_first(self):
        # the path 0-1-2-3-4 and the lone point 5: the starts 3 and 0 in
        # the given order, then 2 and 4 from 3 before 1 from 0
        path = [[1], [0, 2], [1, 3], [2, 4], [3], []]
        assert orbit_walk((3, 0), path.__getitem__) == [3, 0, 2, 4, 1]
        assert orbit_walk((5, 4), path.__getitem__) == [5, 4, 3, 2, 1, 0]
        assert orbit_walk((5,), path.__getitem__) == [5]
        assert orbit_walk((), path.__getitem__) == []

    def test_contains_group(self):
        g = s_n(4)
        assert g.contains_group(a4())
        assert not a4().contains_group(g)


class TestAgainstBruteForce:
    """The chain engine against plain closure enumeration."""

    def test_seeded_random_generating_sets(self):
        rng = random.Random(2024)
        for trial in range(60):
            degree = rng.randint(2, 7)
            gens = []
            for _ in range(rng.randint(1, 3)):
                images = list(range(degree))
                rng.shuffle(images)
                gens.append(Perm(images))
            group = PermGroup(degree, gens)
            closure = brute_closure([g.images for g in gens])
            assert group.order() == len(closure)
            sample = rng.sample(sorted(closure), min(5, len(closure)))
            for images in sample:
                assert Perm(images) in group
            outside = list(range(degree))
            rng.shuffle(outside)
            assert (tuple(outside) in closure) == (Perm(outside) in group)

    def test_orbit_stabilizer(self):
        rng = random.Random(7)
        for _ in range(30):
            degree = rng.randint(3, 7)
            gens = []
            for _ in range(2):
                images = list(range(degree))
                rng.shuffle(images)
                gens.append(Perm(images))
            group = PermGroup(degree, gens)
            for point in range(degree):
                stab = group.pointwise_stabilizer((point,))
                assert len(group.orbit(point)) * stab.order() == group.order()

    def test_pointwise_stabilizer_matches_filter(self):
        rng = random.Random(13)
        for _ in range(20):
            degree = rng.randint(3, 6)
            images = list(range(degree))
            rng.shuffle(images)
            group = PermGroup(degree, [Perm(images), from_cycles(degree, [(0, 1)])])
            points = tuple(rng.sample(range(degree), rng.randint(1, 2)))
            stab = group.pointwise_stabilizer(points)
            filtered = {
                p for p in group_elements(group) if all(p[x] == x for x in points)
            }
            assert group_elements(stab) == filtered


class TestStabilizerChain:
    def test_deeper_than_the_recursion_limit(self):
        # 150 disjoint transpositions give a chain of 150 levels, more than
        # a recursion limit of 100 leaves frames for
        degree = 300
        gens = [from_cycles(degree, [(2 * i, 2 * i + 1)]) for i in range(150)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            group = PermGroup(degree, gens)
            order = group.order()
            levels = len(group._chain.levels)
            product = gens[0] * gens[75] * gens[149]
            member = product in group
            outsider = from_cycles(degree, [(1, 2)]) in group
        finally:
            sys.setrecursionlimit(limit)
        assert order == 2**150 and levels == 150
        assert member and not outsider


class TestCosetAction:
    def test_s4_mod_s3(self):
        g = s_n(4)
        h = g.pointwise_stabilizer((3,))
        act = CosetAction(g, h)
        assert act.coset_count == 4
        four_cycle = from_cycles(4, [(0, 1, 2, 3)])
        assert act.cyclic_orbit_sizes(four_cycle) == (4,)
        three_cycle = from_cycles(4, [(0, 1, 2)])
        assert act.cyclic_orbit_sizes(three_cycle) == (3, 1)

    def test_not_a_subgroup(self):
        with pytest.raises(ValueError):
            CosetAction(a4(), s_n(4))

    def test_homomorphism(self):
        rng = random.Random(5)
        g = s_n(4)
        h = PermGroup(4, [from_cycles(4, [(0, 1)]), from_cycles(4, [(2, 3)])])
        act = CosetAction(g, h)
        assert act.coset_count == 6
        elements = [Perm(p) for p in sorted(group_elements(g))]
        for _ in range(25):
            a, b = rng.choice(elements), rng.choice(elements)
            assert act.permutation(a * b) == act.permutation(a) * act.permutation(b)
        assert act.permutation(Perm.identity(4)).is_identity()

    def test_identity_coset_is_index_zero(self):
        g = s_n(4)
        h = g.pointwise_stabilizer((0,))
        act = CosetAction(g, h)
        for p in group_elements(h):
            assert act.coset_index(Perm(p)) == 0

    def test_orbit_sizes_against_brute_cosets(self):
        rng = random.Random(31)
        g = dihedral(6)
        h = g.pointwise_stabilizer((0,))
        act = CosetAction(g, h)
        g_elements = group_elements(g)
        h_elements = group_elements(h)
        for p in g_elements:
            assert act.cyclic_orbit_sizes(Perm(p)) == brute_coset_orbit_sizes(
                p, g_elements, h_elements
            )


class TestEvenOrbitSearch:
    def test_s4_over_s3_prefers_order_four(self):
        g = s_n(4)
        h = g.pointwise_stabilizer((3,))
        cert = even_orbit_search(g, 3)
        assert cert is not None
        assert cert.element_order == 4
        assert cert.orbit_sizes == (4,)
        assert verify_certificate(cert, g, h)

    def test_a4_negative(self):
        # H is no point stabilizer on 4 points, so search the faithful action
        # of A4 on its 6 cosets, where H is the stabilizer of coset 0
        g = a4()
        h = PermGroup(4, [from_cycles(4, [(0, 1), (2, 3)])])
        act = CosetAction(g, h)
        assert act.coset_count == 6
        on_cosets = PermGroup(6, [act.permutation(x) for x in g.generators])
        assert on_cosets.order() == 12
        assert even_orbit_search(on_cosets, 0) is None

    def test_regular_z2(self):
        g = PermGroup(2, [Perm([1, 0])])
        cert = even_orbit_search(g, 0)
        assert cert.orbit_sizes == (2,)
        assert cert.element_order == 2

    def test_search_is_complete(self):
        # found-or-none agrees with exhaustive scanning, so ordering is the
        # only discretionary part
        rng = random.Random(99)
        for _ in range(25):
            degree = rng.randint(3, 6)
            images = list(range(degree))
            rng.shuffle(images)
            g = PermGroup(degree, [Perm(images), from_cycles(degree, [(0, 1)])])
            point = rng.randrange(degree)
            h = g.pointwise_stabilizer((point,))
            cert = even_orbit_search(g, point)
            act = CosetAction(g, h)
            exists = any(
                all(size % 2 == 0 for size in act.cyclic_orbit_sizes(Perm(p)))
                for p in group_elements(g)
            )
            assert (cert is not None) == exists
            if cert is not None:
                assert verify_certificate(cert, g, h)

    def test_certificate_tamper_detected(self):
        g = s_n(4)
        h = g.pointwise_stabilizer((3,))
        cert = even_orbit_search(g, 3)
        bad = type(cert)(
            element=cert.element,
            element_order=cert.element_order,
            orbit_sizes=(2, 2),
        )
        assert not verify_certificate(bad, g, h)

    def test_two_power_fast_path_when_subgroup_lacks_the_order(self):
        # whenever the subgroup misses some two-power element order of the
        # group, the returned certificate uses an element of two-power order
        rng = random.Random(123)
        for _ in range(20):
            degree = rng.randint(4, 6)
            images = list(range(degree))
            rng.shuffle(images)
            g = PermGroup(degree, [Perm(images), from_cycles(degree, [(0, 1)])])
            h = g.pointwise_stabilizer((degree - 1,))
            h_orders = {Perm(p).order() for p in group_elements(h)}
            missing = {
                k
                for k in {Perm(p).order() for p in group_elements(g)}
                if k & (k - 1) == 0 and k not in h_orders
            }
            cert = even_orbit_search(g, degree - 1)
            if missing:
                assert cert is not None
                order = cert.element_order
                assert order & (order - 1) == 0

    def test_reports_the_two_part_power(self):
        # the lift (0 1)(2 3 4) has order 6; the certificate is its cube
        g = PermGroup(5, [from_cycles(5, [(0, 1), (2, 3, 4)])])
        cert = even_orbit_search(g, 0)
        assert cert.element == from_cycles(5, [(0, 1)])
        assert cert.element_order == 2 and cert.orbit_sizes == (2,)

    def test_certificates_have_two_power_order(self):
        # an image with even cycles ranks after the power of itself that
        # keeps only its 2-part, so the chosen image and the certificate
        # have 2-power orders and 2-power cycles on the orbit
        rng = random.Random(77)
        found = 0
        for _ in range(40):
            degree = rng.randint(3, 7)
            gens = []
            for _ in range(rng.randint(1, 2)):
                images = list(range(degree))
                rng.shuffle(images)
                gens.append(Perm(images))
            g = PermGroup(degree, gens)
            point = rng.randrange(degree)
            cert = even_orbit_search(g, point)
            if cert is None:
                continue
            found += 1
            assert cert.element in g
            assert cert.element.order() == cert.element_order
            for k in (cert.element_order,) + cert.orbit_sizes:
                assert k & (k - 1) == 0
            h = g.pointwise_stabilizer((point,))
            assert verify_certificate(cert, g, h)
            # the certificate acts on the orbit as an odd power of the
            # chosen image
            orbit, chosen, _ = perms._best_image(g, point)
            on_orbit = tuple(orbit.index(cert.element.images[x]) for x in orbit)
            assert on_orbit in odd_powers(chosen)
        assert found >= 10

    def test_image_walk_reaches_every_element_once(self):
        rng = random.Random(8)
        for _ in range(20):
            degree = rng.randint(2, 6)
            gens = []
            for _ in range(rng.randint(1, 3)):
                images = list(range(degree))
                rng.shuffle(images)
                gens.append(tuple(images))
            identity = tuple(range(degree))
            elements, parents = perms._walk_tree(
                identity, lambda a: [compose_images(g, a) for g in gens]
            )
            assert set(elements) == brute_closure(gens)
            assert len(elements) == len(set(elements))
            assert parents[0] is None
            for b, (i, j) in zip(elements[1:], parents[1:]):
                assert b == compose_images(gens[j], elements[i])
