import math
import os
import random

import pytest

from degenera.frobenius import (
    DEMO_QUARTIC,
    IntPoly,
    WitnessCertificate,
    census,
    certifies_symmetric_group,
    degree_pattern,
    discriminant,
    find_even_witnesses,
    galois_cycle_witnesses,
    is_prime,
    parse_poly,
    primes_upto,
    resultant,
)
from degenera import frobenius
from degenera.frobenius import (
    DEGREE_LIMIT,
    _PackedRing,
    _gcd_mod,
    _pattern_by_traces,
    _rem_mod,
)
from degenera.perms import CosetAction, Perm, group_from_generators
from helpers import (
    sylvester_resultant,
    sympy_degree_pattern,
    trial_division_degree_pattern,
)

GAUSSIAN = IntPoly((1, 0, 1))
SQRT_TWO = IntPoly((-2, 0, 1))
CYCLOTOMIC_8 = IntPoly((1, 0, 0, 0, 1))
PLASTIC_LIKE = IntPoly((-1, -1, 0, 1))


def random_poly(rng, max_degree=5, span=9, monic=False):
    degree = rng.randint(1, max_degree)
    coeffs = [rng.randint(-span, span) for _ in range(degree)]
    coeffs.append(1 if monic else rng.choice([c for c in range(-span, span + 1) if c]))
    return IntPoly(coeffs)


class TestParse:
    def test_symbolic_form(self):
        assert parse_poly("x^4 - x - 1") == DEMO_QUARTIC
        assert parse_poly("x^2+1") == GAUSSIAN

    def test_unicode_minus_and_star(self):
        assert parse_poly("2*x^3 − x") == IntPoly((0, -1, 0, 2))

    def test_comma_form(self):
        assert parse_poly("-1,-1,0,0,1") == DEMO_QUARTIC

    def test_repeated_terms_accumulate(self):
        assert parse_poly("x + x + 1") == IntPoly((1, 2))

    def test_missing_powers_are_zero(self):
        assert parse_poly("x^5 + 1") == IntPoly((1, 0, 0, 0, 0, 1))

    def test_bare_and_signed_x(self):
        assert parse_poly("x") == IntPoly((0, 1))
        assert parse_poly("-x + 1") == IntPoly((1, -1))

    def test_rejects_malformed(self):
        for bad in ("", "x^", "y + 1", "3^2", "x^2 - x^2"):
            with pytest.raises(ValueError):
                parse_poly(bad)

    def test_degree_limit(self):
        assert parse_poly("x^%d-1" % DEGREE_LIMIT).degree == DEGREE_LIMIT
        assert parse_poly(",".join(["1"] * (DEGREE_LIMIT + 1))).degree == DEGREE_LIMIT
        for bad in (
            "x^%d-1" % (DEGREE_LIMIT + 1),
            "x^1000000000-1",
            "1 + x^99999999999999999999",
            ",".join(["1"] * (DEGREE_LIMIT + 2)),
        ):
            with pytest.raises(ValueError, match="limit"):
                parse_poly(bad)


class TestIntPoly:
    def test_strips_trailing_zeros(self):
        f = IntPoly((1, 2, 0, 0))
        assert f.coeffs == (1, 2)
        assert f.degree == 1

    def test_requires_degree_one(self):
        for coeffs in ((5,), (), (0, 0), (3, 0, 0)):
            with pytest.raises(ValueError):
                IntPoly(coeffs)

    def test_str_forms(self):
        cases = [
            (DEMO_QUARTIC, "x^4 - x - 1"),
            (IntPoly((2, 0, -3)), "-3x^2 + 2"),
            (IntPoly((0, 1)), "x"),
            (IntPoly((0, -1)), "-x"),
            (IntPoly((5, 1)), "x + 5"),
            (IntPoly((0, 0, 1)), "x^2"),
        ]
        for poly, text in cases:
            assert str(poly) == text

    def test_str_parse_roundtrip(self):
        rng = random.Random(20)
        for _ in range(100):
            f = random_poly(rng)
            assert parse_poly(str(f)) == f

    def test_equality_and_hash(self):
        assert IntPoly((1, 0, 1)) == GAUSSIAN
        assert len({GAUSSIAN, IntPoly([1, 0, 1]), DEMO_QUARTIC}) == 2

    def test_accessors(self):
        assert DEMO_QUARTIC.derivative_coeffs() == (-1, 0, 0, 4)
        assert DEMO_QUARTIC.leading == 1
        assert DEMO_QUARTIC.is_monic
        assert not IntPoly((1, 2)).is_monic


class TestPrimes:
    def test_sieve_pins(self):
        assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert len(primes_upto(100)) == 25
        assert primes_upto(1) == []
        assert primes_upto(2) == [2]

    def test_is_prime_matches_sieve(self):
        table = set(primes_upto(2000))
        for n in range(2001):
            assert is_prime(n) == (n in table)

    def test_is_prime_edges(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert not is_prime(-7)
        # Carmichael numbers fool the Fermat test but not Miller-Rabin
        assert not is_prime(561)
        assert not is_prime(41041)
        assert is_prime(2**31 - 1)
        assert not is_prime(2**31 + 1)


class TestResultant:
    def test_linear_pair(self):
        assert resultant(IntPoly((-2, 1)), IntPoly((-3, 1))) == -1
        assert resultant(IntPoly((-3, 1)), IntPoly((-2, 1))) == 1

    def test_common_root_gives_zero(self):
        assert resultant(IntPoly((-2, 1, 1)), IntPoly((3, -4, 1))) == 0

    def test_constant_and_zero_arguments(self):
        assert resultant([5], [-1, 0, 1]) == 25
        assert resultant([3, 1], [7]) == 7
        assert resultant([], [1, 1]) == 0

    def test_matches_sylvester_determinant(self):
        rng = random.Random(21)
        for _ in range(250):
            a = random_poly(rng)
            b = random_poly(rng)
            assert resultant(a, b) == sylvester_resultant(a.coeffs, b.coeffs)

    def test_swap_sign(self):
        rng = random.Random(22)
        for _ in range(100):
            a = random_poly(rng)
            b = random_poly(rng)
            sign = -1 if (a.degree * b.degree) % 2 else 1
            assert resultant(a, b) == sign * resultant(b, a)


class TestDiscriminant:
    def test_pins(self):
        assert discriminant(GAUSSIAN) == -4
        assert discriminant(DEMO_QUARTIC) == -283
        assert discriminant(SQRT_TWO) == 8
        assert discriminant(PLASTIC_LIKE) == -23
        assert discriminant(CYCLOTOMIC_8) == 256

    def test_square_factor_gives_zero(self):
        assert discriminant(IntPoly((1, -2, 1))) == 0

    def test_quadratic_formula(self):
        rng = random.Random(23)
        for _ in range(200):
            a = rng.choice([n for n in range(-9, 10) if n])
            b = rng.randint(-9, 9)
            c = rng.randint(-9, 9)
            assert discriminant(IntPoly((c, b, a))) == b * b - 4 * a * c

    def test_depressed_cubic_formula(self):
        rng = random.Random(24)
        for _ in range(100):
            p = rng.randint(-20, 20)
            q = rng.randint(-20, 20)
            expect = -4 * p**3 - 27 * q * q
            assert discriminant(IntPoly((q, p, 0, 1))) == expect

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        rng = random.Random(25)
        for _ in range(80):
            f = random_poly(rng, max_degree=6, span=20)
            expect = int(sympy.discriminant(sympy.Poly(list(reversed(f.coeffs)), x)))
            assert discriminant(f) == expect


class TestDegreePattern:
    def test_gaussian_pins(self):
        # x^2+1 splits when -1 is a square, i.e. p = 1 mod 4
        assert degree_pattern(GAUSSIAN, 13) == (1, 1)
        assert degree_pattern(GAUSSIAN, 3) == (2,)
        assert degree_pattern(GAUSSIAN, 2) is None

    def test_demo_quartic_pins(self):
        assert degree_pattern(DEMO_QUARTIC, 2) == (4,)
        assert degree_pattern(DEMO_QUARTIC, 3) == (4,)
        assert degree_pattern(DEMO_QUARTIC, 283) is None

    def test_linear_is_always_trivial(self):
        f = IntPoly((7, 3))
        for p in (2, 5, 101):
            assert degree_pattern(f, p) == (1,)

    def test_sextic_irreducible_mod_two(self):
        # degree 3 distinct-degree stage needs the composition ladder
        assert degree_pattern(IntPoly((1, 1, 0, 0, 0, 0, 1)), 2) == (6,)

    def test_large_prime(self):
        assert degree_pattern(GAUSSIAN, 2147483647) == (2,)

    def test_derivative_vanishes_mod_p(self):
        # f' = 3x^2 is 0 mod 3, so gcd(f, f') = f: x^3 + 1 = (x + 1)^3 mod 3
        assert degree_pattern(IntPoly((1, 0, 0, 1)), 3) is None

    def test_constant_derivative(self):
        # f' = 5x^4 - 1 is the constant -1 mod 5; x^5 - x - 1 is irreducible
        assert degree_pattern(parse_poly("x^5-x-1"), 5) == (5,)

    def test_last_gcd_splits(self):
        # a product of two distinct irreducibles of degrees d and d or d + 1:
        # the gcd at stage d takes the last factor of degree d, and what is
        # left (nothing, or one factor of degree d + 1) is never divided out
        pytest.importorskip("sympy")
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_irreducible_p, gf_mul

        rng = random.Random(37)
        cases = 0
        for p in (3, 5, 7, 65521):

            def irreducible(degree, avoid=None):
                while True:
                    g = [ZZ(1)] + [ZZ(rng.randrange(p)) for _ in range(degree)]
                    if g != avoid and gf_irreducible_p(g, p, ZZ):
                        return g

            for d in range(1, 6):
                for extra in (0, 1):
                    u = irreducible(d)
                    v = irreducible(d + extra, avoid=u)
                    f = IntPoly([int(c) for c in reversed(gf_mul(u, v, p, ZZ))])
                    expect = tuple(sorted((d, d + extra), reverse=True))
                    assert sympy_degree_pattern(f.coeffs, p) == expect
                    assert degree_pattern(f, p) == expect, (p, f)
                    cases += 1
        assert cases == 40

    def test_rejects_bad_primes(self):
        with pytest.raises(ValueError):
            degree_pattern(GAUSSIAN, 4)
        with pytest.raises(ValueError):
            degree_pattern(GAUSSIAN, 2305843009213693951)
        with pytest.raises(ValueError):
            degree_pattern(IntPoly((1, 1, 2)), 2)

    def test_pattern_shape_invariants(self):
        rng = random.Random(26)
        primes = primes_upto(200)
        for _ in range(40):
            f = random_poly(rng, max_degree=6, monic=True)
            for p in rng.sample(primes, 8):
                pat = degree_pattern(f, p)
                if pat is None:
                    continue
                assert sum(pat) == f.degree
                assert list(pat) == sorted(pat, reverse=True)
                assert all(d >= 1 for d in pat)

    def test_ramified_iff_discriminant_divisible(self):
        rng = random.Random(27)
        primes = primes_upto(500)
        done = 0
        while done < 30:
            f = random_poly(rng, max_degree=5, monic=True)
            disc = discriminant(f)
            if disc == 0:
                continue
            done += 1
            for p in primes:
                assert (degree_pattern(f, p) is None) == (disc % p == 0)

    def test_matches_sympy_factorization(self):
        pytest.importorskip("sympy")
        rng = random.Random(28)
        primes = primes_upto(60)
        for _ in range(40):
            f = random_poly(rng, max_degree=6, monic=True)
            for p in primes:
                assert degree_pattern(f, p) == sympy_degree_pattern(f.coeffs, p)

    def test_matches_trial_division(self):
        # the oracle literally divides by every monic poly of each degree,
        # so keep the primes small
        polys = (DEMO_QUARTIC, CYCLOTOMIC_8, PLASTIC_LIKE, IntPoly((1, 1, 0, 0, 0, 0, 1)))
        for f in polys:
            for p in (2, 3, 5, 7, 11, 13):
                assert degree_pattern(f, p) == trial_division_degree_pattern(f.coeffs, p)

    def test_unit_scaling_invariance(self):
        rng = random.Random(29)
        for _ in range(40):
            f = random_poly(rng, max_degree=5)
            scale = rng.choice((2, 3, 5, 7))
            g = IntPoly(tuple(scale * c for c in f.coeffs))
            for p in primes_upto(40):
                if (scale * f.leading) % p == 0:
                    continue
                assert degree_pattern(f, p) == degree_pattern(g, p)


class TestRemMod:
    def test_matches_sympy_remainder(self):
        # the remainder must come back canonical (entries in 0..p-1, no
        # trailing zeros), not merely congruent, so compare lists exactly
        pytest.importorskip("sympy")
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_rem, gf_strip

        rng = random.Random(31)
        for _ in range(200):
            p = rng.choice((2, 3, 5, 7, 101, 65537))
            f = [rng.randrange(p) for _ in range(rng.randint(1, 8))] + [1]
            a = [rng.randrange(p) for _ in range(rng.randint(0, 20))]
            dividend = gf_strip(list(reversed(a)))
            expect = list(reversed(gf_rem(dividend, list(reversed(f)), p, ZZ)))
            assert _rem_mod(list(a), f, p) == expect


LARGEST_PRIME = 2**31 - 1


class TestGcdMod:
    def test_matches_sympy_gcd(self):
        # shapes: deg a < deg b, equal degrees, deg a > deg b, a = 0 and a
        # constant; half of the nonzero pairs share a random common factor
        pytest.importorskip("sympy")
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_gcd, gf_mul

        def desc(coeffs):
            return [ZZ(c) for c in reversed(coeffs)]

        def ascending(coeffs):
            return [int(c) for c in reversed(coeffs)]

        rng = random.Random(36)
        for p in (2, 3, 65521, LARGEST_PRIME):

            def poly(degree):
                return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]

            for case in range(60):
                shape = case % 5
                db = rng.randint(1, 9)
                b = poly(db)
                da = (rng.randint(0, db - 1), db, rng.randint(db + 1, db + 6), None, 0)
                a = [] if da[shape] is None else poly(da[shape])
                if shape < 3 and rng.random() < 0.5:
                    common = desc(poly(rng.randint(1, 4)))
                    a = ascending(gf_mul(desc(a), common, p, ZZ))
                    b = ascending(gf_mul(desc(b), common, p, ZZ))
                a_in, b_in = list(a), list(b)
                expect = ascending(gf_gcd(desc(a), desc(b), p, ZZ))
                assert _gcd_mod(a, b, p) == expect, (p, a, b)
                assert (a, b) == (a_in, b_in)

    def test_zero_divisor(self):
        assert _gcd_mod([2, 4, 0], [0, 0], 5) == [3, 1]
        assert _gcd_mod([], [], 5) == []


def schoolbook_mulmod(a, b, f, p):
    """a*b mod monic f in GF(p)[x] by the plain double loop."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    return _rem_mod(prod, f, p)


def slots_of(ring, packed):
    """The slot values of a packed residue, checked to lie in [0, 2p)."""
    k, n, p = ring.k, ring.n, ring.p
    slots = [packed >> k * i & ((1 << k) - 1) for i in range(n)]
    assert sum(x << k * i for i, x in enumerate(slots)) == packed
    assert all(0 <= x < 2 * p for x in slots)
    return slots


def reduced(coeffs, p):
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


class TestPackedRing:
    """Packed products against the schoolbook product plus `_rem_mod`,
    with every input slot at the largest value the ring admits."""

    @staticmethod
    def moduli(rng, n, p):
        # all-ones makes every slot of g = x^n - fbar equal p - 1
        yield [1] * (n + 1)
        yield [rng.randrange(p) for _ in range(n)] + [1]

    def test_products_at_slot_bounds(self):
        rng = random.Random(33)
        for p in (2, 3, 65521, LARGEST_PRIME):
            for n in range(2, 17):
                for fbar in self.moduli(rng, n, p):
                    ring = _PackedRing(fbar, p)
                    rand = [rng.randrange(2 * p) for _ in range(n)]
                    cases = [
                        ([3 * p - 1] * n, [2 * p - 1] * n),
                        ([2 * p - 1] * n, [2 * p - 1] * n),
                        ([3 * p - 1] + rand[1:], rand),
                    ]
                    for a, b in cases:
                        got = slots_of(ring, ring.mul(ring.pack(a), ring.pack(b)))
                        expect = schoolbook_mulmod(reduced(a, p), reduced(b, p), fbar, p)
                        assert reduced(got, p) == expect, (p, n, a, b)
                    for a in ([2 * p - 1] * n, rand):
                        got = slots_of(ring, ring.mulx(ring.pack(a)))
                        expect = _rem_mod([0] + reduced(a, p), fbar, p)
                        assert reduced(got, p) == expect, (p, n, a)

    def test_ladder_and_composition(self):
        rng = random.Random(34)
        for p in (2, 3, 65521, LARGEST_PRIME):
            for n in range(2, 17):
                for fbar in self.moduli(rng, n, p):
                    ring = _PackedRing(fbar, p)
                    frob = ring.xpow()
                    h = [1]
                    for bit in bin(p)[2:]:
                        h = schoolbook_mulmod(h, h, fbar, p)
                        if bit == "1":
                            h = _rem_mod([0] + h, fbar, p)
                    assert reduced(slots_of(ring, frob), p) == h
                    outer = [p - 1] * n
                    expect = [p - 1]
                    for c in outer[-2::-1]:
                        expect = schoolbook_mulmod(expect, h, fbar, p)
                        expect = reduced([expect[0] + c if expect else c] + expect[1:], p)
                    got = ring.compose(outer, frob)
                    assert ring.unpack(got) == expect, (p, n)


    def test_trace_and_combination_at_slot_bounds(self):
        # powers, their trace and a linear combination with every
        # coefficient p - 1 and every power's slot 2p - 1, the largest sum
        rng = random.Random(36)
        for p in (17, 65521, LARGEST_PRIME):
            for n in range(2, 17):
                for fbar in self.moduli(rng, n, p):
                    ring = _PackedRing(fbar, p)
                    h = [rng.randrange(p) for _ in range(n)]
                    powers = ring.powers(ring.pack(h))
                    expect = [[1], reduced(h, p)]
                    while len(expect) < n:
                        expect.append(schoolbook_mulmod(expect[-1], expect[1], fbar, p))
                    assert [reduced(slots_of(ring, x), p) for x in powers] == expect
                    padded = [e + [0] * (n - len(e)) for e in expect]
                    assert ring.trace(powers) == sum(e[j] for j, e in enumerate(padded)) % p
                    top = [ring.pack([2 * p - 1] * n)] * n
                    got = slots_of(ring, ring.combine([p - 1] * n, top))
                    assert reduced(got, p) == [n * (p - 1) * (2 * p - 1) % p] * n, (p, n)


class TestTopOfPrimeRange:
    """degree_pattern against sympy where the packed slots are widest."""

    def test_random_polynomials_near_prime_limit(self):
        pytest.importorskip("sympy")
        rng = random.Random(35)
        top = [p for p in range(2**31 - 400, 2**31) if is_prime(p)]
        cases = 0
        while cases < 60:
            degree = rng.randint(2, 16)
            f = IntPoly([rng.randint(-9, 9) for _ in range(degree)] + [1])
            if discriminant(f) == 0:
                continue
            # one large prime per polynomial (sympy's cost is there), each in turn
            for p in (top[cases % len(top)], 2, 3, 5):
                assert degree_pattern(f, p) == sympy_degree_pattern(f.coeffs, p), (f, p)
            cases += 1

    def test_degree_forty(self):
        pytest.importorskip("sympy")
        f = parse_poly("x^40-x-1")
        for p in (97, 1000003, LARGEST_PRIME):
            assert degree_pattern(f, p) == sympy_degree_pattern(f.coeffs, p), p


def trace_pattern(f, p):
    """_pattern_by_traces on f mod p, which must be unramified and p > deg f."""
    assert p > f.degree and discriminant(f) % p and f.leading % p
    return _pattern_by_traces(frobenius._monic_mod(f.coeffs, p), p)


class TestTracePath:
    """The per-prime path for p > deg f, which the census, galois and
    witness loops take, against sympy's complete factorization."""

    def test_random_polynomials_near_prime_limit(self):
        pytest.importorskip("sympy")
        rng = random.Random(37)
        top = [p for p in range(2**31 - 400, 2**31) if is_prime(p)]
        cases = 0
        while cases < 60:
            degree = rng.randint(2, 16)
            f = IntPoly([rng.randint(-9, 9) for _ in range(degree)] + [1])
            p = top[cases % len(top)]
            if discriminant(f) % p == 0:
                continue
            assert trace_pattern(f, p) == sympy_degree_pattern(f.coeffs, p), (f, p)
            cases += 1

    def test_degree_forty(self):
        pytest.importorskip("sympy")
        f = parse_poly("x^40-x-1")
        for p in (41, 97, 1000003, LARGEST_PRIME):
            assert trace_pattern(f, p) == sympy_degree_pattern(f.coeffs, p), p

    def test_smallest_prime_above_degree(self):
        # N_d <= n < p is tightest here: a count of n roots must not wrap
        pytest.importorskip("sympy")
        rng = random.Random(38)
        for degree in range(2, 17):
            p = next(q for q in range(degree + 1, 2 * degree + 2) if is_prime(q))
            roots = rng.sample(range(p), degree)
            coeffs = [1]
            for r in roots:
                coeffs = [(a - r * b) for a, b in zip([0] + coeffs, coeffs + [0])]
            fully_split = IntPoly(coeffs)
            assert trace_pattern(fully_split, p) == (1,) * degree
            found = 0
            while found < 6:
                f = IntPoly([rng.randint(-9, 9) for _ in range(degree)] + [1])
                if discriminant(f) % p == 0:
                    continue
                assert trace_pattern(f, p) == sympy_degree_pattern(f.coeffs, p), (f, p)
                found += 1

    def test_census_across_the_degree_matches_per_prime_scan(self):
        # primes 2..11 take the gcd splitting, 13..59 the traces
        for text in ("x^12-x-1", "x^6+x+1", "3x^5-2x+7"):
            f = parse_poly(text)
            counts, ramified, _ = per_prime_scan(f, 60)
            result = census(f, 60)
            assert result.counts == counts
            assert result.ramified == ramified

    def test_no_gcd_or_composition_above_degree(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        calls = []

        def spy(name, fn):
            def wrapped(*args):
                calls.append((name, args[-1] if name != "compose" else args[0].p))
                return fn(*args)

            return wrapped

        for name in ("_gcd_mod", "_divexact_mod"):
            monkeypatch.setattr(frobenius, name, spy(name, getattr(frobenius, name)))
        monkeypatch.setattr(_PackedRing, "compose", spy("compose", _PackedRing.compose))
        f = parse_poly("x^12-x-1")
        result = census(f, 400)
        n = f.degree
        late = [(name, p) for name, p in calls if p > n]
        # one division per prime above n, for the ring's mu
        assert sorted(late) == [("_divexact_mod", p) for p in primes_upto(400) if p > n]
        assert {name for name, p in calls if p <= n} >= {"_gcd_mod", "compose"}
        assert sum(result.counts.values()) == len(primes_upto(400)) - len(result.ramified)


class TestCensus:
    def test_gaussian_pin(self):
        result = census(GAUSSIAN, 100)
        assert result.counts == {(1, 1): 11, (2,): 13}
        assert result.ramified == (2,)
        assert result.prime_count == 25
        assert result.unramified_count == 24
        assert result.all_even_fraction() == 13 / 24
        assert abs(sum(result.frequencies().values()) - 1.0) < 1e-12

    def test_counts_partition_primes(self):
        for f, bound in ((GAUSSIAN, 300), (DEMO_QUARTIC, 500), (SQRT_TWO, 100)):
            result = census(f, bound)
            assert sum(result.counts.values()) + len(result.ramified) == result.prime_count

    def test_linear_polynomial(self):
        result = census(IntPoly((1, 1)), 50)
        assert result.counts == {(1,): 15}
        assert result.ramified == ()

    def test_nonmonic_leading_divisor_counts_as_ramified(self):
        result = census(IntPoly((-2, 0, 2)), 20)
        assert result.counts == {(1, 1): 7}
        assert result.ramified == (2,)
        assert result.prime_count == 8

    def test_demo_quartic_medium_pin(self):
        result = census(DEMO_QUARTIC, 10**4)
        assert result.counts == {
            (1, 1, 1, 1): 43,
            (2, 1, 1): 306,
            (2, 2): 147,
            (3, 1): 411,
            (4,): 321,
        }
        assert result.ramified == (283,)
        assert result.prime_count == 1229

    def test_rejects_tiny_bound(self):
        with pytest.raises(ValueError):
            census(GAUSSIAN, 1)

    def test_to_dict(self):
        data = census(GAUSSIAN, 100).to_dict()
        assert data["poly"] == "x^2 + 1"
        assert data["bound"] == 100
        assert data["ramified"] == [2]
        patterns = {entry["pattern"]: entry["count"] for entry in data["patterns"]}
        assert patterns == {"1.1": 11, "2": 13}
        for entry in data["patterns"]:
            assert entry["frequency"] == entry["count"] / 24
        assert data["all_even_fraction"] == 13 / 24


class TestWitnesses:
    def test_demo_quartic(self):
        cert = find_even_witnesses(DEMO_QUARTIC, 200)
        assert cert.primes == (2, 3)
        assert cert.patterns == ((4,), (4,))
        assert cert.verify()
        assert cert.to_dict() == {
            "poly": "x^4 - x - 1",
            "primes": [2, 3],
            "patterns": ["4", "4"],
        }

    def test_smallest_witnesses_examples(self):
        cert = find_even_witnesses(SQRT_TWO, 100)
        assert cert.primes == (3, 5)
        assert cert.patterns == ((2,), (2,))
        cert = find_even_witnesses(CYCLOTOMIC_8, 100)
        assert cert.primes == (3, 5)
        assert cert.patterns == ((2, 2), (2, 2))

    def test_witnesses_coprime_to_discriminant(self):
        cert = find_even_witnesses(DEMO_QUARTIC, 200)
        disc = discriminant(DEMO_QUARTIC)
        assert disc == -283
        for p in cert.primes:
            assert math.gcd(p, disc) == 1

    def test_odd_degree_short_circuits(self):
        assert find_even_witnesses(IntPoly((-2, 0, 0, 1)), 10**4) is None
        assert find_even_witnesses(PLASTIC_LIKE, 10**4) is None

    def test_split_quadratic_has_no_witnesses(self):
        # x^2-1 factors into linear pieces at every unramified prime
        assert find_even_witnesses(IntPoly((-1, 0, 1)), 10**4) is None

    def test_bound_exhausted(self):
        assert find_even_witnesses(DEMO_QUARTIC, 2) is None

    def test_requires_monic_squarefree(self):
        with pytest.raises(ValueError):
            find_even_witnesses(IntPoly((1, 0, 2)), 100)
        with pytest.raises(ValueError):
            find_even_witnesses(IntPoly((1, -2, 1)), 100)

    def test_verify_rejects_tampering(self):
        good = find_even_witnesses(DEMO_QUARTIC, 200)
        assert good.verify()
        wrong_pattern = WitnessCertificate(DEMO_QUARTIC, (2, 3), ((4,), (2, 2)))
        assert not wrong_pattern.verify()
        duplicate = WitnessCertificate(DEMO_QUARTIC, (2, 2), ((4,), (4,)))
        assert not duplicate.verify()
        ramified = WitnessCertificate(DEMO_QUARTIC, (2, 283), ((4,), (4,)))
        assert not ramified.verify()


class TestGaloisWitnesses:
    def test_demo_quartic_sees_full_symmetric_group(self):
        seen = galois_cycle_witnesses(DEMO_QUARTIC, 2000)
        assert seen == {(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)}
        assert certifies_symmetric_group(seen, 4)

    def test_eighth_cyclotomic_stays_small(self):
        seen = galois_cycle_witnesses(CYCLOTOMIC_8, 500)
        assert seen == {(1, 1, 1, 1), (2, 2)}
        assert not certifies_symmetric_group(seen, 4)

    def test_cubic(self):
        seen = galois_cycle_witnesses(PLASTIC_LIKE, 1000)
        assert seen == {(1, 1, 1), (2, 1), (3,)}
        assert certifies_symmetric_group(seen, 3)

    def test_quadratic_cases(self):
        assert certifies_symmetric_group({(2,)}, 2)
        assert not certifies_symmetric_group({(1, 1)}, 2)
        with pytest.raises(ValueError):
            certifies_symmetric_group({(1,)}, 1)

    def test_patterns_match_coset_cycle_types(self):
        # Frobenius patterns of a quartic with full Galois group are exactly
        # the cycle types of the permutation group acting on the four roots
        s4 = group_from_generators([Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))])
        stab = s4.pointwise_stabilizer((0,))
        action = CosetAction(s4, stab)
        types = {action.cyclic_orbit_sizes(g) for g in s4.elements()}
        assert galois_cycle_witnesses(DEMO_QUARTIC, 2000) == types


def per_prime_scan(f, bound):
    """Census by one independent degree_pattern call per prime; primes
    dividing the leading coefficient count as ramified."""
    counts, ramified, even = {}, [], []
    for p in primes_upto(bound):
        pat = None if f.leading % p == 0 else degree_pattern(f, p)
        if pat is None:
            ramified.append(p)
            continue
        counts[pat] = counts.get(pat, 0) + 1
        if all(d % 2 == 0 for d in pat):
            even.append(p)
    return counts, tuple(ramified), even


SHARED_LOOP_BOUND = 400


def shared_loop_cases():
    """20 seeded squarefree polynomials, every second one non-monic."""
    rng = random.Random(30)
    cases = []
    while len(cases) < 20:
        degree = rng.randint(2, 8)
        lead = 1 if len(cases) % 2 == 0 else rng.choice((-6, -3, -1, 2, 4, 5, 9))
        f = IntPoly([rng.randint(-9, 9) for _ in range(degree)] + [lead])
        if discriminant(f) != 0:
            cases.append(f)
    return cases


class TestSharedPrimeLoop:
    def test_matches_per_prime_scan(self):
        bound = SHARED_LOOP_BOUND
        cases = shared_loop_cases()
        # some prime must divide lc(f) but not disc(f), or dropping the
        # leading-coefficient test would go unseen
        assert any(
            (f.leading % p == 0) != (discriminant(f) % p == 0)
            for f in cases
            for p in primes_upto(bound)
        )
        witnesses = 0
        for f in cases:
            counts, ramified, even = per_prime_scan(f, bound)
            result = census(f, bound)
            assert result.counts == counts
            assert result.ramified == ramified
            if not f.is_monic:
                continue
            assert galois_cycle_witnesses(f, bound) == set(counts)
            cert = find_even_witnesses(f, bound)
            if len(even) < 2:
                assert cert is None
            else:
                assert cert.primes == tuple(even[:2])
                witnesses += 1
        assert witnesses > 0


class TestShardedPrimeLoop:
    """census and galois split their primes over the CPUs in the affinity
    mask, one forked child per CPU after the first; each CPU is a real fork,
    so the mask is never larger than three."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids this process forks from now on."""
        real_fork = os.fork
        pids = []

        def counting_fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        return pids

    def test_results_independent_of_cpu_count(self, monkeypatch, forks):
        cases = shared_loop_cases()
        seen = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
            )
            del forks[:]
            seen[cpus] = [
                (
                    repr(census(f, SHARED_LOOP_BOUND)),
                    galois_cycle_witnesses(f, SHARED_LOOP_BOUND) if f.is_monic else None,
                )
                for f in cases
            ]
            calls = len(cases) + sum(f.is_monic for f in cases)
            assert len(forks) == (cpus - 1) * calls
        assert seen[1] == seen[2] == seen[3]
        for f, (_, patterns) in zip(cases, seen[1]):
            counts, _, _ = per_prime_scan(f, SHARED_LOOP_BOUND)
            assert patterns in (None, set(counts))

    def test_no_more_jobs_than_primes(self, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        x2x1 = IntPoly((1, 1, 1))
        assert census(x2x1, 2).counts == {(2,): 1}
        assert forks == []
        assert census(x2x1, 3).ramified == (3,)
        assert len(forks) == 1

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_serial_without_fork_or_affinity_mask(self, monkeypatch, missing):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", None)
        monkeypatch.delattr(os, missing)
        assert census(GAUSSIAN, 100).counts == {(1, 1): 11, (2,): 13}
