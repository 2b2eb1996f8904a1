import math
import os
import random

import pytest

from degenera.frobenius import (
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
)
from degenera import frobenius
from degenera.frobenius import (
    DEGREE_LIMIT,
    _PackedRing,
    _gcd_mod,
    _layout,
    _pattern_of_squarefree,
    _prime_loop,
    _rem_mod,
    _ring_mu,
    _ring_quotient,
    _roots_by_gcd,
    _roots_by_trace,
    _subresultant,
)
from degenera.perms import CosetAction, Perm, PermGroup
from helpers import (
    DEMO_QUARTIC,
    divmod_mod,
    group_elements,
    listed_sieve,
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

    def test_sieve_matches_list_scan(self):
        for bound in list(range(200)) + [2 * 10**4 + 7, 10**5]:
            assert primes_upto(bound) == listed_sieve(bound), bound

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
    # _subresultant takes deg a >= deg b, the order in which discriminant
    # passes f and f'
    def test_linear_pair(self):
        assert _subresultant((-2, 1), (-3, 1)) == -1
        assert _subresultant((-3, 1), (-2, 1)) == 1

    def test_common_root_gives_zero(self):
        assert _subresultant((-2, 1, 1), (3, -4, 1)) == 0

    def test_constant_second_argument(self):
        assert _subresultant((-1, 0, 1), (5,)) == 25
        assert _subresultant((3, 1), (7,)) == 7

    def test_matches_sylvester_determinant(self):
        rng = random.Random(21)
        for _ in range(250):
            pair = random_poly(rng), random_poly(rng)
            a, b = sorted(pair, key=lambda f: -f.degree)
            assert _subresultant(a.coeffs, b.coeffs) == sylvester_resultant(
                a.coeffs, b.coeffs
            )


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
        from sympy.polys.galoistools import gf_div, gf_strip

        rng = random.Random(31)
        for _ in range(200):
            p = rng.choice((2, 3, 5, 7, 101, 65537))
            f = [rng.randrange(p) for _ in range(rng.randint(1, 8))] + [1]
            a = [rng.randrange(p) for _ in range(rng.randint(0, 20))]
            dividend = gf_strip(list(reversed(a)))
            quot, rem = gf_div(dividend, list(reversed(f)), p, ZZ)
            # a may end in zeros, and then so does divmod_mod's quotient
            quot = [0] * (len(a) - len(f) + 1 - len(quot)) + quot
            expect = (list(reversed(quot)), list(reversed(rem)))
            assert divmod_mod(list(a), f, p) == expect
            assert _rem_mod(list(a), f, p) == expect[1]


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
    return divmod_mod(prod, f, p)[1]


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


def packed_ring(fbar, p):
    """The ring of a monic fbar with entries in [0, p), its mu read off
    fbar's integer pseudo-quotient as the prime loop reads it off f's."""
    return _PackedRing(fbar, p, _ring_mu(_ring_quotient(fbar), 1, p))


class TestPackedRing:
    """Packed products against the schoolbook product plus `divmod_mod`,
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
                    ring = packed_ring(fbar, p)
                    rand = [rng.randrange(2 * p) for _ in range(n)]
                    cases = [
                        ([2 * p - 1] * n, [2 * p - 1] * n),
                        ([2 * p - 1] + rand[1:], rand),
                    ]
                    for a, b in cases:
                        got = slots_of(ring, ring.mul(ring.pack(a), ring.pack(b)))
                        expect = schoolbook_mulmod(reduced(a, p), reduced(b, p), fbar, p)
                        assert reduced(got, p) == expect, (p, n, a, b)
                        # the fused step of a 1 bit of the ladder: a*b shifted
                        # one slot, a product of degree 2n - 1, one reduction
                        got = slots_of(ring, ring.mul(ring.pack(a), ring.pack(b) << ring.k))
                        expect = schoolbook_mulmod(reduced(a, p), [0] + reduced(b, p), fbar, p)
                        assert reduced(got, p) == expect, (p, n, a, b)
                    # the inline step of `powers`, which makes most of the
                    # prime loop's products, from h with every slot 2p - 1
                    top = [2 * p - 1] * n
                    expect = [1]
                    for power in ring.powers(ring.pack(top)):
                        assert reduced(slots_of(ring, power), p) == expect, (p, n)
                        expect = schoolbook_mulmod(expect, reduced(top, p), fbar, p)

    def test_ladder(self):
        # every start is a monomial x^e with e < n, n = 2..16: e = p for
        # the primes below n, else a prefix of one to four bits of p
        rng = random.Random(34)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 65521, LARGEST_PRIME):
            for n in range(2, 17):
                for fbar in self.moduli(rng, n, p):
                    ring = packed_ring(fbar, p)
                    frob = ring.xpow()
                    h = [1]
                    for bit in bin(p)[2:]:
                        h = schoolbook_mulmod(h, h, fbar, p)
                        if bit == "1":
                            h = divmod_mod([0] + h, fbar, p)[1]
                    assert reduced(slots_of(ring, frob), p) == h

    def test_layout_bounds_every_bit_length(self):
        # the largest slot value n*(2p-1)^2 and its slot Barrett product
        # fit the layout shared by every prime of p's bit length
        for b in range(2, 32):
            smallest = next(q for q in range(1 << b - 1, 1 << b) if is_prime(q))
            largest = next(q for q in range((1 << b) - 1, 0, -1) if is_prime(q))
            for n in range(2, 17):
                s, k, _, _ = _layout(n, b)
                for p in (smallest, largest):
                    top = n * (2 * p - 1) ** 2
                    assert top < 1 << s, (n, p)
                    assert top * ((1 << s) // p) < 1 << k, (n, p)

    def test_trace_and_combination_at_slot_bounds(self):
        # powers, their trace and a linear combination with every
        # coefficient p - 1 and every power's slot 2p - 1, the largest sum
        rng = random.Random(36)
        for p in (17, 65521, LARGEST_PRIME):
            for n in range(2, 17):
                for fbar in self.moduli(rng, n, p):
                    ring = packed_ring(fbar, p)
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


def trace_pattern(f, p, roots=_roots_by_trace):
    """The distinct-degree loop on f mod p counting roots by the trace;
    f mod p must be unramified and p > deg f."""
    assert p > f.degree and discriminant(f) % p and f.leading % p
    mu = _ring_mu(_ring_quotient(f.coeffs), f.leading, p)
    return _pattern_of_squarefree(frobenius._monic_mod(f.coeffs, p), p, mu, roots, None)


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
            for counter in (_roots_by_trace, _roots_by_gcd):
                assert trace_pattern(fully_split, p, counter) == (1,) * degree
            found = 0
            while found < 6:
                f = IntPoly([rng.randint(-9, 9) for _ in range(degree)] + [1])
                if discriminant(f) % p == 0:
                    continue
                expect = sympy_degree_pattern(f.coeffs, p)
                for counter in (_roots_by_trace, _roots_by_gcd):
                    assert trace_pattern(f, p, counter) == expect, (f, p, counter)
                found += 1

    def test_census_across_the_degree_matches_per_prime_scan(self):
        # primes 2..11 count roots by gcds, 13..59 by traces
        for text in ("x^12-x-1", "x^6+x+1", "3x^5-2x+7"):
            f = parse_poly(text)
            counts, ramified, _ = per_prime_scan(f, 60)
            result = census(f, 60)
            assert result.counts == counts
            assert result.ramified == ramified

    def test_gcd_only_at_or_below_degree(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        calls = []

        def spy(name, fn):
            def wrapped(*args):
                calls.append((name, args[-1]))
                return fn(*args)

            return wrapped

        for name in ("_gcd_mod", "_rem_mod"):
            monkeypatch.setattr(frobenius, name, spy(name, getattr(frobenius, name)))
        f = parse_poly("x^12-x-1")
        result = census(f, 400)
        n = f.degree
        # mu comes from one integer division per polynomial, so no
        # division and no gcd runs in GF(p)[x] above n
        assert [(name, p) for name, p in calls if p > n] == []
        assert "_gcd_mod" in {name for name, p in calls if p <= n}
        assert sum(result.counts.values()) == len(primes_upto(400)) - len(result.ramified)


class TestRingMu:
    def test_integer_quotient_matches_division_mod_p(self):
        # mu from one integer division per polynomial equals the quotient
        # of x^(2n-1) by fbar in GF(p)[x], monic and not
        rng = random.Random(40)
        for _ in range(200):
            f = random_poly(rng, max_degree=16)
            while f.degree < 2:
                f = random_poly(rng, max_degree=16)
            quot = _ring_quotient(f.coeffs)
            for p in (2, 3, 5, 7, 65521, LARGEST_PRIME):
                if f.leading % p == 0:
                    continue
                fbar = frobenius._monic_mod(f.coeffs, p)
                n = len(fbar) - 1
                expect = divmod_mod([0] * (2 * n - 1) + [1], fbar, p)[0]
                assert _ring_mu(quot, f.leading, p) == expect, (f, p)


def parity_cases():
    """One seeded squarefree polynomial of each degree 2..16, the leading
    coefficient cycling through 1, 2 and -3."""
    rng = random.Random(41)
    cases = []
    for degree in range(2, 17):
        lead = (1, 2, -3)[degree % 3]
        f = IntPoly([rng.randint(-9, 9) for _ in range(degree)] + [lead])
        while discriminant(f) == 0:
            f = IntPoly([rng.randint(-9, 9) for _ in range(degree)] + [lead])
        cases.append(f)
    return cases


class TestParityRule:
    """The prime loop settles its last levels by Stickelberger's parity;
    degree_pattern runs every level by gcds."""

    def test_prime_loop_matches_degree_pattern(self):
        bound = 3000
        plist = primes_upto(bound)
        for f in parity_cases():
            pattern = _prime_loop(f, bound)
            for p in plist:
                if f.leading % p == 0:
                    assert pattern(p) is None, (f, p)
                else:
                    assert pattern(p) == degree_pattern(f, p), (f, p)

    def test_cubics_whose_patterns_share_a_parity(self):
        # a square discriminant gives sign 1 at every unramified prime,
        # and 3 and 1.1.1 both have n - r even: at d = 1 the degree left is
        # 3 = 2d + 1, where parity alone cannot tell them apart
        for text in ("x^3-3x+1", "x^3-x^2-2x+1", "8x^3-6x+1"):
            f = parse_poly(text)
            disc = discriminant(f)
            assert math.isqrt(disc) ** 2 == disc
            pattern = _prime_loop(f, 3000)
            seen = set()
            for p in primes_upto(3000):
                got = pattern(p)
                if f.leading % p and disc % p:
                    assert got == degree_pattern(f, p), (text, p)
                    seen.add(got)
            assert seen == {(3,), (1, 1, 1)}, text


class TestProductCount:
    """Packed products and distinct-degree levels per census, on one CPU."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The rings built from now on, whose `products` count every packed
        product (those inside xpow and powers too), and the calls of their
        powers (one per level)."""
        calls = {"powers": 0, "rings": []}
        real_init, real_powers = _PackedRing.__init__, _PackedRing.powers

        def init(self, *args):
            real_init(self, *args)
            calls["rings"].append(self)

        def powers(self, *args):
            calls["powers"] += 1
            return real_powers(self, *args)

        monkeypatch.setattr(_PackedRing, "__init__", init)
        monkeypatch.setattr(_PackedRing, "powers", powers)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        return calls

    def test_census_products_pinned(self, calls):
        expect = {"x^4-x-1": (4449, 430), "x^8-x-1": (8429, 877), "x^12-x-1": (16774, 1389)}
        for text, pinned in expect.items():
            calls.update(powers=0, rings=[])
            census(parse_poly(text), 3000)
            products = sum(ring.products for ring in calls["rings"])
            assert (products, calls["powers"]) == pinned, text

    def test_degree_pattern_runs_every_level(self, monkeypatch, calls):
        signs = []
        real = frobenius._pattern_of_squarefree

        def recording(fbar, p, mu, roots, sign):
            signs.append(sign)
            return real(fbar, p, mu, roots, sign)

        monkeypatch.setattr(frobenius, "_pattern_of_squarefree", recording)
        f = parse_poly("x^12-x-1")
        # irreducible mod 5: levels d = 1..6 by gcds, 4 in the prime loop
        assert degree_pattern(f, 5) == (12,)
        assert (signs, calls["powers"]) == ([None], 6)
        assert _prime_loop(f, 5)(5) == (12,)
        assert (signs, calls["powers"]) == ([None, -1], 10)

    def test_irreducible_degree_twelve_runs_at_most_four_levels(self, calls):
        # parity settles level 5 (rest 12 lies in [10, 15)), and a single
        # factor needs no level 6
        pattern = _prime_loop(parse_poly("x^12-x-1"), 3000)
        irreducible = [p for p in primes_upto(3000) if pattern(p) == (12,)]
        assert len(irreducible) > 20
        for p in irreducible:
            calls["powers"] = 0
            pattern(p)
            assert calls["powers"] <= 4, p


class TestCensus:
    def test_gaussian_pin(self):
        result = census(GAUSSIAN, 100)
        assert result.counts == {(1, 1): 11, (2,): 13}
        assert result.ramified == (2,)
        assert result.prime_count == 25
        assert result.unramified_count == 24
        assert result.all_even_fraction() == 13 / 24
        frequencies = [row["frequency"] for row in result.to_dict()["patterns"]]
        assert abs(sum(frequencies) - 1.0) < 1e-12

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
        s4 = PermGroup(4, [Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))])
        stab = s4.pointwise_stabilizer((0,))
        action = CosetAction(s4, stab)
        types = {action.cyclic_orbit_sizes(Perm(g)) for g in group_elements(s4)}
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
