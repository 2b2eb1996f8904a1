import math
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
from degenera.frobenius import _rem_mod
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


class TestSharedPrimeLoop:
    def test_matches_per_prime_scan(self):
        rng = random.Random(30)
        bound = 400
        cases = []
        while len(cases) < 20:
            degree = rng.randint(2, 8)
            lead = 1 if len(cases) % 2 == 0 else rng.choice((-6, -3, -1, 2, 4, 5, 9))
            f = IntPoly([rng.randint(-9, 9) for _ in range(degree)] + [lead])
            if discriminant(f) != 0:
                cases.append(f)
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
