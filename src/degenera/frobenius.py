"""Frobenius degree patterns of integer polynomials modulo primes.

The degree pattern of f mod p (the multiset of irreducible factor degrees)
equals the cycle type of Frobenius on the roots, hence the residue degrees
of the primes above p in the root field.  Two unramified primes whose
patterns are all even witness nonzero 2-torsion in the relative Brauer
group of the splitting field over the rationals; the census estimates the
Chebotarev densities of the patterns.

Only degree patterns are computed, never the factors themselves, via
distinct-degree splitting: x^(p^d) mod f by square-and-multiply for d = 1,
then modular composition for higher d (Frobenius commutes with polynomial
composition over GF(p)).  Every reduction in GF(p)[x] goes through one
remainder by a monic polynomial.  Primes are kept below 2^31; Python
integers give exact double-width intermediates for free.

The census, the witness search and the galois search share one per-prime
loop: it sieves once, computes disc(f) once, and counts the primes dividing
disc(f)·lc(f) as ramified.  `degree_pattern` stays a separate single-prime
path with its own primality and gcd(f, f') tests, so certificates and the
test oracles check the loop independently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

PRIME_LIMIT = 2**31

DEFAULT_CENSUS_BOUND = 10**6
DEFAULT_WITNESS_BOUND = 10**4


class IntPoly:
    """Integer polynomial, coefficients stored ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [int(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            raise ValueError("polynomial must have degree at least 1")
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return self.coeffs[-1] == 1

    def derivative_coeffs(self):
        return tuple(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "x" if mag == 1 else "%dx" % mag
            else:
                body = "x^%d" % i if mag == 1 else "%dx^%d" % (mag, i)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "IntPoly(%r)" % (list(self.coeffs),)


_TERM = re.compile(r"^([+-]?)(\d*)(x)?(?:\^(\d+))?$")


def parse_poly(text):
    """Parse 'x^4-x-1' style or ascending comma form '-1,-1,0,0,1'."""
    s = text.replace("−", "-").replace("*", "").replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    if "," in s:
        return IntPoly([int(part) for part in s.split(",")])
    coeffs = {}
    for term in re.findall(r"[+-]?[^+-]+|[+-](?=[+-])", s):
        match = _TERM.match(term)
        if match is None:
            raise ValueError("cannot parse term %r" % term)
        sign, digits, var, exp = match.groups()
        if not digits and not var:
            raise ValueError("cannot parse term %r" % term)
        coeff = int(digits) if digits else 1
        if sign == "-":
            coeff = -coeff
        power = int(exp) if exp else (1 if var else 0)
        if exp is not None and var is None:
            raise ValueError("exponent without variable in %r" % term)
        coeffs[power] = coeffs.get(power, 0) + coeff
    top = max(coeffs)
    return IntPoly([coeffs.get(i, 0) for i in range(top + 1)])


def primes_upto(bound):
    """Ascending primes <= bound by a byte sieve; bound must be below 2^31."""
    if bound >= PRIME_LIMIT:
        raise ValueError("bound %d must be below 2^31" % bound)
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(bound**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray((bound - i * i) // i + 1)
    return [i for i in range(2, bound + 1) if sieve[i]]


def is_prime(n):
    """Deterministic Miller-Rabin; the fixed bases cover far beyond 2^31."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prem(a, b):
    """Pseudo-remainder of a by b: lc(b)^(deg a - deg b + 1) * a mod b.

    Each elimination step scales by lc(b) once; the loop can terminate in
    fewer than deg a - deg b + 1 steps when leading terms cancel, so the
    remaining power of lc(b) is applied at the end to match the exact
    classical definition (which the subresultant divisions rely on).
    """
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    db = len(b) - 1
    lb = b[-1]
    scale_left = len(a) - db
    while a and len(a) - 1 >= db:
        if a[-1] == 0:
            a.pop()
            continue
        lead = a[-1]
        shift = len(a) - 1 - db
        a = [c * lb for c in a]
        for i in range(db + 1):
            a[shift + i] -= lead * b[i]
        scale_left -= 1
        while a and a[-1] == 0:
            a.pop()
    if scale_left > 0 and a:
        factor = lb**scale_left
        a = [c * factor for c in a]
    return a


def resultant(f, g):
    """Res(f, g) over the integers by the subresultant remainder sequence."""
    a = list(f.coeffs) if isinstance(f, IntPoly) else list(f)
    b = list(g.coeffs) if isinstance(g, IntPoly) else list(g)
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    if not a or not b:
        return 0
    if len(a) == 1:
        return a[0] ** (len(b) - 1)
    if len(b) == 1:
        return b[0] ** (len(a) - 1)
    sign = 1
    if len(a) < len(b):
        if (len(a) - 1) % 2 == 1 and (len(b) - 1) % 2 == 1:
            sign = -sign
        a, b = b, a
    g_coef = 1
    h_coef = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _prem(a, b)
        if not r:
            return 0
        divisor = g_coef * h_coef**delta
        a = b
        assert all(c % divisor == 0 for c in r)
        b = [c // divisor for c in r]
        g_coef = a[-1]
        if delta:
            h_coef = g_coef**delta // h_coef ** (delta - 1)
    da = len(a) - 1
    return sign * (b[0] ** da // h_coef ** (da - 1) if da > 1 else b[0] ** da)


def discriminant(f):
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f), exact over the integers."""
    n = f.degree
    res = resultant(f.coeffs, f.derivative_coeffs())
    num = -res if (n * (n - 1) // 2) % 2 else res
    quot, rem = divmod(num, f.leading)
    assert rem == 0
    return quot


def _monic_mod(coeffs, p):
    """Reduce mod p and scale monic; leading coefficient must be a unit."""
    c = [x % p for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if not c:
        return []
    if c[-1] != 1:
        inv = pow(c[-1], -1, p)
        c = [x * inv % p for x in c]
    return c


def _rem_mod(a, f, p):
    """a mod monic f in GF(p)[x], in place; a's entries must lie in 0..p-1."""
    n = len(f) - 1
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k]
        if c:
            shift = k - n
            for i in range(n):
                a[shift + i] = (a[shift + i] - c * f[i]) % p
    del a[n:]
    while a and a[-1] == 0:
        a.pop()
    return a


def _gcd_mod(a, b, p):
    """Monic gcd in GF(p)[x]; inputs are coefficient lists."""
    a = _monic_mod(a, p)
    b = _monic_mod(b, p)
    while b:
        a, b = b, _monic_mod(_rem_mod(a, b, p), p)
    return a


def _divexact_mod(a, b, p):
    """Quotient a / b in GF(p)[x] for monic b dividing a exactly."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        lead = a[shift + len(b) - 1] % p
        out[shift] = lead
        if lead:
            for i in range(len(b)):
                a[shift + i] = (a[shift + i] - lead * b[i]) % p
    return out


def _mulmod(a, b, f, p):
    """a * b reduced by monic f, all in GF(p)[x]."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _rem_mod(prod, f, p)


def _xpow_mod(f, p):
    """x^p mod f by square-and-multiply; multiplying by x is a shift."""
    h = _rem_mod([0, 1], f, p)
    for bit in bin(p)[3:]:
        h = _mulmod(h, h, f, p)
        if bit == "1":
            h = _rem_mod([0] + h, f, p)
    return h


def _compose_mod(outer, inner, f, p):
    """outer(inner) mod f by Horner over the outer coefficients."""
    out = []
    for c in reversed(outer):
        out = _mulmod(out, inner, f, p) if out else []
        if c:
            if out:
                out[0] = (out[0] + c) % p
            else:
                out = [c % p]
    return out


def _pattern_of_squarefree(fbar, p):
    """Distinct-degree splitting of a monic squarefree fbar in GF(p)[x].

    x^p mod f comes from one square-and-multiply ladder; the higher powers
    x^(p^d) come from modular composition, since substitution into a
    polynomial over GF(p) commutes with the Frobenius power map.
    """
    n = len(fbar) - 1
    if n <= 1:
        return (1,) * n
    degrees = []
    current = fbar
    frob = _xpow_mod(current, p)
    power = frob
    d = 1
    while 2 * d <= len(current) - 1:
        minus_x = list(power)
        if len(minus_x) < 2:
            minus_x += [0] * (2 - len(minus_x))
        minus_x[1] = (minus_x[1] - 1) % p
        part = _gcd_mod(minus_x, current, p)
        if len(part) > 1:
            degrees.extend([d] * ((len(part) - 1) // d))
            current = _divexact_mod(current, part, p)
            if len(current) == 1:
                return tuple(sorted(degrees, reverse=True))
            frob = _rem_mod(frob[:], current, p)
            power = _rem_mod(power[:], current, p)
        d += 1
        if 2 * d > len(current) - 1:
            break
        power = _compose_mod(power, frob, current, p)
    degrees.append(len(current) - 1)
    return tuple(sorted(degrees, reverse=True))


def degree_pattern(f, p):
    """Factor degree multiset of f mod p (descending), or None when ramified.

    Ramified means gcd(f, f') mod p is nonconstant, i.e. f mod p is not
    squarefree; for monic f these are exactly the primes dividing disc(f).
    """
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    if p >= PRIME_LIMIT:
        raise ValueError("prime %d exceeds the 2^31 limit" % p)
    if f.leading % p == 0:
        raise ValueError("prime %d divides the leading coefficient" % p)
    fbar = _monic_mod(f.coeffs, p)
    if len(_gcd_mod(fbar, f.derivative_coeffs(), p)) > 1:
        return None
    return _pattern_of_squarefree(fbar, p)


@dataclass(frozen=True)
class CensusResult:
    poly: IntPoly
    bound: int
    counts: dict
    ramified: tuple
    prime_count: int

    @property
    def unramified_count(self):
        return self.prime_count - len(self.ramified)

    def frequencies(self):
        total = self.unramified_count
        return {pat: cnt / total for pat, cnt in self.counts.items()}

    def all_even_fraction(self):
        even = sum(
            cnt for pat, cnt in self.counts.items() if all(d % 2 == 0 for d in pat)
        )
        return even / self.unramified_count

    def to_dict(self):
        return {
            "poly": str(self.poly),
            "bound": self.bound,
            "prime_count": self.prime_count,
            "ramified": list(self.ramified),
            "patterns": [
                {
                    "pattern": ".".join(str(d) for d in pat),
                    "count": cnt,
                    "frequency": cnt / self.unramified_count,
                }
                for pat, cnt in sorted(self.counts.items())
            ],
            "all_even_fraction": self.all_even_fraction(),
        }


def _patterns(f, bound):
    """(p, pattern) for each prime p <= bound; the pattern is None when ramified.

    The sieve and disc(f) are computed before the first prime is yielded, so
    a bound at the prime limit or a non-squarefree f fails at once.  For
    monic f the ramified primes are exactly those dividing the discriminant,
    so they are split off by divisibility and the per-prime work stays on the
    squarefree path.  Primes dividing the leading coefficient of a non-monic
    f also count as ramified, since the pattern is undefined for them.
    """
    plist = primes_upto(bound)
    disc = discriminant(f)
    if disc == 0:
        raise ValueError("polynomial is not squarefree (discriminant 0)")
    disc_lead = disc * f.leading
    return (
        (p, _pattern_of_squarefree(_monic_mod(f.coeffs, p), p) if disc_lead % p else None)
        for p in plist
    )


def census(f, bound=DEFAULT_CENSUS_BOUND):
    """Degree patterns over all primes <= bound, counted per pattern."""
    counts = {}
    ramified = []
    for p, pat in _patterns(f, bound):
        if pat is None:
            ramified.append(p)
        else:
            counts[pat] = counts.get(pat, 0) + 1
    if not counts:
        raise ValueError("no unramified prime up to %d" % bound)
    return CensusResult(
        poly=f,
        bound=bound,
        counts=counts,
        ramified=tuple(ramified),
        prime_count=len(ramified) + sum(counts.values()),
    )


@dataclass(frozen=True)
class WitnessCertificate:
    """Two unramified primes whose degree patterns are entirely even."""

    poly: IntPoly
    primes: tuple
    patterns: tuple

    def verify(self):
        for p, pat in zip(self.primes, self.patterns):
            again = degree_pattern(self.poly, p)
            if again != pat or again is None or any(d % 2 for d in again):
                return False
        return len(set(self.primes)) == 2

    def to_dict(self):
        return {
            "poly": str(self.poly),
            "primes": list(self.primes),
            "patterns": [".".join(str(d) for d in pat) for pat in self.patterns],
        }


def _require_monic(f):
    if not f.is_monic:
        raise ValueError("witness search needs a monic polynomial")


def find_even_witnesses(f, bound=DEFAULT_WITNESS_BOUND):
    """The two smallest unramified primes <= bound with all-even patterns.

    Returns None when fewer than two exist; an odd-degree polynomial can
    never produce an all-even pattern, so it short-circuits to None once the
    bound and the discriminant have been checked.
    """
    _require_monic(f)
    patterns = _patterns(f, bound)
    if f.degree % 2 == 1:
        return None
    even = (
        (p, pat)
        for p, pat in patterns
        if pat is not None and not any(d % 2 for d in pat)
    )
    found = list(islice(even, 2))
    if len(found) < 2:
        return None
    primes, pats = zip(*found)
    return WitnessCertificate(poly=f, primes=primes, patterns=pats)


def galois_cycle_witnesses(f, bound=DEFAULT_WITNESS_BOUND):
    """Set of unramified degree patterns observed for primes <= bound."""
    _require_monic(f)
    return {pat for _, pat in _patterns(f, bound) if pat is not None}


def certifies_symmetric_group(patterns, n):
    """Whether observed patterns force the Galois group to be all of S_n.

    An n-cycle gives transitivity, and a transitive group containing an
    (n-1)-cycle and a transposition is the full symmetric group.
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    if n == 2:
        return (2,) in patterns
    transposition = tuple([2] + [1] * (n - 2))
    return (
        (n,) in patterns
        and (n - 1, 1) in patterns
        and transposition in patterns
    )


DEMO_QUARTIC = IntPoly((-1, -1, 0, 0, 1))
