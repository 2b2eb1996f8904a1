"""Frobenius degree patterns of integer polynomials modulo primes.

The degree pattern of f mod p (the multiset of irreducible factor degrees)
equals the cycle type of Frobenius on the roots, hence the residue degrees
of the primes above p in the root field.  Two unramified primes whose
patterns are all even witness nonzero 2-torsion in the relative Brauer
group of the splitting field over the rationals; the census estimates the
Chebotarev densities of the patterns.

Only degree patterns are computed, never the factors.  The powers
x^(p^d) mod f live in GF(p)[x]/(f mod p) with each residue packed into one
Python int, k bits per coefficient (Kronecker substitution): a product is
one bigint product plus Barrett reductions slot-wise mod p and
polynomial-wise mod f, with no loop over coefficients.  x^p comes from a
square-and-multiply ladder from the largest monomial x^e, e < n, read off
the leading bits of p, one Barrett step per bit; mu comes from one integer
pseudo-division per polynomial.  Primes stay below 2^31, which bounds the
slot width (see `_PackedRing`).

One distinct-degree loop serves every prime (`_pattern_of_squarefree`).
At degree d it makes the powers of h = x^(p^d) mod f, the columns of the
matrix of the d-th Frobenius power on GF(p)[x]/(f mod p), and counts the
roots of f in GF(p^d); the factor counts per degree follow by
inclusion-exclusion, and x^(p^(d+1)) is one linear combination of those
powers.  The roots are counted by the trace of that matrix for p > deg f,
where the count mod p is exact because it is at most deg f, and by
deg gcd(h - x, f mod p) otherwise.  At odd p the prime loop passes the
Legendre symbol (disc f / p), which by Stickelberger's theorem is
(-1)^(n-r) for r irreducible factors: once the degree left is in
[2d, 3d) at most two factors remain, and their parity settles the last
levels without their powers.

The census, the witness search and the galois search share one per-prime
function: the sieve and disc(f) are computed once, and the primes dividing
disc(f)·lc(f) count as ramified.  The census and the galois search split
their primes across the CPUs this process may run on (its affinity mask,
so `taskset` limits them): forked children each take an interleaved share
and send back only a pattern tally, which merges into exactly what one
scan would give.  The witness search stays a lazy scan that stops at the
second all-even prime.  `degree_pattern` stays a separate single-prime path
with its own primality and gcd(f, f') tests, the gcd count and no sign
(every level runs), so certificates and the test oracles re-check the
ramified primes, the trace count and the parity rule of the loop.
`parse_poly` refuses a degree above DEGREE_LIMIT before it builds a
coefficient list, and a number of more digits than the interpreter's
integer string conversion limit before it converts any.
"""

from __future__ import annotations

import marshal
import os
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")  # sieve bytes to primality

PRIME_LIMIT = 2**31
# parse_poly rejects a higher degree before building any coefficient list;
# census cost grows about as the cube of the degree
DEGREE_LIMIT = 256

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
    """Parse 'x^4-x-1' style or ascending comma form '-1,-1,0,0,1'.

    An exponent above DEGREE_LIMIT, or more than DEGREE_LIMIT + 1 comma
    coefficients, is rejected before any coefficient list is built, and a
    number that int() would refuse under the interpreter's integer string
    conversion limit (sys.get_int_max_str_digits(), 0 for none) before any
    is converted.
    """
    s = text.replace("−", "-").replace("*", "").replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    limit = sys.get_int_max_str_digits()
    if limit and any(len(run) > limit for run in re.findall(r"\d+", s)):
        raise ValueError("cannot parse a number of more than %d digits" % limit)
    if "," in s:
        parts = s.split(",")
        if len(parts) > DEGREE_LIMIT + 1:
            raise ValueError(
                "%d coefficients exceed the degree limit %d"
                % (len(parts), DEGREE_LIMIT)
            )
        if not all(re.fullmatch(r"[+-]?\d+", part) for part in parts):
            raise ValueError("cannot parse coefficient list %r" % text)
        return IntPoly([int(part) for part in parts])
    terms = re.findall(r"[+-]?[^+-]+|[+-](?=[+-])", s)
    if "".join(terms) != s:
        raise ValueError("cannot parse %r: it ends in a sign" % text)
    coeffs = {}
    for term in terms:
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
        if power > DEGREE_LIMIT:
            raise ValueError("degree %d exceeds the limit %d" % (power, DEGREE_LIMIT))
        coeffs[power] = coeffs.get(power, 0) + coeff
    top = max(coeffs)
    return IntPoly([coeffs.get(i, 0) for i in range(top + 1)])


def _check_bound(bound):
    if bound >= PRIME_LIMIT:
        raise ValueError("bound %d must be below 2^31" % bound)


def primes_upto(bound):
    """Ascending primes <= bound by a byte sieve; bound must be below 2^31."""
    _check_bound(bound)
    if bound < 2:
        return []
    # 1 marks a composite; a failed bytearray repeat prints a stray
    # SystemError line on CPython 3.11, the zero-filled constructor does not
    sieve = bytearray(bound + 1)
    sieve[0] = sieve[1] = 1
    for i in range(2, int(bound**0.5) + 1):
        if not sieve[i]:
            sieve[i * i :: i] = b"\x01" * ((bound - i * i) // i + 1)
    return list(compress(range(bound + 1), sieve.translate(_FLIP)))


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
    """Pseudo-remainder of a by b, lc(b)^(deg a - deg b + 1) * a mod b, for
    deg a >= deg b: that many elimination steps, each scaling by lc(b)."""
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    for shift in range(len(a) - 1 - db, -1, -1):
        lead = r.pop()
        r = [c * lb for c in r]
        for i in range(db):
            r[shift + i] -= lead * b[i]
    while r and r[-1] == 0:
        r.pop()
    return r


def _subresultant(a, b):
    """Res(a, b) over the integers by the subresultant remainder sequence,
    for coefficient sequences without trailing zeros, deg a >= 1 and
    deg a >= deg b >= 0: the case of f and f' in `discriminant`."""
    sign = 1
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
    return sign * (b[0] ** da // h_coef ** (da - 1))


def discriminant(f):
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f), exact over the integers."""
    n = f.degree
    res = _subresultant(f.coeffs, f.derivative_coeffs())
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
    """Remainder of a by monic f in GF(p)[x], in place; a's entries must lie
    in 0..p-1, and a comes back without trailing zeros."""
    n = len(f) - 1
    for top in range(len(a) - 1, n - 1, -1):
        c = a[top]
        if c:
            shift = top - n
            for i in range(n):
                a[shift + i] = (a[shift + i] - c * f[i]) % p
    del a[n:]
    while a and a[-1] == 0:
        a.pop()
    return a


def _gcd_mod(a, b, p):
    """Monic gcd in GF(p)[x] of coefficient lists with entries in 0..p-1:
    each step makes the divisor monic with one inverse and takes the
    remainder in place, reduced, so nothing is reduced mod p twice."""
    a, b = list(a), list(b)
    while b and b[-1] == 0:
        b.pop()
    if not b:
        return _monic_mod(a, p)
    while b:
        if b[-1] != 1:
            inv = pow(b[-1], -1, p)
            b = [c * inv % p for c in b]
        a, b = b, _rem_mod(a, b, p)
    return a


@lru_cache(maxsize=256)
def _layout(n, b):
    """(s, k, qmask, lomask) for a degree-n fbar at every prime of bit length
    b: slot bound s and width k (see `_PackedRing`), the low k - s bits of
    each of a product's 2n slots, and a residue's n slots."""
    top = n * ((1 << b + 1) - 3) ** 2
    s = top.bit_length()
    k = (top << s - b + 1).bit_length()
    qmask = ((1 << k * 2 * n) - 1) // ((1 << k) - 1) * ((1 << k - s) - 1)
    return s, k, qmask, (1 << k * n) - 1


def _ring_quotient(coeffs):
    """The pseudo-quotient q of lc^n*x^(2n-1) by f over the integers.

    lc^n*x^(2n-1) = q*f + r with deg r < n, each of the n elimination
    steps an exact division by lc.  For a prime p not dividing lc,
    fbar = f/lc mod p has mu = floor(x^(2n-1) / fbar) = q*lc^(1-n) mod p
    (`_ring_mu`): one integer division per polynomial, none per prime.
    """
    n, lead = len(coeffs) - 1, coeffs[-1]
    rem = [0] * (2 * n - 1) + [lead**n]
    quot = [0] * n
    for shift in range(n - 1, -1, -1):
        c, r = divmod(rem.pop(), lead)
        assert r == 0
        quot[shift] = c
        for i in range(n):
            rem[shift + i] -= c * coeffs[i]
    return quot


def _ring_mu(quot, lead, p):
    """mu = floor(x^(2n-1) / fbar) mod p from `_ring_quotient`'s q, whose
    n coefficients each take the scale lc^(1-n)."""
    scale = pow(lead, 1 - len(quot), p)
    return [c * scale % p for c in quot]


class _PackedRing:
    """GF(p)[x]/(fbar) with each residue packed into one Python int.

    Coefficient i of a residue lives in bits [k*i, k*(i+1)), its slot, so a
    polynomial product is one bigint product (Kronecker substitution) as
    long as no slot overflows.  Slots are reduced lazily: a residue's slots
    lie in [0, 2p), and only `unpack` takes them down to [0, p).  `products`
    counts the products of `mul` and of the inline loops of `xpow` and `powers`.

    Slot-wise Barrett step.  For a slot x < 2^s and m = floor(2^s / p), the
    quotient t = floor(x*m / 2^s) satisfies floor(x/p) - 1 <= t <= x/p, so
    x - t*p lies in [0, 2p).  Every slot at once: multiply by m, shift right
    by s, keep the low k - s bits of each slot, multiply by p and subtract.
    The slots do not interfere as long as x*m < 2^k for every slot x.

    Polynomial Barrett step (von zur Gathen and Gerhard, Modern Computer
    Algebra, 9.1).  For S of degree <= 2n-1 write S = lo + x^n*hi with
    deg lo < n.  With mu = floor(x^(2n-1) / fbar), the quotient of S by
    fbar is exactly q = floor(hi*mu / x^(n-1)) over GF(p), and the
    remainder is lo + lo(q*g), where g = x^n - fbar has degree < n: a
    square times x, a 1 bit of the x^p ladder, takes one reduction.  mu's
    coefficients come from f's integer pseudo-quotient (`_ring_mu`).

    Largest slot value before each Barrett step of a product a*b (times x
    or not), the slots of a and b at most 2p-1, those of mu and g below p:
      a*b            n*(2p-1)^2           (n terms in the middle slot)
      hi*mu          n*(2p-1)*(p-1)
      lo + lo(q*g)   (2p-1) + n*(2p-1)*(p-1)
    and in `combine`, a sum of n products of a coefficient below p with a
    slot at most 2p-1, at most n*(p-1)*(2p-1).  `_layout` bounds the
    first, the largest, for every prime of p's bit length b by
    top = n*(2^(b+1)-3)^2: s = bit length of top gives every slot x < 2^s,
    and as m <= 2^(s-b+1), k = bit length of top*2^(s-b+1) gives
    x*m < 2^k.  For n = 16 and b = 31, s = 68 and k = 106.
    """

    __slots__ = ("p", "n", "k", "s", "m", "qmask", "lomask", "hi_shift", "q_shift",
                 "mu", "g", "products")

    def __init__(self, fbar, p, mu):
        n = len(fbar) - 1
        s, k, self.qmask, self.lomask = _layout(n, p.bit_length())
        self.p, self.n, self.s, self.k, self.m = p, n, s, k, (1 << s) // p
        self.hi_shift, self.q_shift, self.products = k * n, k * (n - 1), 0
        self.mu = self.pack(mu)
        self.g = self.pack([-c % p for c in fbar[:-1]])

    def pack(self, coeffs):
        k, r = self.k, 0
        for c in reversed(coeffs):
            r = (r << k) + c
        return r

    def unpack(self, a):
        """Coefficient list in [0, p) without trailing zeros."""
        k, p, slot = self.k, self.p, (1 << self.k) - 1
        out = [(a >> k * i & slot) % p for i in range(self.n)]
        while out and out[-1] == 0:
            out.pop()
        return out

    def mul(self, a, b):
        """a*b mod fbar for deg a*b <= 2n-1, slots at most 2p-1: the step
        `xpow` and `powers` write inline, kept for the slot-bound tests."""
        p, s, m, qmask, lomask = self.p, self.s, self.m, self.qmask, self.lomask
        self.products += 1
        c = a * b
        c -= (c * m >> s & qmask) * p
        q = (c >> self.hi_shift) * self.mu >> self.q_shift
        q -= (q * m >> s & qmask) * p
        r = (c & lomask) + (q * self.g & lomask)
        return r - (r * m >> s & qmask) * p

    def xpow(self):
        """x^p, for n >= 2: the leading bits of p make the largest exponent
        e < n, and the ladder starts at the packed monomial x^e; each bit
        after those squares, a 1 bit shifting the square by one slot."""
        n, k, p, s, m, qmask = self.n, self.k, self.p, self.s, self.m, self.qmask
        lomask, hi_shift, q_shift = self.lomask, self.hi_shift, self.q_shift
        mu, g = self.mu, self.g
        bits = bin(p)[2:]
        j = min(len(bits), (n - 1).bit_length())
        e = p >> len(bits) - j
        if e >= n:
            j -= 1
            e >>= 1
        h = 1 << k * e
        for bit in bits[j:]:
            c = h * h
            if bit == "1":
                c <<= k
            c -= (c * m >> s & qmask) * p
            q = (c >> hi_shift) * mu >> q_shift
            q -= (q * m >> s & qmask) * p
            h = (c & lomask) + (q * g & lomask)
            h -= (h * m >> s & qmask) * p
        self.products += len(bits) - j
        return h

    def powers(self, h):
        """[h^0, h^1, ..., h^(n-1)] by n - 2 products; h's slots at most 2p-1."""
        p, s, m, qmask, lomask = self.p, self.s, self.m, self.qmask, self.lomask
        hi_shift, q_shift, mu, g = self.hi_shift, self.q_shift, self.mu, self.g
        out, a = [1, h], h
        for _ in range(self.n - 2):
            c = a * h
            c -= (c * m >> s & qmask) * p
            q = (c >> hi_shift) * mu >> q_shift
            q -= (q * m >> s & qmask) * p
            a = (c & lomask) + (q * g & lomask)
            a -= (a * m >> s & qmask) * p
            out.append(a)
        self.products += self.n - 2
        return out

    def trace(self, powers):
        """Sum of slot j of powers[j] over j, mod p: the trace of the map
        x^j -> powers[j] on GF(p)[x]/(fbar)."""
        k, slot = self.k, (1 << self.k) - 1
        return sum(h >> k * j & slot for j, h in enumerate(powers)) % self.p

    def combine(self, coeffs, powers):
        """sum of coeffs[j]*powers[j]; coeffs in [0, p), powers' slots at
        most 2p-1, so no slot of the sum exceeds n*(p-1)*(2p-1)."""
        p, s, m = self.p, self.s, self.m
        r = sum(c * h for c, h in zip(coeffs, powers) if c)
        return r - (r * m >> s & self.qmask) * p


def _roots_by_trace(ring, fbar, powers):
    """Roots of fbar in GF(p^d) as the trace of x^j -> h^j, mod p; exact
    only for p > deg fbar."""
    return ring.trace(powers)


def _roots_by_gcd(ring, fbar, powers):
    """Roots of fbar in GF(p^d) as deg gcd(h - x, fbar); exact for every p."""
    p = ring.p
    coeffs = ring.unpack(powers[1])
    minus_x = coeffs + [0] * (2 - len(coeffs))
    minus_x[1] = (minus_x[1] - 1) % p
    return len(_gcd_mod(minus_x, fbar, p)) - 1


def _pattern_of_squarefree(fbar, p, mu, roots, sign):
    """Degree pattern of a monic squarefree fbar in GF(p)[x].

    Frobenius s acts on A = GF(p)[x]/(fbar) with s^d(x^j) = h^j, where
    h = x^(p^d) mod fbar.  roots(ring, fbar, powers) counts the roots N_d
    of fbar in GF(p^d) from the powers [h^0, ..., h^(n-1)]; N_d is the sum
    of e*r_e over e | d when fbar has r_e irreducible factors of degree e,
    so r_d follows from the r_e with e < d.  x^p comes from one
    square-and-multiply ladder, and x^(p^(d+1)) = s^d(x^p) is the sum of
    c_j*h^j over the coefficients c_j of x^p (unpacked at d = 2, the first
    level that reads them), one linear combination of the powers already
    made.  mu is the ring constant (`_ring_mu`).

    Before level d every factor left has degree at least d, so a degree
    left below 2d is a single factor.  sign, for odd p, is the Legendre
    symbol (disc fbar / p) as 1 or -1, and by Stickelberger's theorem it
    equals (-1)^(n-r) for the number r of irreducible factors (Swan,
    Pacific J. Math. 12, 1962).  When 2d <= rest < 3d for the degree left,
    at most two factors remain: the parity of r tells one factor of degree
    rest from two, and two are d and rest - d when rest <= 2d + 1.  The
    guard rest < 3d matters at d = 1, rest = 3, where 3 and 1.1.1 have the
    same parity.  A quadratic at odd p thus needs no ring.  sign None (at
    p = 2, and in `degree_pattern`) runs every level.
    """
    n = len(fbar) - 1
    found = []  # (e, r_e) with r_e > 0
    rest = n
    d = 1
    while 2 * d <= rest:
        if sign is not None and rest < 3 * d:
            if (-1) ** (n - sum(r for _, r in found) - 1) == sign:
                break
            if rest <= 2 * d + 1:
                found.append((d, 1))
                rest -= d
                break
        if d == 1:
            ring = _PackedRing(fbar, p, mu)
            power = ring.xpow()
        else:
            if d == 2:
                xp = ring.unpack(power)
            power = ring.combine(xp, powers)
        powers = ring.powers(power)
        count = roots(ring, fbar, powers) - sum(e * r for e, r in found if d % e == 0)
        assert 0 <= count <= rest and count % d == 0, (p, d, count)
        if count:
            found.append((d, count // d))
            rest -= count
        d += 1
    degrees = [e for e, r in found for _ in range(r)]
    if rest:
        degrees.append(rest)
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
    fprime = [c % p for c in f.derivative_coeffs()]
    if len(_gcd_mod(fbar, fprime, p)) > 1:
        return None
    mu = _ring_mu(_ring_quotient(f.coeffs), f.leading, p)
    return _pattern_of_squarefree(fbar, p, mu, _roots_by_gcd, None)


def pattern_text(pattern):
    """A degree pattern as text, its degrees joined by dots: "4.2.1"."""
    return ".".join(map(str, pattern))


def _all_even(pattern):
    return not any(d % 2 for d in pattern)


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

    def all_even_fraction(self):
        even = sum(cnt for pat, cnt in self.counts.items() if _all_even(pat))
        return even / self.unramified_count

    def to_dict(self):
        return {
            "poly": str(self.poly),
            "bound": self.bound,
            "prime_count": self.prime_count,
            "ramified": list(self.ramified),
            "patterns": [
                {
                    "pattern": pattern_text(pat),
                    "count": cnt,
                    "frequency": cnt / self.unramified_count,
                }
                for pat, cnt in sorted(self.counts.items())
            ],
            "all_even_fraction": self.all_even_fraction(),
        }


def _prime_loop(f, bound):
    """The per-prime pattern function of f, for primes p <= bound.

    The function maps p to the degree pattern of f mod p, or to None when p
    is ramified.  The bound and disc(f) are checked here, before the caller
    builds the sieve, so a bound at the prime limit or a non-squarefree f
    fails at once.  The primes dividing disc(f) (for monic f exactly the
    ramified ones) and lc(f) (where the pattern is undefined) are split off
    by divisibility, so the per-prime work stays on the squarefree path.
    Primes above deg f count roots by the trace, the others by the gcd.
    Each odd prime gets the sign (disc f / p) = (disc fbar / p), as
    disc f = lc^(2n-2) disc fbar, for the parity rule of
    `_pattern_of_squarefree`, and mu from the integer quotient made once.
    """
    _check_bound(bound)
    disc = discriminant(f)
    if disc == 0:
        raise ValueError("polynomial is not squarefree (discriminant 0)")
    disc_lead = disc * f.leading
    n = f.degree
    quot = _ring_quotient(f.coeffs)

    def pattern(p):
        if disc_lead % p == 0:
            return None
        roots = _roots_by_trace if p > n else _roots_by_gcd
        sign = None
        if p > 2:
            sign = 1 if pow(disc, (p - 1) // 2, p) == 1 else -1
        mu = _ring_mu(quot, f.leading, p)
        return _pattern_of_squarefree(_monic_mod(f.coeffs, p), p, mu, roots, sign)

    return pattern


def _usable_cpus():
    """CPUs this process may run on; 1 without fork or an affinity mask."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _fork_share(work, share):
    """Start a child that sends marshal(work(share)) down a pipe.

    Returns (pid, read end of the pipe).  The child leaves only through
    os._exit, with status 0 once its result is written and 1 on any
    exception, so it never returns into the caller, flushes the parent's
    stdio buffers or runs its exit hooks.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = marshal.dumps(work(share))
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _map_shares(work, items):
    """[work(items[j::jobs]) for j in range(jobs)], one job per usable CPU.

    Share 0 runs in this process and share j > 0 in a forked child, so work
    may be a closure; its results must be marshal-able.  There are never
    more jobs than items.  A child that cannot be started, fails or is
    killed makes this raise ChildProcessError.  Every child is reaped before
    this returns or raises; when this raises, the children still running
    are killed first.  The package starts no threads, so the fork copies a
    process in which no other thread can hold a lock.
    """
    jobs = max(1, min(_usable_cpus(), len(items)))
    children = []
    try:
        for j in range(1, jobs):
            try:
                children.append(_fork_share(work, items[j::jobs]))
            except OSError as exc:
                raise ChildProcessError(
                    "cannot start a worker process: %s" % exc.strerror
                ) from exc
        results = [work(items[::jobs])]
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code < 0:
                raise ChildProcessError("worker process killed by signal %d" % -code)
            if code:
                raise ChildProcessError("worker process failed (exit status %d)" % code)
            results.append(marshal.loads(payload))
        return results
    finally:
        for pid, pipe in children:
            import signal  # only on this error path, not at every import

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _tally(pattern, bound):
    """Tally of a _prime_loop pattern function over all primes p <= bound.

    Returns ({pattern: [count, first prime]}, ramified primes ascending).
    The primes are split across the usable CPUs (`_map_shares`), and each
    share sends back only its tally; the first prime of each pattern lets
    the shares merge into what one ascending scan would give.
    """
    plist = primes_upto(bound)

    def share_tally(primes):
        tally, ramified = {}, []
        for p in primes:
            pat = pattern(p)
            if pat is None:
                ramified.append(p)
            elif pat in tally:
                tally[pat][0] += 1
            else:
                tally[pat] = [1, p]
        return tally, ramified

    tally, ramified = {}, []
    for share, share_ramified in _map_shares(share_tally, plist):
        ramified += share_ramified
        for pat, (count, first) in share.items():
            entry = tally.setdefault(pat, [0, first])
            entry[0] += count
            entry[1] = min(entry[1], first)
    if not tally:
        raise ValueError("no unramified prime up to %d" % bound)
    return tally, sorted(ramified)


def census(f, bound=DEFAULT_CENSUS_BOUND):
    """Degree patterns over all primes <= bound, counted per pattern.

    Patterns are keyed in the order of the first prime showing each.
    """
    tally, ramified = _tally(_prime_loop(f, bound), bound)
    counts = {
        pat: entry[0] for pat, entry in sorted(tally.items(), key=lambda kv: kv[1][1])
    }
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
            if again != pat or again is None or not _all_even(again):
                return False
        return len(set(self.primes)) == 2

    def to_dict(self):
        return {
            "poly": str(self.poly),
            "primes": list(self.primes),
            "patterns": [pattern_text(pat) for pat in self.patterns],
        }


def _require_monic(f):
    if not f.is_monic:
        raise ValueError("the polynomial must be monic (leading coefficient 1)")


def find_even_witnesses(f, bound=DEFAULT_WITNESS_BOUND):
    """The two smallest unramified primes <= bound with all-even patterns.

    Returns None when fewer than two exist; an odd-degree polynomial can
    never produce an all-even pattern, so it short-circuits to None once the
    bound and the discriminant have been checked, before the sieve.
    """
    _require_monic(f)
    pattern = _prime_loop(f, bound)
    if f.degree % 2 == 1:
        return None
    plist = primes_upto(bound)
    even = (
        (p, pat)
        for p, pat in zip(plist, map(pattern, plist))
        if pat is not None and _all_even(pat)
    )
    found = list(islice(even, 2))
    if len(found) < 2:
        return None
    primes, pats = zip(*found)
    return WitnessCertificate(poly=f, primes=primes, patterns=pats)


def galois_cycle_witnesses(f, bound=DEFAULT_WITNESS_BOUND):
    """Set of unramified degree patterns observed for primes <= bound.

    A degree below 2 is refused after the bound and disc(f), before the sieve.
    """
    _require_monic(f)
    pattern = _prime_loop(f, bound)
    if f.degree < 2:
        raise ValueError("degree must be at least 2")
    return set(_tally(pattern, bound)[0])


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
