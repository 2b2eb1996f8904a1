"""Frobenius degree patterns of integer polynomials modulo primes.

The degree pattern of f mod p (the multiset of irreducible factor degrees)
equals the cycle type of Frobenius on the roots, hence the residue degrees
of the primes above p in the root field.  Two unramified primes whose
patterns are all even witness nonzero 2-torsion in the relative Brauer
group of the splitting field over the rationals; the census estimates the
Chebotarev densities of the patterns.

Only degree patterns are computed, never the factors themselves.  The
powers x^(p^d) mod f live in the ring GF(p)[x]/(f mod p) with each residue
packed into one Python int, a slot of k bits per coefficient (Kronecker
substitution): a product there is a fixed number of bigint operations, one
product plus Barrett reductions slot-wise mod p and polynomial-wise mod f,
with no loop over coefficients.  x^p comes from a square-and-multiply
ladder.  Primes are kept below 2^31, which bounds the slot width (see
`_PackedRing`).

For p > deg f the per-prime loop reads each distinct-degree count off a
trace (`_pattern_by_traces`): the trace of the d-th Frobenius power on
GF(p)[x]/(f mod p) counts the roots of f in GF(p^d), which is exact mod p
because it is at most deg f.  Its matrix has the powers of x^(p^d) as
columns, and x^(p^(d+1)) is a linear combination of those columns, so the
loop makes no gcd and no composition.  For p <= deg f the count mod p is
ambiguous, and the loop keeps the distinct-degree splitting
(`_pattern_of_squarefree`): x^(p^(d+1)) from x^(p^d) by Horner
composition with x^p, and gcds and exact divisions on coefficient lists
through one remainder by a monic polynomial.  `degree_pattern` always
splits by gcds, so it re-checks the trace path with another algorithm.

The census, the witness search and the galois search share one per-prime
function: the sieve and disc(f) are computed once, and the primes dividing
disc(f)·lc(f) count as ramified.  The census and the galois search split
their primes across the CPUs this process may run on (its affinity mask,
so `taskset` limits them): forked children each take an interleaved share
and send back only a pattern tally, which merges into exactly what one
scan would give.  The witness search stays a lazy scan that stops at the
second all-even prime.  `degree_pattern` stays a separate single-prime path
with its own primality and gcd(f, f') tests, so certificates and the test
oracles check the loop independently.  `parse_poly` refuses a degree above
DEGREE_LIMIT before it builds a coefficient list.
"""

from __future__ import annotations

import marshal
import os
import re
from dataclasses import dataclass
from itertools import islice

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

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
    coefficients, is rejected before any coefficient list is built.
    """
    s = text.replace("−", "-").replace("*", "").replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    if "," in s:
        parts = s.split(",")
        if len(parts) > DEGREE_LIMIT + 1:
            raise ValueError(
                "%d coefficients exceed the degree limit %d"
                % (len(parts), DEGREE_LIMIT)
            )
        return IntPoly([int(part) for part in parts])
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
        if power > DEGREE_LIMIT:
            raise ValueError("degree %d exceeds the limit %d" % (power, DEGREE_LIMIT))
        coeffs[power] = coeffs.get(power, 0) + coeff
    top = max(coeffs)
    return IntPoly([coeffs.get(i, 0) for i in range(top + 1)])


def primes_upto(bound):
    """Ascending primes <= bound by a byte sieve; bound must be below 2^31."""
    if bound >= PRIME_LIMIT:
        raise ValueError("bound %d must be below 2^31" % bound)
    if bound < 2:
        return []
    # 1 marks a composite; a failed bytearray repeat prints a stray
    # SystemError line on CPython 3.11, the zero-filled constructor does not
    sieve = bytearray(bound + 1)
    for i in range(2, int(bound**0.5) + 1):
        if not sieve[i]:
            sieve[i * i :: i] = b"\x01" * ((bound - i * i) // i + 1)
    return [i for i in range(2, bound + 1) if not sieve[i]]


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
    """Monic gcd in GF(p)[x] of coefficient lists with entries in 0..p-1.

    Each step makes the divisor monic with one inverse and takes the
    remainder in place; remainders come back reduced, so nothing is
    reduced mod p twice.
    """
    a = list(a)
    b = list(b)
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


def _divexact_mod(a, b, p):
    """Quotient a / b in GF(p)[x] for monic b; exact when b divides a."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        lead = a[shift + len(b) - 1] % p
        out[shift] = lead
        if lead:
            for i in range(len(b)):
                a[shift + i] = (a[shift + i] - lead * b[i]) % p
    return out


class _PackedRing:
    """GF(p)[x]/(fbar) with each residue packed into one Python int.

    Coefficient i of a residue lives in bits [k*i, k*(i+1)), its slot, so a
    polynomial product is one bigint product (Kronecker substitution) as
    long as no slot overflows.  Slots are reduced lazily: a residue's slots
    lie in [0, 2p), and only `unpack` takes them down to [0, p).

    Slot-wise Barrett step.  For a slot x < 2^s and m = floor(2^s / p), the
    quotient t = floor(x*m / 2^s) satisfies floor(x/p) - 1 <= t <= x/p, so
    x - t*p lies in [0, 2p).  Every slot at once: multiply by m, shift right
    by s, keep the low k - s bits of each slot, multiply by p and subtract.
    The slots do not interfere as long as x*m < 2^k for every slot x.

    Polynomial Barrett step (von zur Gathen and Gerhard, Modern Computer
    Algebra, 9.1).  For S of degree <= 2n-2 write S = lo + x^n*hi with
    deg lo < n.  With mu = floor(x^(2n-2) / fbar), the quotient of S by
    fbar is exactly q = floor(hi*mu / x^(n-2)) over GF(p), and the
    remainder is lo + lo(q*g), where g = x^n - fbar has degree < n.

    Largest slot value before each Barrett step of `mul(a, b)`, where a's
    slots are at most 3p-1 (a Horner accumulator: 2p-1 from `mul` plus a
    coefficient below p) and b's at most 2p-1; mu and g have slots below p:
      a*b            n*(3p-1)*(2p-1)      (n terms in the middle slot)
      hi*mu          (n-1)*(2p-1)*(p-1)
      lo + lo(q*g)   (2p-1) + (n-1)*(2p-1)*(p-1)
    in `mulx`, (2p-1) + (2p-1)*(p-1), and in `combine`, a sum of n
    products of a coefficient below p with a slot at most 2p-1, so at most
    n*(p-1)*(2p-1).  The first, `top`, is the largest, so s = bit length of
    top gives every slot x < 2^s, and k = bit length of top*m gives
    x*m < 2^k.  For n = 16 and p = 2^31 - 1, s = 69 and k = 107.
    """

    __slots__ = (
        "p", "n", "k", "s", "m", "qmask", "lomask", "hi_shift", "q_shift", "mu", "g"
    )

    def __init__(self, fbar, p):
        n = len(fbar) - 1
        top = n * (3 * p - 1) * (2 * p - 1)
        self.p, self.n = p, n
        self.s = top.bit_length()
        self.m = (1 << self.s) // p
        self.k = k = (top * self.m).bit_length()
        # low k - s bits of each of the 2n - 1 slots of a product
        self.qmask = ((1 << k * (2 * n - 1)) - 1) // ((1 << k) - 1) * (
            (1 << k - self.s) - 1
        )
        self.lomask = (1 << k * n) - 1
        self.hi_shift, self.q_shift = k * n, k * (n - 2)
        mu = _divexact_mod([0] * (2 * n - 2) + [1], fbar, p)
        self.mu = self.pack(mu)
        self.g = self.pack([-c % p for c in fbar[:-1]])

    def pack(self, coeffs):
        k = self.k
        return sum(c << k * i for i, c in enumerate(coeffs))

    def unpack(self, a):
        """Coefficient list in [0, p) without trailing zeros."""
        k, p = self.k, self.p
        slot = (1 << k) - 1
        out = [(a >> k * i & slot) % p for i in range(self.n)]
        while out and out[-1] == 0:
            out.pop()
        return out

    def mul(self, a, b):
        """a*b mod fbar; a's slots at most 3p-1, b's at most 2p-1."""
        p, s, m, qmask, lomask = self.p, self.s, self.m, self.qmask, self.lomask
        c = a * b
        c -= (c * m >> s & qmask) * p
        q = (c >> self.hi_shift) * self.mu >> self.q_shift
        q -= (q * m >> s & qmask) * p
        r = (c & lomask) + (q * self.g & lomask)
        return r - (r * m >> s & qmask) * p

    def mulx(self, a):
        """x*a mod fbar; a's slots at most 2p-1."""
        p, s, m, k = self.p, self.s, self.m, self.k
        r = (a << k & self.lomask) + (a >> self.hi_shift - k) * self.g
        return r - (r * m >> s & self.qmask) * p

    def xpow(self):
        """x^p by square-and-multiply, for n >= 2."""
        h = 1 << self.k
        for bit in bin(self.p)[3:]:
            h = self.mul(h, h)
            if bit == "1":
                h = self.mulx(h)
        return h

    def compose(self, outer, inner):
        """outer(inner) by Horner; outer is a nonempty list in [0, p)."""
        acc = outer[-1]
        for c in outer[-2::-1]:
            acc = self.mul(acc, inner) + c
        return acc

    def powers(self, h):
        """[h^0, h^1, ..., h^(n-1)] by n - 2 products; h's slots at most 2p-1."""
        out = [1, h]
        for _ in range(self.n - 2):
            out.append(self.mul(out[-1], h))
        return out

    def trace(self, powers):
        """Sum of slot j of powers[j] over j, mod p: the trace of the map
        x^j -> powers[j] on GF(p)[x]/(fbar)."""
        k = self.k
        slot = (1 << k) - 1
        return sum(h >> k * j & slot for j, h in enumerate(powers)) % self.p

    def combine(self, coeffs, powers):
        """sum of coeffs[j]*powers[j]; coeffs in [0, p), powers' slots at
        most 2p-1, so no slot of the sum exceeds n*(p-1)*(2p-1)."""
        p, s, m = self.p, self.s, self.m
        r = sum(c * h for c, h in zip(coeffs, powers) if c)
        return r - (r * m >> s & self.qmask) * p


def _pattern_of_squarefree(fbar, p):
    """Distinct-degree splitting of a monic squarefree fbar in GF(p)[x].

    x^p mod fbar comes from one square-and-multiply ladder; the higher
    powers x^(p^d) come from composing x^(p^(d-1)) with x^p, since
    substitution into a polynomial over GF(p) commutes with the Frobenius
    power map.  Both stay modulo the original fbar: the gcd with the
    shrinking factor `current` is the same either way.  Once the factor
    left over has degree below 2d it is irreducible, so the last quotient
    is never formed, only its degree.
    """
    n = len(fbar) - 1
    if n <= 1:
        return (1,) * n
    ring = _PackedRing(fbar, p)
    degrees = []
    current = fbar
    frob = ring.xpow()
    power = frob
    d = 1
    while True:
        coeffs = ring.unpack(power)
        minus_x = coeffs + [0] * (2 - len(coeffs))
        minus_x[1] = (minus_x[1] - 1) % p
        part = _gcd_mod(minus_x, current, p)
        rest = len(current) - len(part)  # degree of current / part
        if len(part) > 1:
            degrees.extend([d] * ((len(part) - 1) // d))
        d += 1
        if 2 * d > rest:
            break
        if len(part) > 1:
            current = _divexact_mod(current, part, p)
        power = ring.compose(coeffs, frob)
    if rest:
        degrees.append(rest)
    return tuple(sorted(degrees, reverse=True))


def _pattern_by_traces(fbar, p):
    """Degree pattern of a monic squarefree fbar of degree n < p, no gcds.

    Frobenius s acts on A = GF(p)[x]/(fbar) with s^d(x^j) = h^j, where
    h = x^(p^d) mod fbar.  Its trace N_d = sum of slot j of h^j counts the
    roots of fbar in GF(p^d), which is the sum of e*r_e over e | d when fbar
    has r_e irreducible factors of degree e; N_d <= n < p, so N_d mod p is
    exact and r_d follows from the r_e with e < d.  The next power is
    x^(p^(d+1)) = s^d(x^p) = sum of c_j*h^j over the coefficients c_j of
    x^p, one linear combination of the powers already made.  As in
    `_pattern_of_squarefree`, the degree left once it is below 2(d+1) is a
    single irreducible factor.
    """
    n = len(fbar) - 1
    if n <= 1:
        return (1,) * n
    ring = _PackedRing(fbar, p)
    frob = ring.xpow()
    xp = ring.unpack(frob)
    found = []  # (e, r_e) with r_e > 0
    rest = n
    power = frob
    d = 1
    while True:
        powers = ring.powers(power)
        roots = ring.trace(powers) - sum(e * r for e, r in found if d % e == 0)
        assert 0 <= roots <= rest and roots % d == 0, (p, d, roots)
        if roots:
            found.append((d, roots // d))
            rest -= roots
        d += 1
        if 2 * d > rest:
            break
        power = ring.combine(xp, powers)
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


def _prime_loop(f, bound):
    """The primes p <= bound and the per-prime pattern function of f.

    The function maps p to the degree pattern of f mod p, or to None when p
    is ramified.  The sieve and disc(f) are computed here, before any prime
    is tried, so a bound at the prime limit or a non-squarefree f fails at
    once.  For monic f the ramified primes are exactly those dividing the
    discriminant, so they are split off by divisibility and the per-prime
    work stays on the squarefree path.  Primes dividing the leading
    coefficient of a non-monic f also count as ramified, since the pattern
    is undefined for them.  Primes above deg f take the trace count, the
    others the gcd splitting.
    """
    plist = primes_upto(bound)
    disc = discriminant(f)
    if disc == 0:
        raise ValueError("polynomial is not squarefree (discriminant 0)")
    disc_lead = disc * f.leading
    n = f.degree

    def pattern(p):
        if disc_lead % p == 0:
            return None
        if p > n:
            return _pattern_by_traces(_monic_mod(f.coeffs, p), p)
        return _pattern_of_squarefree(_monic_mod(f.coeffs, p), p)

    return plist, pattern


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


def _tally(f, bound):
    """Pattern tally and ramified primes over all primes p <= bound.

    Returns ({pattern: [count, first prime]}, ramified primes ascending).
    The primes are split across the usable CPUs (`_map_shares`), and each
    share sends back only its tally; the first prime of each pattern lets
    the shares merge into what one ascending scan would give.
    """
    plist, pattern = _prime_loop(f, bound)

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
    tally, ramified = _tally(f, bound)
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
    plist, pattern = _prime_loop(f, bound)
    if f.degree % 2 == 1:
        return None
    even = (
        (p, pat)
        for p, pat in zip(plist, map(pattern, plist))
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
    return set(_tally(f, bound)[0])


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
