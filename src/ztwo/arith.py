"""Exact integer kernel: primality, squarefree factorization, modular power
and square root.

All functions are pure and deterministic.  Bounds are deliberately modest
(inputs below 2**40 for factorization, 2**64 for primality) so that every
intermediate stays well inside native big-int comfort and the primality
test is provably correct, not probabilistic.

A single n is factored by trial division and Pollard rho (factorize,
factor_squarefree).  A window of odd d is factored at once by
odd_squarefree_range: a segmented sieve of Eratosthenes in blocks of
2,048 odd d, with the primes up to isqrt(min(dmax, 2**40 - 1)) sieved
once per call, over the same [3, 2**40) domain as factor_squarefree.
Both build their OddSquarefree through OddSquarefree._proven, which
skips the constructor's checks: each factor is proved prime once, by
the sieve or by factorize, and not again by Miller-Rabin.  is_squarefree
factors nothing: trial division to the cube root, then one isqrt.

Every quadratic congruence of the package is solved here: a square root
modulo a prime in one pass, lifted one base-p digit at a time to a prime
power (_sqrt_mod_prime_power), or just one root joined by CRT modulo a
squarefree n (_sqrt_mod_squarefree).  The lift tries all p digits, so
it is only for small p: its one caller lifts at p <= 194 (the
reduced-form root table).
"""

from dataclasses import dataclass
from itertools import compress
from math import gcd, isqrt

from .errors import InvalidInput, NotQuadraticResidue, NotSquarefree

PRIMALITY_BOUND = 1 << 64
FACTOR_BOUND = 1 << 40

# Witnesses proven sufficient for a deterministic Miller-Rabin below 3.3e24,
# which covers the full 2**64 input range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (bound, k): the first k witnesses prove every n below bound (Jaeschke,
# Math. Comp. 61, 1993); each bound is the least strong pseudoprime to
# those k witnesses.
_MR_PREFIXES = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_TRIAL_LIMIT = 1 << 16

_SIEVE_BLOCK = 2048  # the least number of odd d per block of odd_squarefree_range

_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)  # steps over the residues coprime to 30, from 7


@dataclass(frozen=True)
class OddSquarefree:
    """An odd squarefree integer with its ascending distinct prime factors.

    The public constructor OddSquarefree(value, factors) checks all of
    it (odd, product, order, each factor proved by is_prime).  The
    factorizers of this module build through _proven instead, each with
    its own proof in its docstring.
    """

    value: int
    factors: tuple

    def __post_init__(self):
        if self.value % 2 == 0:
            raise InvalidInput(f"{self.value} is even")
        prod = 1
        for p in self.factors:
            prod *= p
        if prod != self.value:
            raise InvalidInput(f"factors {self.factors} do not multiply to {self.value}")
        if list(self.factors) != sorted(set(self.factors)):
            raise InvalidInput(f"factors {self.factors} not sorted and distinct")
        if not all(is_prime(p) for p in self.factors):
            raise InvalidInput(f"non-prime entry in {self.factors}")

    @classmethod
    def _proven(cls, value, factors):
        # for factorizations proved where they are made; no checks
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "factors", factors)
        return self

    def __int__(self):
        return self.value

    def __str__(self):
        return str(self.value)


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for 1 < n < 2**64.

    Trial division by the primes to 47, then Miller-Rabin with the
    shortest witness prefix proven for n (_MR_PREFIXES).
    """
    if not 1 < n < PRIMALITY_BOUND:
        raise InvalidInput(f"is_prime defined for 1 < n < 2**64, got {n}")
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 47 * 47:  # a composite below 47**2 has a prime factor below 47
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = next((_MR_WITNESSES[:k] for bound, k in _MR_PREFIXES if n < bound), _MR_WITNESSES)
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite n (Pollard rho, Floyd cycle finding)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise InvalidInput(f"factorization of {n} failed")  # unreachable in range


def factorize(n: int) -> dict:
    """Prime factorization {p: e} of 1 <= n < 2**40 by trial division + rho.

    Trial division runs to sqrt(n) or 2**16; only a cofactor left above
    2**32 goes to is_prime and Pollard rho.
    """
    if not 1 <= n < FACTOR_BOUND:
        raise InvalidInput(f"factorize defined for 1 <= n < 2**40, got {n}")
    fac = {}
    for p in (2, 3, 5):
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    f = 7
    steps = _WHEEL
    i = 0
    while f * f <= n and f < _TRIAL_LIMIT:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            fac[f] = e
        f += steps[i]
        i = (i + 1) % 8
    if f * f > n:
        # no prime below sqrt(n) divides n, so n is 1 or a prime
        if n > 1:
            fac[n] = 1
        return fac
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return fac


def factor_squarefree(n: int) -> OddSquarefree:
    """Factor an odd squarefree n in [3, 2**40); error if a square divides it.

    factorize proves every prime it returns (by trial division below the
    cofactor's square root, or by is_prime); with every exponent 1 the
    sorted primes are distinct and multiply to n, so nothing is left for
    the OddSquarefree checks to prove.
    """
    if n % 2 == 0 or not 3 <= n < FACTOR_BOUND:
        raise InvalidInput(f"need odd n with 3 <= n < 2**40, got {n}")
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        raise NotSquarefree(f"{n} is divisible by a square")
    return OddSquarefree._proven(n, tuple(sorted(fac)))


def _split_square(n: int) -> tuple:
    """(f, primes) with n = f**2 * prod(primes), primes those of odd exponent in factorize's order."""
    f, primes = 1, []
    for ell, e in factorize(n).items():
        f *= ell ** (e >> 1)
        if e & 1:
            primes.append(ell)
    return f, primes


def _odd_primes_to(n):
    """The odd primes p <= n, ascending (sieve of Eratosthenes on the odd
    numbers: index i stands for 2i + 1)."""
    if n < 3:
        return []
    half = (n + 1) // 2
    prime = bytearray([1]) * half
    prime[0] = 0
    for i in range(1, (isqrt(n) + 1) // 2):
        if prime[i]:
            p = 2 * i + 1
            prime[p * p // 2::p] = bytes(len(range(p * p // 2, half, p)))
    return list(compress(range(1, n + 1, 2), prime))


def _sieve_block(hi: int) -> int:
    # odd d per block on a window ending at hi: each block loops over the
    # odd primes up to isqrt(hi), most of which miss it, so the block grows
    # with that loop, as isqrt(hi) // 16; it is _SIEVE_BLOCK up to
    # hi = 1.07*10**9 and at most 65,535 below 2**40
    return max(_SIEVE_BLOCK, isqrt(hi) // 16)


def odd_squarefree_range(dmin: int, dmax: int):
    """OddSquarefree for every odd squarefree d in [dmin, dmax] with
    3 <= d < 2**40, ascending (generator).

    A segmented sieve of Eratosthenes over the odd d, _sieve_block(hi)
    of them at a time for the window's last d, hi, so memory stays
    bounded on any window.  The odd primes up to isqrt(hi), with
    hi = min(dmax, 2**40 - 1), are sieved once per call; a block divides
    out the primes p with p**2 at most its last d, end, drops every d
    with a prime square among them, and keeps the cofactor above 1 that
    is left as the last prime.

    Each d is built by OddSquarefree._proven, without the constructor's
    checks, because the sieve is itself the proof:
    - the divided-out primes come from Eratosthenes, ascending, each
      dividing d once;
    - a cofactor c > 1 left over has no prime factor up to isqrt(end)
      >= isqrt(d), so it is prime (c <= d); it is larger than every
      sieved prime, so the factors stay ascending and distinct, and
      their product is d;
    - a prime square above end cannot divide d, so the squares sieved
      are all there are.
    A d outside [3, 2**40) yields nothing, as factor_squarefree refuses
    it.
    """
    lo = max(3, dmin) | 1
    hi = min(dmax, FACTOR_BOUND - 1)
    if lo > hi:
        return
    primes = _odd_primes_to(isqrt(hi))
    block = _sieve_block(hi)
    for start in range(lo, hi + 1, 2 * block):
        end = min(start + 2 * block - 2, hi)  # last odd d of the block
        size = (end - start) // 2 + 1
        rest = list(range(start, end + 1, 2))
        factors = [[] for _ in range(size)]
        square = bytearray(size)
        for p in primes:
            pp = p * p
            if pp > end:
                break
            # start + 2i = 0 (mod p) at i = -start/2 (mod p); likewise mod p**2
            first = -start * ((p + 1) // 2) % p
            for i in range(first, size, p):
                rest[i] //= p
                factors[i].append(p)
            first = -start * ((pp + 1) // 2) % pp
            square[first::pp] = b"\1" * len(range(first, size, pp))
        for i in range(size):
            if square[i]:
                continue
            fs = factors[i]
            if rest[i] > 1:
                fs.append(rest[i])
            yield OddSquarefree._proven(start + 2 * i, tuple(fs))


def is_squarefree(n: int) -> bool:
    """True iff no square > 1 divides n (1 <= n < 2**40), without factoring.

    Trial division on factorize's wheel runs only while f**3 <= n, each
    divisor divided out once; one that divides again is a square factor.
    The cofactor n left then has no prime factor below its cube root, so
    it is 1, a prime, a product of two primes or a prime square, and is
    squarefree iff it is 1 or not a perfect square.
    """
    if not 1 <= n < FACTOR_BOUND:
        raise InvalidInput(f"is_squarefree defined for 1 <= n < 2**40, got {n}")
    for p in (2, 3, 5):
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
    f = 7
    steps = _WHEEL
    i = 0
    while f * f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return False
        f += steps[i]
        i = (i + 1) % 8
    r = isqrt(n)
    return n == 1 or r * r != n


def _sqrt_mod_prime(n, p):
    """A square root of n modulo an odd prime p; NotQuadraticResidue if none."""
    r = _sqrt_mod_prime_or_none(n, p)
    if r is None:
        raise NotQuadraticResidue(f"{n % p} is not a square modulo {p}")
    return r


def _sqrt_mod_prime_or_none(n, p):
    # a square root of n modulo an odd prime p, or None when n is a
    # non-residue; residuosity and root come from one pass: one pow and a
    # check at p = 3 (mod 4), Atkin's formula and a check at p = 5 (mod 8),
    # Euler's criterion then Tonelli-Shanks at p = 1 (mod 8)
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
        return r if r * r % p == n else None
    if p % 8 == 5:
        # v = (2n)**((p-5)/8) makes i = 2n v**2 a square root of -1 for a residue n
        v = pow(2 * n, (p - 5) // 8, p)
        r = n * v * (2 * n * v * v - 1) % p
        return r if r * r % p == n else None
    if pow(n, (p - 1) // 2, p) != 1:  # Euler's criterion
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # the least non-residue, by Euler's criterion: it is a prime, and not 2
    # as p = 1 (mod 8), and every odd z below it is a product of smaller
    # primes, all residues
    z = 3
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 2
    c = pow(z, q, p)
    r = pow(n, (q + 1) // 2, p)
    t = pow(n, q, p)
    m = s
    while t != 1:
        i, x = 0, t
        while x != 1:
            x = x * x % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def _sqrt_mod_prime_power(a, p, q):
    """Every z in [0, q) with z**2 = a (mod q), for a power q of a prime p.

    Seeded with the roots mod p (one pass for odd p not dividing a, else
    the single root a mod p), then lifted one base-p digit at a time by
    trying all p digits; the roots come out in the order of their base-p
    digits, lowest digit first.  A lift costs about p steps per root and
    digit, so callers lift only at small p.
    """
    if p > 2 and a % p:
        z = _sqrt_mod_prime_or_none(a, p)
        roots = [] if z is None else [z, p - z]
    else:
        roots = [a % p]
    mod = p
    while mod < q:
        nxt = mod * p
        roots = [z for r in roots for z in range(r, nxt, mod) if (z * z - a) % nxt == 0]
        mod = nxt
    return roots


def _sqrt_mod_squarefree(a, primes):
    """One z in [0, n) with z**2 = a (mod n), or None when there is none,
    for the squarefree n with the distinct prime divisors primes: one root
    per prime (a mod 2 at 2), joined by CRT."""
    z, mod = 0, 1
    for p in primes:
        r = a % 2 if p == 2 else _sqrt_mod_prime_or_none(a, p)
        if r is None:
            return None
        z += mod * ((r - z) * pow(mod, -1, p) % p)
        mod *= p
    return z
