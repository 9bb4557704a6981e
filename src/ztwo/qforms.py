"""Class groups of imaginary quadratic fields via reduced binary forms.

A form (a, b, c) stands for a*x**2 + b*x*y + c*y**2 of discriminant
b**2 - 4*a*c < 0.  Reduced forms biject with ideal classes; Gauss
composition realizes the group law; a full form count plus order
computation yields the exact elementary-divisor chain.  No analytic or
subexponential shortcuts anywhere: every class number class_group
reports is a form count.

Composition follows Cohen, A Course in Computational Algebraic Number
Theory, Algorithm 5.4.7; on f == g it performs the steps of duplication,
Algorithm 5.4.8, so squaring has no separate kernel.  It ends in the one
reduction loop that reduce_form also runs.  The structure builder
composes plain (a, b, c) tuples (_compose, _pow); the public functions
check their input and return FormClass.  Enumeration reads the roots of
a quadratic congruence modulo every prime power q from one _RootTable
per D; each root yields at most one reduced form (_forms).  class_group
counts the forms of its D as products of prime-power root counts,
testing only the roots that can fail.  class_group_sweep takes its
discriminants from one segmented sieve of the prime squares over |D|,
which proves each one fundamental, and their class numbers from one
tally per sieve block: the n = |D| of the reduced forms with a given
(a, b) run through a progression of step 4a, and one Counter counts
all of a block's progressions (_form_tally), so no D has its roots
counted.  The generators of
both are the prime forms (q, b, c), one per prime q <= sqrt(|D|/3) with
a root, each from one square root of D modulo q (_prime_forms): every
reduced form's ideal factors into prime ideals of smaller norm, so they
generate Cl(D).  One pass over them builds every Sylow subgroup: each
form f is raised once, to f**(h/m) with m the product of the orders of
the subgroups still open, and each of these takes its own power of that
image.  A Sylow subgroup of order p**e > p is closed under composition
up to its last generator: successive p-th powers of a new generator y
find the least y**(p**i) in the span H of the earlier ones, and when
that takes the full index of H, y is last and adds no cosets.  The shape
is the Smith form of the relations the generators satisfy (Teske, Math.
Comp. 67, 1998), at no further composition; one relation row or a
diagonal relation matrix is read directly, and two relation rows have
their Smith form in closed form.  A Sylow subgroup of order p is proved
by one y = f**(h/p) != 1 with y**p = f**h = 1, and f**h = 1 is checked
at most once per form: not at all when a closure step of the same f
already proved it, and when every Sylow subgroup is cyclic the chain is
(h,).  For odd p the ambiguous forms, of order at most 2, are never
tried as generators; for p = 2 an ambiguous form is its own inverse, so
its odd power h / 2**e is itself, which one squaring confirms, and that
squaring is its order check too.

two_sylow builds the 2-Sylow subgroup alone, counting no form: from the
ambiguous classes of the known prime divisors of D it halves square
classes (genus characters, then a square root from Lagrange's descent)
until no product of its generators is a square, and check_two_sylow
certifies the result independently of that construction.  The descent's
data for D (its squarefree part A, the primes of A and sqrt(D / A)) is
computed once per D and serves every square root.  At rank one, the
2-rank of Cl(-8p) and Cl(-pq), the only nonempty product of a basis is
its generator, so neither the halving nor the certificate forms subset
products; every check still runs.
"""

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import gcd, isqrt, prod
from typing import NamedTuple

from .arith import (
    FACTOR_BOUND,
    _odd_primes_to,
    _split_square,
    _sqrt_mod_prime_or_none,
    _sqrt_mod_prime_power,
    factorize,
    is_prime,
    is_squarefree,
)
from .diophantine import _legendre_descent
from .errors import (
    EnumerationBoundExceeded,
    IndefiniteForm,
    InvalidInput,
    MismatchedDiscriminant,
    NotSquarefree,
    PrecondViolated,
)
from .symbols import jacobi

ENUMERATION_BOUND = 1 << 32
_SWEEP_BLOCK = 1 << 12  # the |D| per block of class_group_sweep's sieve and form tally


@dataclass(frozen=True, slots=True)
class Discriminant:
    """A fundamental negative discriminant -2**40 < D < 0: checked once when
    built, trusted after.

    The constructor raises InvalidInput for D <= -2**40 and for a D that
    is not a discriminant, NotSquarefree when its radicand has a square
    factor.  class_group_sweep builds through _proven instead, because its
    sieve is the proof (_fundamental_blocks).
    """

    D: int

    def __post_init__(self):
        _check_domain(self.D)
        m = _radicand(self.D)
        if m is None:
            raise InvalidInput(f"{self.D} is not a fundamental negative discriminant")
        if not is_squarefree(-m):
            raise NotSquarefree(f"{self.D} is not a fundamental negative discriminant: "
                                f"{m} is not squarefree")

    @classmethod
    def _proven(cls, D):
        # for a D proved fundamental where it is made; no checks
        self = object.__new__(cls)
        object.__setattr__(self, "D", D)
        return self

    def __int__(self):
        return self.D


class FormClass(NamedTuple):
    """A reduced positive-definite binary quadratic form."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self):
        return self.b * self.b - 4 * self.a * self.c


@dataclass(frozen=True, slots=True)
class ClassGroupStructure:
    """Order and cyclic decomposition of Cl(D).

    divisors is the chain d1 | d2 | ... | dk (ascending, each > 1) whose
    product is h; h2 is the largest power of 2 dividing h; two_rank counts
    the even entries of the chain.
    """

    D: Discriminant
    h: int
    divisors: tuple
    h2: int
    two_rank: int

    @classmethod
    def from_chain(cls, D, h: int, chain):
        """Structure of Cl(D) of order h with the given chain; h2 and
        two_rank follow.

        Raises InvalidInput unless D (an int or a Discriminant) is
        fundamental, each chain entry is at least 2 and divides the next,
        and the entries multiply to h.
        """
        chain = tuple(chain)
        for i, d in enumerate(chain):
            if d < 2 or (i and d % chain[i - 1]):
                raise InvalidInput(f"{list(chain)} is not an elementary-divisor chain")
        if prod(chain) != h:
            raise InvalidInput(f"chain {list(chain)} has product {prod(chain)}, not h = {h}")
        return cls(D=_as_discriminant(D), h=h, divisors=chain, h2=h & -h,
                   two_rank=sum(1 for d in chain if d % 2 == 0))


def _radicand(D: int):
    """The m with D = m = 1 (mod 4) or D = 4m, m != 1 (mod 4), for D < 0,
    else None; D is fundamental iff m is squarefree (never when 4 | m)."""
    if D < 0 and D % 4 == 1:
        return D
    if D < 0 and D % 4 == 0 and D // 4 % 4 != 1:
        return D // 4
    return None


def _check_domain(D: int):
    # InvalidInput for D <= -2**40, where is_squarefree's domain ends
    if D <= -FACTOR_BOUND:
        raise InvalidInput(f"fundamental discriminants are decided for D > -2**40, got D = {D}")


def is_fundamental_discriminant(D: int) -> bool:
    """True iff D < 0 is the discriminant of an imaginary quadratic field,
    for D > -2**40; InvalidInput for D <= -2**40."""
    _check_domain(D)
    m = _radicand(D)
    return m is not None and is_squarefree(-m)


def discriminant_of(m: int) -> Discriminant:
    """Field discriminant of Q(sqrt(m)) for m < 0; NotSquarefree unless m is squarefree."""
    if m >= 0:
        raise InvalidInput(f"need m < 0, got {m}")
    return Discriminant(_field_disc(m))


def _field_disc(m: int) -> int:
    # discriminant of Q(sqrt(m)) for a squarefree m, unchecked
    return m if m % 4 == 1 else 4 * m


def _as_discriminant(D) -> Discriminant:
    return D if isinstance(D, Discriminant) else Discriminant(int(D))


# ---------------------------------------------------------------------------
# form arithmetic
# ---------------------------------------------------------------------------

def _reduce(a, b, c) -> tuple:
    # the one reduction loop; (a, b, c) positive definite, unchecked
    while True:
        if not -a < b <= a:
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c or (a == c and b < 0):
            a, b, c = c, -b, a
        else:
            return a, b, c


def reduce_form(f) -> FormClass:
    """The unique reduced form equivalent to f; idempotent on reduced forms.

    Raises IndefiniteForm unless b**2 - 4ac < 0 and InvalidInput unless a > 0.
    """
    a, b, c = f
    if b * b - 4 * a * c >= 0:
        raise IndefiniteForm(f"form {f} has non-negative discriminant")
    if a <= 0:
        raise InvalidInput(f"form {f} is not positive definite")
    return FormClass(*_reduce(a, b, c))


def principal_form(D) -> FormClass:
    """Identity class of discriminant D."""
    D = int(D)
    if D % 2 == 0:
        return FormClass(1, 0, -D // 4)
    return FormClass(1, 1, (1 - D) // 4)


def inverse(f) -> FormClass:
    """Class inverse: mirror the middle coefficient, then reduce."""
    a, b, c = f
    return reduce_form((a, -b, c))


def _compose(f, g) -> tuple:
    # Cohen 5.4.7: f*g for primitive positive definite forms of one
    # discriminant, reduced; unchecked.  The Bezout coefficients come from
    # modular inverses: u*a2 = d (mod a1) and x2*s = d1 (mod d).  With
    # f == g this is duplication (Alg. 5.4.8): y1 = 0, n = 0, d1 = gcd(a, b).
    a1, b1, c1 = f
    a2, b2, c2 = g
    if a1 > a2:
        a1, b1, c1, a2, b2, c2 = a2, b2, c2, a1, b1, c1
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d = gcd(a1, a2)
        y1 = pow(a2 // d, -1, a1 // d)
    if s % d == 0:
        x2, y2, d1 = 0, -1, d
    else:
        d1 = gcd(s, d)
        x2 = pow(s // d1, -1, d // d1)
        y2 = (x2 * s - d1) // d
    v1 = a1 // d1
    v2 = a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    return _reduce(v1 * v2, b2 + 2 * v2 * r, (c2 * d1 + r * (b2 + v2 * r)) // v1)


def _pow(f, e: int) -> tuple:
    # f**e for a reduced f and e >= 1 (square and multiply); f is used as
    # the first factor as it stands, never reduced again
    result = None
    while True:
        if e & 1:
            result = f if result is None else _compose(result, f)
        e >>= 1
        if not e:
            return result
        f = _compose(f, f)


def compose(f, g) -> FormClass:
    """Gauss composition of two classes of the same discriminant, reduced.

    Each form passes reduce_form's checks; MismatchedDiscriminant when the
    discriminants differ, InvalidInput unless both forms are primitive.
    """
    f, g = reduce_form(f), reduce_form(g)
    if f.discriminant != g.discriminant:
        raise MismatchedDiscriminant(f"discriminants differ: {f} vs {g}")
    if gcd(gcd(f.a, f.b), f.c) != 1 or gcd(gcd(g.a, g.b), g.c) != 1:
        raise InvalidInput("composition needs primitive forms")
    return FormClass(*_compose(f, g))


def form_pow(f, e: int) -> FormClass:
    """e-th power of a class (square and multiply), reduced; any integer e.

    f passes reduce_form's checks for every e, e = 0 included.
    """
    f = reduce_form(f)
    if e == 0:
        return principal_form(f.discriminant)
    if e < 0:
        f, e = inverse(f), -e
    return FormClass(*_pow(f, e))


# ---------------------------------------------------------------------------
# enumeration and group structure
# ---------------------------------------------------------------------------

def reduced_forms(D) -> list:
    """All reduced primitive forms of discriminant D < 0, D = 0 or 1 (mod 4),
    sorted, as FormClass; EnumerationBoundExceeded for |D| > 2**32.

    With delta = D mod 2 and b = 2t + delta, (b**2 - D)/4 = t**2 + delta*t + N
    for N = (delta - D)/4, so a form with first coefficient a needs a root t
    mod a of that quadratic, and each root gives one b in (-a, a].  The
    roots for a = 1 .. sqrt(|D|/3) come from the _RootTable of D: those of
    each prime power of a, joined by CRT; an a with a root-less prime power
    has none.  Each root is tested for reducedness and primitivity.
    """
    D = int(D)
    if D >= 0:
        raise IndefiniteForm(f"need D < 0, got {D}")
    if D % 4 > 1:
        raise InvalidInput(f"{D} = {D % 4} (mod 4) is not a discriminant")
    if -D > ENUMERATION_BOUND:
        raise EnumerationBoundExceeded(f"|D| = {-D} exceeds 2**32")
    return [FormClass(*f) for f in sorted(_forms(D, _RootTable(D)))]


class _RootTable:
    """The roots t of t*(t + delta) + N = 0 (mod a) for one D, for every
    a <= top = isqrt(|D| // 3).

    Since 4(t*(t + delta) + N) = (2t + delta)**2 - D, the roots modulo a
    prime power q come from the square roots z of D that
    arith._sqrt_mod_prime_power lifts: t = (z - delta)/2 mod q for the z
    modulo an odd q, t = z // 2 for the z < 2q modulo 4q at p = 2; lists
    maps each prime power q <= top to its roots.  A sieve splits each
    a <= top once as a = p**k * m, p its least prime, and part[a] = p**k
    is kept in an array.  count[a] is the number of roots mod a: a prime
    power's is its root list's length, and every other a multiplies the
    counts of its two CRT factors, so a root-less prime power zeroes all
    its multiples.  The roots of any other a are joined by CRT from its
    prime powers, and built only when asked for (roots).  primes lists
    the primes up to top, ascending, for class_group's prime forms.
    """

    def __init__(self, D: int):
        top = isqrt(-D // 3)
        # slice writes in descending p: the last write to part[m] comes from
        # the highest power of the least prime of m; a prime p > isqrt(top)
        # is the least prime of no m but p, which keeps part[p] = p
        part = array("I", range(top + 1))
        count = [0, 1] + [0] * (top - 1)
        lists = {1: (0,)}
        primes = [2, *_odd_primes_to(top)]
        for p in reversed(primes):
            q = p
            while q <= top:
                if p * p <= top:
                    part[q::q] = array("I", [q]) * (top // q)
                if p == 2:  # t = (z - delta)/2 for the z < 2q with z**2 = D (mod 4q)
                    ts = tuple(z // 2 for z in _sqrt_mod_prime_power(D, 2, 4 * q) if z < 2 * q)
                else:  # t = (z - delta)/2 mod q for the z with z**2 = D (mod q)
                    half = (q + 1) // 2  # 1/2 mod q
                    ts = tuple((z - D % 2) * half % q for z in _sqrt_mod_prime_power(D, p, q))
                lists[q], count[q] = ts, len(ts)
                q *= p
        for a in range(2, top + 1):  # a prime power q = a has count[a // q] = 1
            q = part[a]
            count[a] = count[a // q] * count[q]
        self.part, self.count, self.lists, self.primes = part, count, lists, primes

    def roots(self, a: int):
        """Every root mod a, for 1 <= a <= top, by CRT over its prime powers."""
        q = self.part[a]
        if q == a:
            return self.lists[a]
        m = a // q
        inv = pow(m, -1, q)
        zs = self.lists[q]
        return [r + m * ((z - r) * inv % q) for r in self.roots(m) for z in zs]


def _forms(D: int, table: _RootTable, start: int = 1):
    # the reduced primitive (a, b, c) with a >= start, ascending in a, one
    # per root in the table of D that passes the tests; table.count skips
    # every a without roots
    delta = D % 2
    count = table.count
    for a in range(start, len(count)):
        if not count[a]:
            continue
        for t in table.roots(a):
            b = (2 * t + delta) % (2 * a)
            if b > a:
                b -= 2 * a
            c = (b * b - D) // (4 * a)
            if (c > a or c == a and b >= 0) and gcd(a, b, c) == 1:
                yield a, b, c


def _prime_forms(D: int, primes):
    """The reduced form of (q, b, c) for each prime q <= sqrt(|D|/3) in the
    ascending list primes with b**2 = D (mod 4q) solvable, built when
    reached; they generate the class group (_sylow_step).  b in
    (-q, q] has the parity of D: at an odd q it is z or z + q for the
    square root z of D mod q that arith._sqrt_mod_prime_or_none gives (the
    other root gives the inverse class), and at q = 2 it follows from
    D mod 8.  Only a form with 4q**2 >= |D| needs reducing."""
    top, split = isqrt(-D // 3), (isqrt(-D - 1) + 2) // 2
    for q in primes:
        if q > top:
            return
        if q == 2:  # b = 1, 0, 2 has b**2 = D (mod 8) at D = 1, 0, 4 (mod 8)
            if D % 8 == 5:  # and no b has at D = 5 (mod 8)
                continue
            b = 1 if D % 2 else D % 8 // 2
        else:
            z = _sqrt_mod_prime_or_none(D, q)
            if z is None:
                continue
            b = z if (z - D) % 2 == 0 else z + q
            if b > q:
                b -= 2 * q
        f = q, b, (b * b - D) // (4 * q)
        yield _reduce(*f) if q >= split else f


def _sylow_step(y, p, q, log, rows) -> bool:
    """One closure step of the Sylow p-subgroup of order q: y is the image
    f**(h / q) of a generating form f, log maps each element of the
    subgroup H that the generators so far span to its discrete log, and
    rows holds their relations.  True when y is the last generator.

    The forms generate the class group of order h, as _prime_forms do:
    every class has a reduced form (a, b, c) with a <= sqrt(|D|/3), the
    ideal of norm a factors into prime ideals of norms dividing a, and the
    two prime ideals over a split prime are inverse classes (Cox, Primes of
    the Form x**2 + ny**2, section 7; Cohen, GTM 138, section 5.2).
    x -> x**(h / q) maps the group onto its Sylow p-part, so the images of
    the forms generate it; in practice the first few already do.  A y in
    H adds nothing.  A new y has an order modulo H that divides
    k = q / |H|, a power of p, so it is the least j among p, p**2, ..., k
    with y**j in H; these powers come by raising y to the p-th power again
    and again (by one squaring for p = 2), stopping at the first in H.
    When j = k, H and y span the whole subgroup and y is the last
    generator, whose relation is y**k = s with s in H (y**k outside H
    means y's order modulo H passes k).  Otherwise y adds s*y**i with log
    log(s) + i*|H| for 0 < i < j, and its relation is y**j = s in H: logs
    are exponents in mixed radix, and the relation is the row
    (-digits of log(s), j) of a lower-triangular matrix of determinant q.
    Either way H is a group of order dividing q that holds a power y**j
    with j | q / |H|, so a step that returns proves y**q = 1.
    """
    if y in log:
        return False
    k = q // len(log)
    step, j = y, 1
    while j < k and step not in log:  # y**j for j = p, p**2, ... up to k
        step, j = _compose(step, step) if p == 2 else _pow(step, p), j * p
    last = j == k
    if last and step not in log:  # y's order modulo H passes k
        raise AssertionError(f"no Sylow {p}-subgroup of order {q}: a generator's order passes it")
    if not last:  # the cosets H * y**i for 0 < i < j, y**j being in H
        rest = list(log)[1:]
        g = y
        while g != step:
            log[g] = len(log)
            for s in rest:
                log[_compose(s, g)] = len(log)
            g = _compose(g, y)
        if q % (p * len(log)):  # |H| is no power of p below q
            raise AssertionError(f"no Sylow {p}-subgroup of order {q}: the cosets collide")
    i, row = log[step], []
    for old in rows:
        i, digit = divmod(i, old[-1])
        row.append(-digit)
    rows.append(row + [j])
    return last


def _smith_partition(rows, p):
    """Exponent partition (descending) of the abelian p-group Z**t / rows.

    rows is lower triangular (row i has i + 1 entries) with p-power
    diagonal of product p**e, so every Smith invariant divides p**e and the
    Smith form may be taken over Z/p**(e+1) (Cohen, GTM 138, 2.4.3): an
    entry of least p-adic valuation v clears its column and leaves Z/p**v.
    One row [[p**v]] is the cyclic Z/p**v, [v] (and [] when v = 0).  With
    no entry off the diagonal, the group is the sum of the Z/p**v for the
    diagonal's valuations v > 0, read with no elimination.  Two rows
    [[j1], [x, j2]] have the Smith invariants g = gcd(j1, x, j2) and
    j1*j2 / g in closed form.
    """
    if len(rows) == 1:
        v = _valuation(rows[0][0], p)
        return [v] if v else []
    if not any(any(row[:-1]) for row in rows):  # diagonal: Z/p**v per row
        return sorted((v for row in rows if (v := _valuation(row[-1], p))), reverse=True)
    if len(rows) == 2:
        (j1,), (x, j2) = rows
        g = gcd(j1, x, j2)
        return [v for v in (_valuation(j1 * j2 // g, p), _valuation(g, p)) if v]
    m = p * prod(row[-1] for row in rows)
    a = [[x % m for x in row] + [0] * (len(rows) - len(row)) for row in rows]
    exps = []
    while a:
        v, i, j = min((_valuation(x, p), i, j) for i, r in enumerate(a) for j, x in enumerate(r) if x)
        pivot, q = a.pop(i), p ** v
        inv = pow(pivot[j] // q, -1, m)
        for r in a:
            f = r[j] // q * inv
            r[:] = [(x - f * y) % m for x, y in zip(r, pivot)]
            del r[j]
        if v:
            exps.append(v)
    return sorted(exps, reverse=True)


def _valuation(x: int, p: int) -> int:
    # the exponent of p in x != 0
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _structure_from_forms(D, h: int, forms) -> tuple:
    """Ascending elementary-divisor chain of the class group of order h.

    forms is an iterable of reduced forms that generate the group, such as
    the generator _prime_forms, and one pass over it builds every Sylow
    subgroup.  orders maps each prime p of a subgroup still open to its
    order q = p**e, those with e >= 2 first.  A form f is raised once, to x = f**(h/m) with m the
    product of those q, and each open subgroup takes its image
    y = x**(m/q) = f**(h/q): one of order p**e > p passes it through
    _sylow_step, and one of order p closes at the first y != 1, which has
    order p once y**p = f**h = 1 is shown.  That needs no check when a
    step of this f returned (it proves y**q = f**h = 1), and at most one
    otherwise, as y**p = f**h for every such p.  For odd p the ambiguous
    forms (b == 0, b == a or a == c), of order at most 2, are no
    generators; for p = 2 an ambiguous f is its own inverse, so its odd
    power f**(h / 2**e) is f itself once one squaring shows f**2 = 1, and
    that squaring shows f**h = 1 too.  When every Sylow subgroup is cyclic
    the chain is (h,).
    """
    if h == 1:
        return ()
    ident = (1, D % 2, (D % 2 - D) // 4)  # principal_form(D) as a plain tuple
    orders, spans, cyclic = {}, {}, []
    for p, e in factorize(h).items():
        if e > 1:  # log and relation rows of the closure
            orders[p], spans[p] = p ** e, ({ident: 0}, [])
        else:
            cyclic.append(p)
    orders.update(zip(cyclic, cyclic))
    m = h  # the product of the open orders
    partitions = {}
    width = 1  # the most parts of any partition
    for f in forms:
        a, b, c = f
        if b and b != a != c:
            x = f if m == h else _pow(f, h // m)
            mx, images, shown = m, list(orders.items()), False
        elif 2 in orders and f != ident:
            if _compose(f, f) != ident:
                raise AssertionError(f"the ambiguous form {f} does not square to {ident}")
            x = f  # = f**(h / 2**e), its only image
            mx, images, shown = orders[2], [(2, orders[2])], True
        else:
            continue
        for p, q in images:
            y = x if q == mx else _pow(x, mx // q)
            if q > p:
                log, rows = spans[p]
                if _sylow_step(y, p, q, log, rows):
                    partitions[p] = part = _smith_partition(rows, p)
                    width = max(width, len(part))
                    del orders[p]
                    m //= q
                shown = True
            elif y != ident:
                if not shown and _pow(y, p) != ident:
                    raise AssertionError(f"no element of order {p} in a group of order {h}")
                shown = True
                partitions[p] = [1]
                del orders[p]
                m //= q
        if not orders:
            break
    if orders:
        p = min(orders)
        if orders[p] == p:
            raise AssertionError(f"no element of order {p} in a group of order {h}")
        raise AssertionError(f"no Sylow {p}-subgroup of order {orders[p]} in a group of order {h}")
    if width == 1:
        return (h,)
    chain = []
    for j in range(width):
        d = 1
        for p, exps in partitions.items():
            if j < len(exps):
                d *= p ** exps[j]
        chain.append(d)
    chain.reverse()
    return tuple(chain)


def _structure(disc: Discriminant, h: int, primes) -> ClassGroupStructure:
    # the one builder behind class_group and class_group_sweep: Cl(D) of
    # order h from the prime forms of D at the ascending primes, which run
    # at least to sqrt(|D|/3)
    D = disc.D
    chain = _structure_from_forms(D, h, _prime_forms(D, primes))
    return ClassGroupStructure.from_chain(disc, h, chain)


# always empty; only the benchmark harness reads it, and its next change deletes it
CLASS_GROUP_MEMO = {}


def class_group(D) -> ClassGroupStructure:
    """Exact structure of Cl(D) for a fundamental discriminant, |D| <= 2**32.

    Built anew on every call from the forms of D; the exponent r of the
    classifier reads two_sylow instead and never this function.
    """
    n = -int(D)
    if n > ENUMERATION_BOUND:
        raise EnumerationBoundExceeded(f"|D| = {n} exceeds 2**32")
    disc = _as_discriminant(D)
    table = _RootTable(disc.D)
    # a root with 4a**2 < |D| is a reduced form, as c = (b**2 - D)/4a > a,
    # and a primitive one, as D is fundamental: only the rest are tested
    split = (isqrt(n - 1) + 2) // 2  # the least a with 4a**2 >= |D|
    h = sum(table.count[:split]) + sum(1 for _ in _forms(disc.D, table, split))
    return _structure(disc, h, table.primes)


def genus_two_rank(D) -> int:
    """Genus-theory 2-rank of Cl(D): one less than the prime count of D."""
    return len(factorize(-_as_discriminant(D).D)) - 1


def class_group_sweep(limit: int):
    """Yield ClassGroupStructure for every fundamental -limit <= D < 0, ordered by |D|.

    The D come from one segmented sieve (_fundamental_blocks), and their
    class numbers from one form tally per sieve block (_form_tally), so no
    D has its forms counted one by one.  Each structure comes from the
    builder class_group uses, with the prime forms of every D drawn from
    one list of the primes up to isqrt(limit // 3), made for this call.
    """
    if limit > ENUMERATION_BOUND:
        raise EnumerationBoundExceeded(f"sweep limit {limit} exceeds 2**32")
    primes = [2, *_odd_primes_to(isqrt(max(limit, 0) // 3))]
    for lo, hi, ns in _fundamental_blocks(limit):
        once, twice = _form_tally(lo, hi)
        for n in ns:
            yield _structure(Discriminant._proven(-n), once[n] + 2 * twice[n], primes)


def _fundamental_blocks(limit: int):
    """(lo, hi, ns) for each block lo <= n < hi of the sieve, ns listing
    ascending every n = |D| in it with D fundamental, for n <= limit.

    D is fundamental iff n = 3 (mod 4) or n = 4, 8 (mod 16), and no odd
    prime square divides n: for D = 1 (mod 4) the radicand is D itself,
    odd; otherwise it is D/4, which must not be 1 (mod 4) and has 2-part 1
    or 2 when squarefree.  A sieve marks the multiples of p**2 for the odd
    primes p <= isqrt(limit), _SWEEP_BLOCK values of n at a time, so
    memory stays bounded for any limit.  Each D is proved fundamental by
    the sieve (every prime square dividing n <= limit is marked), so the
    sweep builds its Discriminant by Discriminant._proven, without the
    constructor's checks.
    """
    primes = _odd_primes_to(isqrt(max(limit, 0)))
    for lo in range(0, limit + 1, _SWEEP_BLOCK):
        hi = min(lo + _SWEEP_BLOCK, limit + 1)
        square = bytearray(hi - lo)
        for p in primes:
            pp = p * p
            if pp >= hi:
                break
            first = -lo % pp
            square[first::pp] = b"\1" * len(range(first, hi - lo, pp))
        yield lo, hi, [n for n in range(max(lo, 3), hi)
                       if (n % 4 == 3 or n % 16 in (4, 8)) and not square[n - lo]]


def _form_tally(lo: int, hi: int) -> tuple:
    """(once, twice), two Counters with h(-n) = once[n] + 2*twice[n] for
    every fundamental n = |D| with lo <= n < hi.

    A reduced form (a, b, c) has |b| <= a <= c, b >= 0 when |b| = a or
    a = c, and 3a**2 <= n = 4ac - b**2, so a <= isqrt((hi - 1) // 3).  For
    each such a and 0 <= b <= a the n of the forms (a, +-b, c), c >= a,
    run through an arithmetic progression of step 4a, kept as a range:
    (a, 0, c), (a, a, c) and (a, b, a) are one form each, and (a, +-b, c)
    with 0 < b < a < c are two (Cohen, GTM 138, section 5.3; Buell,
    Binary Quadratic Forms, ch. 4).  One Counter over each list of
    progressions counts them all.
    Every form of a fundamental discriminant is primitive, so there the
    tally is the form count; at any other n it also counts imprimitive
    forms.  No form is kept.
    """
    once, twice = [], []
    for a in range(1, isqrt((hi - 1) // 3) + 1):
        step = 4 * a
        for b in range(a + 1):
            n = step * a - b * b  # c = a
            if 0 < b < a:
                if lo <= n < hi:
                    once.append((n,))
                n, runs = n + step, twice  # c > a: the two forms (a, +-b, c)
            else:
                runs = once
            if n < lo:
                n = lo + (n - lo) % step  # the first n >= lo on the progression
            runs.append(range(n, hi, step))
    return Counter(chain.from_iterable(once)), Counter(chain.from_iterable(twice))


# ---------------------------------------------------------------------------
# the 2-Sylow subgroup by halving, and its certificate
# ---------------------------------------------------------------------------

def _check_primes(D: int, primes):
    # PrecondViolated unless D < 0 is a fundamental discriminant and primes
    # are exactly its prime divisors, ascending
    m = _radicand(D)
    n = -D
    if m is not None and list(primes) == sorted(set(primes)):
        for ell in primes:
            if ell < 2 or n % ell or m % (ell * ell) == 0 or not is_prime(ell):
                break
            while n % ell == 0:
                n //= ell
        else:
            if n == 1:
                return
    raise PrecondViolated(f"{list(primes)} are not the prime divisors of a fundamental discriminant {D}")


def _subset_products(elems) -> list:
    # (indices, product) for every nonempty subset of the reduced forms elems
    out = []
    for i, g in enumerate(elems):
        out += [(S + (i,), _compose(f, g)) for S, f in out] + [((i,), g)]
    return out


def _characters(primes) -> list:
    # the odd primes l | D, whose characters _is_square_class evaluates
    return [ell for ell in primes if ell > 2]


def _is_square_class(f, odd_primes) -> bool:
    # Gauss: a class is a square iff it lies in the principal genus, i.e.
    # every assigned character is +1 on it.  The character of an odd prime
    # l | D is (m/l) for any m prime to l that the form represents, a or c
    # (l divides at most one of them, the form being primitive).  A
    # fundamental D has at most one 2-adic character, and all characters
    # multiply to 1 on a class, so the odd ones decide.
    a, _, c = f
    for ell in odd_primes:
        if jacobi(a if a % ell else c, ell) != 1:
            return False
    return True


def _sqrt_class(D: int, A: int, fa, s1: int, f) -> tuple:
    # a reduced G with G**2 = f, for a reduced f = (a, b, c) in the principal
    # genus; D = s1**2 A with A squarefree, and fa lists the primes of A.
    # Since 4a f(x, y) = (2ax + by)**2 - D y**2, a solution of
    # X**2 = D Y**2 + a W**2 gives f(X - bY, 2aY) = (aW)**2; divided by
    # their gcd g they properly represent z**2 with z = |aW|/g, and z is
    # prime to D when D is fundamental.  Moving f to (z**2, B, C), the
    # united form (z, B, zC) squares to it.
    a, b, c = f
    s2, odd = _split_square(a)  # a = s2**2 times the product of odd
    sol = _legendre_descent(A, fa, a // (s2 * s2), odd)
    if sol is None:
        raise PrecondViolated(f"{f} of discriminant {D} is not a square class")
    X, Y, W = sol[0] * s1 * s2, sol[1] * s2, sol[2] * s1  # X**2 = D Y**2 + a W**2
    x, y = X - b * Y, 2 * a * Y
    g = gcd(x, y)
    x, y = x // g, y // g
    if y:
        s = pow(x, -1, abs(y))
        r = (x * s - 1) // y
    else:  # Y = 0, so x = +-1
        r, s = 0, x
    z = abs(a * W) // g  # x*s - y*r = 1 moves f to (z**2, B, f(r, s))
    B = 2 * a * x * r + b * (x * s + y * r) + 2 * c * y * s
    root = _reduce(z, B, z * (a * r * r + b * r * s + c * s * s))
    if _compose(root, root) != f:
        raise PrecondViolated(f"no square root of {f} of discriminant {D} found")
    return root


def _halving_basis(D: int, primes) -> tuple:
    """(basis, exps) of the 2-Sylow subgroup S of Cl(D), by halving.

    The ambiguous classes of every prime divisor of D but the largest form
    a basis of Cl[2] (the one relation among all of them involves every
    odd prime).  While some nonempty product w of basis elements lies in
    the principal genus, the factor of w of largest order gives way to a
    square root of w, whose exponent is one higher; each step doubles the
    subgroup H the basis spans, and none is left once H = S (Shanks, Math.
    Comp. 25, 1971; Bosma and Stevenhagen, JTNB 8, 1996).  At rank one
    (two prime divisors) the only nonempty product is the generator g
    itself, so g gives way to its square root while it is a square, with
    no subset products.  The descent's data for D, its squarefree part A
    with the primes of A and s1 = sqrt(D / A), is computed once and serves
    every square root.  Unchecked: two_sylow certifies the result.
    """
    odd = _characters(primes)
    A = D
    while A % 4 == 0:
        A //= 4
    fa, s1 = [ell for ell in primes if A % ell == 0], isqrt(D // A)
    basis = []
    for ell in primes[:-1]:
        b = 0 if D % (4 * ell) == 0 else ell
        basis.append(_reduce(ell, b, (b * b - D) // (4 * ell)))
    if len(basis) == 1:
        g, e = basis[0], 1
        while _is_square_class(g, odd):
            g, e = _sqrt_class(D, A, fa, s1, g), e + 1
        return [g], [e]
    exps = [1] * len(basis)
    while True:
        w = next(((S, f) for S, f in _subset_products(basis) if _is_square_class(f, odd)), None)
        if w is None:
            return basis, exps
        S, f = w
        top = max(S, key=exps.__getitem__)
        basis[top] = _sqrt_class(D, A, fa, s1, f)
        exps[top] += 1


def check_two_sylow(D: int, primes, basis, exps):
    """Certify that the reduced forms basis, of orders 2**exps, generate the
    2-Sylow subgroup S of Cl(D) as a direct sum; PrecondViolated otherwise.

    primes are the prime divisors of the fundamental discriminant D.  The
    checks: the rank t is the genus 2-rank, each g_i has exact order
    2**e_i, the socle elements g_i**(2**(e_i - 1)) are independent (so
    H = <g_1..g_t> has order 2**sum(e_i) and H[2] = Cl[2]), and no nonempty
    product of the g_i is in the principal genus.  Then H = S: otherwise
    some s in S outside H has s**2 in H, and that square of Cl, not a
    square in H as H[2] = S[2], puts such a product in the principal genus.
    No form is counted and nothing the halving builder computed is reused.
    """
    _check_primes(D, primes)
    _check_basis(D, primes, basis, exps)


def _check_basis(D: int, primes, basis, exps):
    # check_two_sylow for primes that _check_primes has passed; at rank one
    # the socle's only nonempty product is u and the basis's is g, so the
    # socle check is the u != ident test and the genus test runs on g
    t = len(primes) - 1
    if len(basis) != t or len(exps) != t:
        raise PrecondViolated(f"Cl({D}) certificate has rank {len(basis)}, genus theory says {t}")
    ident = tuple(principal_form(D))
    socle = []
    for g, e in zip(basis, exps):
        a, b, c = g
        # 2**e <= h < |D| bounds the squarings below
        if not 1 <= e < (-D).bit_length() or a < 1 or b * b - 4 * a * c != D \
                or gcd(a, b, c) != 1 or _reduce(a, b, c) != g:
            raise PrecondViolated(f"{g} with exponent {e} is not a reduced class of Cl({D}) "
                                  "of order 2**e")
        u = _pow(g, 1 << (e - 1))
        if u == ident or _compose(u, u) != ident:
            raise PrecondViolated(f"{g} does not have order 2**{e} in Cl({D})")
        socle.append(u)
    if t == 1:
        products = [((0,), basis[0])]
    else:
        if any(f == ident for _, f in _subset_products(socle)):
            raise PrecondViolated(f"Cl({D}) certificate has a dependent socle")
        products = _subset_products(basis)
    odd = _characters(primes)
    for S, f in products:
        if _is_square_class(f, odd):
            raise PrecondViolated(f"Cl({D}) certificate: the product of generators {list(S)} "
                                  "is in the principal genus")


def two_sylow(D: int, primes) -> tuple:
    """(basis, exps): the 2-Sylow subgroup of Cl(D) is the direct sum of the
    cyclic groups <g_i> of order 2**e_i, so h2(D) = 2**sum(exps).

    D < 0 is a fundamental discriminant with the prime divisors primes
    (ascending).  Built by halving (_halving_basis) in at most log2 |D|
    steps, each a few compositions, a descent and factorizations of
    numbers below sqrt|D|; D and primes are checked once, before the
    build, and the basis is returned only after the remaining checks of
    check_two_sylow pass.  A refusal raises PrecondViolated.
    """
    _check_primes(D, primes)
    basis, exps = _halving_basis(D, tuple(primes))
    _check_basis(D, primes, basis, exps)
    return basis, exps
