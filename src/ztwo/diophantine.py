"""Solvers for the three representation problems the criteria use.

Every solver is deterministic, and a witness beyond a bound surfaces as
NoRepresentationInBound or NoSolutionInBound, never as a wrong answer.
solve_pell_rep reads the least-v representation off the prime above p in
Z[sqrt 2], one gcd and a unit walk of a few steps, with no search; its
bound only refuses a least v above it.  solve_legendre searches Z in
increasing order up to its bound.
solve_kaplan reads the primitive solutions, gcd(s, Y) = 1, of
s**2 - p Y**2 = 2 q k**2 off the continued fraction of sqrt p (Lagrange,
Matthews and Mollin; Cohen, GTM 138, sections 5.6 and 5.7), walking at
most half its period, up to the ideal above 2 at its middle
(_principal_cycle).  At k = 1 with 2q < sqrt p, Legendre's theorem makes
every such solution a convergent, so the first witness is the first
convergent of norm +2q and the walk stops there; a walk that reaches the
middle proves there is none, as the period is a palindrome.  Otherwise
the solutions fall into classes under the fundamental unit, which the
walk also yields.  Per class the solver makes an O(log p) reduction and
a lookup in the cycle, and rebuilds the convergent denominators from a
sparse checkpoint only on a hit.  Of each class only the two members
next to Y = 0 can be first witnesses: for l**2 = p (mod 2 k**2),
a + b sqrt p -> a - b l (mod k**2) is a ring map that sends the unit, of
norm 1, to a unit, so the witness test s = l Y (mod k**2) takes one
value on a whole orbit, along which |Y| is least next to Y = 0.
Returned objects re-validate their defining identities on construction,
independently of the search path.
"""

from dataclasses import dataclass
from math import gcd, isqrt, prod
from typing import NamedTuple

from .arith import _sqrt_mod, _sqrt_mod_prime, _sqrt_mod_squarefree, factorize, is_prime
from .errors import (
    BadPrimeClass,
    InvalidInput,
    NoRepresentationInBound,
    NoSolutionInBound,
    PrecondViolated,
)
from .symbols import jacobi, quartic_residue

DEFAULT_BOUND = 10 ** 6
KAPLAN_K_MAX = 64  # solve_kaplan tries k = 1, ..., KAPLAN_K_MAX


@dataclass(frozen=True)
class PellRepresentation:
    """p = u**2 - 2*v**2 with u, v > 0 and u = 1 (mod 8)."""

    p: int
    u: int
    v: int

    def __post_init__(self):
        check_pell_representation(self)


@dataclass(frozen=True)
class KaplanParams:
    """Witness for 2q = k**2 X**2 + 2lXY + 2mY**2 with p = l**2 - 2 k**2 m."""

    p: int
    q: int
    k: int
    l: int
    m: int
    X: int
    Y: int

    def __post_init__(self):
        check_kaplan_params(self)

    @property
    def norm_value(self):
        """k**2 X + l Y; satisfies norm_value**2 - p Y**2 = 2 q k**2.

        This is the quantity that is invariant (up to sign) across
        witnesses; for k = 1 it is simply X + l Y.
        """
        return self.k * self.k * self.X + self.l * self.Y


@dataclass(frozen=True)
class LegendreSolution:
    """Positive solution of p*Xp**2 + q*Yp**2 = Z**2, normalized.

    Coprimality: (Xp,Yp) = (Yp,Z) = (Z,Xp) = (p, Yp*Z) = (q, Xp*Z) = 1;
    parity: Xp odd, Yp even, Z = 1 (mod 4).
    """

    p: int
    q: int
    Xp: int
    Yp: int
    Z: int

    def __post_init__(self):
        check_legendre_solution(self)


# ---------------------------------------------------------------------------
# independent validators (raise InvalidInput; no dependence on the solvers)
# ---------------------------------------------------------------------------

def check_pell_representation(rep):
    p, u, v = rep.p, rep.u, rep.v
    if u <= 0 or v <= 0:
        raise InvalidInput(f"u, v must be positive: {rep}")
    if u * u - 2 * v * v != p:
        raise InvalidInput(f"{u}**2 - 2*{v}**2 != {p}")
    if u % 8 != 1:
        raise InvalidInput(f"u = {u} is not 1 (mod 8)")


def check_kaplan_params(w):
    if w.l * w.l - 2 * w.k * w.k * w.m != w.p:
        raise InvalidInput(f"l^2 - 2k^2 m != p for {w}")
    lhs = w.k * w.k * w.X * w.X + 2 * w.l * w.X * w.Y + 2 * w.m * w.Y * w.Y
    if lhs != 2 * w.q:
        raise InvalidInput(f"form value {lhs} != 2q for {w}")


def check_legendre_solution(sol):
    p, q, X, Y, Z = sol.p, sol.q, sol.Xp, sol.Yp, sol.Z
    if min(X, Y, Z) <= 0:
        raise InvalidInput(f"solution must be positive: {sol}")
    if p * X * X + q * Y * Y != Z * Z:
        raise InvalidInput(f"p X'^2 + q Y'^2 != Z^2 for {sol}")
    if X % 2 == 0 or Y % 2 == 1 or Z % 4 != 1:
        raise InvalidInput(f"parity conditions violated for {sol}")
    if not (gcd(X, Y) == gcd(Y, Z) == gcd(Z, X) == 1):
        raise InvalidInput(f"X', Y', Z not pairwise coprime in {sol}")
    if gcd(p, Y * Z) != 1 or gcd(q, X * Z) != 1:
        raise InvalidInput(f"p or q divides a forbidden component in {sol}")


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _check_bound(bound):
    if bound < 1:
        raise InvalidInput(f"bound must be >= 1, got {bound}")


def _prime_above(p):
    """(u, v) with u + v sqrt 2 of norm +p and u > 0, for a prime p = 1 (mod 8).

    g = gcd(p, x + sqrt 2) with x**2 = 2 (mod p) generates a prime above
    p, by Euclid's algorithm in Z[sqrt 2]: dividing by c + d sqrt 2 and
    rounding each coordinate of the quotient to the nearest integer leaves
    an error e with |N(e)| <= 1/4 + 2/4 < 1, so every remainder has a
    smaller |norm| than its divisor (Z[sqrt 2] is norm-Euclidean; Hardy and
    Wright, An Introduction to the Theory of Numbers, ch. 14).  A g of norm
    -p is multiplied by 1 + sqrt 2, of norm -1.
    """
    a, b, c, d = p, 0, _sqrt_mod_prime(2, p), 1
    while c or d:
        n = c * c - 2 * d * d  # (a + b sqrt 2) / (c + d sqrt 2), rounded
        s = (2 * (a * c - 2 * b * d) + n) // (2 * n)
        t = (2 * (b * c - a * d) + n) // (2 * n)
        a, b, c, d = c, d, a - s * c - 2 * t * d, b - s * d - t * c
    if a * a - 2 * b * b < 0:
        a, b = a + 2 * b, a + b
    return (a, b) if a > 0 else (-a, -b)


def solve_pell_rep(p: int, bound: int | None = DEFAULT_BOUND) -> PellRepresentation:
    """Least-v representation p = u**2 - 2v**2 with u, v > 0 and
    u = 1 (mod 8); bound refuses a least v above it unless None.

    Every element of norm p generates a prime above p, the ideal of
    g = _prime_above(p) or of its conjugate, so it is a unit times g or
    g'.  The units are +-(1 + sqrt 2)**n, of norm (-1)**n, and u > 0
    makes the element totally positive, as its norm is positive; so the
    solutions with u > 0 are the members a_j = eps**j g of the orbit of g
    under eps = 3 + 2 sqrt 2, and their conjugates.  As eps is totally
    positive, u_j > 0 on the whole orbit, and v_j = (eps**j g -
    eps**-j g') / (2 sqrt 2) increases with j, so it changes sign once,
    from v_{k-1} < 0 to v_k > 0 (v = 0 would make p a square).  The
    solutions with v > 0 are then a_k, a_{k+1}, ... and the conjugates of
    a_{k-1}, a_{k-2}, ..., of v = -v_j.  Since u**2 = p = 1 (mod 8), v is
    even, and eps maps (u, v) to (3u + 4v, 2u + 3v), so u to 3u (mod 8):
    u = 1 (mod 8) holds on every other member, or on none.  If
    u_k = 1 (mod 8), the least v is v_k, since the other candidates are
    a_{k+2}, a_{k+4}, ... and the conjugates of a_{k-2}, a_{k-4}, ..., and
    -v_{k-2} = 2u_{k-1} - 3v_{k-1} > 2u_{k-1} + 3v_{k-1} = v_k.  If
    u_{k-1} = 1 (mod 8), it is -v_{k-1} in the same way, as
    v_{k+1} = 2u_k + 3v_k > 2u_k - 3v_k = -v_{k-1}.  If neither is,
    no representation exists.
    """
    if bound is not None:
        _check_bound(bound)
    if not is_prime(p):
        raise InvalidInput(f"{p} is not prime")
    if p % 8 != 1:
        raise BadPrimeClass(f"need p = 1 (mod 8), got p = {p}")
    u, v = _prime_above(p)
    while v > 0:  # down the orbit, to a member with v < 0
        u, v = 3 * u - 4 * v, 3 * v - 2 * u
    while 2 * u + 3 * v < 0:  # up, to the last member with v < 0
        u, v = 3 * u + 4 * v, 2 * u + 3 * v
    u, v = (u, -v) if u % 8 == 1 else (3 * u + 4 * v, 2 * u + 3 * v)
    if u % 8 != 1 or (bound is not None and v > bound):
        cap = "" if bound is None else f" with v <= {bound}"
        raise NoRepresentationInBound(f"no u = 1 (mod 8) representation of {p}{cap}")
    return PellRepresentation(p, u, v)


_STRIDE = 64  # quotients between two stored convergent matrices


def _fold(state, quotients):
    """N_j times the matrices [[a, 1], [1, 0]] of the quotients that follow
    a_j, each N_j = [[B_j, B_{j-1}], [D_j, D_{j-1}]] kept as (B_{j-1}, B_j,
    D_{j-1}, D_j).  The quotients multiply into a matrix of small integers
    first, which meets the big entries of N_j once.
    """
    c11, c12, c21, c22 = 1, 0, 0, 1
    for a in quotients:
        c11, c12, c21, c22 = a * c11 + c12, c11, a * c21 + c22, c21
    b_prev, b, d_prev, d = state
    return (b * c12 + b_prev * c22, b * c11 + b_prev * c21,
            d * c12 + d_prev * c22, d * c11 + d_prev * c21)


def _checkpoints(quotients):
    # N_j of a_1 .. a_j for every j = 0 (mod _STRIDE) below len(quotients)
    checkpoints = [(0, 1, 1, 0)]  # N_0, the identity
    for j in range(_STRIDE, len(quotients), _STRIDE):
        checkpoints.append(_fold(checkpoints[-1], quotients[j - _STRIDE + 1:j + 1]))
    return checkpoints


def _matrix(quotients, checkpoints, j):
    # N_j from the checkpoint at or below it
    return _fold(checkpoints[j // _STRIDE], quotients[j - j % _STRIDE + 1:j + 1])


class _Cycle(NamedTuple):
    """The principal cycle of sqrt p, kept as its first half.

    position maps each reduced complete quotient (P_k, Q_k) of the period,
    1 <= k <= L, to k when k <= L/2 and to k - L otherwise.  quotients
    holds a_0 .. a_{L/2-1}, and checkpoints the matrix N_j of a_1 .. a_j as
    (B_{j-1}, B_j, D_{j-1}, D_j) for every j = 0 (mod _STRIDE) below L/2;
    last is (B_{L-1}, B_{L-2}).
    """

    position: dict
    quotients: list
    checkpoints: list
    last: tuple

    def denominators(self, k):
        """(B_{k-2}, B_{k-1}) at a position k, as position stores it.

        A position past L/2 is L - j for some j < L/2.  As a_1 .. a_{L-1}
        is a palindrome, N_{L-1} = N_j N_{L-1-j}^T, so the convergent
        matrix M_{L-1-j} = M_{L-1} (N_j^T)**-1, of which only the bottom
        row (B_{L-1-j}, B_{L-2-j}) is needed; det N_j = (-1)**j.
        """
        if k > 0:
            b_prev, b, _, _ = _matrix(self.quotients, self.checkpoints, k - 1)
            return b_prev, b
        b_prev, b, d_prev, d = _matrix(self.quotients, self.checkpoints, -k)
        last, before = self.last
        sign = -1 if k % 2 else 1
        return sign * (before * b - last * d), sign * (last * d_prev - before * b_prev)


def _principal_cycle(p, stop=0):
    """(unit, cycle) from half a period of sqrt p, p a prime = 3 (mod 4),
    or ((A, B), None) when a convergent A/B of norm +stop ends the walk.

    unit is the fundamental unit (x, y) of Z[sqrt p], x**2 - p y**2 = 1,
    and cycle a _Cycle.  The period L is even, and the complete quotients
    mirror about its middle: Q_{L-k} = Q_k and P_{L-k} = P_{k+1}.  The one
    reduced quotient with Q = 2, the ideal above the ramified 2, sits at
    k = L/2, so the walk stops there; theta = A_{L/2-1} + B_{L/2-1} sqrt p
    has norm +-2, and unit = theta**2 / 2 (Cohen, GTM 138, section 5.7).
    The walk keeps only the small P_k, Q_k and a_k.  At the middle it
    builds the position map from them, and the convergent matrices a chunk
    of _STRIDE quotients at a time (_fold), one big-integer checkpoint per
    chunk; _Cycle.denominators rebuilds the rest on a hit.

    As A_{k-1}**2 - p B_{k-1}**2 = (-1)**k Q_k, a stop > 1 ends the walk
    at the first even k <= L/2 with Q_k = stop, and (A_{k-1}, B_{k-1}) is
    the convergent of norm +stop with the least B.  Since L is even, the
    second half repeats the first half's norms with the same signs, so a
    walk that reaches the middle proves that no convergent, in any period,
    has norm +stop.  By Legendre's theorem every coprime A, B > 0 with
    0 < A**2 - p B**2 < sqrt p are a convergent: for 1 < stop < sqrt p
    the walk finds the solution of A**2 - p B**2 = stop, gcd(A, B) = 1,
    with the least B > 0, or proves there is none.
    """
    root = isqrt(p)
    P, Q = root, p - root * root
    Ps, Qs, quotients = [], [], [root]  # P_k and Q_k from k = 1, a_0 .. a_{k-1}
    while True:
        if Q == stop and len(quotients) % 2 == 0:
            _, b, _, d = _matrix(quotients, _checkpoints(quotients), len(quotients) - 1)
            return (d + root * b, b), None  # A = a_0 B + D, from M = [[a_0, 1], [1, 0]] N
        Ps.append(P)
        Qs.append(Q)
        if Q == 2:
            break
        a = (P + root) // Q
        quotients.append(a)
        P = a * Q - P
        Q = (p - P * P) // Q
    half = len(quotients)
    position = {(root, 1): 0}  # (P_1, Q_0): the mirror of k = 0, position L
    position.update(zip(zip(Ps, Qs), range(1, half + 1)))
    position.update(zip(zip(Ps[1:], Qs), range(-1, -half, -1)))  # (P_{k+1}, Q_k) at L - k
    checkpoints = _checkpoints(quotients)
    _, b, _, d = _matrix(quotients, checkpoints, half - 1)
    A = d + root * b  # A_{L/2-1}, from M_j = [[a_0, 1], [1, 0]] N_j
    x, y = (A * A + p * b * b) // 2, A * b
    # N_{L-1} is symmetric, so B_{L-2} = D_{L-1} = A_{L-1} - a_0 B_{L-1}
    return (x, y), _Cycle(position, quotients, checkpoints, (y, x - root * y))


def _cycle_norm_hit(p, z, m, cycle):
    """(x, y) with x**2 - p y**2 = +-m in the class of (z + sqrt p)/m, or None.

    Expands (z + sqrt p)/m, for m > 0 dividing p - z**2, until its complete
    quotient (P + sqrt p)/Q is reduced, in O(log p) steps; it lies in the
    principal cycle exactly when the class holds an element of norm +-m.
    On a hit at k, U = M_pre M_k**-1 maps sqrt p to (z + sqrt p)/m, and
    (x, y) = +-(m U11 - z U21, U21) has x**2 - p y**2 = det(U) m; only the
    denominators (B_{k-2}, B_{k-1}) of M_k are built, from the cycle.
    """
    root = isqrt(p)
    P, Q = z, m
    x_prev, x = -z, m
    y_prev, y = 1, 0
    while not (0 < P <= root and root - P < Q <= root + P):
        a = (P + root + (Q < 0)) // Q  # floor((P + sqrt p)/Q): sqrt p is irrational
        P = a * Q - P
        Q = (p - P * P) // Q
        x_prev, x = x, a * x + x_prev
        y_prev, y = y, a * y + y_prev
    k = cycle.position.get((P, Q))
    if k is None:
        return None
    b_prev, b = cycle.denominators(k)
    return x * b_prev - x_prev * b, y * b_prev - y_prev * b


def _orbit_ends(s, Y, p, unit):
    """{(|Y'|, s')} of the members s' + Y' sqrt p of the unit orbit of
    s + Y sqrt p with the least Y' > 0 and the greatest Y' < 0.

    Both conjugates of s + Y sqrt p must be positive; then Y' grows
    strictly along the orbit, and the conjugate orbit's least Y' > 0 is
    this orbit's greatest Y' < 0, up to sign.
    """
    ux, uy = unit
    ends = set()
    for t, u in ((s, Y), (s, -Y)):
        while u > 0:
            t, u = t * ux - p * u * uy, u * ux - t * uy
        while u <= 0:
            t, u = t * ux + p * u * uy, u * ux + t * uy
        ends.add((u, t))
    return ends


def _primitive_pairs(p, m, factors, principal):
    """(|Y|, s) of the members next to Y = 0 of every class of solutions
    of s**2 - p Y**2 = m with gcd(s, Y) = 1, s > 0 and Y != 0, ascending;
    m > 0 has prime factorization factors.

    p is a prime = 3 (mod 4) and principal is _principal_cycle(p).  The
    solutions fall into classes under the unit, one per square root z of
    p modulo m with s = z Y (mod m) (Matthews, Expo. Math. 18, 2000); a
    lookup in the principal cycle (_cycle_norm_hit) decides each.  A hit
    of norm -m means no solution, as Z[sqrt p] has no unit of norm -1; a
    class with a member of norm +m contributes its _orbit_ends.
    """
    unit, cycle = principal
    found = set()
    for z in _sqrt_mod(p, factors):
        hit = _cycle_norm_hit(p, z, m, cycle)
        if hit is None:
            continue
        x, y = hit
        if x * x - p * y * y != m:
            continue
        if x < 0:
            x, y = -x, -y
        found |= _orbit_ends(x, y, p, unit)
    return sorted(found)


def solve_kaplan(p: int, q: int, bound: int | None = DEFAULT_BOUND) -> KaplanParams:
    """First witness in (k, then l, then |Y|) order; bound caps |Y| unless None.

    A witness for k and l is a solution (Y, s) of s**2 - p Y**2 = 2 q k**2
    with X = (s - l Y)/k**2 integral, where s and Y may each take either
    sign; l only matters modulo 2 k**2, so it runs over the ascending
    square roots of p modulo 2 k**2.  Only primitive solutions,
    gcd(s, Y) = 1, can be the first witness: if gcd(s, Y) = f > 1, then
    f | k since 2q is squarefree, and (Y/f, s/f) is a witness for k/f and
    l mod 2 (k/f)**2, a square root of p the search tried at k/f.  The
    test on (Y, s) takes one value on the whole unit orbit of s + Y sqrt p
    (module docstring), so the least |Y| it passes on is at a member next
    to Y = 0 (_primitive_pairs), and NoSolutionInBound means that no
    witness with |Y| <= bound and k <= KAPLAN_K_MAX exists.

    At k = 1 every pair passes the test, with l = 1, so the witness is the
    primitive solution with the least Y > 0.  When 4 q**2 < p, that is the
    first convergent of norm +2q, and one walk of _principal_cycle either
    stops there or ends at the middle with the unit and the cycle, which
    then serve k >= 2.  Only when that convergent's Y exceeds bound does
    the search go on to k >= 2 after a second walk, which builds the
    cycle the first one stopped short of.
    """
    if bound is not None:
        _check_bound(bound)
    if not (is_prime(p) and is_prime(q)):
        raise InvalidInput(f"{p}, {q} must both be prime")
    if p % 8 != 3 or q % 8 != 3:
        raise PrecondViolated(f"need p = q = 3 (mod 8), got {p}, {q}")
    if jacobi(p, q) != 1:
        raise PrecondViolated(f"need (p/q) = +1; order the pair so it holds")
    if 4 * q * q < p:  # k = 1: the first convergent of norm 2q, or none
        k_min, principal = 2, _principal_cycle(p, stop=2 * q)
        if principal[1] is None:  # the walk stopped at that convergent
            s, Y = principal[0]
            if bound is None or Y <= bound:
                return KaplanParams(p, q, 1, 1, (1 - p) // 2, s - Y, Y)
            principal = _principal_cycle(p)
    else:
        k_min, principal = 1, _principal_cycle(p)
    for k in range(k_min, KAPLAN_K_MAX + 1):
        k2 = k * k
        two_k2 = factorize(2 * k2)
        ls = _sqrt_mod(p, two_k2)
        if not ls:
            continue
        n_factors = dict(two_k2)
        n_factors[q] = n_factors.get(q, 0) + 1
        pairs = [(abs_y, s) for abs_y, s in _primitive_pairs(p, 2 * q * k2, n_factors, principal)
                 if bound is None or abs_y <= bound]
        for l in ls:
            m = (l * l - p) // (2 * k2)
            for abs_y, s in pairs:
                for Y in (abs_y, -abs_y):
                    for root in (s, -s):
                        num = -l * Y + root
                        if num % k2 == 0:
                            return KaplanParams(p, q, k, l, m, num // k2, Y)
    cap = "" if bound is None else f"|Y| <= {bound}, "
    raise NoSolutionInBound(f"no Kaplan witness for ({p}, {q}) with {cap}k <= {KAPLAN_K_MAX}")


def _short_vector(n, r, k):
    # a shortest nonzero (x, w) with x = r*w (mod n) under x**2 + k*w**2,
    # n, k > 0: Lagrange-Gauss reduction of the basis (n, 0), (r, 1)
    ux, uw, vx, vw = n, 0, r, 1
    nu, nv = n * n, r * r + k
    if nu < nv:
        ux, uw, vx, vw, nu, nv = vx, vw, ux, uw, nv, nu
    while True:
        m = (2 * (ux * vx + k * uw * vw) + nv) // (2 * nv)  # nearest integer
        ux -= m * vx
        uw -= m * vw
        nu = ux * ux + k * uw * uw
        if nu >= nv:
            return vx, vw
        ux, uw, vx, vw, nu, nv = vx, vw, ux, uw, nv, nu


def _legendre_descent(A, fa, B, fb):
    """A nonzero (X, Y, W) with X**2 = A*Y**2 + B*W**2, or None if none exists.

    A and B are squarefree and fa, fb list the primes dividing them.
    Lagrange's descent on a reduced lattice (Cremona and Rusin, Math.
    Comp. 72, 2003): for |A| >= |B| and r**2 = B (mod A), a shortest
    vector (X0, W0) of the lattice X = r W (mod A) under X**2 + |B| W**2
    has X0**2 - B W0**2 = A Q with |Q| <= 1.16 sqrt|B| (Hermite's bound).
    Any root will do: for every r with r**2 = B (mod A), the lattice
    X = r W (mod A) has determinant |A|, so Hermite's bound and the
    descent's termination argument hold unchanged.  So each level takes
    one square root, a root modulo each known prime of A joined by CRT
    (_sqrt_mod_squarefree), not the whole root list.
    Norms from Q(sqrt B) multiply, so a solution for (Q0, B), Q0 the
    squarefree part of Q, times X0 + W0 sqrt B solves the one for (A, B).
    Each step shrinks |A| + |B|, and only the small Q is factored.
    """
    if A == 1:
        return 1, 1, 0
    if B == 1:
        return 1, 0, 1
    if abs(A) < abs(B):
        sol = _legendre_descent(B, fb, A, fa)
        return sol and (sol[0], sol[2], sol[1])
    if A == -1:  # and B == -1: X**2 + Y**2 + W**2 = 0
        return None
    root = _sqrt_mod_squarefree(B, fa)
    if root is None:
        return None
    X0, W0 = _short_vector(abs(A), root, abs(B))
    Q = (X0 * X0 - B * W0 * W0) // A
    fq = factorize(abs(Q))
    f = prod(ell ** (e // 2) for ell, e in fq.items())
    Q0 = Q // (f * f)
    sol = _legendre_descent(Q0, [ell for ell, e in fq.items() if e % 2], B, fb)
    if sol is None:
        return None
    X1, Y1, W1 = sol
    return X1 * X0 + B * W1 * W0, Q0 * f * Y1, X1 * W0 + W1 * X0


def _check_legendre_preconds(p, q):
    if not (is_prime(p) and is_prime(q)):
        raise InvalidInput(f"{p}, {q} must both be prime")
    if p % 8 != 5 or q % 8 != 3:
        raise PrecondViolated(f"need p = 5 and q = 3 (mod 8), got {p}, {q}")
    if jacobi(p, q) != 1:
        raise PrecondViolated(f"need (p/q) = +1 for ({p}, {q})")
    if quartic_residue(-q % p, p) != 1:
        raise PrecondViolated(f"need (-q/p)_4 = +1 for ({p}, {q})")


def _legendre_candidates(p, q, z_bound):
    """Admissible solutions in increasing-Z order (generator).

    For each Z, X' must satisfy p X'**2 = Z**2 (mod q), so X' lies in the
    two residue classes +-r of r = Z root mod q, root**2 = 1/p (mod q),
    and r moves by 4 root from one Z to the next.  Y' even forces
    q Y'**2 >= 4q, so p X'**2 <= Z**2 - 4q: a Z at which the least
    candidate min(r, q - r) already breaks that is passed over with one
    product and one comparison, as is a Z = 0 (mod q), and the other Z scan
    only those classes.  While the largest X' allowed is below q, each class
    holds at most one candidate, and min(r, q - r) and max(r, q - r) are
    tried as they stand.
    """
    root = _sqrt_mod_prime(pow(p, -1, q), q)
    step, r = 4 * root % q, root  # r = Z root mod q, here for Z = 1
    half, four_q = q // 2, 4 * q
    for Z in range(5, z_bound + 1, 4):
        r = (r + step) % q
        least = r if r <= half else q - r
        room = Z * Z - four_q
        if p * least * least > room or not least:
            continue
        xmax = isqrt(room // p)
        if xmax < q:  # the test above gives least <= xmax
            xs = (least, q - least) if q - least <= xmax else (least,)
        else:
            xs = sorted([*range(least, xmax + 1, q), *range(q - least, xmax + 1, q)])
        for X in xs:
            if X % 2 == 0:
                continue
            rem = Z * Z - p * X * X
            if rem <= 0 or rem % q:
                continue
            yy = rem // q
            Y = isqrt(yy)
            if Y * Y != yy or Y % 2 or Y == 0:
                continue
            if gcd(X, Y) != 1 or gcd(Y, Z) != 1 or gcd(Z, X) != 1:
                continue
            if Y % p == 0 or Z % p == 0 or X % q == 0 or Z % q == 0:
                continue
            yield LegendreSolution(p, q, X, Y, Z)


def solve_legendre(p: int, q: int, bound: int = DEFAULT_BOUND) -> LegendreSolution:
    """The admissible solution with smallest Z (then smallest X')."""
    _check_bound(bound)
    _check_legendre_preconds(p, q)
    for sol in _legendre_candidates(p, q, bound):
        return sol
    raise NoSolutionInBound(f"no admissible solution for ({p}, {q}) with Z <= {bound}")


def enumerate_legendre_solutions(p: int, q: int, bound: int) -> list:
    """All admissible solutions with Z <= bound, in increasing-Z order."""
    _check_bound(bound)
    _check_legendre_preconds(p, q)
    return list(_legendre_candidates(p, q, bound))


def williams_criterion(sol: LegendreSolution) -> int:
    """+1 when (Z/p)_4 differs from (2X'/Z); -1 when they agree."""
    quartic = quartic_residue(sol.Z % sol.p, sol.p)
    jac = jacobi(2 * sol.Xp, sol.Z)
    return 1 if quartic != jac else -1
