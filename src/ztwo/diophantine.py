"""Solvers for the three representation problems the criteria use.

Every solver is deterministic, and a witness that is missing surfaces as
NoRepresentationInBound (solve_pell_rep) or NoSolutionInBound (the Z
scan's cap), never as a wrong answer.
solve_pell_rep reads the least-v representation off the prime above p in
Z[sqrt 2], one gcd and a unit walk of a few steps, with no search and no
bound.  solve_kaplan and williams_witness take no bound either: each
reads its witness off one Lagrange descent (_legendre_descent; Cremona
and Rusin, Math. Comp. 72, 2003), the descent that also serves the
class-group oracle.  solve_kaplan's is a primitive solution of
s**2 = p Y**2 + 2 q k**2; williams_witness's is the descent point of
p X'**2 + q Y'**2 = Z**2 or the second point of a chord through it, by a
rule proved to give an admissible point.  The one search is the Z scan:
solve_legendre scans Z in increasing order up to LEGENDRE_Z_CAP, for the
least-Z solution that witness --legendre prints, and
enumerate_legendre_solutions lists every solution up to the bound it is
given, for the williams suite.
That the Kaplan and Williams criteria take one value on every witness
is not proved here; the evidence is in the tests and verify suites that
the exponent_r_corollary docstring names.
Returned objects re-validate their defining identities on construction,
independently of the search path.
"""

from dataclasses import dataclass
from math import gcd, isqrt

from .arith import _split_square, _sqrt_mod_prime, _sqrt_mod_squarefree, is_prime
from .errors import (
    BadPrimeClass,
    InvalidInput,
    NoRepresentationInBound,
    NoSolutionInBound,
    PrecondViolated,
)
from .symbols import jacobi, quartic_residue

# the largest Z that solve_legendre scans
LEGENDRE_Z_CAP = 10 ** 6


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

        The A2 criterion reads (-2/|norm_value|); for k = 1 it is simply
        X + l Y.
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


def solve_pell_rep(p: int) -> PellRepresentation:
    """Least-v representation p = u**2 - 2v**2 with u, v > 0 and
    u = 1 (mod 8), read off a gcd in Z[sqrt 2] with no search.

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
    no representation exists, and NoRepresentationInBound says so.
    """
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
    if u % 8 != 1:
        raise NoRepresentationInBound(f"no u = 1 (mod 8) representation of {p}")
    return PellRepresentation(p, u, v)


def solve_kaplan(p: int, q: int) -> KaplanParams:
    """A Kaplan witness read off one Legendre descent, with no search.

    _legendre_descent(p, [p], 2q, [2, q]) gives a nonzero (s, Y, k) with
    s**2 = p Y**2 + 2 q k**2; it is divided by gcd(s, Y, k) and taken
    positive.  Such a primitive triple is a witness:
    - a prime dividing s and Y has its square dividing 2 q k**2, and 2q is
      squarefree, so it divides k; hence gcd(s, Y) = 1, and a prime
      dividing Y and k divides s**2, so gcd(Y, k) = 1 as well;
    - mod 8, with p = q = 3: an even k makes Y odd and s**2 = 3 Y**2 = 3,
      not a square, and an odd k with an even Y makes s**2 = 2 (mod 4);
      so k and Y are odd, and s**2 = 3 + 6 = 1 makes s odd;
    - l = s Y**-1 (mod k**2), made odd in [1, 2 k**2), has
      l**2 = p (mod k**2), and l**2 = 1 = p (mod 2); so l**2 = p
      (mod 2 k**2), m = (l**2 - p) / (2 k**2) and X = (s - l Y) / k**2
      are integers, and k**2 X**2 + 2 l X Y + 2 m Y**2 =
      ((k**2 X + l Y)**2 - p Y**2) / k**2 = (s**2 - p Y**2) / k**2 = 2q.
    KaplanParams checks both identities again; norm_value is s.  The
    equation always has a point (Legendre: p is a square mod q, 2q one
    mod p), and the descent, each level of which shrinks |A| + |B|,
    finds it with no bound.
    """
    if not (is_prime(p) and is_prime(q)):
        raise InvalidInput(f"{p}, {q} must both be prime")
    if p == q:
        raise PrecondViolated(f"need distinct primes p, q, got p = q = {p}")
    if p % 8 != 3 or q % 8 != 3:
        raise PrecondViolated(f"need p = q = 3 (mod 8), got {p}, {q}")
    if jacobi(p, q) != 1:
        raise PrecondViolated(f"need (p/q) = +1; order the pair so it holds")
    s, Y, k = _legendre_descent(p, [p], 2 * q, [2, q])
    g = gcd(s, Y, k)
    s, Y, k = abs(s) // g, abs(Y) // g, abs(k) // g
    k2 = k * k
    l = s * pow(Y, -1, k2) % k2
    if l % 2 == 0:
        l += k2
    return KaplanParams(p, q, k, l, (l * l - p) // (2 * k2), (s - l * Y) // k2, Y)


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
    One loop runs the descent down to A = 1 or B = 1 and stacks each
    level's (X0, W0, B, Q0 f) with whether |A| < |B| swapped A and B
    before it; the solution found there is carried back up the stack,
    each swap exchanging Y and W.
    """
    levels = []
    while A != 1 and B != 1:
        swap = abs(A) < abs(B)
        if swap:
            A, fa, B, fb = B, fb, A, fa
        elif A == -1:  # and B == -1: X**2 + Y**2 + W**2 = 0
            return None
        root = _sqrt_mod_squarefree(B, fa)
        if root is None:
            return None
        X0, W0 = _short_vector(abs(A), root, abs(B))
        Q = (X0 * X0 - B * W0 * W0) // A
        f, fa = _split_square(abs(Q))  # Q = Q0 f**2 with Q0 squarefree, of the primes fa
        A = Q // (f * f)
        levels.append((X0, W0, B, A * f, swap))
    X, Y, W = (1, 1, 0) if A == 1 else (1, 0, 1)
    while levels:
        X0, W0, B, g, swap = levels.pop()
        X, Y, W = X * X0 + B * W * W0, g * Y, X * W0 + W * X0
        if swap:
            Y, W = W, Y
    return X, Y, W


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


def solve_legendre(p: int, q: int) -> LegendreSolution:
    """The admissible solution with smallest Z (then smallest X'), from a
    scan of Z <= LEGENDRE_Z_CAP; NoSolutionInBound past the cap."""
    _check_legendre_preconds(p, q)
    for sol in _legendre_candidates(p, q, LEGENDRE_Z_CAP):
        return sol
    raise NoSolutionInBound(f"no admissible solution for ({p}, {q}) with Z <= {LEGENDRE_Z_CAP}")


def enumerate_legendre_solutions(p: int, q: int, bound: int) -> list:
    """All admissible solutions with Z <= bound, in increasing-Z order."""
    if bound < 1:
        raise InvalidInput(f"bound must be >= 1, got {bound}")
    _check_legendre_preconds(p, q)
    return list(_legendre_candidates(p, q, bound))


def _chord(q, X, Y, Z, c):
    # the second point of the line through (X, Y, Z) with direction
    # (0, 1, c), c = +-1, divided by its gcd:
    # Z' + Y' sqrt q = (1 + c sqrt q)**2 (Z - Y sqrt q)
    X, Y, Z = (q - 1) * X, 2 * c * Z - (q + 1) * Y, (q + 1) * Z - 2 * c * q * Y
    g = gcd(X, Y, Z)
    return X // g, Y // g, Z // g


def williams_witness(p: int, q: int) -> LegendreSolution:
    """An admissible solution of p X'**2 + q Y'**2 = Z**2 from one Legendre
    descent and at most two chords, with no search and no bound.

    _legendre_descent(p, [p], q, [q]) gives a point v = (X, Y, Z), divided
    by its gcd.  The line through v with direction w = (0, 1, c), c = +-1,
    meets the conic again at F(w) v - B(v, w) w, with F(w) = q - 1 and
    B(v, w) = 2 (q Y - c Z); that is the point P with
    Z' + Y' sqrt q = (1 + c sqrt q)**2 (Z - Y sqrt q) and X' = (q - 1) X.
    The rule: v itself if Y is even and |Z| = 1 (mod 4); else, if Y is
    even, v is replaced by the chord point for c = 1, which has Y odd; and
    with Y odd, the chord point for the c = +-1 with c = Y sign(Z) (mod 4),
    divided by its gcd and taken positive, is returned.

    A primitive point is pairwise coprime: a prime dividing two of X', Y',
    Z has its square dividing the third term, and p, q are squarefree, so
    it divides the third coordinate too.  p | Y' would make p | Z and then
    p | X', and p | Z would make p | Y'; so p does not divide Y' Z, and q
    does not divide X' Z in the same way.  Mod 8, p = 5 and q = 3: an even
    X' makes Y' odd and Z**2 = 3 or 7, not a square, so X' is odd.  So
    only the 2-adic conditions select, Y' even and Z = 1 (mod 4).  That
    the rule meets both uses only p = 5 and q = 3 (mod 8):
    - the odd part of gcd(P) is 1 (mod 4).  An odd prime l dividing
      gcd(P) divides F(w) = q - 1, as otherwise v = mu w (mod l) and
      0 = F(v) = mu**2 F(w) would force l | F(w).  Such an l splits in
      Q(sqrt q), and 1 + c sqrt q and Z - Y sqrt q are both prime to l,
      so v_l(gcd(P)) = min(2k, n, k + x), with k = v_l(q - 1),
      x = v_l(X) and n = v_l(p X**2).  That is even unless l = p, and
      p = 1 (mod 4).
    - Y odd: then Z**2 = 0 (mod 8), so Z = 0 (mod 4), and v_2 of P's
      coordinates is (1, 2, 1): the gcd's 2-part is 2, Y' is even and
      Z' = -c q Y = c Y (mod 4).  As Z**2 > q Y**2 and (q + 1) / 2 >
      sqrt q, (q + 1) |Z| / 2 > q |Y|, so sign(Z') = sign(Z) and
      |Z'| = c Y sign(Z) (mod 4): 1 for the c chosen, 3 for the other.
    - Y even: then Z**2 = 1 (mod 8) forces Y = 2 (mod 4) and Z odd, so
      v_2 of P's coordinates is (1, 1, >= 3), and P's Y is odd.
    LegendreSolution checks every condition again.  The point need not
    be solve_legendre's least-Z one.
    """
    _check_legendre_preconds(p, q)
    Z, X, Y = _legendre_descent(p, [p], q, [q])
    g = gcd(X, Y, Z)
    X, Y, Z = X // g, Y // g, Z // g
    if Y % 2 == 0 and abs(Z) % 4 != 1:
        X, Y, Z = _chord(q, X, Y, Z, 1)
    if Y % 2:
        X, Y, Z = _chord(q, X, Y, Z, 1 if (Y if Z > 0 else -Y) % 4 == 1 else -1)
    return LegendreSolution(p, q, abs(X), abs(Y), abs(Z))


def williams_criterion(sol: LegendreSolution) -> int:
    """+1 when (Z/p)_4 differs from (2X'/Z); -1 when they agree.

    Williams' theorem, as the paper uses it, reads r = 4 against r >= 5
    off one admissible solution; that the value is the same on every one
    is not proved here.  verify --suite williams lists every admissible
    solution with Z up to its cap for each pair, williams_witness's
    among them, and checks that they agree; cross_check confronts the
    value with the class-group oracle.
    """
    quartic = quartic_residue(sol.Z % sol.p, sol.p)
    jac = jacobi(2 * sol.Xp, sol.Z)
    return 1 if quartic != jac else -1
