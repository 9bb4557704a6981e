"""Family classification, exponent computation, and tower predictions.

Families of odd squarefree d, by congruence and symbol conditions:

  A1  d = p prime, p = 9 (mod 16), (2/p)_4 = +1
  A2  d = p*q, p = q = 3 (mod 8), ordered so that (p/q) = +1
  B   d = p*q, p = 5 (mod 8), q = 3 (mod 8)
  C7  d = p prime, p = 7 (mod 16)

For A1/A2/B the 2-class group of every layer n >= 1 of both towers
(L over the quartic field containing i and sqrt(d), K over Q(sqrt(-d)))
is an exact function of one integer r read off an imaginary quadratic
class group:

  A-families: 2**r = h2(-2d);  layer shapes [2, 2^(n+r-2)] (L) and
              [2, 2^(n+r-1)] (K).
  B:          2**r = 2*h2(-p*q); both towers cyclic of order 2^(n+r-1).

r is read off a certified basis of the 2-Sylow subgroup of Cl(-8d) (A)
or Cl(-pq) (B), built by halving from the primes of d (qforms.two_sylow);
no form is counted on this path.

C7 towers are cyclic and non-trivial but no order formula is available.
The corollary route recovers r (or a lower bound) from residue symbols
of small representation witnesses instead of a class-group computation;
confront meets the two routes for one d, with the one refusal policy
that scan and cross_check (over a whole range of d) both read.
"""

from dataclasses import dataclass

from .arith import OddSquarefree, factor_squarefree, odd_squarefree_range
from .diophantine import solve_kaplan, solve_pell_rep, williams_criterion, williams_witness
from .errors import InvalidInput, PrecondViolated, UnsupportedFamily, ZtwoError
from .qforms import two_sylow
from .symbols import jacobi, quartic_residue

FAMILIES = ("A1", "A2", "B", "C7", "UNCLASSIFIED")
EXACT_FAMILIES = ("A1", "A2", "B")
TOWERS = ("L", "K")

# a layer shape holds 2^(n+r-1) in full; this keeps it far below the
# 4,300 digits Python converts to text.
MAX_LAYER = 10 ** 4


@dataclass(frozen=True)
class FamilyTag:
    """Classification of d with the ordered primes and symbols that placed it."""

    tag: str
    d: OddSquarefree
    primes: tuple
    symbols: tuple = ()

    def describe(self):
        parts = [self.tag]
        if self.tag != "UNCLASSIFIED":
            parts += [f"{name}={p}" for name, p in zip("pq", self.primes)]
        parts.extend(f"{name}={'+1' if val == 1 else '-1'}" for name, val in self.symbols)
        return " ".join(parts)


@dataclass(frozen=True)
class GroupShape:
    """Cyclic decomposition of a predicted 2-group, ascending orders."""

    divisors: tuple
    exact: bool = True
    note: str = ""

    @property
    def order(self):
        n = 1
        for d in self.divisors:
            n *= d
        return n

    def __str__(self):
        if not self.divisors:
            return self.note or "trivial"
        return " x ".join(f"Z/{d}" for d in self.divisors)


@dataclass(frozen=True)
class Prediction:
    """Shape of the 2-class group of one tower layer, with its provenance."""

    d: OddSquarefree
    tower: str
    n: int
    shape: GroupShape
    r: int
    r_source: str
    theorem: str


@dataclass(frozen=True)
class IwasawaInvariants:
    """(lambda, mu, nu) with log2 |Cl2(layer n)| = lambda*n + mu*2**n + nu."""

    lam: int
    mu: int
    nu: int
    valid_from: int = 1


@dataclass(frozen=True)
class RBound:
    """Either an exact exponent r or a lower bound r >= bound."""

    value: int = None
    lower: int = None

    @classmethod
    def exact(cls, r):
        return cls(value=r)

    @classmethod
    def at_least(cls, r):
        return cls(lower=r)

    @property
    def is_exact(self):
        return self.value is not None

    def satisfied_by(self, r: int) -> bool:
        return r == self.value if self.is_exact else r >= self.lower

    def __str__(self):
        return str(self.value) if self.is_exact else f">={self.lower}"

    @classmethod
    def parse(cls, text: str):
        text = text.strip()
        if text.startswith(">="):
            return cls.at_least(int(text[2:]))
        return cls.exact(int(text))


def _as_oddsf(d) -> OddSquarefree:
    return d if isinstance(d, OddSquarefree) else factor_squarefree(int(d))


def classify(d) -> FamilyTag:
    """Assign the unique family tag of an odd squarefree d >= 3."""
    d = _as_oddsf(d)
    ps = d.factors
    if len(ps) == 1:
        p = ps[0]
        if p % 16 == 9:
            q4 = quartic_residue(2, p)
            if q4 == 1:
                return FamilyTag("A1", d, (p,), (("(2/p)_4", 1),))
            return FamilyTag("UNCLASSIFIED", d, (p,), (("(2/p)_4", q4),))
        if p % 16 == 7:
            return FamilyTag("C7", d, (p,))
        return FamilyTag("UNCLASSIFIED", d, (p,))
    if len(ps) == 2:
        p1, p2 = ps
        if p1 % 8 == 3 and p2 % 8 == 3:
            p, q = (p1, p2) if jacobi(p1, p2) == 1 else (p2, p1)
            return FamilyTag("A2", d, (p, q), (("(p/q)", 1),))
        if {p1 % 8, p2 % 8} == {3, 5}:
            p, q = (p1, p2) if p1 % 8 == 5 else (p2, p1)
            return FamilyTag("B", d, (p, q))
    return FamilyTag("UNCLASSIFIED", d, ps)


def classified(dmin: int, dmax: int):
    """FamilyTag of every odd squarefree d in [dmin, dmax] with
    3 <= d < 2**40, ascending.

    The window is factored once, by the segmented sieve of
    odd_squarefree_range, whose sieve proves each factor prime; the tags
    are those of classify on factor_squarefree(d), which refuses every d
    this skips.
    """
    for d in odd_squarefree_range(dmin, dmax):
        yield classify(d)


def exponent_r_oracle(tag: FamilyTag) -> int:
    """r from a 2-Sylow subgroup: 2**r = h2(-8d) (A; -8d is the
    discriminant of Q(sqrt(-2d))) or 2*h2(-pq) (B).

    two_sylow builds a basis of that subgroup from the primes of d, never
    factoring D, and certifies it (check_two_sylow) before r is read as
    sum(e_i) (A) or 1 + sum(e_i) (B); a refused certificate raises
    PrecondViolated.
    """
    if tag.tag not in EXACT_FAMILIES:
        raise UnsupportedFamily(f"no exponent r for family {tag.tag}")
    d = tag.d
    if tag.tag == "B":
        _, exps = two_sylow(-d.value, d.factors)
        return 1 + sum(exps)
    _, exps = two_sylow(-8 * d.value, (2,) + d.factors)
    return sum(exps)


def b_symbol_r(p: int, q: int):
    """r for the family-B pair p, q when the symbols alone decide it, else None.

    (p/q) = -1 gives r = 2, then (q/p)_4 = +1 gives r = 3.  None means
    (p/q) = +1 and (q/p)_4 != +1: r >= 4, and a solution of
    p X^2 + q Y^2 = Z^2 is needed to say more.
    """
    if jacobi(p, q) == -1:
        return 2
    if quartic_residue(q % p, p) == 1:
        return 3
    return None


def exponent_r_corollary(tag: FamilyTag) -> RBound:
    """r (or a lower bound) from representation witnesses and symbols alone.

    A1: (u/p)_4 = -1 for the u of p = u^2 - 2v^2  <=>  r = 3.
    A2: (-2/|k^2 X + l Y|) = -1 for a Kaplan witness  <=>  r = 3 (for the
        k = 1 witnesses this is the plain (-2/|X + l Y|) criterion).
    B:  (p/q) = -1 => r = 2;  else (q/p)_4 = +1 => r = 3;  else the
        normalized solution of p X'^2 + q Y'^2 = Z^2 decides between
        r = 4 and r >= 5 via (Z/p)_4 vs (2X'/Z).

    The A2 witness is a primitive s**2 = p Y**2 + 2 q k**2 from one
    Lagrange descent (solve_kaplan), and its norm_value is s.  Kaplan's
    theorem, as the paper uses it, reads r off a witness; solve_kaplan's
    docstring proves that (-2/s) takes one value on every witness, as a
    genus character of -8pq that is +1 on Cl[2].
    test_kaplan_criterion_proof_steps (tests/test_diophantine.py) checks
    each step of that proof on every A2 pair with d <= 2*10**4, and
    cross_check confronts the descent witness with the oracle over any
    range of d.

    The B solution is read off one Lagrange descent too
    (williams_witness): the descent point, or the second point of at most
    two chords through it, a rule proved to give an admissible solution.
    Williams' theorem reads r off a solution; that the criterion takes
    one value on every admissible solution is not proved here.
    The evidence is verify --suite williams, which lists every admissible
    solution with Z <= 20000 for each B pair with d <= --max, adds the
    descent solution and checks that all agree (0 violations with
    --max 10**4), test_williams_witness_agrees_with_the_z_scan,
    which confronts the descent solution with solve_legendre's least-Z one
    on every pair that needs one with d <= 2*10**5, and cross_check.

    No route takes a bound or refuses a classified d: the A1
    representation, from a gcd in Z[sqrt 2], exists as (2/p)_4 = +1
    (solve_pell_rep), the A2 and B witnesses come from a descent, and the
    B solution has (Z/p) = +1 (williams_criterion).  confront, which scan
    and cross_check both read, records any ZtwoError here as a violation.
    """
    if tag.tag not in EXACT_FAMILIES:
        raise UnsupportedFamily(f"no corollary route for family {tag.tag}")
    if tag.tag == "A1":
        rep = solve_pell_rep(tag.primes[0])
        fires = quartic_residue(rep.u, rep.p) == -1
        return RBound.exact(3) if fires else RBound.at_least(4)
    if tag.tag == "A2":
        p, q = tag.primes
        wit = solve_kaplan(p, q)
        fires = jacobi(-2, abs(wit.norm_value)) == -1
        return RBound.exact(3) if fires else RBound.at_least(4)
    p, q = tag.primes
    r = b_symbol_r(p, q)
    if r is not None:
        return RBound.exact(r)
    if williams_criterion(williams_witness(p, q)) == 1:
        return RBound.exact(4)
    return RBound.at_least(5)


# (family, tower) -> (nu - r, theorem).  With lambda = 1 and mu = 0,
# layer n has order 2^(n + nu): [2, 2^(n+nu-1)] for A, [2^(n+nu)] for B.
LAMBDA, MU = 1, 0
_THEOREMS = {
    ("A", "L"): (-1, "rank-2 L-tower: Z/2 x Z/2^(n+r-2) with 2^r = h2(-2d)"),
    ("A", "K"): (0, "rank-2 K-tower: Z/2 x Z/2^(n+r-1) with 2^r = h2(-2d)"),
    ("B", "L"): (-1, "cyclic L-tower: Z/2^(n+r-1) with 2^r = 2*h2(-pq)"),
    ("B", "K"): (-1, "cyclic K-tower: Z/2^(n+r-1) with 2^r = 2*h2(-pq)"),
}


def check_args(tower, n=1):
    """Refuse a layer outside 1 <= n <= MAX_LAYER or an unknown tower."""
    if n < 1:
        raise InvalidInput(f"layer index must be >= 1, got {n}")
    if n > MAX_LAYER:
        raise InvalidInput(f"layer index must be <= {MAX_LAYER}, got {n}")
    if tower not in TOWERS:
        raise InvalidInput(f"tower must be 'L' or 'K', got {tower!r}")


@dataclass(frozen=True)
class Analysis:
    """A classified d with its exponent r (None for C7 and UNCLASSIFIED).

    Every layer shape and Iwasawa invariant of d is a closed function of
    this pair; build it with analyze, which checks the theorem's
    preconditions.
    """

    tag: FamilyTag
    r: int | None

    def _theorem(self, tower):
        return _THEOREMS["B" if self.tag.tag == "B" else "A", tower]

    def nu(self, tower: str) -> int:
        """The one closed formula, unchecked (exact family, tower in TOWERS):
        layer n >= 1 has order 2^(n + nu).  predict and invariants wrap it."""
        return self.r + self._theorem(tower)[0]

    def divisors(self, n: int, tower: str) -> tuple:
        """Layer n's cyclic orders, unchecked: [2^(n+nu)] (B), [2, 2^(n+nu-1)] (A)."""
        e = n + self.nu(tower)
        return (2 ** e,) if self.tag.tag == "B" else (2, 2 ** (e - 1))

    def predict(self, n: int, tower: str) -> Prediction:
        """Exact 2-class group of layer n >= 1: divisors(n, tower), checked."""
        check_args(tower, n)
        tag = self.tag
        if tag.tag == "C7":
            if tower == "K":
                raise UnsupportedFamily("no K-tower formula for a prime d = 7 (mod 16)")
            shape = GroupShape((), exact=False, note="cyclic non-trivial, order not determined")
            return Prediction(tag.d, tower, n, shape, r=0, r_source="none",
                              theorem="cyclic L-tower of undetermined order")
        if self.r is None:
            raise UnsupportedFamily(f"d = {tag.d} matches no family with a prediction")
        return Prediction(tag.d, tower, n, GroupShape(self.divisors(n, tower)), r=self.r,
                          r_source="oracle", theorem=self._theorem(tower)[1])

    def invariants(self, tower: str) -> IwasawaInvariants:
        """LAMBDA = 1, MU = 0 and nu(tower), checked, valid from layer 1 on."""
        if self.r is None:
            raise UnsupportedFamily(f"no invariants for family {self.tag.tag}")
        check_args(tower)
        return IwasawaInvariants(lam=LAMBDA, mu=MU, nu=self.nu(tower), valid_from=1)


def analyze(tag: FamilyTag) -> Analysis:
    """The exponent r of a classified d, read once, with its preconditions.

    A-families need r >= 3.  Family B needs a cyclic 2-part of Cl(-pq):
    the certificate r is read from has rank 1, which check_two_sylow
    holds to the genus 2-rank of -pq.  A broken precondition, like a
    refused certificate, raises PrecondViolated instead of yielding a
    shape.
    """
    if tag.tag not in EXACT_FAMILIES:
        return Analysis(tag, None)
    r = exponent_r_oracle(tag)
    if tag.tag != "B" and r < 3:
        raise PrecondViolated(f"oracle r = {r} < 3 for an A-family")
    return Analysis(tag, r)


def predict(d, n: int, tower: str) -> Prediction:
    """Exact 2-class group of layer n >= 1 of the chosen tower."""
    check_args(tower, n)  # before the class group is built
    return analyze(classify(d)).predict(n, tower)


def iwasawa_invariants(d, tower: str) -> IwasawaInvariants:
    """lambda = 1, mu = 0 and the family's nu, valid from layer 1 on."""
    tag = classify(d)
    if tag.tag in EXACT_FAMILIES:
        check_args(tower)  # before the class group is built
    return analyze(tag).invariants(tower)


# ---------------------------------------------------------------------------
# corollary <-> oracle cross-validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossCheckEntry:
    d: int
    tag: str
    primes: tuple
    analysis: Analysis | None  # None where a route refused
    r_corollary: RBound
    status: str  # "ok" | "violation"
    detail: str = ""

    @property
    def r_oracle(self) -> int:
        return -1 if self.analysis is None else self.analysis.r


@dataclass
class CrossCheckReport:
    d_max: int
    entries: list

    @property
    def checked(self):
        return len(self.entries)

    @property
    def violations(self):
        return [e for e in self.entries if e.status == "violation"]


def confront(tag: FamilyTag) -> CrossCheckEntry:
    """The oracle r and the corollary bound of one exact-family d, confronted.

    The one refusal policy for both routes: a ZtwoError from either, or a
    theorem precondition that analyze finds broken, is a violation without
    an analysis (r_oracle = -1); otherwise the corollary's exact r must
    equal the oracle r, or its lower bound must be satisfied.  The entry
    carries the Analysis that analyze returned, so a reader needs no
    second one.
    """
    d, family, primes = tag.d.value, tag.tag, tag.primes
    try:
        analysis = analyze(tag)
        r_cor = exponent_r_corollary(tag)
    except ZtwoError as exc:
        return CrossCheckEntry(d, family, primes, None, RBound.at_least(1), "violation", str(exc))
    if r_cor.satisfied_by(analysis.r):
        return CrossCheckEntry(d, family, primes, analysis, r_cor, "ok")
    return CrossCheckEntry(d, family, primes, analysis, r_cor, "violation",
                           f"corollary {r_cor} vs oracle {analysis.r}")


def cross_check(d_max: int) -> CrossCheckReport:
    """confront for every exact-family d <= d_max, ascending."""
    return CrossCheckReport(d_max, [confront(tag) for tag in classified(3, d_max)
                                    if tag.tag in EXACT_FAMILIES])
