import hashlib
from math import gcd, isqrt, prod

import pytest

from ztwo import classifier, diophantine
from ztwo.arith import (
    _sqrt_mod_prime,
    _sqrt_mod_prime_power,
    _sqrt_mod_squarefree,
    factorize,
    is_prime,
    is_squarefree,
)
from ztwo.classifier import classify, exponent_r_oracle
from ztwo.cli import scan_rows
from ztwo.diophantine import (
    KaplanParams,
    LegendreSolution,
    PellRepresentation,
    _legendre_descent,
    _short_vector,
    enumerate_legendre_solutions,
    solve_kaplan,
    solve_legendre,
    solve_pell_rep,
    williams_criterion,
    williams_witness,
)
from ztwo.errors import (
    BadPrimeClass,
    InvalidInput,
    NotQuadraticResidue,
    NotSquarefree,
    PrecondViolated,
)
from ztwo.qforms import _compose, _reduce, compose, is_fundamental_discriminant, reduced_forms
from ztwo.symbols import jacobi


def pell_oracle(p):
    """Independent minimal-v search for p = u^2 - 2v^2, u = 1 (mod 8)."""
    for v in range(1, 10 ** 6):
        u2 = p + 2 * v * v
        u = isqrt(u2)
        if u * u == u2 and u % 8 == 1:
            return u, v
    raise AssertionError


def test_pell_worked_example():
    assert solve_pell_rep(89) == PellRepresentation(89, 17, 10)


def test_pell_derived_examples():
    # minimal-v representation; 25^2 - 2*14^2 = 233 and 25 = 1 (mod 8)
    assert solve_pell_rep(233) == PellRepresentation(233, 25, 14)
    assert pell_oracle(233) == (25, 14)


def test_pell_errors():
    with pytest.raises(BadPrimeClass):
        solve_pell_rep(3)
    with pytest.raises(InvalidInput):
        solve_pell_rep(33)


def test_pell_agrees_with_oracle():
    # a u = 1 (mod 8) representation exists exactly when (2/p)_4 = +1, as
    # (2/p)_4 = (-2/u) for every u of p = u**2 - 2v**2 (solve_pell_rep's
    # lemma); where it does, the solver must return the minimal-v one.
    # Near 10**10 the oracle's scan is long (v up to 163,142), so that
    # window takes only the A1 class p = 9 (mod 16)
    from ztwo.symbols import quartic_residue

    found = []
    for lo, hi, step in ((17, 3000, 8), (900001, 10 ** 6, 8), (10 ** 10 - 9991, 10 ** 10, 16)):
        for p in range(lo, hi, step):
            if not is_prime(p):
                continue
            assert jacobi(-2, diophantine._prime_above(p)[0]) == quartic_residue(2, p), p
            try:
                rep = solve_pell_rep(p)
            except PrecondViolated as exc:
                assert quartic_residue(2, p) == -1
                assert str(exc) == f"no u = 1 (mod 8) representation of {p}: (2/{p})_4 = -1"
                continue
            assert quartic_residue(2, p) == 1
            assert (rep.u, rep.v) == pell_oracle(p)
            found.append(p)
    assert len(found) == 48 + 887 + 29


def test_pell_answers_every_a1_prime_below_3e5():
    # the A1 route of the corollary never refuses in range: each prime
    # p = 9 (mod 16) with (2/p)_4 = +1 has a u = 1 (mod 8) representation
    from ztwo.symbols import quartic_residue

    primes = [p for p in range(9, 3 * 10 ** 5, 16) if is_prime(p) and quartic_residue(2, p) == 1]
    assert len(primes) == 1621
    for p in primes:
        assert classify(p).tag == "A1", p
        assert solve_pell_rep(p).p == p


def test_pell_walk_starts_anywhere_on_the_orbit(monkeypatch):
    # the gcd lands next to v = 0; from any member of the orbit of g or of
    # its conjugate under 3 + 2 sqrt 2, the walk reaches the same answer
    import ztwo.diophantine as diophantine

    cases = [(p, solve_pell_rep(p), diophantine._prime_above(p)) for p in (89, 998281)]
    for p, want, (u0, v0) in cases:
        for start in ((u0, v0), (u0, -v0)):
            for steps in range(-3, 4):
                u, v = start
                for _ in range(abs(steps)):
                    if steps > 0:
                        u, v = 3 * u + 4 * v, 2 * u + 3 * v
                    else:
                        u, v = 3 * u - 4 * v, 3 * v - 2 * u
                monkeypatch.setattr(diophantine, "_prime_above", lambda p, g=(u, v): g)
                assert solve_pell_rep(p) == want


def test_pell_deterministic():
    assert solve_pell_rep(1033) == solve_pell_rep(1033)


def test_pell_validator():
    with pytest.raises(InvalidInput):
        PellRepresentation(89, 11, 4)    # 121 - 32 = 89 but 11 != 1 (mod 8)
    with pytest.raises(InvalidInput):
        PellRepresentation(89, 17, 9)


def test_kaplan_exhibited_witness_validates():
    # the exhibited tuple for (11, 19) satisfies both identities
    w = KaplanParams(11, 19, 1, 3, -1, 4, 1)
    assert abs(w.norm_value) == 7


def test_kaplan_solver_identities():
    w = solve_kaplan(11, 19)
    assert w.l * w.l - 2 * w.k * w.k * w.m == 11
    assert w.k ** 2 * w.X ** 2 + 2 * w.l * w.X * w.Y + 2 * w.m * w.Y ** 2 == 38
    # k = 1 here, so the norm value is the plain X + l*Y of the criterion
    assert w.k == 1
    assert abs(w.norm_value) == abs(w.X + w.l * w.Y) == 7


def test_kaplan_derived_example():
    assert solve_kaplan(3, 11) == KaplanParams(3, 11, 1, 1, -1, 4, 1)


def test_kaplan_large_k_witness():
    # the descent witness; this pair has no witness with k < 13
    w = solve_kaplan(2467, 3)
    assert (w.k, w.l, w.m, w.X, w.Y) == (13, 59, 3, 0, 1)
    assert abs(w.norm_value) == 59


def test_kaplan_preconds():
    with pytest.raises(PrecondViolated):
        solve_kaplan(5, 19)          # 5 != 3 (mod 8)
    with pytest.raises(PrecondViolated):
        solve_kaplan(19, 11)         # (19/11) = -1: wrong order
    with pytest.raises(InvalidInput):
        solve_kaplan(9, 11)


def test_kaplan_norm_value_invariant():
    # |norm_value| solves s^2 - p Y^2 = 2 q k^2, the witness-independent datum
    for (p, q) in ((11, 19), (3, 11), (2467, 3)):
        w = solve_kaplan(p, q)
        s = w.norm_value
        assert s * s - p * w.Y * w.Y == 2 * q * w.k * w.k
        assert s % 2 == 1  # odd, so the Jacobi criterion is defined


def test_kaplan_validator():
    with pytest.raises(InvalidInput):
        KaplanParams(11, 19, 1, 3, -1, 4, 2)


def a2_pairs(d_max, d_min=3):
    for d in range(d_min | 1, d_max + 1, 2):
        try:
            tag = classify(d)
        except NotSquarefree:
            continue
        if tag.tag == "A2":
            yield tag.primes


def test_kaplan_criterion_takes_one_value_per_pair():
    # for every A2 pair with d <= 10**4, every primitive solution of
    # s**2 = p Y**2 + 2 q k**2 with k < 120 and Y < 400, by isqrt and no
    # solver (k and Y are odd on every primitive solution, solve_kaplan's
    # docstring): (-2/s) takes one value per pair, -1 exactly where the
    # oracle reads r = 3, and solve_kaplan's norm_value gives that value
    pairs = solutions = 0
    for p, q in a2_pairs(10 ** 4):
        values = set()
        for k in range(1, 120, 2):
            n = 2 * q * k * k
            for Y in range(1, 400, 2):
                s = isqrt(p * Y * Y + n)
                if s * s == p * Y * Y + n and gcd(s, Y, k) == 1:
                    values.add(jacobi(-2, s))
                    solutions += 1
        value, = values
        assert jacobi(-2, solve_kaplan(p, q).norm_value) == value, (p, q)
        assert (value == -1) == (exponent_r_oracle(classify(p * q)) == 3), (p, q)
        pairs += 1
    assert (pairs, solutions) == (205, 4471)


def test_kaplan_criterion_proof_steps():
    # each step of solve_kaplan's proof that (-2/s) takes one value, on
    # every A2 pair with d <= 2*10**4: the witness's s is the first
    # coefficient of a square root of the class of (p, 0, 2q), and -8pq
    # has exactly four ambiguous reduced forms, each with chi_{-8} = +1 on
    # an odd value it represents (chi_{-8}(n) = +1 for n = 1, 3 (mod 8))
    pairs = 0
    for p, q in a2_pairs(2 * 10 ** 4):
        w = solve_kaplan(p, q)
        s = w.norm_value
        t = p * w.Y * pow(w.k, -1, s) % s
        B = _reduce(s, 2 * t, (t * t + 2 * p * q) // s)
        assert _compose(B, B) == _reduce(p, 0, 2 * q), (p, q)
        ambiguous = [f for f in reduced_forms(-8 * p * q) if f.b in (0, f.a) or f.a == f.c]
        assert len(ambiguous) == 4, (p, q)
        for f in ambiguous:
            odd = next(n for n in (f.a, f.c, f.a + f.b + f.c) if n % 2)
            assert odd % 8 in (1, 3), (p, q, f)
        pairs += 1
    assert pairs == 382


def test_sqrt_mod_matches_brute_force():
    # _sqrt_mod_prime_power at every prime power q < 400, and at 2**9 and
    # 2**10 as the root table asks for roots modulo 4q; negative a as it
    # passes D < 0
    for q in [n for n in range(2, 400) if len(factorize(n)) == 1] + [2 ** 9, 2 ** 10]:
        (p, _), = factorize(q).items()
        for a in (3, 11, 19, 25, -3, -4, -20, -23, -72):
            roots = [z for z in range(q) if (z * z - a) % q == 0]
            assert sorted(_sqrt_mod_prime_power(a, p, q)) == roots, (a, q)


def test_sqrt_mod_prime_refuses_non_residues():
    with pytest.raises(NotQuadraticResidue):
        _sqrt_mod_prime(3, 7)      # p = 3 (mod 4) branch
    with pytest.raises(NotQuadraticResidue):
        _sqrt_mod_prime(2, 13)     # Tonelli-Shanks branch


def test_sqrt_mod_prime_roots_every_residue_below_200():
    for p in (n for n in range(3, 200, 2) if all(n % k for k in range(3, isqrt(n) + 1, 2))):
        residues = {z * z % p for z in range(p)}
        for a in range(p):
            if a in residues:
                assert _sqrt_mod_prime(a, p) ** 2 % p == a, (a, p)
            else:
                with pytest.raises(NotQuadraticResidue):
                    _sqrt_mod_prime(a, p)


@pytest.mark.parametrize("p, least_non_residue, step", [(2689, 13, 1), (9241, 13, 1),
                                                     (979969, 37, 97)])
def test_sqrt_mod_prime_finds_a_late_non_residue(p, least_non_residue, step):
    # p = 1 (mod 8), the Tonelli-Shanks branch, with every z below the least
    # non-residue a residue; 979969 has the largest least non-residue among
    # such p below 10**6; every a < p there, or every step-th a
    euler = [pow(z, (p - 1) // 2, p) for z in range(2, least_non_residue + 1)]
    assert euler == [1] * (least_non_residue - 2) + [p - 1]
    for a in range(0, p, step):
        if pow(a, (p - 1) // 2, p) == p - 1:
            with pytest.raises(NotQuadraticResidue):
                _sqrt_mod_prime(a, p)
        else:
            assert _sqrt_mod_prime(a, p) ** 2 % p == a, (a, p)


def test_sqrt_mod_squarefree_gives_one_of_the_roots():
    # every squarefree modulus n <= 2000, even ones included: a root in
    # [0, n), or None exactly when no square is a modulo n
    for n in range(1, 2001):
        fac = factorize(n)
        if any(e > 1 for e in fac.values()):
            continue
        squares = {z * z % n for z in range(n)}
        for a in (-1, -2, -3, -72, 2, 3, 5, 25, 30):
            root = _sqrt_mod_squarefree(a, list(fac))
            assert (root is None) == (a % n not in squares), (a, n, root)
            assert root is None or (0 <= root < n and (root * root - a) % n == 0), (a, n, root)


def test_short_vector_is_a_shortest_lattice_vector():
    # against the least x**2 + k*w**2 over the lattice x = r*w (mod n): at
    # w = 0 it is n**2, and at w >= 1 the nearest x to 0, up to n/sqrt(k)
    for k in (1, 2, 3, 7, 30, 163):
        for n in range(1, 151):
            w_max = isqrt(n * n // k)
            for r in range(n):
                x, w = _short_vector(n, r, k)
                assert (x, w) != (0, 0) and (x - r * w) % n == 0, (n, r, k)
                least = min([n * n] + [min(t := r * v % n, n - t) ** 2 + k * v * v
                                       for v in range(1, w_max + 1)])
                assert x * x + k * w * w == least, (n, r, k)


@pytest.mark.parametrize("d, r_corollary", [
    (998409, "3"), (998833, ">=4"), (999849, ">=4"),
    (9999057, ">=4"), (9999489, ">=4"), (9999849, "3"), (9999921, "3"),
])
def test_corollary_has_no_y_cap(d, r_corollary):
    # A2 rows with no witness of k <= 64 and |Y| <= 10**6: the corollary
    # reads the descent witness, and the oracle satisfies it
    row, = scan_rows(d, d)
    assert row["r_corollary"] == r_corollary
    if r_corollary.startswith(">="):
        assert row["r_oracle"] >= int(r_corollary[2:])
    else:
        assert row["r_oracle"] == int(r_corollary)


# the A2 rows of scan --max 10**6 whose least witness needs k > 64, and
# two such rows past the CLI range, whose least k is 355 and 333
PAST_K_64 = (208209, 370497, 379497, 505497, 525009, 543009, 548697, 563097, 617881,
             619257, 642433, 644961, 649561, 655257, 662313, 675489, 684417, 684921,
             696009, 757009, 764481, 766713, 774993, 775209, 810921, 911297, 922881,
             949593, 957081, 10009137, 100005681)


@pytest.mark.parametrize("d", PAST_K_64)
def test_corollary_has_no_k_cap(d):
    # the descent has no k cap: the row is exact where the oracle reads
    # r = 3, a lower bound otherwise, and never skipped
    row, = scan_rows(d, d)
    assert row["tag"] == "A2" and row["r_oracle"] >= 3
    assert row["r_corollary"] == ("3" if row["r_oracle"] == 3 else ">=4")


@pytest.mark.parametrize("bound", [0, -1])
def test_solvers_refuse_non_positive_bound(bound):
    with pytest.raises(InvalidInput, match=f"bound must be >= 1, got {bound}"):
        enumerate_legendre_solutions(5, 19, bound=bound)


def test_legendre_worked_example():
    sol = solve_legendre(5, 19)
    assert (sol.Xp, sol.Yp, sol.Z) == (1, 2, 9)
    assert williams_criterion(sol) == 1   # (9/5)_4 = -1 differs from (2/9) = +1


def test_legendre_large_exhibit_validates():
    # the large exhibited solution for (37, 11) is admissible...
    big = LegendreSolution(37, 11, 1, 56518, 187449)
    assert williams_criterion(big) == -1  # (187449/37)_4 = (2/187449) = +1
    # ...and the solver returns the much smaller minimal-Z solution
    small = solve_legendre(37, 11)
    assert (small.Xp, small.Yp, small.Z) == (1, 2, 9)
    assert williams_criterion(small) == -1


def test_legendre_preconds():
    with pytest.raises(PrecondViolated):
        solve_legendre(13, 11)   # (13/11) = -1
    with pytest.raises(PrecondViolated):
        solve_legendre(3, 5)


def test_legendre_solution_minimality_and_admissibility():
    sols = enumerate_legendre_solutions(5, 19, 500)
    assert sols[0] == solve_legendre(5, 19)
    zs = [s.Z for s in sols]
    assert zs == sorted(zs)
    for s in sols:
        assert s.p * s.Xp ** 2 + s.q * s.Yp ** 2 == s.Z ** 2


def legendre_reference(p, q, bound):
    """Every admissible solution with Z <= bound by brute force over Z = 1
    (mod 4) and X' = 1 .. sqrt(Z**2 / p), in increasing Z, then X'."""
    sols = []
    for Z in range(1, bound + 1, 4):
        for X in range(1, isqrt(Z * Z // p) + 1):
            rem = Z * Z - p * X * X
            Y = isqrt(rem // q)
            if rem % q or q * Y * Y != rem or X % 2 == 0 or Y % 2 or Y == 0:
                continue
            if gcd(X, Y) == gcd(Y, Z) == gcd(Z, X) == gcd(p, Y * Z) == gcd(q, X * Z) == 1:
                sols.append((X, Y, Z))
    return sols


@pytest.mark.parametrize("p, q, bound", [(4397, 227, 8000), (3253, 307, 8000), (2917, 3, 3000)])
def test_legendre_enumeration_matches_brute_force(p, q, bound):
    # the first two pairs keep X' below q at every Z up to the bound, so each
    # residue class of X' mod q holds at most one candidate; q = 3 does not
    expected = legendre_reference(p, q, bound)
    assert expected
    assert [(s.Xp, s.Yp, s.Z) for s in enumerate_legendre_solutions(p, q, bound)] == expected


def test_williams_criterion_invariant_across_solutions():
    # the branch decision must not depend on which admissible solution is used
    expected = {(5, 19): 1, (37, 11): -1, (2917, 3): 1}
    for (p, q), value in expected.items():
        sols = enumerate_legendre_solutions(p, q, 5000)
        assert len(sols) >= 10
        assert {williams_criterion(s) for s in sols} == {value}


def _b_pairs_needing_a_solution(dmin, dmax):
    return [t.primes for t in classifier.classified(dmin, dmax)
            if t.tag == "B" and classifier.b_symbol_r(*t.primes) is None]


def test_williams_witness_agrees_with_the_z_scan():
    # the descent solution and the least-Z one give the same branch on every
    # B pair that needs a solution with d <= 2*10**5
    pairs = _b_pairs_needing_a_solution(3, 2 * 10 ** 5)
    assert len(pairs) == 1469
    for p, q in pairs:
        descent, least = williams_witness(p, q), solve_legendre(p, q)
        assert williams_criterion(descent) == williams_criterion(least), (p, q)
        # the two steps of williams_criterion's proof that (Z/p) = +1
        for s in (descent, least):
            assert (jacobi(s.Z, p), s.Yp % 4) == (1, 2), (p, q, s)
    assert williams_witness(5, 19) == LegendreSolution(5, 19, 243, 458, 2069)


@pytest.mark.parametrize("p, q, descent, witness", [
    (157, 3, (1, -2, -13), (1, 2, 13)),      # admissible as it stands
    (61, 3, (1, -1, 8), (1, 6, 13)),         # Y odd: one chord
    (5, 19, (3, 2, -11), (243, 458, 2069)),  # Z = 3 (mod 4): two chords
])
def test_williams_witness_one_pair_per_descent_class(p, q, descent, witness):
    Z, X, Y = _legendre_descent(p, [p], q, [q])
    assert (X, Y, Z) == descent and gcd(X, Y, Z) == 1
    assert williams_witness(p, q) == LegendreSolution(p, q, *witness)


def test_williams_chords_follow_the_proof():
    # the 2-adic steps of williams_witness's proof on every B pair that
    # needs a solution with d <= 10**5: the chord with c = 1 from a point
    # with Y even and |Z| = 3 (mod 4) has Y odd; from a point with Y odd,
    # both chords have Y even, the sign of Z, and |Z| = c Y sign(Z)
    # (mod 4), so 1 for one c and 3 for the other.  Each chord point is
    # the line's F(w) v - B(v, w) w, w = (0, 1, c), divided by its gcd
    def line(p, q, X, Y, Z, c):
        f, t = q - 1, 2 * (q * Y - c * Z)
        P = (f * X, f * Y - t, f * Z - t * c)
        return tuple(x // gcd(*P) for x in P)

    seen = {"admissible": 0, "Y odd": 0, "Z = 3 (mod 4)": 0}
    for p, q in _b_pairs_needing_a_solution(3, 10 ** 5):
        Z, X, Y = _legendre_descent(p, [p], q, [q])
        g = gcd(X, Y, Z)
        X, Y, Z = X // g, Y // g, Z // g
        if Y % 2 == 0 and abs(Z) % 4 == 1:
            seen["admissible"] += 1
            continue
        seen["Y odd" if Y % 2 else "Z = 3 (mod 4)"] += 1
        if Y % 2 == 0:
            assert abs(Z) % 4 == 3
            X, Y, Z = diophantine._chord(q, X, Y, Z, 1)
            assert Y % 2 == 1, (p, q)
        sign = 1 if Z > 0 else -1
        for c in (1, -1):
            Xc, Yc, Zc = chord = diophantine._chord(q, X, Y, Z, c)
            assert chord == line(p, q, X, Y, Z, c), (p, q, c)
            assert p * Xc * Xc + q * Yc * Yc == Zc * Zc, (p, q, c)
            assert Yc % 2 == 0 and Zc * sign > 0, (p, q, c)
            assert abs(Zc) % 4 == c * Y * sign % 4, (p, q, c)
    assert all(seen.values()), seen


def test_williams_witness_below_2_40():
    # every B pair that needs a solution among the 2*10**5 d from
    # 1,099,511,000,001 gets one; LegendreSolution checks each
    pairs = _b_pairs_needing_a_solution(1099511000001, 1099511200000)
    assert len(pairs) == 804
    for p, q in pairs:
        assert williams_witness(p, q).p == p


def test_legendre_validator():
    with pytest.raises(InvalidInput):
        LegendreSolution(5, 19, 2, 1, 9)      # parity swapped
    with pytest.raises(InvalidInput):
        LegendreSolution(5, 19, 1, 2, 11)     # wrong identity
    with pytest.raises(InvalidInput):
        LegendreSolution(5, 19, 3, 6, 21)     # not coprime (and Z != 1 mod 4)


# ---------------------------------------------------------------------------
# Legendre's equation by descent
# ---------------------------------------------------------------------------

SQUAREFREE_30 = [m for m in range(-30, 31) if m and is_squarefree(abs(m))]


def _descent(A, B):
    return _legendre_descent(A, list(factorize(abs(A))), B, list(factorize(abs(B))))


def test_legendre_descent_solves_or_finds_none():
    # every squarefree |A|, |B| <= 30: a returned point is a nonzero solution
    # of X**2 = A Y**2 + B W**2, and None comes exactly when a search of the
    # box |Y|, |W| < 8 finds none (Holzer's bound puts a solution of any
    # solvable equation of this size inside it)
    solved = 0
    for A in SQUAREFREE_30:
        for B in SQUAREFREE_30:
            sol = _descent(A, B)
            boxed = any(v >= 0 and isqrt(v) ** 2 == v
                        for Y in range(8) for W in range(8) if Y or W
                        for v in [A * Y * Y + B * W * W])
            assert (sol is not None) == boxed, (A, B)
            if sol:
                X, Y, W = sol
                assert X * X == A * Y * Y + B * W * W and (Y, W) != (0, 0), (A, B, sol)
                solved += 1
    assert solved > 200


def test_legendre_descent_is_pinned():
    # the point the descent returns, or None, for every squarefree
    # |A|, |B| <= 150 (33,856 pairs), A outer and B inner: the loop that
    # replaced the recursion returns the recursion's points
    ns = [n for n in range(-150, 151) if n and is_squarefree(abs(n))]
    digest = hashlib.sha1()
    for A in ns:
        for B in ns:
            sol = _legendre_descent(A, sorted(factorize(abs(A))), B, sorted(factorize(abs(B))))
            digest.update(repr(sol).encode())
    assert len(ns) ** 2 == 33856
    assert digest.hexdigest() == "a783dad3f67de9acbff7a127f6b52cc511371aa3"


def test_legendre_descent_agrees_with_sympy():
    ldescent = pytest.importorskip("sympy.solvers.diophantine.diophantine").ldescent
    small = [m for m in SQUAREFREE_30 if abs(m) <= 20]
    for A in small:
        for B in small:
            try:
                theirs = ldescent(A, B)  # assumes a solution exists; fails or gives None otherwise
            except (TypeError, ValueError):
                theirs = None
            assert (_descent(A, B) is None) == (theirs is None), (A, B)
            if theirs is not None:
                w, x, y = theirs
                assert w * w == A * x * x + B * y * y


def test_legendre_descent_at_class_group_size():
    # A is the squarefree part of a discriminant D near -8e6 and B that of
    # the first coefficient of a square class of D: a square class
    # represents a square prime to D, so every equation has a point
    D = next(D for D in range(-8 * 10 ** 6, -8 * 10 ** 6 - 800, -8) if is_fundamental_discriminant(D))
    A = D // 4
    fa = list(factorize(-A))
    for f in reduced_forms(D)[:60]:
        a = compose(f, f).a
        fac = factorize(a)
        s = prod(ell ** (e // 2) for ell, e in fac.items())
        B = a // (s * s)
        sol = _legendre_descent(A, fa, B, [ell for ell, e in fac.items() if e % 2])
        assert sol is not None, (D, f)
        X, Y, W = sol
        assert X * X == A * Y * Y + B * W * W and (Y, W) != (0, 0), (D, f)
