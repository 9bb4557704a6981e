from math import gcd, isqrt, prod

import pytest

from ztwo.arith import (
    _sqrt_mod,
    _sqrt_mod_prime,
    _sqrt_mod_squarefree,
    factorize,
    is_prime,
    is_squarefree,
)
from ztwo.classifier import classify
from ztwo.cli import scan_rows
from ztwo.diophantine import (
    KaplanParams,
    LegendreSolution,
    PellRepresentation,
    _Cycle,
    _STRIDE,
    _cycle_norm_hit,
    _legendre_descent,
    _primitive_pairs,
    _principal_cycle,
    _short_vector,
    enumerate_legendre_solutions,
    solve_kaplan,
    solve_legendre,
    solve_pell_rep,
    williams_criterion,
)
from ztwo.errors import (
    BadPrimeClass,
    InvalidInput,
    NoSolutionInBound,
    NotQuadraticResidue,
    NotSquarefree,
    PrecondViolated,
)
from ztwo.qforms import compose, is_fundamental_discriminant, reduced_forms


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
    # a u = 1 (mod 8) representation exists exactly when (2/p)_4 = +1;
    # where it does, the solver must return the minimal-v one.  Near 10**10
    # the oracle's scan is long (v up to 163,142), so that window takes
    # only the A1 class p = 9 (mod 16)
    from ztwo.errors import NoRepresentationInBound
    from ztwo.symbols import quartic_residue

    found = []
    for lo, hi, step in ((17, 3000, 8), (900001, 10 ** 6, 8), (10 ** 10 - 9991, 10 ** 10, 16)):
        for p in range(lo, hi, step):
            if not is_prime(p):
                continue
            try:
                rep = solve_pell_rep(p, bound=None)
            except NoRepresentationInBound as exc:
                assert quartic_residue(2, p) == -1
                assert str(exc) == f"no u = 1 (mod 8) representation of {p}"
                continue
            assert quartic_residue(2, p) == 1
            assert (rep.u, rep.v) == pell_oracle(p)
            found.append(p)
    assert len(found) == 48 + 887 + 29


@pytest.mark.parametrize("p, u, v", [(89, 17, 10), (998281, 2409, 1550)])
def test_pell_bound_refuses_only_a_larger_least_v(p, u, v):
    from ztwo.errors import NoRepresentationInBound

    assert solve_pell_rep(p, bound=v) == PellRepresentation(p, u, v)
    with pytest.raises(NoRepresentationInBound) as exc:
        solve_pell_rep(p, bound=v - 1)
    assert str(exc.value) == f"no u = 1 (mod 8) representation of {p} with v <= {v - 1}"


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
    # smallest witness for this pair needs k = 13
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


def brute_force_pairs(p, N, bound):
    """Every (Y, s) with s**2 - p Y**2 = N, s > 0 and 1 <= Y <= bound, by scanning Y."""
    pairs = []
    for y in range(1, bound + 1):
        s2 = p * y * y + N
        s = isqrt(s2)
        if s * s == s2:
            pairs.append((y, s))
    return pairs


def kaplan_reference(p, q, bound, k_max=64, pairs_of=brute_force_pairs):
    """Witness search in (k, l, |Y|) order, or None.

    pairs_of(p, N, bound) lists the (Y, s) with s**2 - p Y**2 = N; by
    default every Y <= bound is scanned with isqrt.  l only matters modulo
    2 k**2, so the first l that works is below 2 k**2.
    """
    for k in range(1, k_max + 1):
        k2 = k * k
        ls = [l for l in range(2 * k2) if (l * l - p) % (2 * k2) == 0]
        if not ls:
            continue
        pairs = pairs_of(p, 2 * q * k2, bound)
        for l in ls:
            for abs_y, s in pairs:
                for Y in (abs_y, -abs_y):
                    for root in (s, -s):
                        num = -l * Y + root
                        if num % k2 == 0:
                            return KaplanParams(p, q, k, l, (l * l - p) // (2 * k2), num // k2, Y)
    return None


def a2_pairs(d_max, d_min=3):
    for d in range(d_min | 1, d_max + 1, 2):
        try:
            tag = classify(d)
        except NotSquarefree:
            continue
        if tag.tag == "A2":
            yield tag.primes


@pytest.mark.parametrize("d_max, bound", [(10 ** 4, 2 * 10 ** 4), (5 * 10 ** 4, 2000)])
def test_kaplan_matches_brute_force(d_max, bound):
    checked = 0
    for p, q in a2_pairs(d_max):
        try:
            got = solve_kaplan(p, q, bound=bound)
        except NoSolutionInBound:
            got = None
        assert got == kaplan_reference(p, q, bound), (p, q)
        checked += 1
    assert checked > 200


def test_sqrt_mod_matches_brute_force():
    # negative a as the root table passes D < 0, and 2**k up to 2**10 as
    # it asks for roots modulo 4q
    for n in list(range(1, 400)) + [2 ** k for k in range(9, 11)]:
        for a in (3, 11, 19, 25, -3, -4, -20, -23, -72):
            roots = [z for z in range(n) if (z * z - a) % n == 0]
            assert _sqrt_mod(a, factorize(n)) == roots, (a, n)


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
    # every squarefree modulus n <= 2000, even ones included: one of
    # _sqrt_mod's roots, or None exactly when it finds none
    for n in range(1, 2001):
        fac = factorize(n)
        if any(e > 1 for e in fac.values()):
            continue
        for a in (-1, -2, -3, -72, 2, 3, 5, 25, 30):
            roots = _sqrt_mod(a, fac)
            root = _sqrt_mod_squarefree(a, list(fac))
            assert root in roots if roots else root is None, (a, n, root)


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


def _unit_orbit(s, Y, p, unit, y_bound):
    """{(|Y'|, s')} over s' + Y' sqrt p = (s + Y sqrt p) * unit**n, n in Z,
    with 1 <= |Y'| <= y_bound.

    Both conjugates of s + Y sqrt p must be positive; then Y' grows
    strictly with n, so the walk goes up until Y' > y_bound and down until
    Y' < -y_bound.
    """
    ux, uy = unit
    found = set()
    for sign in (1, -1):
        t, u = s, Y
        while sign * u <= y_bound:
            if 0 < abs(u) <= y_bound:
                found.add((abs(u), t))
            t, u = t * ux + sign * p * u * uy, u * ux + sign * t * uy
    return found


def assert_orbit_ends(p, N, principal, bound, expected):
    # the pairs of _primitive_pairs, walked along their unit orbits up to
    # bound, are the expected (|Y|, s) list, and each is the member next
    # to Y = 0 on its side of its orbit: one unit step towards Y = 0
    # crosses it
    unit = (ux, uy) = principal[0]
    ends = _primitive_pairs(p, N, factorize(N), principal)
    assert ends == sorted(set(ends)), (p, N)
    walked = set().union(*(_unit_orbit(s, y, p, unit, bound) for y, s in ends))
    assert sorted(walked) == expected, (p, N)
    for y, s in ends:
        assert y > 0 and s > 0 and s * s - p * y * y == N and gcd(y, s) == 1, (p, N, y)
        assert y * ux - s * uy <= 0, (p, N, y)


def test_norm_rep_pairs_matches_brute_force():
    # the primitive pairs, gcd(Y, s) = 1, of a scan over Y
    bound = 3000
    for p in (3, 11, 19, 43, 67, 227):
        principal = _principal_cycle(p)
        for N in list(range(1, 120)) + [2 * 3 * 9, 2 * 11 * 121, 2 * 19 * 45 ** 2]:
            pairs = []
            for y in range(1, bound + 1):
                s = isqrt(p * y * y + N)
                if s * s == p * y * y + N and gcd(y, s) == 1:
                    pairs.append((y, s))
            assert_orbit_ends(p, N, principal, bound, pairs)


def test_norm_rep_pairs_matches_sympy_diop_dn():
    pytest.importorskip("sympy")
    from sympy.solvers.diophantine.diophantine import diop_DN

    bound = 10 ** 12
    for p, N in ((11, 38), (3, 22), (7, 9), (43, 2 * 3 * 49), (19, 2 * 43 * 25),
                 (2467, 6 * 169), (331, 2 * 3019), (6131, 2 * 163),
                 (332947, 2 * 3 * 27 ** 2)):
        (ux, uy), = diop_DN(p, 1)
        assert _principal_cycle(p)[0] == (ux, uy)
        expected = set()
        for x0, y0 in diop_DN(p, N):
            for x, y in ((x0, y0), (x0, -y0), (-x0, y0), (-x0, -y0)):
                if x <= 0:
                    continue
                for sign in (1, -1):  # walk the unit orbit up, then down
                    s, Y = x, y
                    while abs(Y) <= bound or sign * Y < 0:
                        if Y:
                            expected.add((abs(Y), s))
                        s, Y = s * ux + sign * p * Y * uy, Y * ux + sign * s * uy
        expected = sorted(e for e in expected if e[0] <= bound and gcd(*e) == 1)
        assert_orbit_ends(p, N, _principal_cycle(p), bound, expected)


def cf_norm_hit_reference(D, z, m):
    """(x, y) with x**2 - D y**2 = +-m, or None, by a whole period walk.

    The per-class walk the solver made before the principal-cycle lookup,
    kept as its oracle.  Expands (z + sqrt D)/m, for m > 0 dividing
    D - z**2, as a continued fraction up to its first complete quotient
    (P_i + sqrt D)/Q_i with i >= 1 and Q_i = +-1.  From the convergents
    A/B it returns x = m A_{i-1} - z B_{i-1} and y = B_{i-1}, which
    satisfy x**2 - D y**2 = (-1)**i Q_i m.  None when a whole period
    passes without such a Q_i.
    """
    root = isqrt(D)
    P, Q = z, m
    x_prev, x = -z, m
    y_prev, y = 1, 0
    seen = set()
    while (P, Q) not in seen:
        seen.add((P, Q))
        a = (P + root + (Q < 0)) // Q  # floor((P + sqrt D)/Q): sqrt D is irrational
        P = a * Q - P
        Q = (D - P * P) // Q
        x_prev, x = x, a * x + x_prev
        y_prev, y = y, a * y + y_prev
        if Q in (1, -1):
            return x, y
    return None


def norm_classes(p, N):
    """(f, z, m) for every class of primitive x**2 - p y**2 = m = N/f**2."""
    for f in range(1, isqrt(N) + 1):
        if N % (f * f) == 0:
            m = N // (f * f)
            for z in _sqrt_mod(p, factorize(m)):
                yield f, z, m


def norm_rep_pairs_reference(p, N, y_bound):
    """Every (Y, s) with s**2 - p Y**2 = N, s > 0 and 1 <= Y <= y_bound,
    primitive or not: f times the unit orbit of each class of each
    m = N/f**2, the class decided by cf_norm_hit_reference."""
    unit = cf_norm_hit_reference(p, 0, 1)
    found = set()
    for f, z, m in norm_classes(p, N):
        hit = cf_norm_hit_reference(p, z, m)
        if hit is None or hit[0] ** 2 - p * hit[1] ** 2 != m:
            continue
        x, y = hit if hit[0] > 0 else (-hit[0], -hit[1])
        found |= _unit_orbit(f * x, f * y, p, unit, y_bound)
    return sorted(found)


# the composite N of the two norm_rep_pairs oracle tests above
COMPOSITE_N = (2 * 3 * 9, 2 * 11 * 121, 2 * 19 * 45 ** 2, 2 * 3 * 49, 2 * 43 * 25,
               6 * 169, 2 * 3019, 2 * 163, 2 * 3 * 27 ** 2)


def test_cycle_lookup_matches_period_walk():
    # class by class: a miss where the period walk misses, and on a hit an
    # element of the same norm, +m or -m
    outcomes = {None: 0, 1: 0, -1: 0}
    for p in range(3, 5000, 8):
        if not is_prime(p):
            continue
        unit, cycle = _principal_cycle(p)
        assert unit == cf_norm_hit_reference(p, 0, 1)
        for N in list(range(1, 121)) + list(COMPOSITE_N):
            for _, z, m in norm_classes(p, N):
                want = cf_norm_hit_reference(p, z, m)
                got = _cycle_norm_hit(p, z, m, cycle)
                assert (got is None) == (want is None), (p, z, m)
                if got is None:
                    outcomes[None] += 1
                    continue
                norm = got[0] ** 2 - p * got[1] ** 2
                assert norm == want[0] ** 2 - p * want[1] ** 2 and abs(norm) == m, (p, z, m)
                outcomes[norm // m] += 1
    assert min(outcomes.values()) > 1000, outcomes


def test_principal_cycle_midpoint():
    # for every prime p = 3 (mod 4) below 2*10**4, by a walk of the whole
    # period L of sqrt p: the first Q = 2 is at L/2, and theta**2 / 2, for
    # the convergent theta = A + B sqrt p before it, is the fundamental unit
    checked = 0
    for p in range(3, 2 * 10 ** 4, 4):
        if not is_prime(p):
            continue
        root = isqrt(p)
        P, Q, k, mid = 0, 1, 0, None
        A_prev, A, B_prev, B = 0, 1, 1, 0
        while k == 0 or Q != 1:
            a = (P + root) // Q
            P = a * Q - P
            Q = (p - P * P) // Q
            A_prev, A = A, a * A + A_prev
            B_prev, B = B, a * B + B_prev
            k += 1
            if Q == 2 and mid is None:
                mid = k, A, B
        assert mid[0] * 2 == k, p
        _, A, B = mid
        assert (A * A + p * B * B) % 2 == 0, p
        unit = ((A * A + p * B * B) // 2, A * B)
        assert unit == cf_norm_hit_reference(p, 0, 1) == _principal_cycle(p)[0], p
        checked += 1
    assert checked == 1136


def test_cycle_lookup_matches_period_walk_on_long_periods(monkeypatch):
    # class by class, as above, for the A2 primes of the scan-high window at
    # the norms 2 q k**2, k <= 3: the longest half periods span 11
    # checkpoints, and hits past the first stride land in both halves
    positions = []
    denominators = _Cycle.denominators

    def spy(cycle, k):
        positions.append(k)
        return denominators(cycle, k)

    monkeypatch.setattr(_Cycle, "denominators", spy)
    hits = misses = 0
    spans = []
    for p, q in a2_pairs(10 ** 6, d_min=998001):
        _, cycle = _principal_cycle(p)
        spans.append(len(cycle.checkpoints))
        for k in (1, 2, 3):
            for _, z, m in norm_classes(p, 2 * q * k * k):
                want = cf_norm_hit_reference(p, z, m)
                got = _cycle_norm_hit(p, z, m, cycle)
                assert (got is None) == (want is None), (p, z, m)
                if got is None:
                    misses += 1
                    continue
                norm = got[0] ** 2 - p * got[1] ** 2
                assert norm == want[0] ** 2 - p * want[1] ** 2 and abs(norm) == m, (p, z, m)
                hits += 1
    assert hits == len(positions) == 240 and misses > 0
    assert max(spans) == 11
    assert sum(k >= _STRIDE for k in positions) == sum(k <= -_STRIDE for k in positions) == 43


@pytest.mark.parametrize("d_min, d_max, count, refusals", [
    (998001, 10 ** 6, 34, {
        998409: "no Kaplan witness for (332803, 3) with |Y| <= 1000000, k <= 64",
        998833: "no Kaplan witness for (90803, 11) with |Y| <= 1000000, k <= 64",
        999849: "no Kaplan witness for (333283, 3) with |Y| <= 1000000, k <= 64",
    }),
    (9999001, 10 ** 7, 18, {
        9999057: "no Kaplan witness for (3333019, 3) with |Y| <= 1000000, k <= 64",
        9999489: "no Kaplan witness for (3333163, 3) with |Y| <= 1000000, k <= 64",
        9999849: "no Kaplan witness for (3333283, 3) with |Y| <= 1000000, k <= 64",
        9999921: "no Kaplan witness for (3333307, 3) with |Y| <= 1000000, k <= 64",
    }),
], ids=["998001-1000000", "9999001-10000000"])
def test_kaplan_scan_high_window_matches_period_walk(d_min, d_max, count, refusals):
    # every A2 d of the scan-high benchmark window and of the 1,000 d
    # below 1e7: the same witness as a solve on the period walk, and the
    # same refusals
    refused = {}
    pairs = list(a2_pairs(d_max, d_min=d_min))
    assert len(pairs) == count
    for p, q in pairs:
        want = kaplan_reference(p, q, 10 ** 6, pairs_of=norm_rep_pairs_reference)
        try:
            got = solve_kaplan(p, q)
        except NoSolutionInBound as exc:
            refused[p * q] = str(exc)
            got = None
        assert got == want, (p, q)
    assert refused == refusals


@pytest.mark.parametrize("d, r_corollary", [
    (998409, "3"), (998833, ">=4"), (999849, ">=4"),
    (9999057, ">=4"), (9999489, ">=4"), (9999849, "3"), (9999921, "3"),
])
def test_corollary_has_no_y_cap(d, r_corollary):
    # the capped refusals of the window test above: the corollary's
    # uncapped search finds a witness, and the oracle satisfies it
    row, = scan_rows(d, d)
    assert row["r_corollary"] == r_corollary
    if r_corollary.startswith(">="):
        assert row["r_oracle"] >= int(r_corollary[2:])
    else:
        assert row["r_oracle"] == int(r_corollary)


@pytest.mark.parametrize("d, p, q", [(10009137, 3336379, 3), (100005681, 33335227, 3)])
def test_corollary_refuses_past_k_max(d, p, q):
    # the least k is 355 and 333 here, past KAPLAN_K_MAX: the row is
    # skipped, and the uncapped refusal names k alone
    row, = scan_rows(d, d)
    assert (row["r_oracle"], row["r_corollary"]) == (3, "skipped")
    with pytest.raises(NoSolutionInBound) as exc:
        solve_kaplan(p, q, bound=None)
    assert str(exc.value) == f"no Kaplan witness for ({p}, {q}) with k <= 64"


def test_half_walk_finds_the_first_convergent_of_each_norm():
    # for every prime p = 3 (mod 4) below 2*10**4 and every norm N < sqrt p,
    # by a walk of the whole period: a walk that stops at N returns the
    # period's first convergent of norm +N, and a walk that reaches the
    # middle means the period has none; N = 1 is first met at k = L, by
    # the fundamental unit
    hits = misses = 0
    for p in range(3, 2 * 10 ** 4, 4):
        if not is_prime(p):
            continue
        root = isqrt(p)
        P, Q, k = 0, 1, 0
        A_prev, A, B_prev, B = 0, 1, 1, 0
        first = {}
        while k == 0 or Q != 1:
            a = (P + root) // Q
            P = a * Q - P
            Q = (p - P * P) // Q
            A_prev, A = A, a * A + A_prev
            B_prev, B = B, a * B + B_prev
            k += 1
            if A * A - p * B * B > 0:
                first.setdefault(A * A - p * B * B, (A, B))
        assert first[1] == _principal_cycle(p)[0], p
        for N in range(2, root + 1):
            found, cycle = _principal_cycle(p, stop=N)
            if cycle is None:
                assert found == first[N], (p, N)
                hits += 1
            else:
                assert N not in first, (p, N)
                misses += 1
    assert (hits, misses) == (13741, 86476)


def kaplan_by_class_lookup(p, q, bounds, principal):
    """{bound: the first witness in (k, l, |Y|) order with |Y| <= bound,
    or None}, bound None lifting the cap, with the class lookup at every
    k, k = 1 included: solve_kaplan's route before the first convergent of
    norm 2q settled k = 1."""
    first = {}
    for k in range(1, 65):
        k2, N = k * k, 2 * q * k * k
        ls = _sqrt_mod(p, factorize(2 * k2))
        pairs = _primitive_pairs(p, N, factorize(N), principal) if ls else []
        witnesses = [(abs_y, KaplanParams(p, q, k, l, (l * l - p) // (2 * k2), (root - l * Y) // k2, Y))
                     for l in ls for abs_y, s in pairs for Y in (abs_y, -abs_y) for root in (s, -s)
                     if (root - l * Y) % k2 == 0]
        for bound in bounds:
            hit = next((w for y, w in witnesses if bound is None or y <= bound), None)
            if hit and bound not in first:
                first[bound] = hit
    return {bound: first.get(bound) for bound in bounds}


@pytest.mark.parametrize("lo, hi, hits, misses, past_bound", [
    (3, 2 * 10 ** 5, 1025, 189, {10 ** 6: 736, 2000: 835}),
    (9999001, 10001000, 7, 6, {10 ** 6: 7, 2000: 7}),
    (99999001, 100001000, 9, 0, {10 ** 6: 9, 2000: 9}),
    (999999001, 1000001000, 6, 2, {10 ** 6: 6, 2000: 6}),
], ids=["d<=2e5", "9999001", "99999001", "999999001"])
def test_kaplan_first_convergent_matches_the_class_lookup(lo, hi, hits, misses, past_bound):
    # every A2 pair with 4 q**2 < p among d <= 2*10**5 and in the 2,000-d
    # windows from 9,999,001, 99,999,001 and 999,999,001, at bound None,
    # 10**6 and 2000: the same witness, or none, as the class lookup; a
    # k = 1 witness past the bound sends the search on to k >= 2
    bounds = (None, 10 ** 6, 2000)
    outcomes = {"hit": 0, "miss": 0, 10 ** 6: 0, 2000: 0}
    for p, q in a2_pairs(hi, d_min=lo):
        if 4 * q * q >= p:
            continue
        principal = _principal_cycle(p)
        found, cycle = _principal_cycle(p, stop=2 * q)
        outcomes["miss" if cycle else "hit"] += 1
        want = kaplan_by_class_lookup(p, q, bounds, principal)
        for bound in bounds:
            try:
                got = solve_kaplan(p, q, bound=bound)
            except NoSolutionInBound:
                got = None
            assert got == want[bound], (p, q, bound)
            if cycle is None and bound is not None and found[1] > bound:
                assert got is None or got.k > 1, (p, q, bound)
                outcomes[bound] += 1
    assert outcomes == {"hit": hits, "miss": misses, **past_bound}


@pytest.mark.parametrize("p, q, bound, walks, k", [
    (332851, 3, None, 1, 1),        # a k = 1 hit
    (333019, 3, None, 1, 3),        # a miss; the search ends at k = 3
    (3336379, 3, None, 1, None),    # a miss, refused past KAPLAN_K_MAX
    (332851, 3, 10 ** 6, 2, 5),     # a k = 1 hit past the bound
])
def test_kaplan_walks_the_cycle_once(monkeypatch, p, q, bound, walks, k):
    # one walk per solve, but for a k = 1 hit past the bound; a miss hands
    # on the cycle a walk without the stop builds
    calls = []

    def spy(*args, **kwargs):
        calls.append(_principal_cycle(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr("ztwo.diophantine._principal_cycle", spy)
    try:
        got = solve_kaplan(p, q, bound=bound).k
    except NoSolutionInBound as exc:
        assert str(exc) == f"no Kaplan witness for ({p}, {q}) with k <= 64"
        got = None
    assert (len(calls), got) == (walks, k)
    if calls[0][1] is not None:
        assert calls[0] == _principal_cycle(p)


@pytest.mark.parametrize("bound", [0, -1])
def test_solvers_refuse_non_positive_bound(bound):
    for solve, args in ((solve_pell_rep, (89,)), (solve_kaplan, (11, 19)),
                        (solve_legendre, (5, 19)), (enumerate_legendre_solutions, (5, 19))):
        with pytest.raises(InvalidInput, match=f"bound must be >= 1, got {bound}"):
            solve(*args, bound=bound)


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
