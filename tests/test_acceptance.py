"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  All comparisons are exact; there are no numeric tolerances
anywhere in this package.
"""

from math import gcd

import ztwo
from ztwo import classifier, qforms
from ztwo.diophantine import (
    KaplanParams,
    LegendreSolution,
    solve_kaplan,
    solve_legendre,
    solve_pell_rep,
    williams_criterion,
)
from ztwo.symbols import jacobi, quartic_residue


def _ok(msg):
    print(f"PASS {msg}")


# ---------------------------------------------------------------------------
# 1. worked example regressions (exact)
# ---------------------------------------------------------------------------

def test_criterion_1_d89():
    rep = solve_pell_rep(89)
    assert (rep.u, rep.v) == (17, 10)
    assert quartic_residue(2, 89) == 1
    assert quartic_residue(17, 89) == -1
    for n in range(1, 6):
        assert ztwo.predict(89, n, "L").shape.divisors == (2, 2 ** (n + 1))
    assert qforms.class_group(-712).h2 == 8
    assert ztwo.exponent_r_oracle(ztwo.classify(89)) == 3
    _ok("criterion 1 (d=89): u=17 v=10, (2/89)_4=+1, (17/89)_4=-1, "
        "L-shape Z/2 x Z/2^(n+1), h2(-712)=8 => r=3")


def test_criterion_1_d209():
    wit = solve_kaplan(11, 19)
    assert wit.l ** 2 - 2 * wit.k ** 2 * wit.m == 11
    assert wit.k ** 2 * wit.X ** 2 + 2 * wit.l * wit.X * wit.Y + 2 * wit.m * wit.Y ** 2 == 38
    KaplanParams(11, 19, 1, 3, -1, 4, 1)  # exhibited tuple is a valid witness
    assert jacobi(-2, 7) == -1
    for n in range(1, 6):
        assert ztwo.predict(209, n, "L").shape.divisors == (2, 2 ** (n + 1))
    _ok("criterion 1 (d=209): Kaplan witness valid, (-2/7)=-1, L-shape Z/2 x Z/2^(n+1)")


def test_criterion_1_d247():
    assert jacobi(13, 19) == -1
    for n in range(1, 6):
        assert ztwo.predict(247, n, "L").shape.divisors == (2 ** (n + 1),)
    assert qforms.class_group(-247).h2 == 2
    _ok("criterion 1 (d=247): (13/19)=-1 => Z/2^(n+1), h2(-247)=2")


def test_criterion_1_d55():
    assert jacobi(5, 11) == 1
    assert quartic_residue(11, 5) == 1
    for n in range(1, 6):
        assert ztwo.predict(55, n, "L").shape.divisors == (2 ** (n + 2),)
    assert qforms.class_group(-55).h2 == 4
    _ok("criterion 1 (d=55): (5/11)=+1, (11/5)_4=+1 => Z/2^(n+2), h2(-55)=4")


def test_criterion_1_d95():
    sol = solve_legendre(5, 19)
    LegendreSolution(5, 19, 1, 2, 9)  # exhibited solution is admissible
    assert williams_criterion(sol) == 1
    for n in range(1, 6):
        assert ztwo.predict(95, n, "L").shape.divisors == (2 ** (n + 3),)
    assert qforms.class_group(-95).h2 == 8
    _ok("criterion 1 (d=95): admissible solution found, (1,2,9) validates, "
        "criterion fires => Z/2^(n+3), h2(-95)=8")


def test_criterion_1_d407():
    big = LegendreSolution(37, 11, 1, 56518, 187449)  # validates eq + conditions
    assert williams_criterion(big) == -1
    tag = ztwo.classify(407)
    assert ztwo.exponent_r_oracle(tag) == 5
    for n in range(1, 6):
        assert ztwo.predict(407, n, "L").shape.divisors == (2 ** (n + 4),)
    assert ztwo.exponent_r_corollary(tag) == classifier.RBound.at_least(5)
    _ok("criterion 1 (d=407): (1,56518,187449) validates, criterion does not fire, "
        "oracle r=5 => Z/2^(n+4)")


# ---------------------------------------------------------------------------
# 2. corollary <=> oracle equivalence over all classified d <= 10^4
# ---------------------------------------------------------------------------

def test_criterion_2_cross_check_ten_thousand():
    report = ztwo.cross_check(10 ** 4)
    assert report.violations == [], report.violations[:5]
    assert report.skipped == [], report.skipped[:5]
    assert report.checked > 600
    by_family = {}
    for e in report.entries:
        by_family.setdefault(e.tag, []).append(e)
    # family B: branch value pins the oracle exactly; h2(-pq) = 2^(r-1)
    for e in by_family["B"]:
        p, q = e.primes
        h2 = qforms.class_group(qforms.discriminant_of(-p * q)).h2
        assert 2 ** e.r_oracle == 2 * h2
        if jacobi(p, q) == -1:
            assert e.r_oracle == 2 and h2 == 2
        elif quartic_residue(q % p, p) == 1:
            assert e.r_oracle == 3 and h2 == 4
        else:
            assert e.r_oracle >= 4 and h2 >= 8
    # A-families: the corollary fires exactly when r = 3, and r >= 3 always
    for fam in ("A1", "A2"):
        for e in by_family[fam]:
            assert e.r_oracle >= 3
            if e.r_corollary.is_exact:
                assert e.r_corollary.value == 3 == e.r_oracle
            else:
                assert e.r_oracle >= 4
    _ok(f"criterion 2: cross_check(10^4) zero violations over {report.checked} "
        f"classified d ({', '.join(f'{k}:{len(v)}' for k, v in sorted(by_family.items()))})")


# ---------------------------------------------------------------------------
# 3. oracle self-consistency
# ---------------------------------------------------------------------------

def test_criterion_3_genus_sweep_to_1e5():
    checked = 0
    for s in qforms.class_group_sweep(10 ** 5):
        assert s.two_rank == qforms.genus_two_rank(s.D), s
        checked += 1
    assert checked > 25000
    _ok(f"criterion 3a: genus 2-rank equals composition 2-rank for all "
        f"{checked} fundamental |D| <= 10^5")


def test_criterion_3_group_axioms_to_2000():
    discs = comps = 0
    for s in qforms.class_group_sweep(2000):
        D = s.D.D
        forms = qforms.reduced_forms(D)
        index = set(forms)
        e = qforms.principal_form(D)
        table = {}
        for f in forms:
            for g in forms:
                fg = qforms.compose(f, g)
                assert fg in index          # closure into reduced forms of D
                table[f, g] = fg
        for f in forms:
            assert table[f, e] == f         # identity
            assert table[f, qforms.inverse(f)] == e   # inverses
        for f in forms:
            for g in forms:
                fg = table[f, g]
                for k in forms:
                    assert table[fg, k] == table[f, table[g, k]]  # associativity
        comps += len(forms) ** 2
        discs += 1
        prod = 1
        for d in s.divisors:
            prod *= d
        assert prod == s.h                  # divisor chain reproduces the order
    _ok(f"criterion 3b: exhaustive group axioms on {discs} discriminants "
        f"|D| <= 2000 ({comps} table entries); chain product = h everywhere")


# ---------------------------------------------------------------------------
# 4. Iwasawa growth formula
# ---------------------------------------------------------------------------

def test_criterion_4_iwasawa_formula():
    checked = 0
    for d in range(3, 2001, 2):
        try:
            tag = ztwo.classify(d)
        except ztwo.errors.ZtwoError:
            continue
        if tag.tag not in ("A1", "A2", "B"):
            continue
        analysis = ztwo.analyze(tag)  # r is read once per d
        for tower in ("L", "K"):
            inv = analysis.invariants(tower)
            assert (inv.lam, inv.mu) == (1, 0)
            assert ztwo.iwasawa_invariants(d, tower) == inv
            assert ztwo.predict(d, 1, tower) == analysis.predict(1, tower)
            for n in range(1, 21):
                e_n = analysis.predict(n, tower).shape.order.bit_length() - 1
                assert e_n == inv.lam * n + inv.mu * 2 ** n + inv.nu
        checked += 1
    assert checked > 100
    _ok(f"criterion 4: e_n = lambda*n + mu*2^n + nu exact for {checked} classified "
        f"d <= 2000, both towers, n = 1..20")


# ---------------------------------------------------------------------------
# 5. symbols against brute force
# ---------------------------------------------------------------------------

def _primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, limit, i)))
    return [n for n in range(2, limit) if sieve[n]]


def test_criterion_5_quartic_brute_force():
    pairs = 0
    for p in _primes_below(500):
        if p % 4 != 1:
            continue
        fourth = {pow(x, 4, p) for x in range(1, p)}
        for a in range(1, p):
            if jacobi(a, p) == 1:
                assert (quartic_residue(a, p) == 1) == (a in fourth)
                pairs += 1
    _ok(f"criterion 5a: quartic symbol matches exhaustive fourth-power search "
        f"({pairs} residue pairs, p < 500)")


def test_criterion_5_jacobi_vs_euler():
    pairs = 0
    for p in _primes_below(10 ** 4):
        if p == 2:
            continue
        step = max(1, p // 64)
        for a in range(1, p, step):
            if a % p == 0 or gcd(a, p) != 1:
                continue
            euler = pow(a, (p - 1) // 2, p)
            assert jacobi(a, p) == (1 if euler == 1 else -1)
            pairs += 1
    _ok(f"criterion 5b: Jacobi equals Euler-criterion Legendre on prime "
        f"moduli < 10^4 ({pairs} samples)")


# ---------------------------------------------------------------------------
# 6. scope statement: tower layers are predicted, never recomputed
# ---------------------------------------------------------------------------

def test_criterion_6_no_higher_degree_class_groups():
    # The only class-group computation in the package is for quadratic
    # discriminants; nothing accepts a field of degree > 2.  Layer predictions
    # therefore rest entirely on criteria 1-4 above.
    import ztwo.qforms as q
    computational_surface = [name for name in dir(q) if "class_group" in name.lower()]
    assert sorted(computational_surface) == ["CLASS_GROUP_MEMO", "class_group", "class_group_sweep"]
    pred = ztwo.predict(89, 3, "L")
    assert pred.r_source == "oracle"  # r from Cl(-2d), not from the layer itself
    _ok("criterion 6: no degree > 2 class group is ever computed; layer shapes "
        "are theorem predictions anchored by criteria 1-4")
