import dataclasses
import hashlib
import pickle
import random
from collections import Counter
from math import gcd, isqrt, prod

import pytest

from ztwo import qforms
from ztwo.arith import _odd_primes_to, factorize
from ztwo.classifier import EXACT_FAMILIES, classified
from ztwo.errors import (
    EnumerationBoundExceeded,
    IndefiniteForm,
    InvalidInput,
    MismatchedDiscriminant,
    NotSquarefree,
    PrecondViolated,
)
from ztwo.qforms import (
    ClassGroupStructure,
    Discriminant,
    FormClass,
    check_two_sylow,
    class_group,
    class_group_sweep,
    compose,
    discriminant_of,
    form_pow,
    genus_two_rank,
    inverse,
    is_fundamental_discriminant,
    principal_form,
    reduce_form,
    reduced_forms,
    two_sylow,
)
from ztwo.symbols import jacobi


def brute_count_reduced(D):
    """Reduced primitive form count by a blunt triple loop (no divisor tricks)."""
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            if gcd(gcd(a, b), c) == 1:
                count += 1
        a += 1
    return count


def divisor_scan_reduced_forms(D):
    """Reduced primitive forms by the classical divisor scan (Cohen, section
    5.3): for each b, every a dividing (b**2 - D)/4 up to its square root.
    A reference for reduced_forms, which enumerates by a instead."""
    out = []
    for b in range(D % 2, isqrt(-D // 3) + 1, 2):
        quarter = (b * b - D) // 4
        a = max(b, 1)
        while a * a <= quarter:
            if quarter % a == 0:
                c = quarter // a
                if gcd(gcd(a, b), c) == 1:
                    out.append(FormClass(a, b, c))
                    if 0 < b < a < c:
                        out.append(FormClass(a, -b, c))
            a += 1
    out.sort()
    return out


def _solve_mod(a, b, m):
    """Smallest x >= 0 with a*x = b (mod m), and the solution spacing m // gcd(a, m)."""
    g = gcd(a, m)
    if b % g:
        raise MismatchedDiscriminant("composition congruence unsolvable")
    step = m // g
    return b // g * pow(a // g, -1, step) % step, step


def shanks_compose_reference(f, g):
    """Gauss composition of primitive positive definite forms by two linear
    congruences (Shanks, with w = gcd(a1, a2, (b1 + b2)/2)), reduced.  A
    reference for qforms._compose, which follows Cohen 5.4.7."""
    a1, b1, c1 = f
    a2, b2, c2 = g
    e = (b2 + b1) // 2
    h = (b2 - b1) // 2
    w = gcd(gcd(a1, a2), e)
    s = a1 // w
    t = a2 // w
    u = e // w
    k0, step = _solve_mod(t * u, h * u + s * c1, s * t)
    n, _ = _solve_mod(t * step, h - t * k0, s)
    k = k0 + step * n
    l = (t * k - h) // s
    m = (t * u * k - h * u - s * c1) // (s * t)
    return reduce_form((s * t, w * u - (k * t + l * s), k * l - w * m))


def kronecker(D, a):
    """Kronecker symbol (D/a) for a >= 1, from the Jacobi symbol on the odd part."""
    chi2 = 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
    k = 1
    while a % 2 == 0:
        a //= 2
        k *= chi2
    if a == 1:
        return k
    if gcd(D, a) > 1:
        return 0
    return k * jacobi(D, a)


def test_discriminant_of_examples():
    assert discriminant_of(-55).D == -55
    assert discriminant_of(-178).D == -712
    assert discriminant_of(-407).D == -407
    for m in (-45, -4):
        with pytest.raises(NotSquarefree):
            discriminant_of(m)
    with pytest.raises(InvalidInput):
        discriminant_of(7)


def test_discriminant_is_checked_on_construction():
    for D in (-12, -45):                          # 4 * -3 with -3 = 1 (mod 4); 3 (mod 4)
        with pytest.raises(InvalidInput, match="not a fundamental negative discriminant"):
            Discriminant(D)
    assert repr(Discriminant(-55)) == "Discriminant(D=-55)"


def test_fundamental_predicate():
    assert is_fundamental_discriminant(-4)
    assert is_fundamental_discriminant(-55)
    assert is_fundamental_discriminant(-712)
    assert not is_fundamental_discriminant(-12)   # 4 * (-3), -3 = 1 (mod 4)
    assert not is_fundamental_discriminant(-45)
    assert not is_fundamental_discriminant(-5)    # 3 (mod 4)
    assert not is_fundamental_discriminant(4)


def test_fundamental_discriminants_are_decided_above_minus_2_40():
    # is_squarefree decides radicands below 2**40, so both refuse D <= -2**40
    # with a message naming D and their domain, not is_squarefree's
    assert not is_fundamental_discriminant(1 - (1 << 40))   # 5**2 divides 2**40 - 1
    assert Discriminant(5 - (1 << 40)).D == -1099511627771   # the fundamental D nearest -2**40
    for D in (-(1 << 40), -2199023255551, -(1 << 42)):
        for refuse in (is_fundamental_discriminant, Discriminant):
            with pytest.raises(InvalidInput, match=rf"for D > -2\*\*40, got D = {D}$"):
                refuse(D)


def test_reduce_fixpoints():
    assert reduce_form((1, 0, 1)) == FormClass(1, 0, 1)
    assert reduce_form((4, 4, 15)) == FormClass(4, 4, 15)    # D = -224
    assert reduce_form((3, 2, 5)) == FormClass(3, 2, 5)      # D = -56


def test_reduce_nontrivial():
    # D = -44; unique reduced representative found by hand reduction
    assert reduce_form((15, 14, 4)) == FormClass(3, -2, 4)
    # equivalent forms reduce identically (both unimodular images of x^2 + 5y^2)
    assert reduce_form((1, 4, 9)) == FormClass(1, 0, 5)
    assert reduce_form((5, 0, 1)) == FormClass(1, 0, 5)


def test_reduce_rejects():
    with pytest.raises(IndefiniteForm):
        reduce_form((1, 5, 2))  # D = 17
    with pytest.raises(InvalidInput):
        reduce_form((-1, 0, -5))


def test_reduced_invariants_random():
    rng = random.Random(1131)
    for _ in range(300):
        a = rng.randrange(1, 40)
        b = rng.randrange(-40, 40)
        cmin = (b * b) // (4 * a) + 1
        c = rng.randrange(cmin, cmin + 50)
        f = reduce_form((a, b, c))
        assert f.discriminant == b * b - 4 * a * c
        assert -f.a < f.b <= f.a <= f.c
        if f.a == f.c:
            assert f.b >= 0
        assert reduce_form(f) == f


def test_compose_identity_and_inverse():
    for D in (-84, -120, -55, -231):
        e = principal_form(D)
        for f in reduced_forms(D):
            assert compose(e, f) == f
            assert compose(f, inverse(f)) == e


def test_compose_klein_group_of_84():
    # Cl(-84) is the 2x2 Klein group; independent table: the product of two
    # distinct non-identity classes is the third, squares are the identity.
    forms = reduced_forms(-84)
    assert forms == [FormClass(1, 0, 21), FormClass(2, 2, 11),
                     FormClass(3, 0, 7), FormClass(5, 4, 5)]
    e, f1, f2, f3 = forms
    assert compose(f1, f2) == f3
    assert compose(f2, f3) == f1
    assert compose(f3, f1) == f2
    for f in (f1, f2, f3):
        assert compose(f, f) == e


def test_compose_mismatch():
    with pytest.raises(MismatchedDiscriminant):
        compose((1, 0, 21), (1, 0, 5))


def test_kernel_matches_reference_on_every_pair():
    # every ordered pair and every square for fundamental -1500 <= D <= -3,
    # counting the Cohen branches taken on the way
    divides = d_not_dividing_s = square_with_gcd = 0
    for D in range(-3, -1501, -1):
        if not is_fundamental_discriminant(D):
            continue
        forms = reduced_forms(D)
        for f in forms:
            for g in forms:
                assert qforms._compose(f, g) == shanks_compose_reference(f, g), (f, g)
                if f == g:
                    square_with_gcd += gcd(f.a, f.b) > 1
                    continue
                a1, a2 = sorted((f.a, g.a))
                d = gcd(a1, a2)
                if a2 % a1 == 0:
                    divides += 1
                elif d > 1 and (f.b + g.b) // 2 % d:
                    d_not_dividing_s += 1
    assert divides and d_not_dividing_s and square_with_gcd


def test_kernel_matches_reference_on_unreduced_forms():
    # x -> x + r*y and (a, b, c) -> (c, -b, a) keep the class and unreduce the form
    def unreduce(f, rng):
        a, b, c = f
        for _ in range(rng.randrange(1, 4)):
            r = rng.randrange(-40, 41)
            a, b, c = a, b + 2 * r * a, a * r * r + b * r + c
            if rng.random() < 0.5:
                a, b, c = c, -b, a
        return a, b, c

    rng = random.Random(5471)
    for D in (-84, -455, -1155, -3315, -5460, -999999, -8000004):
        forms = reduced_forms(D)
        for _ in range(60):
            f, g = rng.choice(forms), rng.choice(forms)
            uf, ug = unreduce(f, rng), unreduce(g, rng)
            assert qforms._compose(uf, ug) == shanks_compose_reference(uf, ug) \
                == qforms._compose(f, g), (uf, ug)
            assert qforms._compose(uf, uf) == shanks_compose_reference(uf, uf) \
                == qforms._compose(f, f), uf


def test_form_pow_refuses_a_zero_first_coefficient():
    with pytest.raises(IndefiniteForm):
        form_pow((0, 1, 1), 2)
    with pytest.raises(IndefiniteForm):
        inverse((0, 1, 1))


def test_form_pow_refuses_a_negative_definite_form():
    with pytest.raises(InvalidInput):
        form_pow((-1, 0, -5), 2)


def test_compose_refuses_a_negative_definite_form():
    with pytest.raises(InvalidInput):
        compose((-1, 0, -5), (-1, 0, -5))


def test_form_pow_zero_refuses_an_indefinite_form():
    with pytest.raises(IndefiniteForm):
        form_pow((1, 1, -1), 0)


def test_form_pow_orders_divide_h():
    for D in (-47, -84, -455, -1235):
        h = len(reduced_forms(D))
        e = principal_form(D)
        for f in reduced_forms(D):
            assert form_pow(f, h) == e


def test_class_group_examples():
    assert class_group(-55).h == 4
    assert class_group(-55).divisors == (4,)
    assert class_group(-55).h2 == 4
    assert class_group(-712).h2 == 8
    s = class_group(-407)
    assert s.h == 16 and s.h2 == 16
    assert class_group(-4).h == 1
    assert class_group(-4).divisors == ()


def test_class_group_rejects():
    with pytest.raises(InvalidInput):
        class_group(-12)
    with pytest.raises(EnumerationBoundExceeded):
        class_group(-(1 << 33) - 3)


def test_h_matches_independent_count():
    for D in range(-3, -400, -1):
        if not is_fundamental_discriminant(D):
            continue
        assert class_group(D).h == brute_count_reduced(D)


def test_divisor_chain_shape():
    for D in (-84, -455, -1155, -3315, -5460):
        s = class_group(D)
        prod = 1
        for i, d in enumerate(s.divisors):
            assert d > 1
            prod *= d
            if i:
                assert d % s.divisors[i - 1] == 0
        assert prod == s.h
        assert s.two_rank == sum(1 for d in s.divisors if d % 2 == 0)



def test_from_chain_checks_the_chain():
    s = ClassGroupStructure.from_chain(-455, 20, [2, 10])
    assert (s.h, s.h2, s.two_rank) == (20, 4, 2)
    assert ClassGroupStructure.from_chain(-3, 1, []).h2 == 1
    for h, chain in ((8, [2]), (4, [8]), (24, [4, 6]), (8, [1, 8])):
        with pytest.raises(InvalidInput):
            ClassGroupStructure.from_chain(-712, h, chain)

def test_element_orders_match_abstract_group():
    # multiset of element orders must agree with the direct product of the chain
    from itertools import product as iproduct
    for D in (-84, -455, -903, -1320):
        s = class_group(D)
        e = principal_form(D)
        orders = []
        for f in reduced_forms(D):
            o, g = 1, f
            while g != e:
                g = compose(g, f)
                o += 1
            orders.append(o)
        from math import lcm
        abstract = []
        for combo in iproduct(*(range(d) for d in s.divisors)):
            abstract.append(lcm(*(d // gcd(x, d) for x, d in zip(combo, s.divisors))) if combo else 1)
        assert sorted(orders) == sorted(abstract)


def test_group_axioms_exhaustive_small():
    # every |D| <= 600: closure, commutativity and associativity of the table
    for structure in class_group_sweep(600):
        D = structure.D.D
        forms = reduced_forms(D)
        index = {f: i for i, f in enumerate(forms)}
        table = {}
        for f in forms:
            for g in forms:
                fg = compose(f, g)
                assert fg in index
                table[f, g] = fg
        e = principal_form(D)
        for f in forms:
            assert table[e, f] == f
            assert table[f, inverse(f)] == e
            for g in forms:
                assert table[f, g] == table[g, f]
        for f in forms:
            for g in forms:
                for k in forms:
                    assert table[table[f, g], k] == table[f, table[g, k]]


def test_genus_two_rank_examples():
    assert genus_two_rank(-712) == 1       # 2, 89
    assert genus_two_rank(-1672) == 2      # 2, 11, 19
    assert genus_two_rank(-3) == 0


def test_genus_matches_structure_to_3000():
    for s in class_group_sweep(3000):
        assert s.two_rank == genus_two_rank(s.D), s


@pytest.mark.parametrize("limit", [-1, 0, 2, 3, 4, 7, 8, 3000, qforms._SWEEP_BLOCK + 10, 16394])
def test_sweep_yields_exactly_the_fundamental_discriminants(limit):
    # the sieve at its edges: no D below |D| = 3, the first of each residue
    # class (-3, -4, -7, -8), a limit just past the first sieve block, and
    # one past several blocks
    swept = [s.D.D for s in class_group_sweep(limit)]
    assert swept == [D for D in range(-3, -limit - 1, -1) if is_fundamental_discriminant(D)]


def test_sweep_agrees_with_single_discriminant_path():
    # the sweep and class_group share one builder, so count against the divisor scan
    for swept in class_group_sweep(5000):
        assert swept.h == len(divisor_scan_reduced_forms(swept.D.D)), swept.D


def test_sweep_neither_reads_nor_writes_the_memo(monkeypatch):
    monkeypatch.setattr(qforms, "CLASS_GROUP_MEMO", {})
    for _ in class_group_sweep(3000):
        pass
    assert qforms.CLASS_GROUP_MEMO == {}
    forged = ClassGroupStructure.from_chain(-23, 1, [])
    qforms.CLASS_GROUP_MEMO[-23] = forged
    assert class_group(-23).h == 3
    assert [s.h for s in class_group_sweep(23) if s.D.D == -23] == [3]


def test_forged_form_list_trips_the_order_check():
    with pytest.raises(AssertionError):
        qforms._structure_from_forms(-23, 3, [principal_form(-23)] * 3)
    # (2, 0, 3), of discriminant -24, has the shape of an ambiguous form but
    # squares to (1, 0, 6): no odd power of it may be read off its shape,
    # neither for a Sylow 2-subgroup of order 2 (h = 2) nor of order 4 (h = 12)
    for D, h in ((-15, 2), (-84, 12)):
        with pytest.raises(AssertionError, match="does not square"):
            qforms._structure_from_forms(D, h, [principal_form(D)] + [(2, 0, 3)] * (h - 1))


FORGED_CLASS_NUMBER_ERRORS = {
    6: "no element of order",
    15: "no element of order",
    30: "no element of order",
    12: "no Sylow 2-subgroup of order 4",
    28: "no Sylow 2-subgroup of order 4",
    56: "no Sylow 2-subgroup of order 8",
    63: "no Sylow 3-subgroup of order 9",
}


@pytest.mark.parametrize("h", [6, 15, 30, 12, 28, 56, 63])
def test_forged_class_number_trips_the_order_check(h):
    # the real generators of Cl(-71) = Z/7 with a forged h: for each prime
    # p | h the first candidate f gives y = f**(h/p) != 1, but y**p = f**h
    # is not 1, and no order check may be skipped for it; at h = 30,
    # y = f**15 = f for p = 2, so the check must not be keyed on y == f.
    # h = 12, 28, 56 and 63 put a Sylow subgroup of order p**e >= p**2
    # beside one of order p: at 28, 56 and 63 the closure step of f proves
    # f**h = 1 (f**7 = 1 lies in the span), which lets the order-7 check be
    # skipped, but the larger subgroup never closes; at 12 its step fails
    gens = list(qforms._prime_forms(-71, [2, 3]))
    assert qforms._structure_from_forms(-71, 7, gens) == (7,)
    with pytest.raises(AssertionError, match=FORGED_CLASS_NUMBER_ERRORS[h]):
        qforms._structure_from_forms(-71, h, gens)


def test_forged_form_list_trips_the_closure():
    # h = 4 claims a Sylow 2-subgroup of order 4, but the forms close at 2
    with pytest.raises(AssertionError):
        qforms._structure_from_forms(-84, 4, [(1, 0, 21)] + [(2, 2, 11)] * 3)


def test_prime_forms_give_the_chain_of_the_full_form_list():
    # _structure draws its candidates from the prime forms (q, b, c),
    # q <= sqrt(|D|/3); for every fundamental |D| <= 5000 they are reduced
    # forms of D, and the chain built from them is the chain built from
    # every reduced form
    for D in range(-3, -5001, -1):
        if not is_fundamental_discriminant(D):
            continue
        forms = reduced_forms(D)
        assert class_group(D).h == len(forms), D
        primes = [2, *_odd_primes_to(isqrt(-D // 3))]
        prime_forms = list(qforms._prime_forms(D, primes))
        assert set(prime_forms) <= set(forms), D
        assert (qforms._structure_from_forms(D, len(forms), prime_forms)
                == qforms._structure_from_forms(D, len(forms), forms)), D


def power_table_partition(sylow, p):
    """Exponent partition (descending) of an abelian p-group S given as a set.

    |p**i S| / |p**(i+1) S| = p**ranks[i], where ranks[i] counts the cyclic
    factors of exponent > i; the images p**i S come from one x -> x**p
    table, and the partition is the conjugate of ranks.
    """
    power = {x: qforms._pow(x, p) for x in sylow}
    ranks = []
    image = sylow
    while len(image) > 1:
        smaller = {power[x] for x in image}
        k = 1
        while p ** k < len(image) // len(smaller):
            k += 1
        ranks.append(k)
        image = smaller
    return [sum(1 for k in ranks if k > j) for j in range(ranks[0])]


def test_smith_partition_matches_the_power_table():
    # the builder reads each Sylow subgroup's shape off its generators'
    # relations; the x -> x**p table on the subgroup, taken independently
    # as the image of x -> x**(h / p**e), must agree whenever e >= 2, over
    # cyclic groups with one and with several generators and non-cyclic
    # ones for p = 2 and p = 3
    seen = set()
    shapes = {}
    for D in range(-3, -5001, -1):
        if not is_fundamental_discriminant(D):
            continue
        forms = reduced_forms(D)
        h = len(forms)
        ident = tuple(principal_form(D))
        for p, e in qforms.factorize(h).items():
            if e < 2:
                continue
            sylow = {qforms._pow(f, h // p ** e) for f in forms}
            assert len(sylow) == p ** e, (D, p)
            log, rows = {ident: 0}, []
            assert any(qforms._sylow_step(qforms._pow(f, h // p ** e), p, p ** e, log, rows)
                       for f in forms), (D, p)
            partition = qforms._smith_partition(rows, p)
            assert partition == power_table_partition(sylow, p), (D, p)
            assert prod(row[-1] for row in rows) == p ** e, (D, p)
            assert set(log) <= sylow and sorted(log.values()) == list(range(len(log))), (D, p)
            if partition != [e]:
                seen.add(f"non-cyclic, p = {p}")
            else:
                seen.add("cyclic, " + ("several generators" if len(rows) > 1 else "one generator"))
            shapes[D, p] = partition
    assert seen >= {"cyclic, one generator", "cyclic, several generators",
                    "non-cyclic, p = 2", "non-cyclic, p = 3"}
    assert shapes[-3299, 3] == [2, 1] and shapes[-4027, 3] == [1, 1]


def test_forged_form_list_trips_the_last_generator():
    # Cl(-95) = Z/8 cut to h = 4: the first generator y has y**2 != 1, so it
    # would close a Sylow 2-subgroup of order 4, but y**4 != 1
    with pytest.raises(AssertionError):
        qforms._structure_from_forms(-95, 4, reduced_forms(-95)[:4])


def test_last_generator_adds_no_cosets(monkeypatch):
    # Cl(-19711) = Z/128: the generator that completes the Sylow subgroup
    # is checked by its seven successive squares, not by listing its 127
    # powers
    compositions = []
    compose_forms = qforms._compose

    def counted(f, g):
        compositions.append(1)
        return compose_forms(f, g)

    monkeypatch.setattr(qforms, "_compose", counted)
    assert class_group(-19711).divisors == (128,)
    assert len(compositions) <= 40


def test_sweep_composition_count_is_pinned(monkeypatch):
    # the closure raises each new generator to successive p-th powers until
    # one falls into the span of the earlier ones, so no power is computed
    # past the one that decides whether the generator is the last
    compositions = []
    compose_forms = qforms._compose

    def counted(f, g):
        compositions.append(1)
        return compose_forms(f, g)

    monkeypatch.setattr(qforms, "_compose", counted)
    assert sum(1 for _ in class_group_sweep(10 ** 4)) == 3043
    assert len(compositions) == 32532


def test_an_ambiguous_generator_is_squared_once(monkeypatch):
    # Cl(-15) = Z/2 is generated by the ambiguous (2, 1, 2): the squaring
    # that confirms its odd power is itself also confirms its order
    compositions = []
    compose_forms = qforms._compose

    def counted(f, g):
        compositions.append(1)
        return compose_forms(f, g)

    monkeypatch.setattr(qforms, "_compose", counted)
    assert class_group(-15).divisors == (2,)
    assert len(compositions) == 1


def test_the_builder_walks_the_prime_forms_once_per_discriminant(monkeypatch):
    # one pass over the generators builds every Sylow subgroup of a D;
    # a D with h = 1 needs none.  _prime_forms is a lazy generator, so the
    # spy counts a walk when the builder draws its first form
    walks = Counter()
    prime_forms = qforms._prime_forms

    def counted(D, primes):
        walks[D] += 1
        yield from prime_forms(D, primes)

    monkeypatch.setattr(qforms, "_prime_forms", counted)
    swept = list(class_group_sweep(3000))
    assert len(swept) == 911
    assert walks == Counter(s.D.D for s in swept if s.h > 1)
    assert sum(1 for s in swept if len(factorize(s.h)) > 1) > 400


def test_class_group_sieves_its_primes_once(monkeypatch):
    # the root table's primes also serve the prime forms
    sieves = []
    odd_primes_to = qforms._odd_primes_to

    def counted(top):
        sieves.append(top)
        return odd_primes_to(top)

    monkeypatch.setattr(qforms, "_odd_primes_to", counted)
    D = -4294967291
    structure = class_group(D)
    assert sieves == [isqrt(-D // 3)]
    assert structure.h == len(reduced_forms(D))


def test_records_are_slotted_frozen_and_picklable():
    # the sweep keeps one Discriminant and one ClassGroupStructure per D
    records = [Discriminant(-23), Discriminant._proven(-23), class_group(-84)]
    for record in records:
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
        assert not hasattr(record, "__dict__")
        for name in record.__slots__:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 1)
    assert records[0] == records[1] != Discriminant(-20)
    assert {records[2], class_group(-84)} == {ClassGroupStructure.from_chain(-84, 4, [2, 2])}


@pytest.mark.parametrize("rows, partition", [
    ([[2], [-1, 4]], [3]),                     # Z/8
    ([[4], [-2, 2]], [2, 1]),                  # Z/2 x Z/4
    ([[2], [0, 2], [-1, -1, 4]], [3, 1]),      # Z/2 x Z/8
    ([[4], [0, 1], [0, 0, 2]], [2, 1]),        # diagonal, with a p**0 entry
    ([[1]], []),                               # the trivial group
    ([[4], [1, 8]], [5]),                      # Z/32: a unit off the diagonal
    ([[8], [4, 4]], [3, 2]),                   # Z/4 x Z/8: 2 | 4 off the diagonal
])
def test_smith_partition_of_hand_made_relations(rows, partition):
    assert qforms._smith_partition(rows, 2) == partition


def test_sweep_chains_are_pinned_to_1e4():
    # every (D, h, chain) of the sweep, odd parts included, in the line
    # format of the benchmark's sweep check
    digest = hashlib.sha1()
    swept = 0
    for s in class_group_sweep(10 ** 4):
        digest.update(f"{s.D.D},{s.h},{'x'.join(map(str, s.divisors))}\n".encode())
        swept += 1
    assert swept == 3043
    assert digest.hexdigest() == "724c76b8d3637b100a5dd5d58040f0e10001b743"


def test_reduced_forms_refuses_non_discriminants():
    for D in (-1, -2, -5, -6):                    # D = 2, 3 (mod 4)
        with pytest.raises(InvalidInput):
            reduced_forms(D)
    for D in (0, 5):
        with pytest.raises(IndefiniteForm):
            reduced_forms(D)


def test_reduced_forms_matches_divisor_scan():
    # every D = 0, 1 (mod 4) down to -6000, fundamental or not, plus larger |D|
    small = [D for D in range(-3, -6001, -1) if D % 4 < 2]
    for D in small + [-999999, -3995332, -3999995, -8000004, -80000003]:
        assert reduced_forms(D) == divisor_scan_reduced_forms(D), D


def test_reduced_forms_refuses_past_the_enumeration_bound():
    # refused before any root table is built; |D| = 2**32 is still listed,
    # with h(-4 * f**2) = h(-4) * f / 2 = 2**14 forms for the conductor
    # f = 2**15 (Cox, Theorem 7.24)
    for D in (-(2 ** 32) - 3, -(2 ** 32) - 4, -(10 ** 20)):
        with pytest.raises(EnumerationBoundExceeded):
            reduced_forms(D)
    assert len(reduced_forms(-(2 ** 32))) == 2 ** 14


def test_sweep_table_matches_fresh_class_groups():
    # past the first two block boundaries, where the sweep's class numbers
    # come from a new tally
    for swept in class_group_sweep(2 * qforms._SWEEP_BLOCK + 300):
        single = class_group(swept.D.D)
        assert (swept.h, swept.divisors) == (single.h, single.divisors), swept.D


@pytest.mark.parametrize("top", [-10 ** 6, -8 * 10 ** 6])
def test_counted_class_number_matches_the_form_list(top):
    # class_group counts the forms with 4a**2 < |D| from their root lists
    # without testing them; reduced_forms tests every one.  Near these |D|
    # most roots lie below that split.
    window = [D for D in range(top, top - 500, -1) if is_fundamental_discriminant(D)]
    assert len(window) > 100
    for D in window:
        assert class_group(D).h == len(reduced_forms(D)), D


def test_form_tally_counts_the_forms_of_a_block_away_from_zero():
    # a block that starts past 0, so every progression of n = 4ac - b**2
    # enters it at an offset: the tally counts the forms of every
    # fundamental n in it and nothing outside it
    lo, hi = 10 ** 5, 10 ** 5 + 4096
    once, twice = qforms._form_tally(lo, hi)
    assert all(lo <= n < hi for n in set(once) | set(twice))
    checked = 0
    for n in range(lo, hi):
        if is_fundamental_discriminant(-n):
            assert once[n] + 2 * twice[n] == class_group(-n).h, n
            checked += 1
    assert checked == 1247


def test_sweep_builds_no_root_table(monkeypatch):
    # the sweep's class numbers come from the tally, and its generators
    # from one square root of D per prime
    def no_call(*args):
        raise AssertionError("the sweep built a root table")
    monkeypatch.setattr(qforms, "_RootTable", no_call)
    assert sum(1 for _ in class_group_sweep(3000)) == 911


def brute_prime_classes(D, primes):
    """(q, classes) for each q of the ascending primes up to sqrt(|D|/3)
    with some b in [0, q], found by trying each, such that
    b**2 = D (mod 4q); classes holds the reduced forms of (q, b, c) and
    (q, -b, c), one of which is the prime form of q."""
    for q in primes:
        if q * q > -D // 3:
            return
        b = next((b for b in range(q + 1) if (b * b - D) % (4 * q) == 0), None)
        if b is not None:
            c = (b * b - D) // (4 * q)
            yield q, {reduce_form((q, b, c)), reduce_form((q, -b, c))}


def test_prime_forms_are_the_primes_with_a_root():
    # one reduced form of discriminant D per prime q <= sqrt(|D|/3) at
    # which b**2 = D (mod 4q) has a solution, in the class of (q, b, c):
    # every fundamental |D| <= 3000 and some near 1e6 at all such q, and
    # some near 2**32 at the q below 2000, where the search over b stays
    # cheap
    small = [D for D in range(-3, -3001, -1) if is_fundamental_discriminant(D)]
    near_1e6 = [D for D in range(-10 ** 6, -10 ** 6 - 40, -1) if is_fundamental_discriminant(D)]
    near_2_32 = [D for D in range(-2 ** 32, -2 ** 32 - 40, -1) if is_fundamental_discriminant(D)]
    for Ds, top in ((small + near_1e6, None), (near_2_32, 2000)):
        for D in Ds:
            primes = [2, *_odd_primes_to(top or isqrt(-D // 3))]
            forms = list(qforms._prime_forms(D, primes))
            expected = list(brute_prime_classes(D, primes))
            assert len(forms) == len(expected), D
            for f, (q, classes) in zip(forms, expected):
                assert f in classes, (D, q, f)
                assert reduce_form(f) == f and FormClass(*f).discriminant == D, (D, q, f)


def class_number_by_formula(D):
    """h(D) = sum_{a <= |D|/2} chi_D(a) / (2 - chi_D(2)) for a fundamental
    D < -4.  chi_D is completely multiplicative, so the Kronecker symbol is
    taken at the primes alone and multiplied out along a least-prime sieve."""
    top = -D // 2
    least = list(range(top + 1))
    for p in range(isqrt(top), 1, -1):  # the last write is the least prime
        least[p * p::p] = [p] * (top // p - p + 1)
    chi = [0, 1] + [0] * (top - 1)
    for a in range(2, top + 1):
        p = least[a]
        chi[a] = kronecker(D, a) if p == a else chi[p] * chi[a // p]
    h, rem = divmod(sum(chi), 2 - kronecker(D, 2))
    assert rem == 0, D
    return h


@pytest.mark.parametrize("D", [-100003, -100004, -100007, -1000003])
def test_class_number_formula_near_1e5_and_1e6(D):
    # the analytic class number against both form counts: class_group's
    # root count and the sweep's tally of the block that holds |D|
    lo = -D // qforms._SWEEP_BLOCK * qforms._SWEEP_BLOCK
    once, twice = qforms._form_tally(lo, lo + qforms._SWEEP_BLOCK)
    h = class_number_by_formula(D)
    assert class_group(D).h == once[-D] + 2 * twice[-D] == h


def test_class_group_of_a_large_discriminant():
    s = class_group(-400000136)
    assert s.h == 14788
    assert s.divisors == (14788,)


def test_class_number_formula():
    for D in range(-5, -4001, -1):
        if is_fundamental_discriminant(D):
            assert class_number_by_formula(D) == class_group(D).h, D


# ---------------------------------------------------------------------------
# the 2-Sylow certificate
# ---------------------------------------------------------------------------

def test_two_sylow_matches_the_form_count_to_30000():
    # every fundamental |D| <= 30000: 2**sum(exps) is the 2-part of the form
    # count that class_group's h comes from, and the certificate with its
    # largest generator replaced by that generator's square, one exponent
    # lower, is refused
    forged = 0
    for D in range(-3, -30001, -1):
        if not is_fundamental_discriminant(D):
            continue
        primes = sorted(factorize(-D))
        basis, exps = two_sylow(D, primes)
        h = class_group(D).h
        assert 2 ** sum(exps) == h & -h, D
        if exps and max(exps) >= 2:
            i = exps.index(max(exps))
            fake = list(basis)
            fake[i] = qforms._compose(basis[i], basis[i])
            with pytest.raises(PrecondViolated):
                check_two_sylow(D, primes, fake, exps[:i] + [exps[i] - 1] + exps[i + 1:])
            forged += 1
    assert forged == 3675


def test_two_sylow_matches_the_form_count_at_scan_high_sizes():
    # the 86 exact rows of ztwo scan --min 998001 --max 1000000, with |D|
    # near 8e6: the discriminants the oracle reads r from
    rows = 0
    for tag in classified(998001, 10 ** 6):
        if tag.tag not in EXACT_FAMILIES:
            continue
        d = tag.d
        D, primes = (-d.value, d.factors) if tag.tag == "B" else (-8 * d.value, (2,) + d.factors)
        _, exps = two_sylow(D, primes)
        h = class_group(D).h
        assert 2 ** sum(exps) == h & -h, D
        rows += 1
    assert rows == 86


def test_two_sylow_exponents_match_the_chain_to_5000():
    # the cyclic factors themselves: 2**e_i are the 2-parts of the chain
    for s in class_group_sweep(5000):
        _, exps = two_sylow(s.D.D, sorted(factorize(-s.D.D)))
        assert sorted(2 ** e for e in exps) == sorted(d & -d for d in s.divisors if d % 2 == 0), s


def test_check_two_sylow_refuses_forged_certificates():
    # Cl(-1416) = Z/2 x Z/8; each forgery below is refused
    D, primes = -1416, [2, 3, 59]
    assert class_group(D).divisors == (2, 8)
    (g1, g2), exps = two_sylow(D, primes)
    assert exps == [1, 3]
    check_two_sylow(D, primes, [g1, g2], exps)
    ident = tuple(principal_form(D))
    a, b, c = g2
    forgeries = {
        "Z/2 x Z/4, the largest generator squared": (D, primes, [g1, qforms._compose(g2, g2)], [1, 2]),
        "a generator dropped": (D, primes, [g2], [3]),
        "an exponent too high": (D, primes, [g1, g2], [1, 4]),
        "an exponent too low": (D, primes, [g1, g2], [1, 2]),
        "a zero exponent": (D, primes, [g1, ident], [1, 0]),
        "the identity": (D, primes, [ident, g2], [1, 3]),
        "a dependent socle": (D, primes, [g2, qforms._compose(g1, g2)], [3, 3]),
        "an unreduced form": (D, primes, [g1, (a, b + 2 * a, a + b + c)], [1, 3]),
        "a form of another discriminant": (D, primes, [g1, (1, 0, 5)], [1, 3]),
        "a prime missing": (D, [2, 3], [g2], [3]),
        "a composite prime": (D, [2, 177], [g2], [3]),
        "a non-fundamental discriminant": (4 * D, primes, [g1, g2], [1, 3]),
    }
    # rank one, where the halving and the certificate form no subset
    # products: Cl(-584) = Z/16 (A1, d = 73) and Cl(-1391) = Z/44 (B, 13 * 107)
    for D, primes, g, e, chain in [(-584, [2, 73], (7, 2, 21), 4, (16,)),
                                   (-1391, [13, 107], (20, 17, 21), 2, (44,))]:
        assert class_group(D).divisors == chain
        assert two_sylow(D, primes) == ([g], [e])
        check_two_sylow(D, primes, [g], [e])
        a, b, c = g
        square = qforms._compose(g, g)
        forgeries.update({
            f"{D}: an exponent too high": (D, primes, [g], [e + 1]),
            f"{D}: an exponent too low": (D, primes, [g], [e - 1]),
            f"{D}: the generator squared": (D, primes, [square], [e]),
            f"{D}: the generator squared, one exponent lower": (D, primes, [square], [e - 1]),
            f"{D}: the identity": (D, primes, [tuple(principal_form(D))], [e]),
            f"{D}: an unreduced form": (D, primes, [(a, b + 2 * a, a + b + c)], [e]),
            f"{D}: a form of another discriminant": (D, primes, [(1, 0, 5)], [e]),
        })
    for name, args in forgeries.items():
        with pytest.raises(PrecondViolated):
            check_two_sylow(*args)
            pytest.fail(f"accepted {name}")


def test_two_sylow_work_is_pinned(monkeypatch):
    # the compositions and square roots of the oracle on the 631 exact rows
    # of classified(3, 10**4), the scan-low window: every halving step and
    # certificate check runs, at rank one too
    compositions, roots = [], []
    compose_forms, sqrt_class = qforms._compose, qforms._sqrt_class

    def counted_compose(f, g):
        compositions.append(1)
        return compose_forms(f, g)

    def counted_sqrt(*args):
        roots.append(1)
        return sqrt_class(*args)

    monkeypatch.setattr(qforms, "_compose", counted_compose)
    monkeypatch.setattr(qforms, "_sqrt_class", counted_sqrt)
    rows = 0
    for tag in classified(3, 10 ** 4):
        if tag.tag in EXACT_FAMILIES:
            d = tag.d
            D, primes = (-d.value, d.factors) if tag.tag == "B" else (-8 * d.value, (2,) + d.factors)
            two_sylow(D, primes)
            rows += 1
    assert rows == 631
    assert (len(compositions), len(roots)) == (3642, 913)


@pytest.mark.parametrize("D", [-3, -4, -8, -23, -71])
def test_two_sylow_of_an_odd_class_number(D):
    # one prime divisor: genus 2-rank 0, empty basis, h2 = 1
    assert two_sylow(D, sorted(factorize(-D))) == ([], [])
    assert class_group(D).h2 == 1
