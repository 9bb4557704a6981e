import random

import pytest

from ztwo.errors import (
    BadPrimeClass,
    InvalidModulus,
    NonCoprime,
    NotQuadraticResidue,
)
from ztwo.symbols import jacobi, quartic_2_reciprocal, quartic_residue


def primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, limit, i)))
    return [n for n in range(2, limit) if sieve[n]]


def test_jacobi_examples():
    assert jacobi(13, 19) == -1
    assert jacobi(-2, 7) == -1
    assert jacobi(5, 11) == 1
    for n in (3, 9, 15, 91):
        assert jacobi(1, n) == 1


def test_jacobi_errors():
    with pytest.raises(NonCoprime, match=r"gcd\(6, 9\) > 1"):
        jacobi(6, 9)
    with pytest.raises(InvalidModulus):
        jacobi(3, 8)
    with pytest.raises(InvalidModulus):
        jacobi(3, 1)


def test_jacobi_multiplicative():
    rng = random.Random(91219)
    count = 0
    while count < 300:
        n = rng.randrange(3, 10 ** 6, 2)
        a = rng.randrange(1, n)
        b = rng.randrange(1, n)
        from math import gcd
        if gcd(a, n) != 1 or gcd(b, n) != 1:
            continue
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)
        count += 1


def test_jacobi_reciprocity_all_prime_pairs_below_1000():
    odd_primes = primes_below(1000)[1:]
    for i, p in enumerate(odd_primes):
        for q in odd_primes[i + 1:]:
            expected = -1 if p % 4 == 3 and q % 4 == 3 else 1
            assert jacobi(p, q) * jacobi(q, p) == expected


def test_quartic_examples():
    assert quartic_residue(11, 5) == 1
    assert quartic_residue(2, 89) == 1
    assert quartic_residue(17, 89) == -1
    assert quartic_residue(9, 5) == -1
    for p in (5, 13, 89):
        assert quartic_residue(1, p) == 1


def test_quartic_errors():
    with pytest.raises(NotQuadraticResidue):
        quartic_residue(2, 5)  # (2/5) = -1
    with pytest.raises(BadPrimeClass):
        quartic_residue(1, 7)  # 7 = 3 (mod 4)
    with pytest.raises(NonCoprime, match="^10 shares a factor with 5$"):
        quartic_residue(10, 5)


def test_quartic_defined_only_on_residues():
    # postcondition re-check: whenever the symbol evaluates, (a/p) = +1
    rng = random.Random(3741)
    for _ in range(200):
        p = rng.choice([13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101])
        a = rng.randrange(1, p)
        try:
            quartic_residue(a, p)
        except NotQuadraticResidue:
            assert jacobi(a, p) == -1
        else:
            assert jacobi(a, p) == 1


def test_quartic_of_square_is_jacobi():
    rng = random.Random(555)
    for _ in range(200):
        p = rng.choice([5, 13, 17, 29, 37, 41, 89, 97, 113, 109])
        a = rng.randrange(1, p)
        assert quartic_residue(a * a % p, p) == jacobi(a, p)


def test_quartic_brute_force_below_500():
    # (a/p)_4 = +1 exactly when a is a fourth power mod p
    for p in primes_below(500):
        if p % 4 != 1:
            continue
        fourth_powers = {pow(x, 4, p) for x in range(1, p)}
        for a in range(1, p):
            if jacobi(a, p) != 1:
                continue
            assert (quartic_residue(a, p) == 1) == (a in fourth_powers)


def test_quartic_2_reciprocal():
    assert quartic_2_reciprocal(89) == -1   # (89-1)/8 = 11
    assert quartic_2_reciprocal(17) == 1    # (17-1)/8 = 2
    assert quartic_2_reciprocal(113) == 1   # (113-1)/8 = 14
    with pytest.raises(BadPrimeClass):
        quartic_2_reciprocal(13)
