import random

import pytest

from ztwo import arith
from ztwo.arith import (
    OddSquarefree,
    factor_squarefree,
    factorize,
    is_prime,
    is_squarefree,
    odd_squarefree_range,
)
from ztwo.errors import InvalidInput, NotSquarefree


def test_is_prime_examples():
    assert is_prime(89)
    assert is_prime(2)
    assert not is_prime(187449)  # 3 * 62483


@pytest.mark.parametrize("bad", [0, 1, -7, 1 << 64])
def test_is_prime_range(bad):
    with pytest.raises(InvalidInput):
        is_prime(bad)


def test_is_prime_agrees_with_sieve_to_one_million():
    limit = 10 ** 6
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, limit, i)))
    assert all(is_prime(n) == bool(sieve[n]) for n in range(2, limit))


def is_strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 1 << i, n) == n - 1 for i in range(s))


# Jaeschke's bounds: the first k prime witnesses prove every n below bound,
# and bound itself is a composite strong pseudoprime to those k witnesses
WITNESS_PREFIX_BOUNDS = [
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
]


@pytest.mark.parametrize("bound, k", WITNESS_PREFIX_BOUNDS)
def test_is_prime_rejects_each_witness_prefix_bound(bound, k):
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23)[:k]
    assert all(is_strong_probable_prime(bound, a) for a in witnesses)
    assert not is_prime(bound)


def test_factor_squarefree_examples():
    assert factor_squarefree(247).factors == (13, 19)
    assert factor_squarefree(3).factors == (3,)
    with pytest.raises(NotSquarefree):
        factor_squarefree(45)  # 3^2 | 45


@pytest.mark.parametrize("bad", [4, 1, -3, 2 ** 40 + 1])
def test_factor_squarefree_rejects(bad):
    with pytest.raises(InvalidInput):
        factor_squarefree(bad)


def test_factor_roundtrip():
    rng = random.Random(20817)
    for _ in range(200):
        n = rng.randrange(3, 10 ** 7, 2)
        try:
            d = factor_squarefree(n)
        except NotSquarefree:
            continue
        prod = 1
        for p in d.factors:
            assert is_prime(p)
            prod *= p
        assert prod == n
        assert sorted(set(d.factors)) == list(d.factors)


def test_sieve_keeps_a_cofactor_above_its_prime_limit():
    # the primes are sieved to isqrt(dmax) = 1732; 1000003 is left as the
    # cofactor and is the last factor, and a lone prime d is its own
    assert list(odd_squarefree_range(3 * 1000003, 3 * 1000003)) == [
        OddSquarefree(3 * 1000003, (3, 1000003))]
    assert list(odd_squarefree_range(1000003, 1000003)) == [OddSquarefree(1000003, (1000003,))]
    got = {d.value: d.factors for d in odd_squarefree_range(3 * 999983 - 20, 3 * 999983 + 20)}
    assert got[3 * 999983] == (3, 999983)


def test_sieve_proves_its_primes_without_is_prime(monkeypatch):
    # the sieve is the primality proof of every factor it yields
    calls = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
    out = list(odd_squarefree_range(10 ** 6 - 500, 10 ** 6 + 500))
    assert len(out) > 300
    assert calls == []


@pytest.mark.parametrize("lo, hi", [(3, 20000), (998001, 10 ** 6),
                                    (999999001, 1000001000),
                                    (2 ** 40 - 1001, 2 ** 40 - 1)])
def test_sieve_agrees_with_factor_squarefree(lo, hi):
    sieved = iter(odd_squarefree_range(lo, hi))
    for n in range(lo | 1, hi + 1, 2):
        try:
            want = factor_squarefree(n)
        except NotSquarefree:
            continue
        got = next(sieved)
        assert got == want and hash(got) == hash(want), n
        assert OddSquarefree(got.value, got.factors) == got  # the checked path
    assert next(sieved, None) is None


def test_factorize_pollard_rho_path():
    # two primes above the trial-division limit force the rho stage
    p, q = 262147, 262153
    assert factorize(p * q) == {p: 1, q: 1}
    assert factor_squarefree(p * q).factors == (p, q)


def test_factorize_proves_primes_by_trial_division_or_by_is_prime(monkeypatch):
    from ztwo import arith
    calls = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
    # a cofactor below the square of the last trial divisor is prime unchecked
    for n, fac in [(4294967291, {4294967291: 1}),            # largest prime < 2**32
                   (4294967311, {4294967311: 1}),            # smallest prime > 2**32
                   (3 * 5 * 65521, {3: 1, 5: 1, 65521: 1}),
                   (7 ** 2 * 1000003, {7: 2, 1000003: 1})]:
        assert factorize(n) == fac
        assert calls == [], n
    # factor_squarefree builds on that proof and adds no is_prime call
    assert factor_squarefree(3 * 5 * 65521).factors == (3, 5, 65521)
    assert calls == []
    # past the trial limit with f*f <= n the cofactor goes to is_prime and rho
    for n, fac in [(65537 * 65539, {65537: 1, 65539: 1}),
                   (65537 ** 2, {65537: 2}),
                   (8589934609, {8589934609: 1})]:           # smallest prime > 2**33
        calls.clear()
        assert factorize(n) == fac
        assert calls and calls[0] > 1 << 32, n


def test_factorize_agrees_with_trial_division_to_ten_thousand():
    for n in range(1, 10001):
        fac, m, f = {}, n, 2
        while f * f <= m:
            while m % f == 0:
                fac[f] = fac.get(f, 0) + 1
                m //= f
            f += 1
        if m > 1:
            fac[m] = fac.get(m, 0) + 1
        assert factorize(n) == fac, n


def test_oddsquarefree_validates():
    with pytest.raises(InvalidInput):
        OddSquarefree(15, (3,))
    # the public constructor still proves each factor prime
    with pytest.raises(InvalidInput, match="non-prime"):
        OddSquarefree(9, (9,))




def _squarefree_by_factoring(n):
    return all(e == 1 for e in factorize(n).values())


def test_is_squarefree_agrees_with_factorize():
    # trial division stops at the cube root and one isqrt decides the
    # cofactor.  Cases: every n below 3*10**5; p**2, p**3, p**2 * q and
    # p*q*r for consecutive primes q < p (r < q), which put a prime or a
    # prime square right at the cut; 2**40 - 1 (5**2 divides it); and
    # random n below 2**40
    for n in range(1, 3 * 10 ** 5):
        assert is_squarefree(n) == _squarefree_by_factoring(n), n
    primes = [p for p in range(2, 3000) if is_prime(p)] + [1000003, 1048573]
    cases = [(1 << 40) - 1]
    for r, q, p in zip(primes, primes[1:], primes[2:]):
        cases += [p * p, p ** 3, p * p * q, p * q * r]
    rng = random.Random(28)
    cases += [rng.randrange(1, 1 << 40) for _ in range(500)]
    for n in cases:
        if n < 1 << 40:
            assert is_squarefree(n) == _squarefree_by_factoring(n), n
    assert not is_squarefree((1 << 40) - 1)


@pytest.mark.parametrize("bad", [0, -1, -30, 1 << 40])
def test_is_squarefree_range(bad):
    with pytest.raises(InvalidInput):
        is_squarefree(bad)
