"""Quadratic and quartic residue symbols.

The quartic symbol here takes only the values +-1: it is defined for a
prime p = 1 (mod 4) and a quadratic residue a, as the sign of
a**((p-1)/4) mod p.  Asking for it on a non-residue is an error rather
than a root-of-unity value; every downstream criterion evaluates it only
where it is +-1.
"""

from math import gcd

from .arith import is_prime
from .errors import (
    BadPrimeClass,
    InvalidInput,
    InvalidModulus,
    NonCoprime,
    NotQuadraticResidue,
)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 3 coprime to a; returns +1 or -1."""
    if n < 3 or n % 2 == 0:
        raise InvalidModulus(f"Jacobi symbol needs odd n >= 3, got {n}")
    if gcd(a, n) != 1:
        raise NonCoprime(f"gcd({a}, {n}) > 1; symbol would be 0")
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t


def quartic_residue(a: int, p: int) -> int:
    """Quartic symbol (a/p)_4 in {+1, -1} for prime p = 1 (mod 4), a a QR."""
    if not is_prime(p):
        raise InvalidInput(f"{p} is not prime")
    if p % 4 != 1:
        raise BadPrimeClass(f"quartic symbol needs p = 1 (mod 4), got p = {p}")
    if a % p == 0:
        raise NonCoprime(f"{a} shares a factor with {p}")
    # t**2 = a**((p-1)/2) is Euler's criterion: t = +-1 exactly for a residue
    t = pow(a, (p - 1) // 4, p)
    if t == 1:
        return 1
    if t == p - 1:
        return -1
    raise NotQuadraticResidue(f"{a} is not a quadratic residue mod {p}")


def quartic_2_reciprocal(p: int) -> int:
    """The rational symbol (p/2)_4 = (-1)**((p-1)/8) for prime p = 1 (mod 8)."""
    if not is_prime(p):
        raise InvalidInput(f"{p} is not prime")
    if p % 8 != 1:
        raise BadPrimeClass(f"(p/2)_4 needs p = 1 (mod 8), got p = {p}")
    return -1 if (p - 1) // 8 % 2 else 1
