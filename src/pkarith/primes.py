"""Primality and factoring helpers for the supported (64-bit) range."""

from itertools import compress
from math import isqrt
from typing import Iterator

# Strong-pseudoprime bases making Miller-Rabin exact for all n < 3.18e23,
# which covers every value below 2^64. Every n runs all twelve: no command
# tests primality in a loop (the scan enumerates by sieve), so shorter base
# prefixes for small n would save microseconds per call and cost a table of
# bounds that must each be a strong pseudoprime to its own prefix. The
# bases are trial divisors first, so each is coprime to n in the test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Exact primality test for 1 <= n < 2^64 (deterministic Miller-Rabin)."""
    if n < 1:
        raise ValueError(f"is_prime expects a positive integer, got {n}")
    if n >= 1 << 64:
        raise ValueError(f"{n} is outside the supported 64-bit range")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def distinct_prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1 by trial division (ascending)."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# odd numbers per sieve segment: 64 KiB of flags whatever the range width
_SEGMENT = 1 << 16


def odd_primes_in(lo: int, hi: int) -> Iterator[int]:
    """Odd primes p with lo <= p <= hi, ascending.

    A segmented sieve of Eratosthenes (Bays & Hudson, BIT 17, 1977): the
    odd primes up to sqrt(hi) cross off their odd multiples in one window
    of _SEGMENT odd numbers at a time, and each window's primes are
    yielded before the next is sieved, so memory is O(sqrt(hi) + _SEGMENT)
    however wide [lo, hi] is. The base primes come from the same sieve.
    """
    start = max(lo, 3) | 1
    if start > hi:
        return
    base = list(odd_primes_in(3, isqrt(hi)))
    for seg_lo in range(start, hi + 1, 2 * _SEGMENT):
        seg_hi = min(seg_lo + 2 * _SEGMENT - 2, hi)
        size = (seg_hi - seg_lo) // 2 + 1  # flag i stands for seg_lo + 2i
        flags = bytearray([1]) * size
        for q in base:
            if q * q > seg_hi:
                break
            first = max(q * q, -(-seg_lo // q) * q)
            if first % 2 == 0:  # q is odd, so the next multiple is odd
                first += q
            i = (first - seg_lo) // 2
            flags[i::q] = bytes(len(range(i, size, q)))
        yield from compress(range(seg_lo, seg_hi + 1, 2), flags)
