"""Prime enumeration (segmented sieve) and the Miller-Rabin test."""

import tracemalloc
from math import isqrt
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pkarith import primes
from pkarith.primes import is_prime, odd_primes_in

# near the largest p with p^2 < 2^63 (3,037,000,499), the scan's top end
TOP = 3_040_000_000


def trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def odd_primes_by_test(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 3), hi + 1) if n % 2 and is_prime(n)]


# odd primes whose squares reach up to TOP
SQUARE_ROOTS = st.sampled_from(odd_primes_by_test(3, isqrt(TOP)))

windows = st.one_of(
    # anywhere low down, with lo < 3, even lo and lo > hi all drawn
    st.tuples(st.integers(-5, 10**6), st.integers(-5, 3_000)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    # short windows just below the top
    st.tuples(st.integers(TOP - 10**7, TOP), st.integers(0, 2_000)).map(
        lambda t: (t[0] - t[1], t[0])
    ),
    # windows that end, or start, on the square of an odd prime
    st.tuples(SQUARE_ROOTS, st.integers(0, 2_000), st.booleans()).map(
        lambda t: (t[0] ** 2 - t[1], t[0] ** 2) if t[2] else (t[0] ** 2, t[0] ** 2 + t[1])
    ),
)


@given(windows)
@example((0, 2))
@example((2, 3))
@example((4, 4))
@example((9, 9))
@example((10, 3))
@example((25, 49))
@example((TOP - 2_000, TOP))
def test_sieve_matches_miller_rabin(window):
    lo, hi = window
    assert list(odd_primes_in(lo, hi)) == odd_primes_by_test(lo, hi)


@given(st.integers(1, 40), st.integers(-5, 5_000), st.integers(0, 3_000))
def test_segment_boundaries(segment, lo, width):
    # tiny segments put many boundaries inside one window
    with mock.patch.object(primes, "_SEGMENT", segment):
        found = list(odd_primes_in(lo, lo + width))
    assert found == odd_primes_by_test(lo, lo + width)


def test_sieve_is_lazy():
    # the first primes of a range up to 3e9 come from the first segment
    head = odd_primes_in(3, 3_000_000_000)
    assert [next(head) for _ in range(5)] == [3, 5, 7, 11, 13]


def test_is_prime_matches_trial_division():
    assert [n for n in range(1, 10**5) if is_prime(n)] == [
        n for n in range(1, 10**5) if trial_division(n)
    ]


def strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


# the least strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7 and 9 prime
# bases (Jaeschke, Math. Comp. 61, 1993; OEIS A014233): each passes
# Miller-Rabin on that many bases, so is_prime must run more of them
JAESCHKE_BOUNDS = [
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
]


@pytest.mark.parametrize("n", JAESCHKE_BOUNDS)
def test_strong_pseudoprimes_are_composite(n):
    assert not is_prime(n)


@given(
    st.one_of(
        st.integers(1, (1 << 64) - 1),
        st.sampled_from(JAESCHKE_BOUNDS).flatmap(
            lambda b: st.integers(max(1, b - 10**4), b + 10**4)
        ),
    )
)
def test_is_prime_matches_all_twelve_bases(n):
    # trial division by the bases themselves changes no answer
    all_bases = n in primes._MR_BASES or (
        n > 1
        and all(n % q for q in primes._MR_BASES)
        and all(strong_probable_prime(n, a) for a in primes._MR_BASES)
    )
    assert is_prime(n) == all_bases


def test_is_prime_range_checks():
    with pytest.raises(ValueError):
        is_prime(0)
    with pytest.raises(ValueError):
        is_prime(1 << 64)


def test_sieve_memory_is_bounded():
    tracemalloc.start()
    try:
        count = sum(1 for _ in odd_primes_in(3, 10**7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 664_578
    assert peak < 4 * 2**20
