"""Exact modular arithmetic over odd prime-power moduli.

The ambient ring is Z mod p^k for an odd prime p. Moduli are capped at
2^63 for the compiled scan kernel's Montgomery reduction with R = 2^64:
below 2^63 the double-width sum it reduces stays under 2^128, and one
conditional subtract brings each product below m.
"""

import math
from dataclasses import dataclass, field

from .errors import (
    DigitParseError,
    ModulusMismatch,
    ModulusOverflow,
    NotAUnit,
    NotInGroup,
)
from .primes import distinct_prime_factors, is_prime

MODULUS_BOUND = 1 << 63


def exceeds_bound(p: int, k: int) -> bool:
    """True when p^k >= 2^63. Every k >= 63 exceeds the bound for p >= 2,
    and is answered before p**k is formed, so a huge k costs nothing."""
    return k >= 63 or p**k >= MODULUS_BOUND


_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True, slots=True)
class PrimePowerModulus:
    """A validated (p, k) pair with m = p^k; the ambient ring descriptor."""

    p: int
    k: int
    m: int = field(init=False, compare=False)

    def __post_init__(self):
        if self.p < 3 or self.p % 2 == 0 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime >= 3, got {self.p}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if exceeds_bound(self.p, self.k):
            raise ModulusOverflow(f"{self.p}^{self.k} exceeds the 2^63 modulus bound")
        object.__setattr__(self, "m", self.p**self.k)

    def residue(self, value: int) -> "Residue":
        return Residue(value, self)

    def __str__(self):
        return f"{self.p}^{self.k}"


@dataclass(frozen=True, slots=True)
class Residue:
    """Canonical representative in [0, m) of a residue class mod p^k.

    Any integer is accepted and reduced on construction. Arithmetic via
    operators requires both operands to share the same modulus.
    """

    value: int
    modulus: PrimePowerModulus

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.modulus.m)

    @property
    def is_unit(self) -> bool:
        return self.value % self.modulus.p != 0

    @property
    def signed(self) -> int:
        """Balanced representative in (-m/2, m/2], e.g. m-1 renders as -1."""
        m = self.modulus.m
        return self.value if self.value <= m // 2 else self.value - m

    def _same(self, other: "Residue") -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatch(f"{self.modulus} vs {other.modulus}")

    def __mul__(self, other: "Residue") -> "Residue":
        self._same(other)
        return Residue(self.value * other.value, self.modulus)

    def __add__(self, other: "Residue") -> "Residue":
        self._same(other)
        return Residue(self.value + other.value, self.modulus)

    def __sub__(self, other: "Residue") -> "Residue":
        self._same(other)
        return Residue(self.value - other.value, self.modulus)

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.modulus)

    def __pow__(self, e: int) -> "Residue":
        return pow_mod(self, e)

    def inverse(self) -> "Residue":
        return inv_mod(self)

    def shift(self, delta: int) -> "Residue":
        """self + delta for a plain integer delta."""
        return Residue(self.value + delta, self.modulus)

    def __int__(self):
        return self.value

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"Residue({self.value} mod {self.modulus.m})"


@dataclass(frozen=True, slots=True)
class PAdicDigits:
    """Fixed-width base-p rendering: exactly k digits, most significant first."""

    digits: tuple[int, ...]
    p: int
    k: int

    def __post_init__(self):
        if len(self.digits) != self.k:
            raise DigitParseError(f"expected {self.k} digits, got {len(self.digits)}")
        for d in self.digits:
            if not 0 <= d < self.p:
                raise DigitParseError(f"digit {d} out of range for base {self.p}")

    def __str__(self):
        if self.p <= len(_DIGIT_CHARS):
            return "".join(_DIGIT_CHARS[d] for d in self.digits)
        # wide bases: zero-padded decimal digit groups, colon-separated
        w = len(str(self.p - 1))
        return ":".join(str(d).zfill(w) for d in self.digits)

    @classmethod
    def parse(cls, text: str, modulus: PrimePowerModulus) -> "PAdicDigits":
        """Inverse of str() for both the compact and the colon-separated form."""
        if modulus.p > len(_DIGIT_CHARS) or ":" in text:
            # wide bases always use decimal groups; k = 1 has no separator
            parts = text.split(":")
        else:
            parts = list(text)
        digits = []
        for part in parts:
            try:
                d = int(part, 36) if len(part) == 1 else int(part)
            except ValueError:
                raise DigitParseError(f"bad digit {part!r}") from None
            digits.append(d)
        return cls(tuple(digits), modulus.p, modulus.k)


# --- ring operations -------------------------------------------------------


def pow_mod(x: Residue, e: int) -> Residue:
    """x^e mod p^k by square-and-multiply; x^0 = 1."""
    if e < 0:
        raise ValueError("exponent must be nonnegative; use inv_mod for inverses")
    return Residue(pow(x.value, e, x.modulus.m), x.modulus)


def inv_mod(x: Residue) -> Residue:
    """Multiplicative inverse of a unit (extended Euclid under the hood)."""
    if not x.is_unit:
        raise NotAUnit(f"{x.value} is divisible by {x.modulus.p}")
    return Residue(pow(x.value, -1, x.modulus.m), x.modulus)


# --- generators and logarithms ---------------------------------------------

# Neither root function is cached: the scan kernels ask for each prime's
# root mod p once, and one `analyze` asks for a few, each in microseconds
# beside the core walk it starts. A core generator g^(p^(k-1)) depends on
# g mod p alone, so it needs only _smallest_primitive_root; primitive_root
# is for generators of the whole units group mod p^k.


def _smallest_primitive_root(p: int) -> int:
    """Smallest g generating the units mod p, by order tests on p-1's factors.

    The first g passing them must also satisfy g^(p-1) = 1 mod p; by
    Lucas' test some g does exactly when p is prime, so a composite p
    raises ValueError.
    """
    cofactors = [(p - 1) // q for q in distinct_prime_factors(p - 1)]
    for g in range(2, p):
        if all(pow(g, c, p) != 1 for c in cofactors):
            if pow(g, p - 1, p) == 1:
                return g
            break
    raise ValueError(f"{p} is not prime")


def primitive_root(modulus: PrimePowerModulus) -> Residue:
    """Smallest primitive root mod p, lifted (g or g+p) to generate mod p^k."""
    p, k, m = modulus.p, modulus.k, modulus.m
    g = _smallest_primitive_root(p)
    if k >= 2 and pow(g, p - 1, p * p) == 1:
        # g generates mod p but collapses mod p^2; the shifted root never does
        g += p
    order = (p - 1) * p ** (k - 1)
    # the order's prime factors, without trial division up to sqrt(order)
    factors = distinct_prime_factors(p - 1) + ([p] if k >= 2 else [])
    for q in factors:
        if pow(g, order // q, m) == 1:
            raise AssertionError(f"{g} is not primitive mod {p}^{k}")
    return Residue(g, modulus)


def discrete_log(g: Residue, x: Residue) -> int:
    """Baby-step giant-step: the t in [0, |G|) with g^t = x.

    g must be a primitive root of the shared modulus; raises NotInGroup
    when no exponent exists, which signals a non-primitive g.
    """
    g._same(x)
    if not x.is_unit:
        raise NotAUnit(f"{x.value} is divisible by {x.modulus.p}")
    mod = g.modulus
    order = (mod.p - 1) * mod.p ** (mod.k - 1)
    m = mod.m
    steps = math.isqrt(order - 1) + 1
    baby: dict[int, int] = {}
    e = 1
    for j in range(steps):
        baby.setdefault(e, j)
        e = e * g.value % m
    # e is now g^steps; giant strides multiply by its inverse
    stride = pow(e, -1, m)
    y = x.value
    for i in range(steps):
        j = baby.get(y)
        if j is not None:
            return i * steps + j
        y = y * stride % m
    raise NotInGroup(f"{x.value} is not a power of {g.value} mod {m}")


# --- p-ary codec ------------------------------------------------------------


def to_padic(x: Residue) -> PAdicDigits:
    """Base-p digit expansion, zero-padded to k digits, most significant first."""
    mod = x.modulus
    digits = []
    v = x.value
    for _ in range(mod.k):
        v, d = divmod(v, mod.p)
        digits.append(d)
    return PAdicDigits(tuple(reversed(digits)), mod.p, mod.k)


def from_padic(digits: PAdicDigits, modulus: PrimePowerModulus) -> Residue:
    """Decode a digit block back to its residue."""
    if digits.p != modulus.p or digits.k != modulus.k:
        raise ModulusMismatch(f"digits are base {digits.p}^{digits.k}, not {modulus}")
    v = 0
    for d in digits.digits:
        v = v * modulus.p + d
    return Residue(v, modulus)
