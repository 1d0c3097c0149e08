"""Pure-Python scan kernel, used when the compiled extension is absent.

Same contract as the compiled module: plain-integer inputs and outputs,
no package types, so both backends stay drop-in interchangeable.

Both kernels run one algorithm. Every t-orbit lying wholly in the core
lies in S = {a in core : a + 1 in core}, the members of the FLT root
pairs a + b = -1: t(a) in the core needs a + 1 in the core. Conversely
-1 is in the core and the core is a group, so for a in S both
t(a) = -(a+1)^-1 and t^2(a) = -(a+1) a^-1 are core elements. Hence only
S needs inverting, and |S| = 3 * proper + fixed.
"""

from .residues import _smallest_primitive_root, exceeds_bound


def core_table(p: int, k: int) -> tuple[int, list[int]]:
    """(m, by_class): by_class[r] is the core element congruent to r mod p,
    and by_class[0] = 0.

    The core has exactly one element in every nonzero class mod p, so the
    table is filled from the powers of the core generator h = g^(p^(k-1)),
    which depends only on g mod p: g is the smallest primitive root mod p,
    whether or not it generates mod p^2. Only half of
    them are walked: the core is cyclic of order p-1 and holds -1, so
    -1 = h^((p-1)/2) and h^(i + (p-1)/2) = m - h^i. Each element e of
    class r also fills class p - r with m - e.
    """
    m = p**k
    h = pow(_smallest_primitive_root(p), p ** (k - 1), m)
    by_class = [0] * p
    e = 1
    for _ in range((p - 1) // 2):
        r = e % p
        by_class[r] = e
        by_class[p - r] = m - e
        e = e * h % m
    return m, by_class


def pair_members(by_class: list[int]) -> list[int]:
    """S, in class order: core a whose successor a + 1 is the core element
    of the next class. Class p-1 is skipped, where a + 1 is not a unit."""
    return [a for a, b in zip(by_class[1:-1], by_class[2:]) if b == a + 1]


def _t_in_core(a: int, p: int, m: int, by_class: list[int]) -> int:
    b = m - pow(a + 1, -1, m)
    if by_class[b % p] != b:
        raise AssertionError(f"t({a}) = {b} left the core mod {m}")
    return b


def pair_orbits(
    p: int, m: int, by_class: list[int]
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Fixed points and canonical 3-cycles of t on S, both sorted.

    Raises AssertionError if t maps a member of S out of the core, which
    a true core table rules out.
    """
    fixed = []
    triplets = []
    for a in pair_members(by_class):
        b = _t_in_core(a, p, m, by_class)
        if b == a:
            fixed.append(a)
            continue
        c = _t_in_core(b, p, m, by_class)
        if a < b and a < c:
            triplets.append((a, b, c))
    fixed.sort()
    triplets.sort()
    return fixed, triplets


def scan_core_triplets(p: int, k: int) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Fixed points and proper 3-cycles of a -> -(a+1)^-1 on the core mod p^k.

    Returns (sorted fixed-point values, sorted canonical triplet tuples);
    a triplet is canonical when its leading member is the cycle minimum.
    Bad moduli raise what the compiled entry raises, with its messages.
    """
    if p < 3 or k < 1:
        raise ValueError("need p >= 3 and k >= 1")
    if exceeds_bound(p, k):
        raise OverflowError(f"{p}^{k} exceeds 2^63")
    m, by_class = core_table(p, k)
    return pair_orbits(p, m, by_class)
