"""Cubic roots of unity, normalized FLT root pairs, and Hensel lifting.

A case-1 FLT root pair is a pair of units (a, b) with a^p + b^p = -1
mod p^k. Mod p^2 every such pair projects onto a pair of core elements
summing to -1, whose members are the scan kernel's set S: its fixed
points and the members of its 3-cycles. Nontrivial cubic roots of 1
(present iff p = 1 mod 6) are those fixed points; they give the pair
{a, a^-1} and are lifted to higher precision by Newton iteration.
"""

from dataclasses import dataclass
from typing import Sequence

from . import kernel
from .errors import Case2Excluded, NoCubicRoots, NotARoot, NotAUnit, SingularRoot
# core_elements is unused, but perfbench/tracer.py patches it here by name
# until the tracer moves to stage names (ROADMAP item 1)
from .groups import core_elements, is_pth_power_residue, units_order  # noqa: F401
from .residues import PrimePowerModulus, Residue, discrete_log, primitive_root
from .triplets import _check_table_budget

CUBIC_POLY = (1, 1, 1)  # x^2 + x + 1, constant coefficient first


@dataclass(frozen=True, slots=True)
class CubicRootTriple:
    """The three cubic roots of 1 mod p^k, ascending, so roots[0] is 1."""

    roots: tuple[Residue, Residue, Residue]
    modulus: PrimePowerModulus

    @property
    def nontrivial(self) -> tuple[Residue, Residue]:
        return self.roots[1], self.roots[2]


@dataclass(frozen=True, slots=True)
class FltRootPair:
    """Normalized pair with a^p + b^p = -1 mod p^k, stored with a <= b."""

    a: Residue
    b: Residue
    modulus: PrimePowerModulus
    valid: bool
    eds_holds: bool

    def key(self) -> tuple[int, int]:
        return self.a.value, self.b.value


@dataclass(frozen=True, slots=True)
class EdsReport:
    """Both sides of (a+b)^p = a^p + b^p mod p^k and their comparison."""

    lhs: Residue
    rhs: Residue
    holds: bool


def _poly_eval(coeffs: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _poly_derivative(coeffs: Sequence[int]) -> tuple[int, ...]:
    return tuple(i * c for i, c in enumerate(coeffs) if i > 0)


def hensel_lift_poly_root(coeffs: Sequence[int], root: Residue, target_k: int) -> Residue:
    """Lift a simple polynomial root to precision target_k by Newton steps.

    coeffs holds the constant coefficient first. The root must satisfy
    f(root) = 0 at its own precision j, with f'(root) a unit mod p; the
    lifted root is then unique and found with doubling precision.
    """
    p = root.modulus.p
    j = root.modulus.k
    if target_k < j:
        raise ValueError(f"target precision {target_k} is below the root's {j}")
    deriv = _poly_derivative(coeffs)
    if _poly_eval(deriv, root.value, p) == 0:
        raise SingularRoot(f"f'({root.value}) vanishes mod {p}")
    if _poly_eval(coeffs, root.value, root.modulus.m) != 0:
        raise NotARoot(f"f({root.value}) is nonzero mod {p}^{j}")
    target = PrimePowerModulus(p, target_k)
    r = root.value
    while j < target_k:
        j = min(2 * j, target_k)
        m = p**j
        fr = _poly_eval(coeffs, r, m)
        fpr = _poly_eval(deriv, r, m)
        r = (r - fr * pow(fpr, -1, m)) % m
    return Residue(r, target)


def _cubic_seed(p: int) -> int:
    """Smaller root of x^2 + x + 1 mod p for p = 1 mod 6, from the
    primitive root g: g^((p-1)/3) is a nontrivial cubic root of 1."""
    g = primitive_root(PrimePowerModulus(p, 1))
    a = pow(g.value, (p - 1) // 3, p)
    b = p - 1 - a  # the other root; roots of x^2+x+1 sum to -1
    return min(a, b)


def cubic_roots_of_unity(modulus: PrimePowerModulus) -> CubicRootTriple:
    """The triple {1, a, a^2} with a^3 = 1, a != 1, mod p^k.

    Exists exactly when p = 1 mod 6. The nontrivial roots are mutual
    inverses, satisfy a + a^-1 = -1, and the triple sums to 0.
    """
    p = modulus.p
    if p % 6 != 1:
        raise NoCubicRoots(f"p = {p} is not 1 mod 6")
    seed = Residue(_cubic_seed(p), PrimePowerModulus(p, 1))
    a = hensel_lift_poly_root(CUBIC_POLY, seed, modulus.k)
    a_sq = a * a
    one = Residue(1, modulus)
    lo, hi = sorted((a, a_sq), key=lambda r: r.value)
    return CubicRootTriple((one, lo, hi), modulus)


def eds_check(a: Residue, b: Residue) -> EdsReport:
    """Compare (a+b)^p against a^p + b^p at the shared modulus."""
    a._same(b)
    p = a.modulus.p
    lhs = (a + b) ** p
    rhs = a**p + b**p
    return EdsReport(lhs, rhs, lhs.value == rhs.value)


def _pair_from_values(alpha: int, beta: int, modulus: PrimePowerModulus) -> FltRootPair:
    a = Residue(min(alpha, beta), modulus)
    b = Residue(max(alpha, beta), modulus)
    p, m = modulus.p, modulus.m
    valid = (pow(a.value, p, m) + pow(b.value, p, m)) % m == m - 1
    return FltRootPair(a, b, modulus, valid, eds_check(a, b).holds)


def enumerate_core_root_pairs(modulus: PrimePowerModulus) -> list[FltRootPair]:
    """All unordered core pairs {a, b} with a + b = -1 mod p^k, a <= b,
    read from the kernel's S. Raises MemoryBudgetExceeded, before the
    kernel runs, if its table for p would exceed triplets.TABLE_BUDGET."""
    p, m = modulus.p, modulus.m
    _check_table_budget(p)
    fixed, triplets = kernel.scan_core_triplets(p, modulus.k)
    members = sorted(set(fixed).union(*triplets))
    return [_pair_from_values(a, m - 1 - a, modulus) for a in members if a <= m - 1 - a]


def enumerate_flt_roots_mod_p2(p: int) -> list[FltRootPair]:
    """All unordered core pairs {a, b} with a + b = -1 mod p^2, a <= b.

    Every unit solution of a^p + b^p = -1 mod p^2 projects onto one of
    these pairs through the core projection, so this list classifies all
    case-1 FLT roots at precision 2.
    """
    return enumerate_core_root_pairs(PrimePowerModulus(p, 2))


def pth_roots(c: Residue) -> set[Residue]:
    """All p-th roots of c mod p^k, k >= 2: empty or exactly p of them.

    Uses the discrete log: with c = g^t, roots exist iff p divides t,
    and then they are g^(t/p + j*|G|/p) for j = 0..p-1.
    """
    modulus = c.modulus
    if modulus.k < 2:
        raise ValueError("pth_roots needs k >= 2; the map is a bijection at k = 1")
    if not c.is_unit:
        raise NotAUnit(f"{c.value} is divisible by {modulus.p}")
    if not is_pth_power_residue(c):
        return set()
    g = primitive_root(modulus)
    t = discrete_log(g, c)
    order = units_order(modulus)
    p = modulus.p
    base = t // p
    step = order // p
    return {Residue(pow(g.value, base + j * step, modulus.m), modulus) for j in range(p)}


def normalize_flt_triple(
    x: int, y: int, z: int, modulus: PrimePowerModulus
) -> FltRootPair:
    """Scale (x, y, z) by -z^-1 into one-complement form a^p + b^p = -1.

    The scaled pair satisfies the one-complement congruence iff the
    original satisfies x^p + y^p = z^p mod p^k; the valid flag records
    whether it actually does.
    """
    p, m = modulus.p, modulus.m
    if x % p == 0 or y % p == 0 or z % p == 0:
        raise Case2Excluded(f"({x}, {y}, {z}) has a member divisible by {p}")
    scale = (-pow(z, -1, m)) % m
    return _pair_from_values(x * scale % m, y * scale % m, modulus)


def lift_cubic_pair(p: int, k: int) -> FltRootPair:
    """The cubic-root pair {a, a^-1} at precision k, for p = 1 mod 6."""
    triple = cubic_roots_of_unity(PrimePowerModulus(p, k))
    lo, hi = triple.nontrivial
    return _pair_from_values(lo.value, hi.value, triple.modulus)
