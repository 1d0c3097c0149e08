"""Structure of the units group mod p^k.

The units form a cyclic group of order (p-1)*p^(k-1). It splits as a
direct product of the core (the unique subgroup of order p-1, exactly
the fixed points of n -> n^p) and the extension subgroup (order p^(k-1),
elements congruent to 1 mod p). The p-th power image is the Fermat
subgroup, of index p for k >= 2.
"""

from dataclasses import dataclass

from .errors import NotAUnit
from .residues import PrimePowerModulus, Residue, primitive_root
from .triplets import _check_table_budget

# bytes to budget per core element for the Python core walk and what is
# built on it: the tracemalloc peak of `analyze 20011 3 --format
# structured` is 1,146 bytes per core element (274 in text)
CORE_ELEMENT_BYTES = 1_200


@dataclass(frozen=True, slots=True)
class GroupStructure:
    """Generators and orders of the units group and its canonical subgroups."""

    modulus: PrimePowerModulus
    group_order: int
    generator: Residue
    core_generator: Residue
    extension_generator: Residue
    core_order: int
    extension_order: int
    fermat_order: int


@dataclass(frozen=True, slots=True)
class CoreSet:
    """The p-1 core elements in generator-power order h^0, h^1, ..., h^(p-2)."""

    elements: tuple[Residue, ...]
    generator: Residue
    modulus: PrimePowerModulus

    def __contains__(self, item):
        return isinstance(item, Residue) and item.modulus == self.modulus and is_core_member(item)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def units_order(modulus: PrimePowerModulus) -> int:
    """Order of the units group: (p-1)*p^(k-1)."""
    return (modulus.p - 1) * modulus.p ** (modulus.k - 1)


def core_project(n: Residue) -> Residue:
    """The idempotent projection n -> n^(p^(k-1)) onto the core."""
    if not n.is_unit:
        raise NotAUnit(f"{n.value} is divisible by {n.modulus.p}")
    mod = n.modulus
    return Residue(pow(n.value, mod.p ** (mod.k - 1), mod.m), mod)


def group_structure(modulus: PrimePowerModulus) -> GroupStructure:
    """Assemble generators and orders for the modulus's units group."""
    p, k = modulus.p, modulus.k
    g = primitive_root(modulus)
    order = units_order(modulus)
    # for k = 1 the p-th power map is a bijection, so the Fermat subgroup
    # is the whole group rather than an index-p subgroup
    fermat = order // p if k >= 2 else order
    return GroupStructure(
        modulus=modulus,
        group_order=order,
        generator=g,
        core_generator=core_project(g),
        extension_generator=g ** (p - 1),
        core_order=p - 1,
        extension_order=p ** (k - 1),
        fermat_order=fermat,
    )


def core_elements(modulus: PrimePowerModulus) -> CoreSet:
    """All p-1 core elements as successive powers of the core generator.

    Raises MemoryBudgetExceeded, before the walk, if CORE_ELEMENT_BYTES
    per element would exceed triplets.TABLE_BUDGET.
    """
    _check_table_budget(modulus.p, CORE_ELEMENT_BYTES, "core walk")
    h = core_project(primitive_root(modulus))
    m = modulus.m
    elements = []
    e = 1
    for _ in range(modulus.p - 1):
        elements.append(Residue(e, modulus))
        e = e * h.value % m
    return CoreSet(tuple(elements), h, modulus)


def is_core_member(n: Residue) -> bool:
    """True iff n is a unit with n^(p-1) = 1, equivalently n^p = n."""
    if not n.is_unit:
        return False
    return pow(n.value, n.modulus.p - 1, n.modulus.m) == 1


def is_pth_power_residue(n: Residue) -> bool:
    """Membership in the p-th power image of the units group.

    For k >= 2 this is the exponent test n^((p-1)*p^(k-2)) = 1. For k = 1
    every unit qualifies: gcd(p, p-1) = 1 makes the p-th power map a
    bijection mod p.
    """
    if not n.is_unit:
        raise NotAUnit(f"{n.value} is divisible by {n.modulus.p}")
    mod = n.modulus
    if mod.k == 1:
        return True
    e = (mod.p - 1) * mod.p ** (mod.k - 2)
    return pow(n.value, e, mod.m) == 1


def decompose_unit(n: Residue) -> tuple[Residue, Residue]:
    """Split a unit as core * extension with the extension part = 1 mod p."""
    core = core_project(n)
    ext = n * core.inverse()
    return core, ext


def fst_extension_check(modulus: PrimePowerModulus) -> bool:
    """Executable witness that n^p = n mod p^k holds on the whole core."""
    p, m = modulus.p, modulus.m
    return all(pow(n.value, p, m) == n.value for n in core_elements(modulus))
