"""Exception types shared across the package."""


class PkarithError(Exception):
    """Base class for all pkarith errors."""


class ModulusOverflow(PkarithError):
    """p^k exceeds the supported 63-bit modulus bound."""


class MemoryBudgetExceeded(ModulusOverflow):
    """The scan kernel's table for p would not fit in the memory budget."""


class ModulusMismatch(PkarithError):
    """Two residues from different moduli were combined."""


class NotAUnit(PkarithError):
    """Operation requires a residue coprime to p."""


class NotInGroup(PkarithError):
    """No discrete logarithm exists; the claimed generator is not primitive."""


class DigitParseError(PkarithError, ValueError):
    """Malformed p-ary digit string."""


class NoCubicRoots(PkarithError):
    """x^2 + x + 1 has no unit root mod p^k (p is not 1 mod 6)."""


class SingularRoot(PkarithError):
    """Newton lifting requires f'(root) to be a unit mod p."""


class NotARoot(PkarithError):
    """Claimed polynomial root does not vanish at the stated precision."""


class Case2Excluded(PkarithError):
    """Input triple has a member divisible by p; only the coprime case is handled."""


class UndefinedAtMinusOne(PkarithError):
    """The successor-inverse map is undefined where a + 1 is not a unit."""


class NotADivisor(PkarithError):
    """Requested subgroup order does not divide p - 1."""


class CorruptCache(PkarithError, ValueError):
    """A scan-cache line is not a well-formed scan record."""
