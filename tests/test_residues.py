"""Modular arithmetic kernel: moduli, residues, codec, dlog."""

import io
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkarith import _kernel_py, residues
from pkarith.cli import main
from pkarith.errors import (
    DigitParseError,
    ModulusMismatch,
    ModulusOverflow,
    NotAUnit,
    NotInGroup,
)
from pkarith.primes import odd_primes_in
from pkarith.residues import (
    ROOT_CACHE_SIZE,
    PAdicDigits,
    PrimePowerModulus,
    Residue,
    discrete_log,
    exceeds_bound,
    from_padic,
    inv_mod,
    pow_mod,
    primitive_root,
    to_padic,
)

MOD_POOL = [(3, 2), (3, 5), (5, 2), (7, 2), (7, 4), (13, 2), (59, 2), (97, 2)]


def res(value, p, k):
    return Residue(value, PrimePowerModulus(p, k))


class TestPrimePowerModulus:
    def test_m_is_p_to_the_k(self):
        assert PrimePowerModulus(7, 2).m == 49
        assert PrimePowerModulus(3, 5).m == 243

    @pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
    def test_rejects_non_odd_primes(self, p):
        with pytest.raises(ValueError):
            PrimePowerModulus(p, 2)

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            PrimePowerModulus(7, 0)

    def test_rejects_overflow(self):
        with pytest.raises(ModulusOverflow):
            PrimePowerModulus(7, 30)
        # largest power of 3 under 2^63 is 3^39
        assert PrimePowerModulus(3, 39).m < 2**63
        with pytest.raises(ModulusOverflow):
            PrimePowerModulus(3, 40)

    def test_rejects_huge_precision_at_once(self):
        # k >= 63 is refused before p**k is formed
        with pytest.raises(ModulusOverflow):
            PrimePowerModulus(3, 10**9)
        assert exceeds_bound(2, 63) and not exceeds_bound(2, 62)


class TestResidue:
    def test_reduces_on_construction(self):
        assert res(50, 7, 2).value == 1
        assert res(-1, 7, 2).value == 48

    def test_unit_flag(self):
        assert res(18, 7, 2).is_unit
        assert not res(14, 7, 2).is_unit

    def test_signed_representative(self):
        mod = PrimePowerModulus(5, 2)
        assert [Residue(v, mod).signed for v in (7, 24, 18, 1)] == [7, -1, -7, 1]

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ModulusMismatch):
            res(1, 7, 2) * res(1, 5, 2)

    def test_operators(self):
        a = res(18, 7, 2)
        assert (a + res(30, 7, 2)).value == 48
        assert (a - res(19, 7, 2)).value == 48
        assert (-a).value == 31
        assert (a**3).value == pow(18, 3, 49)


class TestMulInvPow:
    def test_inverse_pair_from_core_table(self):
        assert (res(18, 7, 2) * res(30, 7, 2)).value == 1

    def test_minus_one_squares_to_one(self):
        assert (res(48, 7, 2) * res(48, 7, 2)).value == 1

    def test_core_projection_values(self):
        assert pow_mod(res(3, 7, 2), 7).value == 31
        assert pow_mod(res(2, 5, 2), 5).value == 7

    def test_pow_zero_is_one(self):
        assert pow_mod(res(40, 7, 2), 0).value == 1

    def test_pow_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            pow_mod(res(2, 7, 2), -1)

    def test_inv_examples(self):
        assert inv_mod(res(18, 7, 2)).value == 30
        assert inv_mod(res(1, 7, 2)).value == 1

    def test_inv_rejects_non_unit(self):
        with pytest.raises(NotAUnit):
            inv_mod(res(7, 7, 2))

    def test_lagrange_exponent(self):
        mod = PrimePowerModulus(7, 2)
        for v in range(1, 49):
            if v % 7:
                assert pow_mod(Residue(v, mod), 42).value == 1

    def test_pow_inv_match_exhaustive_oracle(self):
        # repeated multiplication oracle on a small modulus
        mod = PrimePowerModulus(5, 2)
        for v in range(1, 25):
            acc = 1
            for e in range(8):
                assert pow_mod(Residue(v, mod), e).value == acc
                acc = acc * v % 25
            if v % 5:
                inv = next(w for w in range(1, 25) if v * w % 25 == 1)
                assert inv_mod(Residue(v, mod)).value == inv


class TestPrimitiveRoot:
    def test_paper_generators(self):
        assert primitive_root(PrimePowerModulus(7, 2)).value == 3
        assert primitive_root(PrimePowerModulus(5, 2)).value == 2
        assert primitive_root(PrimePowerModulus(3, 1)).value == 2

    @pytest.mark.parametrize("p,k", MOD_POOL)
    def test_generator_has_full_order(self, p, k):
        mod = PrimePowerModulus(p, k)
        g = primitive_root(mod).value
        order = (p - 1) * p ** (k - 1)
        assert pow(g, order, mod.m) == 1
        from pkarith.primes import distinct_prime_factors

        for q in distinct_prime_factors(order):
            assert pow(g, order // q, mod.m) != 1

    def test_lift_rule_on_known_collapsing_root(self):
        # 14 generates mod 29 but satisfies 14^28 = 1 mod 841, the
        # degeneracy the g -> g+p lift exists to dodge; the smallest
        # root 2 does not collapse, so the lift stays un-triggered
        assert pow(14, 28, 841) == 1
        assert primitive_root(PrimePowerModulus(29, 2)).value == 2
        assert pow(2, 28, 841) != 1


class TestPrimitiveRootCaches:
    """Both primitive-root caches are bounded: a scan asks once per prime
    and never again, while one analysis asks the same few keys often."""

    CACHES = (residues._primitive_root_value, residues._smallest_primitive_root)

    def _clear(self):
        for cached in self.CACHES:
            cached.cache_clear()

    def test_long_pure_kernel_scan_stays_within_the_bound(self):
        self._clear()
        primes = list(odd_primes_in(3, 3000))
        for p in primes:
            _kernel_py.scan_core_triplets(p, 2)
        for cached in self.CACHES:
            info = cached.cache_info()
            assert info.maxsize == ROOT_CACHE_SIZE
            assert info.misses == len(primes)
            assert info.currsize == ROOT_CACHE_SIZE

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_analyze_still_hits(self, k):
        self._clear()
        with redirect_stdout(io.StringIO()):
            assert main(["analyze", "61", str(k)]) == 0
        for cached in self.CACHES:
            info = cached.cache_info()
            assert info.currsize == info.misses  # every key it asked is still held
        assert residues._primitive_root_value.cache_info().hits > 0
        if k >= 2:
            # at k = 1 only the kernel asks for p's root a second time, for
            # the pairs mod p^2, and the compiled kernel finds its own
            assert residues._smallest_primitive_root.cache_info().hits > 0


class TestDiscreteLog:
    def test_core_generator_exponent(self):
        mod = PrimePowerModulus(7, 2)
        g = Residue(3, mod)
        assert discrete_log(g, Residue(31, mod)) == 7

    def test_identity_and_generator(self):
        mod = PrimePowerModulus(7, 2)
        g = Residue(3, mod)
        assert discrete_log(g, Residue(1, mod)) == 0
        assert discrete_log(g, g) == 1

    def test_rejects_non_unit(self):
        mod = PrimePowerModulus(7, 2)
        with pytest.raises(NotAUnit):
            discrete_log(Residue(3, mod), Residue(7, mod))

    def test_non_generator_detected(self):
        # 18 has order 6 mod 49, so 3 is outside its cyclic span
        mod = PrimePowerModulus(7, 2)
        with pytest.raises(NotInGroup):
            discrete_log(Residue(18, mod), Residue(3, mod))

    @pytest.mark.parametrize("p,k", MOD_POOL)
    def test_left_inverse_of_exponentiation(self, p, k):
        mod = PrimePowerModulus(p, k)
        g = primitive_root(mod)
        order = (p - 1) * p ** (k - 1)
        for t in {0, 1, 2, order // 2, order - 1}:
            x = pow_mod(g, t)
            assert discrete_log(g, x) == t


class TestPAdicCodec:
    def test_paper_digit_strings(self):
        assert str(to_padic(res(31, 7, 2))) == "43"
        assert str(to_padic(res(18, 7, 2))) == "24"
        assert str(to_padic(res(1, 7, 2))) == "01"

    def test_letter_digits_above_nine(self):
        # 12*13 + 10 = 166 renders with letters c and a
        assert str(to_padic(res(166, 13, 2))) == "ca"

    def test_wide_base_uses_colon_groups(self):
        assert str(to_padic(res(298, 59, 2))) == "05:03"

    def test_parse_round_trip(self):
        for p, k in MOD_POOL:
            mod = PrimePowerModulus(p, k)
            for v in (0, 1, mod.m - 1, mod.m // 2):
                digits = to_padic(Residue(v, mod))
                assert from_padic(PAdicDigits.parse(str(digits), mod), mod).value == v

    def test_parse_rejects_bad_digits(self):
        mod = PrimePowerModulus(7, 2)
        with pytest.raises(DigitParseError):
            PAdicDigits.parse("4", mod)  # wrong width
        with pytest.raises(DigitParseError):
            PAdicDigits.parse("48", mod)  # 8 is no base-7 digit
        with pytest.raises(DigitParseError):
            PAdicDigits.parse("4!", mod)

    def test_digit_vector_validation(self):
        with pytest.raises(DigitParseError):
            PAdicDigits((1, 9), 7, 2)
        with pytest.raises(DigitParseError):
            PAdicDigits((1,), 7, 2)

    def test_from_padic_rejects_foreign_digits(self):
        digits = to_padic(res(18, 7, 2))
        with pytest.raises(ModulusMismatch):
            from_padic(digits, PrimePowerModulus(5, 2))


@st.composite
def residue_and_modulus(draw):
    p, k = draw(st.sampled_from(MOD_POOL))
    mod = PrimePowerModulus(p, k)
    value = draw(st.integers(min_value=0, max_value=mod.m - 1))
    return Residue(value, mod)


@given(residue_and_modulus(), st.integers(0, 500), st.integers(0, 500))
def test_pow_is_additive_in_the_exponent(x, e1, e2):
    lhs = pow_mod(x, e1 + e2)
    rhs = pow_mod(x, e1) * pow_mod(x, e2)
    assert lhs.value == rhs.value


@given(residue_and_modulus())
def test_units_cancel_with_their_inverse(x):
    if x.is_unit:
        assert (x * inv_mod(x)).value == 1
    else:
        with pytest.raises(NotAUnit):
            inv_mod(x)


@given(residue_and_modulus())
@settings(max_examples=200)
def test_padic_round_trip(x):
    digits = to_padic(x)
    assert from_padic(digits, x.modulus).value == x.value
    reparsed = PAdicDigits.parse(str(digits), x.modulus)
    assert from_padic(reparsed, x.modulus).value == x.value
