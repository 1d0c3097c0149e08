"""Units-group decomposition: core, extension, Fermat subgroup."""

import math
import random

import pytest

from pkarith import triplets
from pkarith.errors import MemoryBudgetExceeded, NotAUnit
from pkarith.groups import (
    CORE_ELEMENT_BYTES,
    core_elements,
    core_project,
    decompose_unit,
    fst_extension_check,
    group_structure,
    is_core_member,
    is_pth_power_residue,
    units_order,
)
from pkarith.primes import odd_primes_in
from pkarith.residues import PrimePowerModulus, Residue


def res(value, p, k):
    return Residue(value, PrimePowerModulus(p, k))


class TestUnitsOrder:
    def test_examples(self):
        assert units_order(PrimePowerModulus(7, 2)) == 42
        assert units_order(PrimePowerModulus(5, 2)) == 20
        assert units_order(PrimePowerModulus(3, 1)) == 2


class TestCoreProject:
    def test_paper_values(self):
        assert core_project(res(2, 5, 2)).value == 7
        assert core_project(res(3, 7, 2)).value == 31
        assert core_project(res(1, 7, 2)).value == 1

    def test_rejects_non_unit(self):
        with pytest.raises(NotAUnit):
            core_project(res(14, 7, 2))

    @pytest.mark.parametrize("p,k", [(5, 2), (7, 2), (7, 3), (13, 2)])
    def test_idempotent_multiplicative_and_class_preserving(self, p, k):
        mod = PrimePowerModulus(p, k)
        units = [Residue(v, mod) for v in range(1, mod.m) if v % p]
        for n in units:
            cn = core_project(n)
            assert core_project(cn).value == cn.value
            assert cn.value % p == n.value % p
        rng = random.Random(11)
        for _ in range(50):
            x, y = rng.choice(units), rng.choice(units)
            assert (
                core_project(x * y).value
                == (core_project(x) * core_project(y)).value
            )


class TestCoreElements:
    def test_paper_tables(self):
        assert {n.value for n in core_elements(PrimePowerModulus(5, 2))} == {7, 24, 18, 1}
        assert {n.value for n in core_elements(PrimePowerModulus(7, 2))} == {
            31, 30, 48, 18, 19, 1,
        }
        assert {n.value for n in core_elements(PrimePowerModulus(3, 2))} == {1, 8}

    def test_generator_power_order_starts_at_identity(self):
        core = core_elements(PrimePowerModulus(7, 2))
        assert core.elements[0].value == 1
        h = core.generator.value
        for i, n in enumerate(core.elements):
            assert n.value == pow(h, i, 49)

    @pytest.mark.parametrize("p,k", [(3, 4), (7, 2), (13, 2), (59, 2)])
    def test_matches_exponent_equation_exhaustively(self, p, k):
        # core = all solutions of x^(p-1) = 1, checked by full enumeration
        mod = PrimePowerModulus(p, k)
        expected = {v for v in range(1, mod.m) if pow(v, p - 1, mod.m) == 1}
        got = {n.value for n in core_elements(mod)}
        assert got == expected
        assert len(got) == p - 1

    def test_equals_projection_image(self):
        mod = PrimePowerModulus(7, 2)
        image = {
            core_project(Residue(v, mod)).value for v in range(1, 49) if v % 7
        }
        assert image == {n.value for n in core_elements(mod)}

    def test_refuses_a_walk_over_the_memory_budget(self, monkeypatch):
        # the budget is lowered here, never tested with a real allocation
        monkeypatch.setattr(triplets, "TABLE_BUDGET", CORE_ELEMENT_BYTES * 59 - 1)
        with pytest.raises(MemoryBudgetExceeded, match=r"core walk for p = 59 needs"):
            core_elements(PrimePowerModulus(59, 2))
        monkeypatch.setattr(triplets, "TABLE_BUDGET", CORE_ELEMENT_BYTES * 59)
        assert len(core_elements(PrimePowerModulus(59, 2))) == 58


class TestMembership:
    def test_core_member_examples(self):
        assert is_core_member(res(18, 7, 2))
        assert not is_core_member(res(2, 7, 2))
        assert is_core_member(res(1, 7, 2))
        assert not is_core_member(res(14, 7, 2))

    def test_pth_power_residue_examples(self):
        assert is_pth_power_residue(res(18, 7, 2))
        assert not is_pth_power_residue(res(2, 7, 2))

    def test_pth_power_residue_k1_is_every_unit(self):
        mod = PrimePowerModulus(7, 1)
        assert all(is_pth_power_residue(Residue(v, mod)) for v in range(1, 7))

    def test_pth_power_residue_rejects_non_unit(self):
        with pytest.raises(NotAUnit):
            is_pth_power_residue(res(14, 7, 2))

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_fermat_subgroup_equals_core_at_k2(self, p):
        mod = PrimePowerModulus(p, 2)
        for v in range(1, mod.m):
            if v % p:
                n = Residue(v, mod)
                assert is_pth_power_residue(n) == is_core_member(n)


class TestDecomposeUnit:
    def test_splits_three_mod_49(self):
        core, ext = decompose_unit(res(3, 7, 2))
        assert (core.value, ext.value) == (31, 8)
        assert core.value * ext.value % 49 == 3
        assert ext.value % 7 == 1

    def test_core_element_has_trivial_extension(self):
        assert tuple(r.value for r in decompose_unit(res(18, 7, 2))) == (18, 1)
        assert tuple(r.value for r in decompose_unit(res(1, 7, 2))) == (1, 1)

    def test_rejects_non_unit(self):
        with pytest.raises(NotAUnit):
            decompose_unit(res(21, 7, 2))

    @pytest.mark.parametrize("p,k", [(7, 2), (5, 3)])
    def test_reassembles_every_unit(self, p, k):
        mod = PrimePowerModulus(p, k)
        for v in range(1, mod.m):
            if v % p == 0:
                continue
            core, ext = decompose_unit(Residue(v, mod))
            assert core.value * ext.value % mod.m == v
            assert ext.value % p == 1
            assert is_core_member(core)


class TestGroupStructure:
    def test_orders_and_generators(self):
        s = group_structure(PrimePowerModulus(7, 2))
        assert s.group_order == 42
        assert s.generator.value == 3
        assert s.core_generator.value == 31
        assert s.extension_generator.value == pow(3, 6, 49)
        assert s.core_order == 6
        assert s.extension_order == 7
        assert s.fermat_order == 6

    def test_direct_product_arithmetic(self):
        for p, k in [(3, 2), (5, 2), (7, 3), (13, 2)]:
            s = group_structure(PrimePowerModulus(p, k))
            assert s.core_order * s.extension_order == s.group_order
            assert math.gcd(s.core_order, s.extension_order) == 1
            assert s.fermat_order == s.group_order // p

    def test_fermat_order_at_k1_is_whole_group(self):
        s = group_structure(PrimePowerModulus(7, 1))
        assert s.fermat_order == s.group_order == 6

    def test_component_generators_have_exact_orders(self):
        s = group_structure(PrimePowerModulus(7, 3))
        m = s.modulus.m
        h, b = s.core_generator.value, s.extension_generator.value
        assert pow(h, 6, m) == 1 and all(pow(h, i, m) != 1 for i in range(1, 6))
        assert pow(b, 49, m) == 1 and pow(b, 7, m) != 1
        assert b % 7 == 1


class TestFstExtension:
    @pytest.mark.parametrize("p,k", [(5, 2), (7, 3), (3, 2)])
    def test_holds_on_core(self, p, k):
        assert fst_extension_check(PrimePowerModulus(p, k))

    def test_witnesses(self):
        assert pow(7, 5, 25) == 7
        assert pow(8, 3, 9) == 8  # (-1)^3 = -1 mod 9


class TestHenselConsistency:
    def test_status_at_k3_matches_truncation_at_k2(self):
        rng = random.Random(5)
        for p in odd_primes_in(3, 30):
            high = PrimePowerModulus(p, 3)
            low = PrimePowerModulus(p, 2)
            for _ in range(30):
                v = rng.randrange(1, high.m)
                if v % p == 0:
                    continue
                assert is_pth_power_residue(Residue(v, high)) == is_pth_power_residue(
                    Residue(v % low.m, low)
                )
