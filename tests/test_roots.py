"""Cubic roots of unity, Hensel lifting, FLT root pairs, EDS."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pkarith.errors import (
    Case2Excluded,
    NoCubicRoots,
    NotARoot,
    NotAUnit,
    SingularRoot,
)
from pkarith.groups import is_core_member
from pkarith.primes import odd_primes_in
from pkarith.residues import PrimePowerModulus, Residue
from pkarith.roots import (
    CUBIC_POLY,
    cubic_roots_of_unity,
    eds_check,
    enumerate_core_root_pairs,
    enumerate_flt_roots_mod_p2,
    hensel_lift_poly_root,
    lift_cubic_pair,
    normalize_flt_triple,
    pth_roots,
)


def res(value, p, k):
    return Residue(value, PrimePowerModulus(p, k))


class TestCubicRoots:
    def test_mod_49(self):
        triple = cubic_roots_of_unity(PrimePowerModulus(7, 2))
        assert tuple(r.value for r in triple.roots) == (1, 18, 30)

    def test_mod_169(self):
        triple = cubic_roots_of_unity(PrimePowerModulus(13, 2))
        assert tuple(r.value for r in triple.roots) == (1, 22, 146)

    def test_higher_precision(self):
        assert tuple(
            r.value for r in cubic_roots_of_unity(PrimePowerModulus(7, 3)).roots
        ) == (1, 18, 324)
        assert tuple(
            r.value for r in cubic_roots_of_unity(PrimePowerModulus(7, 4)).roots
        ) == (1, 1047, 1353)

    @pytest.mark.parametrize("p", [3, 5, 11, 17, 23])
    def test_absent_unless_p_is_1_mod_6(self, p):
        with pytest.raises(NoCubicRoots):
            cubic_roots_of_unity(PrimePowerModulus(p, 2))

    @pytest.mark.parametrize("p", [7, 13, 19, 31, 37, 61, 97])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_algebraic_relations(self, p, k):
        mod = PrimePowerModulus(p, k)
        triple = cubic_roots_of_unity(mod)
        one, a, a_sq = triple.roots
        assert one.value == 1
        for r in triple.roots:
            assert pow(r.value, 3, mod.m) == 1
        assert (a * a_sq).value == 1  # mutual inverses
        assert (a + a.inverse()).value == mod.m - 1  # a + a^-1 = -1
        assert (one.value + a.value + a_sq.value) % mod.m == 0
        assert (a * a).value == a_sq.value

    def test_seed_scan_agrees_with_generator_power(self):
        # a linear scan for the smallest root is the brute-force oracle
        from pkarith.roots import _cubic_seed

        for p in [*odd_primes_in(7, 300), 10_009, 100_003]:
            if p % 6 != 1:
                continue
            smallest = next(x for x in range(2, p) if (x * x + x + 1) % p == 0)
            assert _cubic_seed(p) == smallest


class TestHenselLift:
    def test_single_newton_step(self):
        lifted = hensel_lift_poly_root(CUBIC_POLY, res(3, 13, 1), 2)
        assert lifted.value == 146
        assert (146 * 146 + 146 + 1) % 169 == 0

    def test_paper_root_lift(self):
        assert hensel_lift_poly_root(CUBIC_POLY, res(4, 7, 1), 2).value == 18

    def test_noop_lift(self):
        root = res(18, 7, 2)
        assert hensel_lift_poly_root(CUBIC_POLY, root, 2).value == 18

    def test_rejects_downward_lift(self):
        with pytest.raises(ValueError):
            hensel_lift_poly_root(CUBIC_POLY, res(18, 7, 2), 1)

    def test_singular_root_rejected(self):
        # (x - 1)^2 has a double root at 1, so f'(1) = 0
        with pytest.raises(SingularRoot):
            hensel_lift_poly_root((1, -2, 1), res(1, 7, 1), 2)

    def test_non_root_rejected(self):
        # f(1) = 3 and f'(1) = 3, both nonzero mod 7
        with pytest.raises(NotARoot):
            hensel_lift_poly_root(CUBIC_POLY, res(1, 7, 1), 2)

    def test_deep_lift_of_square_root(self):
        # x^2 - 2 mod 7: root 3 lifts through several doublings
        lifted = hensel_lift_poly_root((-2, 0, 1), res(3, 7, 1), 5)
        assert lifted.value % 7 == 3
        assert (lifted.value**2 - 2) % 7**5 == 0

    def test_reduction_consistency(self):
        full = hensel_lift_poly_root(CUBIC_POLY, res(4, 7, 1), 4).value
        for k in (1, 2, 3):
            assert full % 7**k == hensel_lift_poly_root(CUBIC_POLY, res(4, 7, 1), k).value


class TestEnumerateFltRoots:
    def test_no_roots_for_small_primes(self):
        assert enumerate_flt_roots_mod_p2(3) == []
        assert enumerate_flt_roots_mod_p2(5) == []

    def test_cubic_pair_mod_49(self):
        pairs = enumerate_flt_roots_mod_p2(7)
        assert [p.key() for p in pairs] == [(18, 30)]
        assert pairs[0].valid and pairs[0].eds_holds

    def test_pair_mod_169(self):
        assert [p.key() for p in enumerate_flt_roots_mod_p2(13)] == [(22, 146)]

    def test_six_pairs_at_59(self):
        assert [p.key() for p in enumerate_flt_roots_mod_p2(59)] == [
            (298, 3182),
            (299, 3181),
            (805, 2675),
            (1105, 2375),
            (1106, 2374),
            (1404, 2076),
        ]

    def test_pair_members_are_core_and_sum_to_minus_one(self):
        for p in odd_primes_in(3, 100):
            m = p * p
            for pair in enumerate_flt_roots_mod_p2(p):
                assert (pair.a.value + pair.b.value) % m == m - 1
                assert is_core_member(pair.a) and is_core_member(pair.b)
                assert pair.valid

    def test_cubic_pair_always_present_for_1_mod_6(self):
        for p in odd_primes_in(7, 200):
            if p % 6 != 1:
                continue
            lo, hi = cubic_roots_of_unity(PrimePowerModulus(p, 2)).nontrivial
            assert (lo.value, hi.value) in {
                pair.key() for pair in enumerate_flt_roots_mod_p2(p)
            }

    def test_wieferich_prime_yields_self_paired_root(self):
        # 1093 divides 2^1092 - 1 twice; the midpoint (m-1)/2 is core
        # there and pairs with itself
        m = 1093 * 1093
        keys = {pair.key() for pair in enumerate_flt_roots_mod_p2(1093)}
        assert ((m - 1) // 2, (m - 1) // 2) in keys


class TestEdsCheck:
    def test_cubic_pair_holds(self):
        rep = eds_check(res(18, 7, 2), res(30, 7, 2))
        assert rep.holds
        assert rep.lhs.value == rep.rhs.value == 48

    def test_non_core_pair_fails(self):
        rep = eds_check(res(1, 7, 2), res(1, 7, 2))
        assert not rep.holds
        assert rep.lhs.value == pow(2, 7, 49) == 30
        assert rep.rhs.value == 2

    def test_two_plus_three_mod_49(self):
        rep = eds_check(res(2, 7, 2), res(3, 7, 2))
        assert rep.lhs.value == 19
        assert rep.rhs.value == 12
        assert not rep.holds

    def test_core_pairs_hold_iff_sum_is_fst_fixed(self):
        # for core a, b the right side is always a + b, so the check
        # holds exactly when the sum is itself an n^p = n fixed point
        from pkarith.groups import core_elements

        mod = PrimePowerModulus(13, 2)
        core = list(core_elements(mod))
        for a in core:
            for b in core:
                s = (a.value + b.value) % mod.m
                assert eds_check(a, b).holds == (pow(s, 13, mod.m) == s)

    def test_core_pairs_summing_to_minus_one_always_hold(self):
        from pkarith.groups import core_elements

        for p in (7, 13, 59):
            mod = PrimePowerModulus(p, 2)
            values = {n.value for n in core_elements(mod)}
            for a in values:
                b = (mod.m - 1 - a) % mod.m
                if b in values:
                    assert eds_check(Residue(a, mod), Residue(b, mod)).holds


class TestPthRoots:
    def test_core_element_roots(self):
        roots = {r.value for r in pth_roots(res(18, 7, 2))}
        assert roots == {4, 11, 18, 25, 32, 39, 46}

    def test_kernel_of_power_map(self):
        roots = {r.value for r in pth_roots(res(1, 7, 2))}
        assert roots == {1, 8, 15, 22, 29, 36, 43}

    def test_non_residue_has_no_roots(self):
        assert pth_roots(res(2, 7, 2)) == set()

    def test_each_root_powers_back(self):
        for c in (res(18, 7, 2), res(19, 7, 2), res(22, 13, 2)):
            roots = pth_roots(c)
            p = c.modulus.p
            assert len(roots) in (0, p)
            for r in roots:
                assert pow(r.value, p, c.modulus.m) == c.value

    def test_rejects_k1_and_non_units(self):
        with pytest.raises(ValueError):
            pth_roots(res(2, 7, 1))
        with pytest.raises(NotAUnit):
            pth_roots(res(14, 7, 2))


class TestNormalizeFltTriple:
    def test_paper_solution_normalizes_to_cubic_pair(self):
        pair = normalize_flt_triple(18, 30, 48, PrimePowerModulus(7, 2))
        assert pair.key() == (18, 30)
        assert pair.valid

    def test_invalid_triple_flagged(self):
        pair = normalize_flt_triple(1, 1, 1, PrimePowerModulus(3, 2))
        assert pair.key() == (8, 8)
        assert not pair.valid

    def test_case2_rejected(self):
        with pytest.raises(Case2Excluded):
            normalize_flt_triple(7, 1, 1, PrimePowerModulus(7, 2))

    def test_scaling_preserves_the_congruence(self):
        # x^p + y^p = z^p mod m iff the normalized pair is valid
        mod = PrimePowerModulus(7, 2)
        x, y = 18, 30
        for z in range(1, 49):
            if z % 7 == 0:
                continue
            holds = (pow(x, 7, 49) + pow(y, 7, 49) - pow(z, 7, 49)) % 49 == 0
            assert normalize_flt_triple(x, y, z, mod).valid == holds


class TestLiftedClassification:
    def test_cubic_pair_lifts_to_k4(self):
        pair = lift_cubic_pair(7, 4)
        assert pair.key() == (1047, 1353)
        assert pair.valid and pair.eds_holds

    def test_enumeration_at_higher_precision_contains_cubic_pair(self):
        pairs = {p.key() for p in enumerate_core_root_pairs(PrimePowerModulus(7, 3))}
        lo, hi = cubic_roots_of_unity(PrimePowerModulus(7, 3)).nontrivial
        assert (lo.value, hi.value) in pairs


@given(
    st.sampled_from([3, 5, 7, 13]),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
)
def test_normalization_validity_matches_direct_congruence(p, x, y, z):
    mod = PrimePowerModulus(p, 2)
    if any(v % p == 0 for v in (x, y, z)):
        with pytest.raises(Case2Excluded):
            normalize_flt_triple(x, y, z, mod)
        return
    pair = normalize_flt_triple(x, y, z, mod)
    m = mod.m
    holds = (pow(x, p, m) + pow(y, p, m) - pow(z, p, m)) % m == 0
    assert pair.valid == holds
    assert pair.a.value <= pair.b.value
