"""Scan kernels: backend parity and the FLT-pair-set invariants.

The compiled kernel is built from src/pkarith/_kernel.c into a temporary
directory whenever a C compiler exists, so these tests never depend on
an earlier build; they skip only when no compiler is found. Under gcc or
clang the build adds -Wall -Werror, so C code with a warning fails here.
"""

import importlib.util
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pkarith import _kernel_py, kernel
from pkarith.cli import main
from pkarith.groups import core_elements
from pkarith.kernel import BACKEND
from pkarith.primes import odd_primes_in
from pkarith.residues import PrimePowerModulus
from pkarith.roots import _pair_from_values, enumerate_core_root_pairs

KERNEL_SOURCE = Path(__file__).resolve().parents[1] / "src" / "pkarith" / "_kernel.c"

SMALL_PRIMES = list(odd_primes_in(3, 300))
# largest primes whose 4th and 5th powers stay below the 2^63 modulus bound
TOP_K4, TOP_K5 = 55_103, 6_203


def _c_compiler():
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(shlex.split(cc)[0])


def _warning_flags(cc_path):
    """-Wall -Werror when the compiler says it is gcc or clang, else none."""
    version = subprocess.run([cc_path, "--version"], capture_output=True, text=True).stdout
    known = re.search(r"gcc|clang|Free Software Foundation", version, re.IGNORECASE)
    return ["-Wall", "-Werror"] if known else []


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """pkarith._kernel built from the committed C source and loaded."""
    cc_path = _c_compiler()
    if cc_path is None:
        return pytest.importorskip(
            "pkarith._kernel",
            reason="no C compiler found (CC or sysconfig CC) to build the "
            "compiled kernel, and none is installed",
        )
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tmp_path_factory.mktemp("kernel_build")
    ext = Extension(
        "pkarith._kernel", [str(KERNEL_SOURCE)], extra_compile_args=_warning_flags(cc_path)
    )
    dist = Distribution({"ext_modules": [ext]})
    cmd = build_ext(dist)
    cmd.build_lib = str(out / "lib")
    cmd.build_temp = str(out / "temp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        "pkarith._kernel", cmd.get_ext_fullpath("pkarith._kernel")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- brute-force oracle: walks the whole core ------------------------------


def oracle_core(p, k):
    """The core as the image of core projection x -> x^(p^(k-1))."""
    m = p**k
    return m, {pow(x, p ** (k - 1), m) for x in range(1, p)}


def oracle_t(a, m):
    return m - pow(a + 1, -1, m)


def oracle_orbits(p, k):
    """(fixed, triplets) by testing every core element, as a full scan would."""
    m, core = oracle_core(p, k)
    fixed, triplets = [], []
    for a in core:
        if (a + 1) % p == 0:
            continue
        b = oracle_t(a, m)
        if b not in core:
            continue
        if b == a:
            fixed.append(a)
            continue
        c = oracle_t(b, m)
        if c in core and a < b and a < c:
            triplets.append((a, b, c))
    return sorted(fixed), sorted(triplets)


moduli = st.tuples(st.sampled_from(SMALL_PRIMES), st.integers(2, 5))


# --- pure kernel invariants ------------------------------------------------


@given(moduli)
def test_pair_set_matches_oracle_and_is_closed_under_t(pk):
    p, k = pk
    m, core = oracle_core(p, k)
    m_table, by_class = _kernel_py.core_table(p, k)
    assert m_table == m
    assert set(by_class[1:]) == core
    pairs = _kernel_py.pair_members(by_class)
    assert set(pairs) == {a for a in core if a + 1 in core}
    assert {oracle_t(a, m) for a in pairs} == set(pairs)


@given(moduli)
def test_core_table_mirrors_each_class_by_minus_one(pk):
    # the half walk fills class p - r with m - by_class[r]: -1 is in the core
    p, k = pk
    m, by_class = _kernel_py.core_table(p, k)
    assert all(by_class[p - r] == m - by_class[r] for r in range(1, p))


@given(moduli)
def test_pair_set_size_is_three_per_triplet_plus_fixed(pk):
    p, k = pk
    _, by_class = _kernel_py.core_table(p, k)
    fixed, triplets = _kernel_py.scan_core_triplets(p, k)
    assert len(_kernel_py.pair_members(by_class)) == 3 * len(triplets) + len(fixed)
    assert (fixed, triplets) == oracle_orbits(p, k)


@given(moduli, st.data())
def test_t_leaving_the_core_raises(pk, data):
    # forge a table in which a non-core a and a + 1 pose as a pair
    p, k = pk
    m, by_class = _kernel_py.core_table(p, k)
    r = data.draw(st.integers(1, p - 2), label="class")
    j = data.draw(st.integers(1, p ** (k - 1) - 1), label="offset")
    a = (by_class[r] + j * p) % m
    by_class[r], by_class[r + 1] = a, a + 1
    b = oracle_t(a, m)
    assume(by_class[b % p] != b)
    with pytest.raises(AssertionError, match="left the core"):
        _kernel_py.pair_orbits(p, m, by_class)


@pytest.mark.parametrize("k", [2, 3])
def test_oracle_orbits_show_the_inverse_symmetry(k):
    """The symmetry of test_orbits_show_the_inverse_symmetry, read from the
    brute-force oracle alone, so that no kernel vouches for itself: two
    fixed points exactly when p = 1 mod 6, an odd proper count exactly
    when 2^(p-1) = 1 mod p^k, and the orbit members S closed under
    a -> 1/a."""
    for p in odd_primes_in(3, 200):
        m = p**k
        fixed, triplets = oracle_orbits(p, k)
        assert len(fixed) == (2 if p % 6 == 1 else 0), p
        assert len(triplets) % 2 == (pow(2, p - 1, m) == 1), p
        members = set(orbit_members(fixed, triplets))
        assert {pow(a, -1, m) for a in members} == members, p


# --- compiled kernel -------------------------------------------------------


def test_backend_name_is_known():
    assert BACKEND in ("compiled", "pure")


def test_backends_agree_at_k2(compiled):
    # the compiled kernel's four chains take ceil((p - 1) / 8) steps each,
    # one step apiece for p = 3, 5 and 7, and overrun the half walk of
    # (p - 1) / 2 steps for every p that is not 1 mod 8, rewriting mirror
    # entries; keep the range starting at 3 and reaching past 7
    primes = list(odd_primes_in(3, 2000))
    mismatched = [
        p
        for p in primes
        if compiled.scan_core_triplets(p, 2) != _kernel_py.scan_core_triplets(p, 2)
    ]
    assert mismatched == []


@pytest.mark.parametrize(
    "p,k",
    [(7, 3), (7, 4), (13, 3), (59, 3), (101, 3), (TOP_K4, 4)]
    + [(p, 5) for p in (3, 5, 7, 31, 59, 211, 1999, TOP_K5)]
    # m just below and just above 2^32, and m above 2^62, where the
    # compiled kernel's Montgomery sum comes nearest 2^128
    + [(65_521, 2), (65_537, 2), (2_097_143, 3)],
)
def test_backends_agree_at_higher_precision(compiled, p, k):
    assert compiled.scan_core_triplets(p, k) == _kernel_py.scan_core_triplets(p, k)


@given(st.sampled_from(list(odd_primes_in(2_000, 10**5))))
def test_backends_agree_on_random_primes(compiled, p):
    assert compiled.scan_core_triplets(p, 2) == _kernel_py.scan_core_triplets(p, 2)


@given(moduli)
def test_compiled_matches_oracle(compiled, pk):
    assert compiled.scan_core_triplets(*pk) == oracle_orbits(*pk)


@settings(deadline=None)
@example((1093, 2))
@example((1093, 3))
@example((3511, 2))
@example((3511, 3))
@given(
    st.tuples(st.sampled_from(list(odd_primes_in(3, 3_000))), st.just(2))
    | st.tuples(st.sampled_from(list(odd_primes_in(3, 400))), st.integers(3, 5))
)
def test_orbits_show_the_inverse_symmetry(compiled, pk):
    """Both kernels' orbits against the symmetry of S under a -> 1/a:
    - the fixed points of t are the two nontrivial cubic roots of 1, in
      the core exactly when p = 1 mod 6;
    - a -> 1/a maps the 3-cycle (a, b, c) to the 3-cycle (1/a, 1/c, 1/b);
    - it fixes no 3-cycle but (1, -1/2, -2), which lies in S exactly when
      2 = 1 + 1 is in the core, that is when 2^(p-1) = 1 mod p^k; so the
      proper count is odd exactly then (at k = 2, the Wieferich primes
      1093 and 3511)."""
    p, k = pk
    m = p**k
    for backend in (_kernel_py, compiled):
        fixed, triplets = backend.scan_core_triplets(p, k)
        assert len(fixed) == (2 if p % 6 == 1 else 0)
        assert len(triplets) % 2 == (pow(2, p - 1, m) == 1)
        cycles = set(triplets)
        for a, b, c in triplets:
            ia, ib, ic = pow(a, -1, m), pow(b, -1, m), pow(c, -1, m)
            assert min((ia, ic, ib), (ic, ib, ia), (ib, ia, ic)) in cycles


def test_compiled_matches_known_onset(compiled):
    fixed, triplets = compiled.scan_core_triplets(59, 2)
    assert fixed == []
    assert triplets == [
        (298, 1106, 805),
        (299, 1404, 1105),
        (2076, 3181, 2375),
        (2374, 3182, 2675),
    ]


# 40487 is the one prime below 2 * 10^5 whose smallest primitive root, 5,
# has 5^(p-1) = 1 mod p^2: 5 generates mod p but not mod p^2, and still
# gives the core generator 5^(p^(k-1)), which depends only on 5 mod p
NON_LIFTING_PRIME = 40_487


@pytest.mark.parametrize("k", [2, 3])
def test_root_that_fails_mod_p2_gives_the_core(compiled, k):
    p = NON_LIFTING_PRIME
    assert pow(5, p - 1, p * p) == 1
    m, by_class = _kernel_py.core_table(p, k)
    assert all(by_class[r] == pow(r, p ** (k - 1), m) for r in range(1, p))
    expected = oracle_orbits(p, k)
    assert _kernel_py.scan_core_triplets(p, k) == expected
    assert compiled.scan_core_triplets(p, k) == expected


def fermat_pair_members(p):
    """S mod p^2, sorted, from the Fermat quotients q(r) = (r^(p-1) - 1) / p
    (Lerch 1905), with no primitive root and no walk: r^p = r (1 + p q(r))
    mod p^2, so the core element of class r is r + p (r q(r) mod p), and it
    lies in S exactly when class r + 1 has the same digit r q(r) mod p."""
    m = p * p
    digit = [(r * (pow(r, p - 1, m) - 1) // p) % p for r in range(p)]
    return sorted(r + p * digit[r] for r in range(1, p - 1) if digit[r + 1] == digit[r])


def orbit_members(fixed, triplets):
    return sorted(set(fixed).union(*triplets))


@settings(max_examples=3, deadline=None)
@example(1093)
@example(3511)
@example(NON_LIFTING_PRIME)
@given(st.sampled_from(list(odd_primes_in(10**4, 2 * 10**5))))
def test_fermat_quotient_oracle_gives_the_pair_set(compiled, p):
    members = fermat_pair_members(p)
    m, by_class = _kernel_py.core_table(p, 2)
    assert sorted(_kernel_py.pair_members(by_class)) == members
    assert orbit_members(*_kernel_py.pair_orbits(p, m, by_class)) == members
    assert orbit_members(*compiled.scan_core_triplets(p, 2)) == members


def assert_rejects_bad_moduli(backend):
    with pytest.raises(OverflowError, match=r"^6209\^5 exceeds 2\^63$"):
        backend.scan_core_triplets(6_209, 5)  # 6209^5 > 2^63
    with pytest.raises(OverflowError, match=r"^3\^40 exceeds 2\^63$"):
        backend.scan_core_triplets(3, 40)
    for p, k in ((2, 2), (1, 2), (7, 0)):
        with pytest.raises(ValueError, match="^need p >= 3 and k >= 1$"):
            backend.scan_core_triplets(p, k)
    with pytest.raises(ValueError, match="^4 is not prime"):
        backend.scan_core_triplets(4, 2)  # an even modulus has no Montgomery form
    for p in ODD_COMPOSITES:
        with pytest.raises(ValueError, match=f"^{p} is not prime"):
            backend.scan_core_triplets(p, 2)


def test_compiled_rejects_bad_moduli(compiled):
    assert_rejects_bad_moduli(compiled)


def test_pure_kernel_rejects_bad_moduli():
    assert_rejects_bad_moduli(_kernel_py)


# --- FLT root pairs read from S ----------------------------------------------


def reference_core_root_pairs(modulus):
    """The pairs a + b = -1 by complement lookup over the Python core walk,
    without the kernel, sorted by key."""
    m = modulus.m
    core = [n.value for n in core_elements(modulus)]
    core_set = set(core)
    keys = sorted((a, m - 1 - a) for a in core if m - 1 - a in core_set and a <= m - 1 - a)
    return [_pair_from_values(a, b, modulus) for a, b in keys]


def pairs_on(backend, modulus):
    """enumerate_core_root_pairs with backend as the scan kernel."""
    saved = kernel.scan_core_triplets
    kernel.scan_core_triplets = backend.scan_core_triplets
    try:
        return enumerate_core_root_pairs(modulus)
    finally:
        kernel.scan_core_triplets = saved


pair_moduli = st.tuples(st.sampled_from(SMALL_PRIMES), st.integers(1, 4))


@given(pair_moduli)
def test_pure_kernel_pairs_match_the_core_walk(pk):
    modulus = PrimePowerModulus(*pk)
    assert pairs_on(_kernel_py, modulus) == reference_core_root_pairs(modulus)


@given(pair_moduli)
def test_compiled_kernel_pairs_match_the_core_walk(compiled, pk):
    modulus = PrimePowerModulus(*pk)
    assert pairs_on(compiled, modulus) == reference_core_root_pairs(modulus)


# 561 is a Carmichael number: every unit passes Fermat's test mod 561
ODD_COMPOSITES = (9, 15, 21, 25, 91, 561)


@pytest.mark.parametrize("p", ODD_COMPOSITES)
def test_pure_kernel_rejects_odd_composites(p):
    with pytest.raises(ValueError, match=f"^{p} is not prime"):
        _kernel_py.scan_core_triplets(p, 2)


@pytest.mark.parametrize(
    "argv",
    [
        # structured scan output carries timings, so scans compare as text
        ("scan", "3", "400", "2"),
        ("scan", "3", "60", "3", "--signed"),
        ("analyze", "59", "2"),
        ("analyze", "61", "3", "--format", "structured", "--signed"),
    ],
)
def test_cli_output_is_identical_on_both_backends(compiled, monkeypatch, capsys, argv):
    monkeypatch.delenv("PKARITH_CACHE", raising=False)
    outputs = []
    for backend in (_kernel_py, compiled):
        monkeypatch.setattr(kernel, "scan_core_triplets", backend.scan_core_triplets)
        assert main(list(argv)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_pure_env_var_forces_fallback():
    env = dict(os.environ, PKARITH_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", "import pkarith; print(pkarith.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "pure"
