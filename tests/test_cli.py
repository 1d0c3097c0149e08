"""Command-line interface: formats, exit codes, scan cache."""

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkarith import groups, kernel, report, triplets
from pkarith.cli import main
from pkarith.errors import CorruptCache
from pkarith.report import envelope, load_scan_cache, row_to_dict, scan_to_dict
from pkarith.residues import PrimePowerModulus
from pkarith.roots import CubicRootTriple, cubic_roots_of_unity


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_paper_core_table_mod_49(self, capsys):
        code, out, _ = run(capsys, "analyze", "7", "2")
        assert code == 0
        assert "43 42 66 24 25 01" in out
        assert "31 30 48 18 19 1" in out
        assert "order 42" in out
        assert "generator 3" in out

    def test_signed_core_table_mod_25(self, capsys):
        code, out, _ = run(capsys, "analyze", "5", "2")
        assert code == 0
        assert "7 -1 -7 1" in out
        assert "no FLT roots mod 25" in out

    def test_signed_core_table_mod_9(self, capsys):
        code, out, _ = run(capsys, "analyze", "3", "2")
        assert code == 0
        assert "-1 1" in out
        assert "no FLT roots mod 9" in out

    def test_default_precision_is_two(self, capsys):
        code, out, _ = run(capsys, "analyze", "7")
        assert code == 0
        assert "m = 49" in out

    def test_rejects_composite(self, capsys):
        code, _, err = run(capsys, "analyze", "4", "2")
        assert code == 2
        assert "odd prime" in err

    def test_rejects_overflow(self, capsys):
        code, _, err = run(capsys, "analyze", "7", "30")
        assert code == 3
        assert "bound" in err

    def test_structured_output_matches_text_numbers(self, capsys):
        code, out, _ = run(capsys, "analyze", "7", "2", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == "pkarith"
        assert doc["command"] == "analyze"
        assert doc["params"] == {"p": 7, "k": 2, "signed": False}
        core = doc["report"]["core"]
        assert [r["dec"] for r in core] == [31, 30, 48, 18, 19, 1]
        assert [r["padic"] for r in core] == ["43", "42", "66", "24", "25", "01"]
        assert [r["signed"] for r in core] == [-18, -19, -1, 18, 19, 1]
        assert doc["report"]["group"]["order"] == 42
        assert "version" in doc

    def test_signed_flag_changes_listings(self, capsys):
        _, plain, _ = run(capsys, "analyze", "7", "2")
        _, signed, _ = run(capsys, "analyze", "7", "2", "--signed")
        assert "(18, 30)" in plain
        assert "(18, -19)" in signed


class TestRoots:
    def test_cubic_pair_listing(self, capsys):
        code, out, _ = run(capsys, "roots", "7", "2")
        assert code == 0
        assert "(18, 30)" in out
        assert "EDS holds" in out
        assert "cubic-root pair" in out

    def test_empty_listing(self, capsys):
        code, out, _ = run(capsys, "roots", "3", "2")
        assert code == 0
        assert "no FLT roots mod 9" in out

    def test_triplet_derived_pairs_at_59(self, capsys):
        code, out, _ = run(capsys, "roots", "59", "2")
        assert code == 0
        for a, b in [(298, 3182), (299, 3181), (805, 2675)]:
            assert f"({a}, {b})" in out
        assert "cubic-root pair" not in out  # 59 is 5 mod 6

    def test_hensel_pair_missing_from_the_enumeration_is_an_error(self, monkeypatch):
        mod = PrimePowerModulus(13, 2)
        one, lo, hi = cubic_roots_of_unity(mod).roots
        forged = CubicRootTriple((one, lo.shift(1), hi), mod)
        monkeypatch.setattr(report, "cubic_roots_of_unity", lambda modulus: forged)
        with pytest.raises(AssertionError, match=r"\(23, 146\) mod 13\^2 is not among"):
            report.build_roots(13, 2)

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "roots", "13", "2", "--format", "structured")
        doc = json.loads(out)
        assert code == 0
        assert [(p["a"]["dec"], p["b"]["dec"]) for p in doc["report"]["pairs"]] == [
            (22, 146)
        ]


class TestCoreTheorem:
    def test_mod_49(self, capsys):
        code, out, _ = run(capsys, "core-theorem", "7", "2")
        assert code == 0
        for d in (2, 3, 6):
            assert f"d = {d}: sum = 0, pass" in out
        assert "all pass" in out

    def test_k1(self, capsys):
        code, out, _ = run(capsys, "core-theorem", "3", "1")
        assert code == 0
        assert "d = 2: sum = 0, pass" in out

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "core-theorem", "13", "3", "--format", "structured")
        doc = json.loads(out)
        assert code == 0
        assert doc["report"]["all_pass"] is True
        assert [c["d"] for c in doc["report"]["checks"]] == [2, 3, 4, 6, 12]


class TestLift:
    def test_lift_to_precision_four(self, capsys):
        code, out, _ = run(capsys, "lift", "7", "2", "4")
        assert code == 0
        assert "1 1047 1353" in out
        assert "zero sum mod 2401: pass" in out
        assert "one-complement a + a^-1 = -1: pass" in out

    def test_lift_from_k1(self, capsys):
        code, out, _ = run(capsys, "lift", "13", "1", "2")
        assert code == 0
        assert "1 22 146" in out

    def test_no_cubic_roots_exits_one(self, capsys):
        code, _, err = run(capsys, "lift", "5", "2", "3")
        assert code == 1
        assert "not 1 mod 6" in err

    def test_downward_lift_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "lift", "7", "3", "2")
        assert code == 2


class TestScan:
    def test_onset_summary(self, capsys):
        code, out, _ = run(capsys, "scan", "3", "100", "2")
        assert code == 0
        assert "first proper triplet at p = 59" in out
        assert "(298, 1106, 805)" in out

    def test_empty_range_summary(self, capsys):
        code, out, _ = run(capsys, "scan", "3", "57", "2")
        assert code == 0
        assert "no proper triplets found" in out

    def test_degenerate_count_line(self, capsys):
        code, out, _ = run(capsys, "scan", "7", "7", "2")
        assert code == 0
        assert "p = 7: no proper triplets, 2 degenerate" in out

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "scan", "3", "60", "2", "--format", "structured")
        doc = json.loads(out)
        assert code == 0
        assert doc["report"]["summary"]["onset_prime"] == 59
        assert doc["report"]["summary"]["first_proper"] == [298, 1106, 805]

    @pytest.mark.parametrize(
        "argv", [("3", "400", "2"), ("3", "300", "5", "--jobs", "2"), ("8", "10", "2")]
    )
    def test_structured_is_the_json_dumps_document_of_its_rows(self, capsys, tmp_path, argv):
        """Records render from a template; the cache holds the same rows,
        so json.dumps of scan_to_dict over them gives the same bytes."""
        cache = tmp_path / "scan.jsonl"
        code, out, _ = run(capsys, "scan", *argv, "--cache", str(cache), "--format", "structured")
        assert code == 0
        rows = sorted(load_scan_cache(cache).values())
        params = json.loads(out)["params"]
        assert out == envelope("scan", params, scan_to_dict(rows))

    def test_overflow_range(self, capsys):
        code, _, err = run(capsys, "scan", "3", "4000000000", "2")
        assert code == 3
        assert "bound" in err

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "scan", "10", "3", "2")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "3", "5", "1000000000"),
            ("analyze", "3", "1000000000"),
            ("lift", "7", "2", "1000000000"),
        ],
    )
    def test_huge_precision_overflows_at_once(self, capsys, argv):
        # rejected before 3^(10^9), a 1.6-gigabit integer, is formed
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "bound" in err


class TestWieferichPrimes:
    """Known answers from the FLT case-1 literature. Wieferich (1909):
    case 1 can fail for p only if 2^(p-1) = 1 mod p^2, which says 2 is in
    the core mod p^2. Then 1 is in S, and the lead core triplet mod
    m = p^2 is (1, (m-1)/2, m-2): the chain 1 -> -1/2 -> -2 -> 1. The two
    such primes known, 1093 (Meissner 1913) and 3511 (Beeger 1922), have
    2^(p-1) != 1 mod p^3, so at k = 3 the triplet is gone."""

    @pytest.mark.parametrize(
        "p, proper, first",
        [(1093, 5, (1, 597324, 1194647)), (3511, 1, (1, 6163560, 12327119))],
    )
    def test_scan_at_k2_leads_with_one(self, capsys, p, proper, first):
        m = p * p
        assert pow(2, p - 1, m) == 1
        assert first == (1, (m - 1) // 2, m - 2)
        code, out, err = run(capsys, "scan", str(p), str(p), "2")
        assert (code, err) == (0, "")
        assert out == (
            f"  p = {p}: {proper} proper triplets, 2 degenerate; first {first}\n"
            f"summary: first proper triplet at p = {p}: {first}\n"
        )

    @pytest.mark.parametrize("p", [1093, 3511])
    def test_scan_at_k3_has_no_proper_triplet(self, capsys, p):
        assert pow(2, p - 1, p**3) != 1
        code, out, err = run(capsys, "scan", str(p), str(p), "3")
        assert (code, err) == (0, "")
        assert out == (
            f"  p = {p}: no proper triplets, 2 degenerate\nsummary: no proper triplets found\n"
        )

    @pytest.mark.parametrize("p", [1093, 3511])
    def test_roots_lists_the_pair_of_one(self, capsys, p):
        code, out, _ = run(capsys, "roots", str(p), "2")
        assert code == 0
        assert out.splitlines()[1].startswith(f"  (1, {p * p - 2})  ")


class TestTableBudget:
    @pytest.mark.parametrize(
        "argv",
        [("scan", "3", "200", "2", "--jobs", "2"), ("analyze", "199", "2"), ("roots", "199")],
    )
    def test_over_budget_exits_three_naming_p_bytes_and_budget(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("PKARITH_CACHE", raising=False)
        monkeypatch.setattr(triplets, "TABLE_BUDGET", 1_000)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "p = 199 needs 1592 bytes" in err
        assert "1000-byte budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "199", "2"),
            ("analyze", "199", "1"),
            ("analyze", "199", "3"),
            ("core-theorem", "199"),
        ],
    )
    def test_core_walk_over_budget_exits_three_before_any_walk(self, capsys, monkeypatch, argv):
        def must_not_run(*args):
            raise AssertionError(f"a walk started: {args}")

        # room for the kernel's 8-byte table, not for the Python core walk
        monkeypatch.setattr(triplets, "TABLE_BUDGET", 8 * 199)
        monkeypatch.setattr(kernel, "scan_core_triplets", must_not_run)
        monkeypatch.setattr(groups, "core_project", must_not_run)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        need = groups.CORE_ELEMENT_BYTES * 199
        assert f"the core walk for p = 199 needs {need} bytes, over the 1592-byte budget" in err

    def test_roots_runs_no_core_walk(self, capsys, monkeypatch):
        _, expected, _ = run(capsys, "roots", "199", "2")

        def must_not_run(*args):
            raise AssertionError(f"a core walk started: {args}")

        monkeypatch.setattr(groups, "core_project", must_not_run)
        code, out, _ = run(capsys, "roots", "199", "2")
        assert code == 0
        assert out == expected

    def test_cached_primes_need_no_table(self, capsys, monkeypatch, tmp_path):
        cache = str(tmp_path / "scan.jsonl")
        code, cold, _ = run(capsys, "scan", "3", "200", "2", "--cache", cache)
        assert code == 0
        monkeypatch.setattr(triplets, "TABLE_BUDGET", 1_000)
        code, warm, _ = run(capsys, "scan", "3", "200", "2", "--cache", cache)
        assert code == 0
        assert warm == cold


class TestScanCache:
    def test_cache_populated_then_skipped(self, capsys, tmp_path):
        cache = tmp_path / "scan.jsonl"
        code, first, _ = run(capsys, "scan", "3", "60", "2", "--cache", str(cache))
        assert code == 0
        lines = cache.read_text().strip().splitlines()
        assert len(lines) == 16  # primes in [3, 60]
        mtime = cache.stat().st_mtime_ns

        code, second, _ = run(capsys, "scan", "3", "60", "2", "--cache", str(cache))
        assert code == 0
        assert second == first  # identical summary without recomputation
        assert cache.stat().st_mtime_ns == mtime  # nothing appended

    def test_force_recomputes(self, capsys, tmp_path):
        cache = tmp_path / "scan.jsonl"
        run(capsys, "scan", "3", "30", "2", "--cache", str(cache))
        before = len(cache.read_text().strip().splitlines())
        run(capsys, "scan", "3", "30", "2", "--cache", str(cache), "--force")
        after = len(cache.read_text().strip().splitlines())
        assert after == 2 * before

    def test_partial_overlap_appends_only_new(self, capsys, tmp_path):
        cache = tmp_path / "scan.jsonl"
        run(capsys, "scan", "3", "30", "2", "--cache", str(cache))
        before = len(cache.read_text().strip().splitlines())
        code, out, _ = run(capsys, "scan", "3", "60", "2", "--cache", str(cache))
        assert code == 0
        assert "p = 59" in out
        after = len(cache.read_text().strip().splitlines())
        assert after == 16
        assert after > before

    def test_env_var_names_default_cache(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "from_env.jsonl"
        monkeypatch.setenv("PKARITH_CACHE", str(cache))
        code, _, _ = run(capsys, "scan", "3", "20", "2")
        assert code == 0
        assert cache.exists()

    def test_unwritable_cache_exits_four(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a plain file\n")
        cache = blocker / "sub" / "scan.jsonl"
        code, _, err = run(capsys, "scan", "3", "20", "2", "--cache", str(cache))
        assert code == 4
        assert err

    def test_corrupt_cache_exits_four(self, capsys, tmp_path):
        cache = tmp_path / "scan.jsonl"
        cache.write_text("this is not a record\n")
        code, _, err = run(capsys, "scan", "3", "20", "2", "--cache", str(cache))
        assert code == 4
        assert "cache" in err

    @pytest.mark.parametrize(
        "line",
        [
            b'{"p": 59, "degenerate_count": 0, "proper_triplet_count": 0, "first_proper": null}',
            b'{"p": 9, "k": 2, "degenerate_count": 0, "proper_triplet_count": 4, '
            b'"first_proper": [298, 1106, 805]}',
            b'{"p": 59, "k": 2, "degenerate_count": 0, "proper_triplet_count": 4, '
            b'"first_proper": [298, 1106]}',
            b"[1, 2]",
            b'{"p": 59, "k": 2, "degenerate_count": 0, "proper_triplet_count": 1, '
            b'"first_proper": [1, 2, 3]}',
            b'{"p": 59, "k": 2, "degenerate_count": 0, "proper_triplet_count": 4, '
            b'"first_proper": [2, 1160, 1739]}',
            b"\xff\xfe\x00not utf-8",
            b'{"p": 53, "k": 2, "degenerate_count": 0, "proper_triplet_count": 0, '
            b'"first_proper": null, "elapsed": NaN}',
            b'{"p": 53, "k": 2, "degenerate_count": 0, "proper_triplet_count": 0, '
            b'"first_proper": null, "elapsed": Infinity}',
            b'{"p": 53, "k": 2, "degenerate_count": 0, "proper_triplet_count": 0, '
            b'"first_proper": null, "elapsed": -0.5}',
            b'{"p": 53, "k": 2, "degenerate_count": 0, "proper_triplet_count": 0, '
            b'"first_proper": null, "elapsed": 1e+400}',
            b'{"p": 10000000000000000001, "k": 2, "degenerate_count": 0, '
            b'"proper_triplet_count": 0, "first_proper": null, "elapsed": 0.0}',
            b'{"p": ' + b"9" * 5000 + b', "k": 2, "degenerate_count": 0, '
            b'"proper_triplet_count": 0, "first_proper": null, "elapsed": 0.0}',
            b'{"p": 61, "k": 2, "degenerate_count": 0, "proper_triplet_count": 0, '
            b'"first_proper": null, "elapsed": 0.0}',
            b'{"p": 59, "k": 2, "degenerate_count": 2, "proper_triplet_count": 4, '
            b'"first_proper": [298, 1106, 805], "elapsed": 0.0}',
            b'{"p": 59, "k": 2, "degenerate_count": 0, "proper_triplet_count": -4, '
            b'"first_proper": [298, 1106, 805], "elapsed": 0.0}',
        ],
        ids=[
            "no-k",
            "p-9",
            "two-members",
            "bare-list",
            "forged-triplet",
            "non-core-cycle",
            "undecodable",
            "elapsed-nan",
            "elapsed-infinity",
            "elapsed-negative",
            "elapsed-overflow",
            "p-20-digits",
            "p-5000-digits",
            "no-cubic-roots-at-1-mod-6",
            "cubic-roots-at-5-mod-6",
            "proper-negative",
        ],
    )
    def test_bad_record_exits_four_naming_its_line(self, capsys, tmp_path, line):
        cache = tmp_path / "scan.jsonl"
        good = b'{"p": 53, "k": 2, "degenerate_count": 0, "proper_triplet_count": 0, '
        good += b'"first_proper": null, "elapsed": 0.0}'
        cache.write_bytes(good + b"\n" + line + b"\n")
        code, out, err = run(capsys, "scan", "53", "59", "2", "--cache", str(cache))
        assert code == 4
        assert out == ""
        assert err.startswith("error: corrupt cache file: line 2 of ")

    def test_append_after_a_last_line_with_no_newline(self, capsys, tmp_path):
        cache = tmp_path / "scan.jsonl"
        run(capsys, "scan", "53", "59", "2", "--cache", str(cache))
        cache.write_bytes(cache.read_bytes().rstrip(b"\n"))
        code, _, _ = run(capsys, "scan", "3", "30", "2", "--cache", str(cache))
        assert code == 0
        lines = cache.read_bytes().splitlines()
        assert len(lines) == 11  # 53, 59, then the nine primes in [3, 30]
        assert all(json.loads(line) for line in lines)
        code, warm, err = run(capsys, "scan", "3", "60", "2", "--cache", str(cache))
        assert (code, err) == (0, "")
        code, cold, _ = run(capsys, "scan", "3", "60", "2")
        assert warm == cold

    def test_program_written_cache_is_read_in_one_pass(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "scan.jsonl"
        code, cold, _ = run(capsys, "scan", "3", "200", "2", "--cache", str(cache))
        assert code == 0
        expected = report._read_cache_lines(cache)

        def must_not_run(path):
            raise AssertionError("the per-line reader ran on a program-written cache")

        monkeypatch.setattr(report, "_read_cache_lines", must_not_run)
        assert repr(load_scan_cache(cache)) == repr(expected)
        code, warm, _ = run(capsys, "scan", "3", "200", "2", "--cache", str(cache))
        assert code == 0
        assert warm == cold

    def test_different_precision_not_served_from_cache(self, capsys, tmp_path):
        cache = tmp_path / "scan.jsonl"
        run(capsys, "scan", "59", "59", "2", "--cache", str(cache))
        code, out, _ = run(capsys, "scan", "59", "59", "3", "--cache", str(cache))
        assert code == 0
        assert "no proper triplets" in out  # k=3 result, not the cached k=2 one


# --- fuzzed cache lines -----------------------------------------------------

CACHE_KEYS = ("p", "k", "degenerate_count", "proper_triplet_count", "first_proper", "elapsed")
LINE_ONE = {
    "p": 53,
    "k": 2,
    "degenerate_count": 0,
    "proper_triplet_count": 0,
    "first_proper": None,
    "elapsed": 0.0,
}
RECORD_59 = {**LINE_ONE, "p": 59, "proper_triplet_count": 4, "first_proper": [298, 1106, 805]}
# every canonical proper core triplet mod 59^2
TRIPLETS_59 = [[298, 1106, 805], [299, 1404, 1105], [2076, 3181, 2375], [2374, 3182, 2675]]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)
# per key, values of the right JSON type, in range or just out of it
typed_values = {
    "p": st.integers(-3, 100),
    "k": st.integers(-1, 70),
    "degenerate_count": st.integers(-2, 5),
    "proper_triplet_count": st.integers(-2, 5),
    "first_proper": st.none()
    | st.sampled_from(TRIPLETS_59 + [t[1:] + t[:1] for t in TRIPLETS_59])
    | st.lists(st.integers(-1, 3_500), max_size=4),
    "elapsed": st.sampled_from([math.nan, math.inf, -math.inf, -1e-9])
    | st.floats()
    | st.integers(-2, 10**20),
}


@st.composite
def mutated_records(draw) -> dict:
    """A valid record with one or two fields deleted or replaced."""
    doc = dict(draw(st.sampled_from([LINE_ONE, RECORD_59])))
    for key in draw(st.sets(st.sampled_from(CACHE_KEYS), min_size=1, max_size=2)):
        action = draw(st.sampled_from(["delete", "typed", "any"]))
        if action == "delete":
            del doc[key]
        else:
            doc[key] = draw(typed_values[key] if action == "typed" else json_values)
    return doc


cache_lines = st.one_of(
    json_values.map(lambda value: json.dumps(value).encode()),
    mutated_records().map(lambda doc: json.dumps(doc).encode()),
    st.binary(max_size=40).map(lambda raw: raw.replace(b"\n", b"")),
)


@settings(max_examples=200, deadline=None)
@given(cache_lines)
def test_fuzzed_cache_line_is_served_exactly_or_named(line):
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "scan.jsonl"
        cache.write_bytes(json.dumps(LINE_ONE).encode() + b"\n" + line + b"\n")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            argv = ["scan", "53", "59", "2", "--format", "structured", "--cache", str(cache)]
            code = main(argv)
    if code == 4:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: corrupt cache file: line 2 of ")
        return
    assert code == 0
    served = {(53, 2): LINE_ONE}
    if line.strip():
        doc = json.loads(line.decode())
        served[doc["p"], doc["k"]] = doc
        if (doc["p"], doc["k"]) == (59, 2) and doc.get("first_proper") is not None:
            assert doc["first_proper"] in TRIPLETS_59
    # strict JSON: NaN and Infinity are not JSON numbers
    report = json.loads(out.getvalue(), parse_constant=pytest.fail)["report"]
    for record in report["records"]:
        doc = served.get((record["p"], 2))
        if doc is None:  # computed afresh
            del record["elapsed"]
            fresh = row_to_dict(tuple(RECORD_59.values()))
            del fresh["elapsed"]
            assert record == fresh
            continue
        row = [doc[key] for key in CACHE_KEYS[:4]]
        row += [doc.get("first_proper"), doc.get("elapsed", 0.0)]
        assert record == row_to_dict(row)


# --- the one-pass reader against the per-line reader -------------------------

# a real first triplet at each of these moduli
REAL_FIRSTS = [(p, 2, list(kernel.scan_core_triplets(p, 2)[1][0])) for p in (59, 79, 83)]


def _base_for(k: int) -> int:
    """The largest p with p^k below 2^63 (3 for a k outside [1, 62])."""
    if not 1 <= k < 63:
        return 3
    p = int(2 ** (63 / k)) + 2
    while p**k >= 1 << 63:
        p -= 1
    return p


@st.composite
def valid_rows(draw) -> tuple:
    """A row that passes every check, with elapsed in each form repr gives
    it (p = 9 passes: a cache row's p is not re-tested for primality), and
    the two cubic roots of 1 as its degenerate count exactly when p = 1 mod 6."""
    if draw(st.booleans()):
        p, k, first = draw(st.sampled_from(REAL_FIRSTS))
        proper = draw(st.integers(1, 10**6))
    else:
        k = draw(st.integers(2, 39))  # 3^39 < 2^63 < 3^40
        top = _base_for(k)
        p = draw(st.integers(3, min(top, 10**6)) | st.integers(max(3, top - 4), top))
        p -= 1 - p % 2  # odd, still >= 3
        first, proper = None, 0
    elapsed = draw(
        st.sampled_from([0.0, 1e-06, 3.6e-05, 0.5, 123.456789, 9999999999999998.0, 1e16])
        | st.floats(0, 1e16)
    )
    return (p, k, 2 if p % 6 == 1 else 0, proper, first, elapsed)


@st.composite
def off_rows(draw) -> tuple:
    """A valid row with one field the checks reject, or that the writer
    never writes (an integer elapsed, which JSON reads as an int)."""
    p, k, degenerate, proper, first, elapsed = draw(valid_rows())
    field = draw(st.sampled_from(["p", "k", "proper", "first", "elapsed"]))
    if field == "p":
        p = draw(st.sampled_from([1, 4, 58, _base_for(k) + 2, 10**19 + 1]))
    elif field == "k":
        k = draw(st.sampled_from([0, 1, 63, 64, k + 30]))
    elif field == "proper":
        proper, first = (0, first) if first else (1, None)
    elif field == "first":
        forged = [first[1:] + first[:1], [1, 2, 3], [0, 1, 2]] if first else [[1, 2, 3]]
        first, proper = draw(st.sampled_from(forged)), max(proper, 1)
    else:
        elapsed = draw(st.sampled_from([-0.0, -0.5, math.inf, math.nan]) | st.integers(0, 10**6))
    return (p, k, degenerate, proper, first, elapsed)


def _compact_line(row) -> bytes:
    """A valid JSON form of the row's document that the writer never makes."""
    return json.dumps(row_to_dict(row), separators=(",", ":")).encode() + b"\n"


# a file as a list of parts: rows appended by the writer, a raw line, or
# one writer-made line with \r\n or with no newline
any_rows = valid_rows() | off_rows()
file_parts = st.one_of(
    st.lists(valid_rows(), min_size=1, max_size=8).map(lambda rows: [("rows", rows)]),
    st.tuples(
        st.lists(valid_rows(), max_size=4), off_rows(), st.lists(valid_rows(), max_size=4)
    ).map(lambda rows: [("rows", rows[0] + [rows[1]] + rows[2])]),
    st.lists(
        st.one_of(
            st.tuples(st.just("rows"), st.lists(any_rows, min_size=1, max_size=3)),
            st.tuples(st.just("raw"), cache_lines.map(lambda line: line + b"\n")),
            st.tuples(st.just("raw"), any_rows.map(_compact_line)),
            st.tuples(st.just("raw"), st.sampled_from([b"\n", b"  \n", b"\r\n"])),
            st.tuples(st.sampled_from(["crlf", "cut"]), any_rows),
        ),
        min_size=1,
        max_size=6,
    ),
)


def _read_both(path: Path) -> list[str]:
    """What each reader makes of the file: its rows, or its error message."""
    results = []
    for read in (load_scan_cache, report._read_cache_lines):
        try:
            results.append(repr(read(path)))
        except CorruptCache as exc:
            results.append(f"CorruptCache: {exc}")
    return results


@settings(max_examples=300, deadline=None)
@given(file_parts)
def test_one_pass_reader_agrees_with_the_per_line_reader(parts):
    """Both readers return dicts whose rows are repr-identical, or both
    raise CorruptCache with the same message."""
    with tempfile.TemporaryDirectory() as tmp:
        path, one = Path(tmp) / "scan.jsonl", Path(tmp) / "one.jsonl"
        for kind, value in parts:
            if kind == "rows":
                report.append_scan_cache(path, value)
                continue
            if kind != "raw":
                one.unlink(missing_ok=True)
                report.append_scan_cache(one, [value])
                value = one.read_bytes()
                value = value.replace(b"\n", b"\r\n") if kind == "crlf" else value[:-1]
            with path.open("ab") as handle:
                handle.write(value)
        fast, reference = _read_both(path)
    assert fast == reference


# one row per check of _check_rows that the writer's form can fail, and
# an integer elapsed, which only the per-line reader reads
OFF_ROWS = {
    "p-1": (1, 2, 0, 0, None, 0.5),
    "p-1-with-cubic-roots": (1, 2, 2, 0, None, 0.5),  # 1 = 1 mod 6
    "p-even": (4, 2, 0, 0, None, 0.5),
    "k-1": (59, 1, 0, 0, None, 0.5),
    "k-63": (3, 63, 0, 0, None, 0.5),
    "3^40": (3, 40, 0, 0, None, 0.5),
    "over-bound": (3037000501, 2, 0, 0, None, 0.5),
    "no-cubic-roots-at-1-mod-6": (61, 2, 0, 0, None, 0.5),
    "cubic-roots-at-5-mod-6": (59, 2, 2, 0, None, 0.5),
    "proper-null": (59, 2, 0, 4, None, 0.5),
    "first-no-proper": (59, 2, 0, 0, REAL_FIRSTS[0][2], 0.5),
    "forged-triplet": (59, 2, 0, 4, [1, 2, 3], 0.5),
    "rotated": (59, 2, 0, 4, REAL_FIRSTS[0][2][1:] + REAL_FIRSTS[0][2][:1], 0.5),
    "non-core-cycle": (59, 2, 0, 4, [2, 1160, 1739], 0.5),
    "elapsed-negative": (59, 2, 0, 0, None, -0.5),
    "elapsed-inf": (59, 2, 0, 0, None, math.inf),
    "elapsed-nan": (59, 2, 0, 0, None, math.nan),
    "elapsed-int": (59, 2, 0, 0, None, 5),
}


@pytest.mark.parametrize("row", list(OFF_ROWS.values()), ids=list(OFF_ROWS))
def test_one_pass_reader_defers_each_failed_check(tmp_path, row):
    path = tmp_path / "scan.jsonl"
    report.append_scan_cache(path, [(53, 2, 0, 0, None, 0.0), row, (61, 2, 2, 0, None, 0.0)])
    fast, reference = _read_both(path)
    assert fast == reference
    if type(row[5]) is int:
        assert fast.endswith("(59, 2, 0, 0, None, 5), (61, 2): (61, 2, 2, 0, None, 0.0)}")
    else:
        assert fast.startswith(f"CorruptCache: line 2 of {path}: ")


class TestParser:
    def test_missing_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_jobs_flag(self, capsys):
        code, out, _ = run(capsys, "scan", "3", "100", "2", "--jobs", "3")
        assert code == 0
        assert "first proper triplet at p = 59" in out

    def test_bad_jobs_value(self, capsys):
        code, _, _ = run(capsys, "scan", "3", "100", "2", "--jobs", "0")
        assert code == 2
