"""Report assembly and rendering, plus the scan cache.

Every residue appears in three coordinated forms: decimal, fixed-width
base-p digits, and the balanced signed representative. Text and
structured (JSON) renderings carry the same numeric content. The scan
cache is an append-only JSONL file keyed by (p, k). Reading it checks
every line into a plain row of integers, in triplets.ScanRow's field
order. The scan renderings and the cache writer work on those rows as
they are, cached or fresh: no modulus, residue or record is built
anywhere on the scan path. json is imported only where it is used, by
structured output and the per-line cache reader, so a text command on a
cache the program wrote never loads it.
"""

import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ._version import __version__
from .errors import CorruptCache, ModulusOverflow, NoCubicRoots
from .groups import CoreSet, GroupStructure, core_elements, group_structure
from .residues import MODULUS_BOUND, PrimePowerModulus, Residue, exceeds_bound, to_padic
from .roots import (
    CUBIC_POLY,
    CubicRootTriple,
    FltRootPair,
    cubic_roots_of_unity,
    enumerate_core_root_pairs,
    enumerate_flt_roots_mod_p2,
    hensel_lift_poly_root,
)
from .subgroups import CoreTheoremReport, verify_core_theorem
from .triplets import FixedPoint, ScanRow, Triplet, _check_table_budget, find_core_triplets


def residue_doc(r: Residue) -> dict:
    """The three coordinated renderings of one residue."""
    return {"dec": r.value, "padic": str(to_padic(r)), "signed": r.signed}


def _fmt(r: Residue, signed: bool) -> str:
    return str(r.signed) if signed else str(r.value)


def _pair_text(pair: FltRootPair, signed: bool) -> str:
    a, b = pair.a, pair.b
    parts = [
        f"({_fmt(a, signed)}, {_fmt(b, signed)})",
        f"base-{pair.modulus.p} ({to_padic(a)}, {to_padic(b)})",
        "EDS holds" if pair.eds_holds else "EDS fails",
    ]
    return "  ".join(parts)


def _triplet_text(values, m: int, signed: bool) -> str:
    """Three plain residues mod m, balanced as Residue.signed is when signed."""
    if signed:
        half = m // 2
        values = [v - m if v > half else v for v in values]
    return "(%d, %d, %d)" % tuple(values)


# --- analyze ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AnalysisReport:
    """Everything the analyze command reports for one modulus."""

    modulus: PrimePowerModulus
    structure: GroupStructure
    core: CoreSet
    cubic: Optional[CubicRootTriple]
    flt_pairs: Optional[list[FltRootPair]]  # at precision 2; None if p^2 overflows
    core_theorem: CoreTheoremReport
    proper_triplets: list[Triplet]  # at the analyzed precision, k >= 2 only
    fixed_points: list[FixedPoint]


def build_analysis(p: int, k: int) -> AnalysisReport:
    modulus = PrimePowerModulus(p, k)
    # the kernel's table and the core walk are checked against the memory
    # budget before either walk runs
    if k >= 2:
        _check_table_budget(p)
    core = core_elements(modulus)
    try:
        cubic = cubic_roots_of_unity(modulus)
    except NoCubicRoots:
        cubic = None
    try:
        flt_pairs = enumerate_flt_roots_mod_p2(p)
    except ModulusOverflow:
        flt_pairs = None
    if k >= 2:
        proper, fixed = find_core_triplets(modulus)
    else:
        proper, fixed = [], []
    return AnalysisReport(
        modulus=modulus,
        structure=group_structure(modulus),
        core=core,
        cubic=cubic,
        flt_pairs=flt_pairs,
        core_theorem=verify_core_theorem(modulus),
        proper_triplets=proper,
        fixed_points=fixed,
    )


def _core_rows(core: CoreSet) -> tuple[Residue, ...]:
    """Core in the table order h^1, h^2, ..., h^(p-1) = 1 (identity last)."""
    return core.elements[1:] + core.elements[:1]


def analysis_to_text(rep: AnalysisReport, signed: bool = False) -> str:
    mod = rep.modulus
    p, k, m = mod.p, mod.k, mod.m
    s = rep.structure
    rows = _core_rows(rep.core)
    lines = [
        f"modulus: p = {p}, k = {k}, m = {m}",
        f"units group: order {s.group_order}, generator {s.generator.value}",
        f"subgroup orders: core {s.core_order}, extension {s.extension_order}, "
        f"fermat {s.fermat_order}",
        f"core table (powers h^1..h^{p - 1} of the core generator h = "
        f"{s.core_generator.value}):",
        "  decimal: " + " ".join(str(r.value) for r in rows),
        f"  base-{p}: " + " ".join(str(to_padic(r)) for r in rows),
        "  signed: " + " ".join(str(r.signed) for r in rows),
    ]
    if rep.cubic is None:
        lines.append(f"cubic roots of 1: none ({p} is not 1 mod 6)")
    else:
        roots = rep.cubic.roots
        total = sum(r.value for r in roots) % m
        lines.append(
            "cubic roots of 1: {"
            + ", ".join(_fmt(r, signed) for r in roots)
            + f"}}, sum {total} mod {m}"
        )
    if rep.flt_pairs is None:
        lines.append(f"FLT roots mod {p}^2: skipped ({p}^2 exceeds the modulus bound)")
    elif not rep.flt_pairs:
        lines.append(f"no FLT roots mod {p * p}")
    else:
        lines.append(f"FLT root pairs mod {p * p}:")
        lines.extend("  " + _pair_text(pair, signed) for pair in rep.flt_pairs)
    ct = rep.core_theorem
    verdict = "pass" if ct.all_pass else "FAIL"
    divisors = ", ".join(str(c.d) for c in ct.checks)
    lines.append(
        f"core theorem: {verdict} for d in {{{divisors}}} "
        f"(d = 1 excluded, sum {ct.trivial_sum.value})"
    )
    if k >= 2:
        lines.append(
            f"triplets at k = {k}: {len(rep.proper_triplets)} proper, "
            f"{len(rep.fixed_points)} degenerate fixed points"
        )
        lines.extend(
            "  " + _triplet_text(t.values(), m, signed) for t in rep.proper_triplets
        )
    return "\n".join(lines) + "\n"


def analysis_to_dict(rep: AnalysisReport) -> dict:
    mod = rep.modulus
    s = rep.structure
    ct = rep.core_theorem
    return {
        "modulus": {"p": mod.p, "k": mod.k, "m": mod.m},
        "group": {
            "order": s.group_order,
            "generator": residue_doc(s.generator),
            "core_generator": residue_doc(s.core_generator),
            "extension_generator": residue_doc(s.extension_generator),
            "core_order": s.core_order,
            "extension_order": s.extension_order,
            "fermat_order": s.fermat_order,
        },
        "core": [residue_doc(r) for r in _core_rows(rep.core)],
        "cubic_roots": (
            None if rep.cubic is None else [residue_doc(r) for r in rep.cubic.roots]
        ),
        "flt_pairs": (
            None
            if rep.flt_pairs is None
            else [
                {
                    "a": residue_doc(pair.a),
                    "b": residue_doc(pair.b),
                    "eds_holds": pair.eds_holds,
                }
                for pair in rep.flt_pairs
            ]
        ),
        "core_theorem": {
            "all_pass": ct.all_pass,
            "trivial_sum": ct.trivial_sum.value,
            "checks": [
                {"d": c.d, "sum": c.total.value, "pass": c.passed} for c in ct.checks
            ],
        },
        "triplets": {
            "precision": mod.k,
            "proper": [
                [residue_doc(t.a), residue_doc(t.b), residue_doc(t.c)]
                for t in rep.proper_triplets
            ],
            "fixed_points": [residue_doc(f.value) for f in rep.fixed_points],
        }
        if mod.k >= 2
        else None,
    }


# --- roots ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RootsReport:
    """FLT root pairs at the requested precision, cubic pair marked."""

    modulus: PrimePowerModulus
    pairs: list[FltRootPair]
    cubic_key: Optional[tuple[int, int]]


def build_roots(p: int, k: int) -> RootsReport:
    modulus = PrimePowerModulus(p, k)
    pairs = enumerate_core_root_pairs(modulus)
    try:
        lo, hi = cubic_roots_of_unity(modulus).nontrivial
        cubic_key = (lo.value, hi.value)
    except NoCubicRoots:
        cubic_key = None
    else:
        if not any(pair.key() == cubic_key for pair in pairs):
            raise AssertionError(
                f"the Hensel-lifted cubic pair {cubic_key} mod {p}^{k} "
                "is not among the enumerated pairs"
            )
    return RootsReport(modulus, pairs, cubic_key)


def roots_to_text(rep: RootsReport, signed: bool = False) -> str:
    mod = rep.modulus
    if not rep.pairs:
        return f"no FLT roots mod {mod.m}\n"
    lines = [f"FLT root pairs mod {mod.m} (core pairs with a + b = -1):"]
    for pair in rep.pairs:
        tag = "  [cubic-root pair]" if pair.key() == rep.cubic_key else ""
        lines.append("  " + _pair_text(pair, signed) + tag)
    return "\n".join(lines) + "\n"


def roots_to_dict(rep: RootsReport) -> dict:
    return {
        "modulus": {"p": rep.modulus.p, "k": rep.modulus.k, "m": rep.modulus.m},
        "pairs": [
            {
                "a": residue_doc(pair.a),
                "b": residue_doc(pair.b),
                "eds_holds": pair.eds_holds,
                "cubic_root_pair": pair.key() == rep.cubic_key,
            }
            for pair in rep.pairs
        ],
    }


# --- core theorem -----------------------------------------------------------


def core_theorem_to_text(ct: CoreTheoremReport) -> str:
    mod = ct.modulus
    lines = [
        f"core theorem mod {mod.p}^{mod.k}: "
        f"subgroup sums over divisors of p - 1 = {mod.p - 1}"
    ]
    for c in ct.checks:
        lines.append(f"  d = {c.d}: sum = {c.total.value}, {'pass' if c.passed else 'FAIL'}")
    lines.append(f"  d = 1 excluded: trivial subgroup sums to {ct.trivial_sum.value}")
    lines.append("all pass" if ct.all_pass else "FAILURES present")
    return "\n".join(lines) + "\n"


def core_theorem_to_dict(ct: CoreTheoremReport) -> dict:
    return {
        "modulus": {"p": ct.modulus.p, "k": ct.modulus.k, "m": ct.modulus.m},
        "all_pass": ct.all_pass,
        "trivial_sum": ct.trivial_sum.value,
        "checks": [{"d": c.d, "sum": c.total.value, "pass": c.passed} for c in ct.checks],
    }


# --- lift -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LiftReport:
    """Cubic roots lifted to a higher precision, with both verifications."""

    from_modulus: PrimePowerModulus
    lifted: CubicRootTriple
    zero_sum: bool
    one_complement: bool


def build_lift(p: int, from_k: int, to_k: int) -> LiftReport:
    start = cubic_roots_of_unity(PrimePowerModulus(p, from_k))
    target = PrimePowerModulus(p, to_k)
    lo = hensel_lift_poly_root(CUBIC_POLY, start.roots[1], to_k)
    hi = hensel_lift_poly_root(CUBIC_POLY, start.roots[2], to_k)
    lo, hi = sorted((lo, hi), key=lambda r: r.value)
    lifted = CubicRootTriple((Residue(1, target), lo, hi), target)
    total = (1 + lo.value + hi.value) % target.m
    complement = (lo.value + lo.inverse().value) % target.m
    return LiftReport(
        from_modulus=start.modulus,
        lifted=lifted,
        zero_sum=total == 0,
        one_complement=complement == target.m - 1,
    )


def lift_to_text(rep: LiftReport, signed: bool = False) -> str:
    mod = rep.lifted.modulus
    roots = rep.lifted.roots
    lines = [
        f"cubic roots of 1 mod {mod.p}^{mod.k} "
        f"(lifted from precision {rep.from_modulus.k}):",
        "  roots: "
        + " ".join(_fmt(r, signed) for r in roots)
        + f"  base-{mod.p}: "
        + " ".join(str(to_padic(r)) for r in roots),
        f"  zero sum mod {mod.m}: {'pass' if rep.zero_sum else 'FAIL'}",
        f"  one-complement a + a^-1 = -1: {'pass' if rep.one_complement else 'FAIL'}",
    ]
    return "\n".join(lines) + "\n"


def lift_to_dict(rep: LiftReport) -> dict:
    mod = rep.lifted.modulus
    return {
        "modulus": {"p": mod.p, "k": mod.k, "m": mod.m},
        "from_k": rep.from_modulus.k,
        "roots": [residue_doc(r) for r in rep.lifted.roots],
        "zero_sum": rep.zero_sum,
        "one_complement": rep.one_complement,
    }


# --- scan -------------------------------------------------------------------


def row_to_dict(row: ScanRow) -> dict:
    """The cache and structured-output document of one scan row."""
    p, k, degenerate, proper, first, elapsed = row
    return {
        "p": p,
        "k": k,
        "degenerate_count": degenerate,
        "proper_triplet_count": proper,
        "first_proper": None if first is None else list(first),
        "elapsed": round(elapsed, 6),
    }


def _check_first_proper(p: int, k: int, first) -> None:
    """A cheap triplet check: the three members close the t-map chain
    (a+1)b = (b+1)c = (c+1)a = -1 and lie in the core, canonically
    rotated; O(log m), no primality test and no core walk.

    Two pow calls suffice: once the chain closes, b = -1/(a+1) and
    c = -(a+1)/a, so abc = 1 and c = (ab)^-1 is in the core whenever a
    and b are.
    """
    m = p**k
    if not (
        type(first) is list
        and len(first) == 3
        and all(type(v) is int and 0 < v < m for v in first)
    ):
        raise CorruptCache(f"first_proper must be three residues in (0, {m}), got {first!r}")
    a, b, c = first
    closes = (a + 1) * b % m == (b + 1) * c % m == (c + 1) * a % m == m - 1
    if not (closes and a < b and a < c and pow(a, p - 1, m) == pow(b, p - 1, m) == 1):
        raise CorruptCache(f"first_proper {first} is not a canonical core triplet mod {p}^{k}")


_COUNT_KEYS = ("p", "k", "degenerate_count", "proper_triplet_count")


def row_from_dict(doc: dict) -> tuple:
    """The plain scan row (p, k, degenerate, proper, first, elapsed) that a
    cache line holds, in triplets.ScanRow's field order; raises CorruptCache
    if the line is not a well-formed record. p is not re-tested for
    primality: the scan serves a row only for a prime it enumerated itself.

    JSON numbers parse to exactly int or float, so type() tells integers
    from floats and from bools (a subclass of int) in one test.
    """
    if type(doc) is not dict:
        raise CorruptCache(f"expected a JSON object, got {type(doc).__name__}")
    p, k, degenerate, proper = counts = tuple(map(doc.get, _COUNT_KEYS))
    if not type(p) is type(k) is type(degenerate) is type(proper) is int:
        key = next(key for key, v in zip(_COUNT_KEYS, counts) if type(v) is not int)
        raise CorruptCache(f"missing or non-integer {key!r}")
    if p < 3 or p % 2 == 0:
        raise CorruptCache(f"p must be odd and >= 3, got {p}")
    if k < 2 or exceeds_bound(p, k):
        raise CorruptCache(f"need k >= 2 and p^k < 2^63, got p = {p}, k = {k}")
    if degenerate < 0 or proper < 0:
        raise CorruptCache("counts must be >= 0")
    elapsed = doc.get("elapsed", 0.0)
    if type(elapsed) not in (int, float):
        raise CorruptCache(f"elapsed must be a number, got {elapsed!r}")
    if not 0 <= elapsed < math.inf:
        raise CorruptCache(f"elapsed must be finite and >= 0, got {elapsed!r}")
    first = doc.get("first_proper")
    if (first is None) != (proper == 0):
        raise CorruptCache("first_proper must be present exactly when proper_triplet_count > 0")
    if first is not None:
        _check_first_proper(p, k, first)
    return p, k, degenerate, proper, first, elapsed


def load_scan_cache(path: Path) -> dict[tuple[int, int], tuple]:
    """Check every line of the JSONL cache and map (p, k) to its plain
    row (see row_from_dict); the last line for a key wins. No modulus,
    residue or record is built here, and the rows stay plain tuples.

    A file whose every line is in the form append_scan_cache writes is
    tokenized by one regex pass, block by block, and each row gets
    row_from_dict's checks in one loop. Any other file, or one with a row
    that fails a check, is read again line by line as JSON
    (_read_cache_lines), which gives the same rows and names the first
    bad line.

    Raises CorruptCache naming the first malformed line.
    """
    if not path.exists():
        return {}
    with path.open("rb") as handle:
        rows = _read_written_cache(handle)
    return _read_cache_lines(path) if rows is None else rows


def _read_cache_lines(path: Path) -> dict[tuple[int, int], tuple]:
    """load_scan_cache for any file: each line parsed as JSON and checked
    by row_from_dict."""
    import json

    # json.loads without the two whitespace scans it makes around the value
    raw_decode = json.JSONDecoder().raw_decode
    rows: dict[tuple[int, int], tuple] = {}
    if not path.exists():
        return rows
    # bytes, so that an undecodable line is reported like any other
    with path.open("rb") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                text = line.decode()
                doc, end = raw_decode(text)
                if end < len(text):
                    doc = json.loads(text)  # raises json.loads's own "Extra data" error
                row = row_from_dict(doc)
            except ValueError as exc:
                raise CorruptCache(f"line {number} of {path}: {exc}") from None
            rows[row[0], row[1]] = row
    return rows


# bytes read per regex pass, far longer than any line the writer makes.
# A pass's tokens take about as much memory as its text, so the read
# holds little beyond the rows it returns.
_CACHE_BLOCK = 1 << 14


def _read_written_cache(handle) -> Optional[dict[tuple[int, int], tuple]]:
    """The rows of a cache file that append_scan_cache wrote, or None when
    a line is in another form or fails one of row_from_dict's checks.

    Each block of whole lines is tokenized by _CACHE_LINE_PATTERN; every
    line in it matches exactly when the matches, at most one per line,
    number its newlines. The regex admits only non-negative integers of at
    most 19 digits and a float elapsed, so the checks left are the ones
    below.
    """
    findall = re.compile(_CACHE_LINE_PATTERN, re.MULTILINE).findall
    rows: dict[tuple[int, int], tuple] = {}
    tail = b""
    while block := handle.read(_CACHE_BLOCK):
        block = tail + block
        end = block.rfind(b"\n") + 1
        if not end:  # a line longer than a block, or a last line with no newline
            return None
        tail = block[end:]
        lines = findall(block, 0, end)
        if len(lines) != block.count(b"\n", 0, end):
            return None
        for p, k, degenerate, proper, a, b, c, elapsed in lines:
            p, k, proper, elapsed = int(p), int(k), int(proper), float(elapsed)
            # k is bounded before p**k is formed; a is b"" for a null
            # first_proper, which must be null exactly when proper is 0
            if not (
                p & 1
                and p >= 3
                and 2 <= k < 63
                and p**k < MODULUS_BOUND
                and elapsed < math.inf
                and bool(a) == bool(proper)
            ):
                return None
            first = None
            if a:
                first = [int(a), int(b), int(c)]
                try:
                    _check_first_proper(p, k, first)
                except CorruptCache:
                    return None
            rows[p, k] = (p, k, int(degenerate), proper, first, elapsed)
    return None if tail else rows  # a last line with no newline


# json.dumps(row_to_dict(row)) for a row of ints and a finite elapsed:
# JSON writes both with their repr, as %d and %r do. A second encoder of
# that document, kept for speed (2.8 vs 7.1 ms per 1,006 rows on a
# 2-vCPU host); test_cache_record_round_trip holds the two byte-equal.
_CACHE_LINE = (
    '{"p": %d, "k": %d, "degenerate_count": %d, "proper_triplet_count": %d, '
    '"first_proper": %s, "elapsed": %r}\n'
)

# One line as _CACHE_LINE writes it, for load_scan_cache's one-pass read,
# in MULTILINE mode. Each integer is a JSON integer of at most 19 digits,
# so int() never sees an overlong one. elapsed matches only the float
# forms repr writes, which hold a "." or an "e": an integer elapsed, which
# JSON reads as an int, sends the file to the per-line reader. Compiled
# on first use and cached by re, so that an import does not pay the
# 0.5 ms compile.
_INT = rb"(0|[1-9][0-9]{0,18})"
_CACHE_LINE_PATTERN = (
    rb'^\{"p": ' + _INT + rb', "k": ' + _INT
    + rb', "degenerate_count": ' + _INT + rb', "proper_triplet_count": ' + _INT
    + rb', "first_proper": (?:null|\[' + _INT + rb", " + _INT + rb", " + _INT + rb"\])"
    + rb', "elapsed": ((?:0|[1-9][0-9]*)(?:\.[0-9]+(?:e[+-][0-9]+)?|e[+-][0-9]+))\}$'
)


def append_scan_cache(path: Path, rows: list[ScanRow]) -> None:
    """Append one JSON line per row, in one write, starting on a fresh line
    if the file's last line has no newline."""
    text = "".join(
        [
            _CACHE_LINE
            % (
                p,
                k,
                degenerate,
                proper,
                "null" if first is None else "[%d, %d, %d]" % tuple(first),
                round(elapsed, 6),
            )
            for p, k, degenerate, proper, first, elapsed in rows
        ]
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a+b") as handle:
        if text and handle.seek(0, os.SEEK_END):
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                text = "\n" + text
        handle.write(text.encode())


def scan_to_text(rows: list[ScanRow], k: int, signed: bool = False) -> str:
    """One line per row, then the onset summary; each triple renders mod p^k."""
    lines = []
    for p, _, degenerate, proper, first, _ in rows:
        if proper:
            detail = (
                f"{proper} proper triplets, {degenerate} degenerate; "
                f"first {_triplet_text(first, p**k, signed)}"
            )
        else:
            detail = f"no proper triplets, {degenerate} degenerate"
        lines.append(f"  p = {p}: {detail}")
    onset = next((row for row in rows if row[3]), None)
    if onset is None:
        lines.append("summary: no proper triplets found")
    else:
        p, _, _, _, first, _ = onset
        lines.append(
            f"summary: first proper triplet at p = {p}: "
            f"{_triplet_text(first, p**k, signed)}"
        )
    return "\n".join(lines) + "\n"


def scan_summary(rows: list[ScanRow]) -> dict:
    """The onset: the first row with a proper triplet, and that triple."""
    onset = next((row for row in rows if row[3]), None)
    return {
        "onset_prime": None if onset is None else onset[0],
        "first_proper": None if onset is None else list(onset[4]),
    }


def scan_to_dict(rows: list[ScanRow]) -> dict:
    return {"records": [row_to_dict(row) for row in rows], "summary": scan_summary(rows)}


# --- envelope ---------------------------------------------------------------


# json.dumps(row_to_dict(row), indent=2) for a row of ints and a finite
# elapsed, indented to the record's depth in the scan envelope. Any indent
# sends json.dumps to its pure-Python encoder, so the records of a
# structured scan are rendered here instead (0.5 vs 2.8 ms for the 302
# rows of `scan 3 2000 5` on a 2-vCPU host); test_scan_envelope_from_rows
# holds the two byte-equal.
_RECORD_JSON = (
    "      {\n"
    '        "p": %d,\n'
    '        "k": %d,\n'
    '        "degenerate_count": %d,\n'
    '        "proper_triplet_count": %d,\n'
    '        "first_proper": %s,\n'
    '        "elapsed": %r\n'
    "      }"
)
_FIRST_JSON = "[\n          %d,\n          %d,\n          %d\n        ]"


def envelope(
    command: str, params: dict, payload: dict, rows: Optional[list[ScanRow]] = None
) -> str:
    """The structured output document: version, inputs, then the report.

    Scan rows, when given, make the report's leading "records" list, as
    scan_to_dict(rows) has it, ahead of payload's keys; they render from
    _RECORD_JSON and the rest of the document from json.dumps.
    """
    import json

    if rows is not None:
        payload = {"records": [], **payload}
    doc = {
        "tool": "pkarith",
        "version": __version__,
        "command": command,
        "params": params,
        "report": payload,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if not rows:
        return text
    records = ",\n".join(
        [
            _RECORD_JSON
            % (
                p,
                k,
                degenerate,
                proper,
                "null" if first is None else _FIRST_JSON % tuple(first),
                round(elapsed, 6),
            )
            for p, k, degenerate, proper, first, elapsed in rows
        ]
    )
    # the first "records" key is the report's: the scan's params before it
    # hold only numbers
    head, _, tail = text.partition('"records": []')
    return f'{head}"records": [\n{records}\n    ]{tail}'
