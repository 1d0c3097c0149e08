"""Output checks, run outside the timed region.

Each check parses one command's output, text or structured, and recomputes
what it claims with plain integer arithmetic, independently of pkarith:

- every printed triplet lies in the core, with (a+1)*b = -1 along the
  cycle and abc = 1;
- the degenerate count is 2 exactly when p = 1 mod 6;
- the k = 2 onset is p = 59 with (298, 1106, 805) whenever the range
  covers 59;
- core-theorem passes for every divisor d > 1 of p - 1;
- FLT pairs sum to -1 and every core element satisfies c^p = c.

A check returns a list of problems; an empty list means the output holds.
"""

import json
import operator
import re

from workloads import odd_primes_upto

ONSET = (59, (298, 1106, 805))


def positional(argv) -> list[int]:
    """The integer arguments before the first option."""
    out = []
    for token in argv[1:]:
        if token.startswith("--"):
            break
        out.append(int(token))
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def is_core(x: int, p: int, m: int) -> bool:
    return x % p != 0 and pow(x, p, m) == x % m


def triplet_problems(t, p: int, m: int) -> list[str]:
    a, b, c = t
    bad = [f"{x} is not in the core mod {m}" for x in t if not is_core(x, p, m)]
    for x, y in ((a, b), (b, c), (c, a)):
        if (x + 1) * y % m != m - 1:
            bad.append(f"({x}+1)*{y} != -1 mod {m}")
    if a * b * c % m != 1:
        bad.append(f"{t}: abc != 1 mod {m}")
    if not (a < b and a < c):
        bad.append(f"{t} does not lead with its minimum")
    return bad


def degenerate_problem(p: int, count: int) -> list[str]:
    want = 2 if p % 6 == 1 else 0
    return [] if count == want else [f"p = {p}: {count} degenerate, want {want}"]


# --- scan -------------------------------------------------------------------

_SCAN_LINE = re.compile(
    r"  p = (\d+): (?:no proper triplets, (\d+) degenerate"
    r"|(\d+) proper triplets, (\d+) degenerate; first \((-?\d+), (-?\d+), (-?\d+)\))$"
)
_SUMMARY = re.compile(
    r"summary: (?:no proper triplets found"
    r"|first proper triplet at p = (\d+): \((-?\d+), (-?\d+), (-?\d+)\))$"
)


def _parse_scan_text(out: str):
    records, summary, bad = [], "missing", []
    for line in out.splitlines():
        if m := _SCAN_LINE.fullmatch(line):
            if m.group(2) is not None:
                records.append((int(m.group(1)), int(m.group(2)), 0, None))
            else:
                first = tuple(int(m.group(i)) for i in (5, 6, 7))
                records.append((int(m.group(1)), int(m.group(4)), int(m.group(3)), first))
        elif m := _SUMMARY.fullmatch(line):
            summary = None if m.group(1) is None else (
                int(m.group(1)), tuple(int(m.group(i)) for i in (2, 3, 4)))
        else:
            bad.append(f"unexpected line {line!r}")
    return records, summary, bad


def _parse_scan_doc(out: str):
    report = json.loads(out)["report"]
    records = [
        (r["p"], r["degenerate_count"], r["proper_triplet_count"],
         None if r["first_proper"] is None else tuple(r["first_proper"]))
        for r in report["records"]
    ]
    s = report["summary"]
    summary = None if s["onset_prime"] is None else (s["onset_prime"], tuple(s["first_proper"]))
    return records, summary, []


def check_scan(argv, out: str) -> list[str]:
    lo, hi, k = (positional(argv) + [2])[:3]
    parse = _parse_scan_doc if "structured" in argv else _parse_scan_text
    records, summary, bad = parse(out)
    want = [p for p in odd_primes_upto(hi) if p >= lo]
    if [r[0] for r in records] != want:
        bad.append(f"records do not list the odd primes of [{lo}, {hi}] once each")
    for p, degenerate, proper, first in records:
        m = p**k
        bad += degenerate_problem(p, degenerate)
        if (proper > 0) != (first is not None):
            bad.append(f"p = {p}: {proper} proper triplets but first = {first}")
        if first is not None:
            bad += triplet_problems(tuple(x % m for x in first), p, m)
    onset = next(((r[0], r[3]) for r in records if r[2] > 0), None)
    if summary != onset:
        bad.append(f"summary {summary} != first record with a triplet {onset}")
    if k == 2 and lo <= ONSET[0] <= hi and onset != ONSET:
        bad.append(f"onset {onset}, want p = 59 with (298, 1106, 805)")
    return bad


def expected_warm_text(cold_out: str, lo: int, hi: int) -> str:
    """What `scan lo hi 2` must print when served from the cache that the
    cold scan behind `cold_out` filled: the cold lines, byte for byte."""
    lines, onset = [], None
    for line in cold_out.splitlines():
        if m := _SCAN_LINE.fullmatch(line):
            if lo <= int(m.group(1)) <= hi:
                lines.append(line)
                if onset is None and "; first " in line:
                    onset = (m.group(1), line.split("; first ", 1)[1])
    if onset is None:
        lines.append("summary: no proper triplets found")
    else:
        lines.append(f"summary: first proper triplet at p = {onset[0]}: {onset[1]}")
    return "\n".join(lines) + "\n"


# --- single-modulus reports -------------------------------------------------


def _ints(text: str) -> list[int]:
    return [int(x) for x in re.findall(r"-?\d+", text)]


def _core_problems(core: list[int], p: int, m: int) -> list[str]:
    bad = []
    if len(core) != p - 1 or len(set(core)) != p - 1:
        bad.append(f"core lists {len(set(core))} distinct elements, want {p - 1}")
    bad += [f"core element {c}: c^p != c mod {m}" for c in core if not is_core(c, p, m)]
    return bad


def _pair_problems(pairs, p: int, m: int) -> list[str]:
    bad = []
    for a, b, eds in pairs:
        if (a + b) % m != m - 1:
            bad.append(f"FLT pair ({a}, {b}) does not sum to -1 mod {m}")
        if not (is_core(a, p, m) and is_core(b, p, m)):
            bad.append(f"FLT pair ({a}, {b}) leaves the core mod {m}")
        if not eds:
            bad.append(f"FLT pair ({a}, {b}) reports EDS failing")
    return bad


def _cubic_problems(roots, p: int, m: int) -> list[str]:
    if p % 6 != 1:
        return [] if roots is None else [f"p = {p} has no cubic roots, got {roots}"]
    if roots is None or len(set(roots)) != 3:
        return [f"want three cubic roots mod {m}, got {roots}"]
    bad = [f"cubic root {x}: x^3 != 1 mod {m}" for x in roots if pow(x, 3, m) != 1]
    if sum(roots) % m:
        bad.append(f"cubic roots {roots} do not sum to 0 mod {m}")
    return bad


def _theorem_problems(checks, p: int) -> list[str]:
    """checks: (d, sum, passed) for every divisor d > 1 that was printed."""
    bad = [f"d = {d}: sum {s}, pass = {ok}" for d, s, ok in checks if s != 0 or not ok]
    if sorted(d for d, _, _ in checks) != divisors(p - 1)[1:]:
        bad.append(f"core theorem does not cover every divisor d > 1 of {p - 1}")
    return bad


def _analysis_text(out: str):
    data = {"flt": None, "cubic": None, "triplets": [], "fixed": None}
    section = None
    for line in out.splitlines():
        if line.startswith("  decimal: "):
            data["core"] = _ints(line[len("  decimal: "):])
        elif line.startswith("cubic roots of 1: {"):
            data["cubic"] = _ints(line[len("cubic roots of 1: {"):line.index("}")])
        elif line.startswith("FLT root pairs mod "):
            data["flt"], section = [], "flt"
        elif line.startswith("no FLT roots mod "):
            data["flt"] = []
        elif line.startswith("core theorem: "):
            body = line[len("core theorem: "):]
            ok = body.startswith("pass ")
            ds = _ints(body[body.index("{"):body.index("}")])
            data["theorem"] = [(d, 0 if ok else None, ok) for d in ds]
        elif line.startswith("triplets at k = "):
            _, proper, data["fixed"] = _ints(line)
            data["proper_count"], section = proper, "triplets"
        elif section == "flt" and line.startswith("  ("):
            a, b = _ints(line[: line.index(")")])
            data["flt"].append((a, b, line.endswith("EDS holds")))
        elif section == "triplets" and line.startswith("  ("):
            data["triplets"].append(tuple(_ints(line)))
    return data


def _analysis_doc(out: str):
    r = json.loads(out)["report"]
    dec = operator.itemgetter("dec")
    t = r["triplets"]
    return {
        "core": [dec(x) for x in r["core"]],
        "cubic": None if r["cubic_roots"] is None else [dec(x) for x in r["cubic_roots"]],
        "flt": None if r["flt_pairs"] is None else [
            (dec(f["a"]), dec(f["b"]), f["eds_holds"]) for f in r["flt_pairs"]],
        "theorem": [(c["d"], c["sum"], c["pass"]) for c in r["core_theorem"]["checks"]],
        "triplets": [tuple(dec(x) for x in row) for row in t["proper"]] if t else [],
        "proper_count": len(t["proper"]) if t else 0,
        "fixed": len(t["fixed_points"]) if t else None,
    }


def check_analyze(argv, out: str) -> list[str]:
    p, k = (positional(argv) + [2])[:2]
    m = p**k
    data = (_analysis_doc if "structured" in argv else _analysis_text)(out)
    if "core" not in data or "theorem" not in data:
        return ["analyze output lacks the core table or the core theorem"]
    bad = _core_problems(data["core"], p, m)
    bad += _cubic_problems(data["cubic"], p, m)
    if data["flt"] is not None:
        bad += _pair_problems(data["flt"], p, p * p)
    bad += _theorem_problems(data["theorem"], p)
    if k >= 2:
        if data["fixed"] is None:
            bad.append("analyze output lacks the triplet line")
        else:
            bad += degenerate_problem(p, data["fixed"])
        if data["proper_count"] != len(data["triplets"]):
            bad.append("proper triplet count differs from the triplets listed")
        for t in data["triplets"]:
            bad += triplet_problems(tuple(x % m for x in t), p, m)
    return bad


def check_roots(argv, out: str) -> list[str]:
    p, k = (positional(argv) + [2])[:2]
    m = p**k
    if "structured" in argv:
        pairs = json.loads(out)["report"]["pairs"]
        rows = [(x["a"]["dec"], x["b"]["dec"], x["eds_holds"]) for x in pairs]
        tagged = [(x["a"]["dec"], x["b"]["dec"]) for x in pairs if x["cubic_root_pair"]]
    else:
        lines = [line for line in out.splitlines() if line.startswith("  (")]
        rows = [(*_ints(line[: line.index(")")]), "EDS holds" in line) for line in lines]
        tagged = [tuple(_ints(line[: line.index(")")])) for line in lines
                  if line.endswith("[cubic-root pair]")]
    bad = _pair_problems(rows, p, m)
    if len(tagged) != (1 if p % 6 == 1 else 0):
        bad.append(f"{len(tagged)} cubic-root pairs tagged for p = {p}")
    bad += [f"tagged pair {t} is not cubic" for t in tagged if pow(t[0], 3, m) != 1]
    return bad


def check_core_theorem(argv, out: str) -> list[str]:
    p, _k = (positional(argv) + [2])[:2]
    if "structured" in argv:
        doc = json.loads(out)["report"]
        checks = [(c["d"], c["sum"], c["pass"]) for c in doc["checks"]]
        all_pass, trivial = doc["all_pass"], doc["trivial_sum"]
    else:
        checks = []
        for d, s, verdict in re.findall(r"^  d = (\d+): sum = (-?\d+), (\w+)$", out, re.M):
            checks.append((int(d), int(s), verdict == "pass"))
        all_pass = out.endswith("all pass\n")
        trivial = 1 if "trivial subgroup sums to 1\n" in out else None
    bad = _theorem_problems(checks, p)
    if not all_pass:
        bad.append("core theorem does not report all pass")
    if trivial != 1:
        bad.append(f"trivial subgroup sum {trivial}, want 1")
    return bad


def check_lift(argv, out: str) -> list[str]:
    p, _from_k, to_k = positional(argv)[:3]
    m = p**to_k
    if "structured" in argv:
        doc = json.loads(out)["report"]
        roots = [r["dec"] for r in doc["roots"]]
        verdicts = [doc["zero_sum"], doc["one_complement"]]
    else:
        line = next((x for x in out.splitlines() if x.startswith("  roots: ")), "")
        roots = _ints(line[len("  roots: "):line.index("base-")]) if "base-" in line else []
        verdicts = [x.endswith(": pass") for x in out.splitlines()[2:4]]
    bad = _cubic_problems(roots, p, m)
    if len(roots) == 3 and (roots[0] != 1 or (roots[1] + roots[2]) % m != m - 1):
        bad.append(f"lifted roots {roots} are not 1, a, a^-1 with a + a^-1 = -1")
    if verdicts != [True, True]:
        bad.append("lift does not report both checks passing")
    return bad


CHECKS = {
    "scan": check_scan,
    "analyze": check_analyze,
    "roots": check_roots,
    "core-theorem": check_core_theorem,
    "lift": check_lift,
}


def check(argv, rc, out: str) -> list[str]:
    """Problems with one command's result; rc is its exit code or exception."""
    if rc != 0:
        return [f"exit {rc!r}"]
    try:
        return CHECKS[argv[0]](argv, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unparseable output: {exc!r}"]
