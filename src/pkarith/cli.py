"""Command-line interface: analyze, roots, scan, core-theorem, lift.

Exit codes: 0 success, 1 not applicable (e.g. no cubic roots exist),
2 usage, 3 modulus overflow or a kernel table over the memory budget,
4 I/O failure.
"""

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from . import report
from ._version import __version__
from .errors import CorruptCache, ModulusOverflow, NoCubicRoots
from .kernel import BACKEND
from .primes import is_prime, odd_primes_in
from .residues import PrimePowerModulus, exceeds_bound
from .subgroups import verify_core_theorem
from .triplets import scan_prime_list

EXIT_OK = 0
EXIT_NOT_APPLICABLE = 1
EXIT_USAGE = 2
EXIT_OVERFLOW = 3
EXIT_IO = 4

CACHE_ENV_VAR = "PKARITH_CACHE"


class UsageError(Exception):
    """Invalid command-line input; maps to exit code 2."""


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="text for humans, structured for a JSON document",
    )
    sub.add_argument(
        "--signed",
        action="store_true",
        help="render residues as balanced signed values",
    )


def _add_analyze(sub) -> None:
    analyze = sub.add_parser("analyze", help="full structure report for one modulus")
    analyze.add_argument("p", type=int, help="odd prime")
    analyze.add_argument("k", type=int, nargs="?", default=2, help="precision, default 2")
    _add_common(analyze)


def _add_roots(sub) -> None:
    roots = sub.add_parser("roots", help="FLT root pairs at the given precision")
    roots.add_argument("p", type=int, help="odd prime")
    roots.add_argument("k", type=int, nargs="?", default=2, help="precision, default 2")
    _add_common(roots)


def _add_scan(sub) -> None:
    scan = sub.add_parser("scan", help="scan a prime range for proper core triplets")
    scan.add_argument("p_min", type=int)
    scan.add_argument("p_max", type=int)
    scan.add_argument("k", type=int, nargs="?", default=2, help="precision, default 2")
    scan.add_argument("--jobs", type=int, default=1, help="concurrent worker processes")
    scan.add_argument(
        "--cache",
        type=Path,
        default=None,
        help=f"JSONL cache path (default: ${CACHE_ENV_VAR})",
    )
    scan.add_argument("--force", action="store_true", help="recompute cached primes")
    _add_common(scan)


def _add_core_theorem(sub) -> None:
    theorem = sub.add_parser("core-theorem", help="verify core subgroup zero sums")
    theorem.add_argument("p", type=int, help="odd prime")
    theorem.add_argument("k", type=int, nargs="?", default=2, help="precision, default 2")
    _add_common(theorem)


def _add_lift(sub) -> None:
    lift = sub.add_parser("lift", help="lift the cubic roots of 1 to higher precision")
    lift.add_argument("p", type=int, help="odd prime, must be 1 mod 6")
    lift.add_argument("from_k", type=int, help="starting precision")
    lift.add_argument("to_k", type=int, help="target precision")
    _add_common(lift)


# each command's subparser, in the order help lists them
_SUBPARSERS = {
    "analyze": _add_analyze,
    "roots": _add_roots,
    "scan": _add_scan,
    "core-theorem": _add_core_theorem,
    "lift": _add_lift,
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The pkarith parser with every command's subparser, or with only
    `command`'s.

    main builds the one-command parser when argv starts with a command
    name, since building all five costs more than parsing. Its usage line
    still lists every command, so that its usage and error texts are the
    full parser's, byte for byte. The full parser serves everything else
    (help, --version, an unknown or missing command), and leaves the
    metavar unset so that "required: command" and "argument command:
    invalid choice" keep their wording.
    """
    parser = argparse.ArgumentParser(
        prog="pkarith",
        description="Arithmetic mod p^k: units-group structure, cubic roots, "
        "FLT root pairs, and the core triplet scan.",
    )
    parser.add_argument(
        "--version", action="version", version=f"pkarith {__version__} ({BACKEND})"
    )
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
        for add in _SUBPARSERS.values():
            add(sub)
    else:
        metavar = "{" + ",".join(_SUBPARSERS) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
        _SUBPARSERS[command](sub)
    return parser


def _require_odd_prime(p: int) -> None:
    # is_prime answers below 2^64 only, and p^k >= p is past the bound there
    if p >= 1 << 64:
        raise ModulusOverflow(f"p = {p} exceeds the 2^63 modulus bound")
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise UsageError(f"p must be an odd prime >= 3, got {p}")


def _require_precision(k: int, minimum: int = 1) -> None:
    if k < minimum:
        raise UsageError(f"k must be >= {minimum}, got {k}")


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    _require_odd_prime(args.p)
    _require_precision(args.k)
    rep = report.build_analysis(args.p, args.k)
    if args.format == "text":
        _emit(report.analysis_to_text(rep, args.signed))
    else:
        params = {"p": args.p, "k": args.k, "signed": args.signed}
        _emit(report.envelope("analyze", params, report.analysis_to_dict(rep)))
    return EXIT_OK


def _cmd_roots(args) -> int:
    _require_odd_prime(args.p)
    _require_precision(args.k)
    rep = report.build_roots(args.p, args.k)
    if args.format == "text":
        _emit(report.roots_to_text(rep, args.signed))
    else:
        params = {"p": args.p, "k": args.k, "signed": args.signed}
        _emit(report.envelope("roots", params, report.roots_to_dict(rep)))
    return EXIT_OK


def _cmd_core_theorem(args) -> int:
    _require_odd_prime(args.p)
    _require_precision(args.k)
    rep = verify_core_theorem(PrimePowerModulus(args.p, args.k))
    if args.format == "text":
        _emit(report.core_theorem_to_text(rep))
    else:
        params = {"p": args.p, "k": args.k}
        _emit(report.envelope("core-theorem", params, report.core_theorem_to_dict(rep)))
    return EXIT_OK


def _cmd_lift(args) -> int:
    _require_odd_prime(args.p)
    _require_precision(args.from_k)
    if args.to_k < args.from_k:
        raise UsageError(f"to_k {args.to_k} is below from_k {args.from_k}")
    rep = report.build_lift(args.p, args.from_k, args.to_k)
    if args.format == "text":
        _emit(report.lift_to_text(rep, args.signed))
    else:
        params = {"p": args.p, "from_k": args.from_k, "to_k": args.to_k}
        _emit(report.envelope("lift", params, report.lift_to_dict(rep)))
    return EXIT_OK


def _cache_path(args) -> Optional[Path]:
    if args.cache is not None:
        return args.cache
    env = os.environ.get(CACHE_ENV_VAR)
    return Path(env) if env else None


def _scan_rows(args) -> list:
    """The scan's rows in prime order, cached and fresh alike as plain
    tuples (see triplets.ScanRow). Primes missing from the cache (all of
    them with --force) are computed and appended to it. The rows of the
    whole cache are dropped on return, before rendering."""
    primes = list(odd_primes_in(args.p_min, args.p_max))
    cache_path = _cache_path(args)
    cached = report.load_scan_cache(cache_path) if cache_path else {}
    if args.force:
        to_run = primes
    else:
        to_run = [p for p in primes if (p, args.k) not in cached]
    new_rows = scan_prime_list(to_run, args.k, jobs=args.jobs)
    if cache_path is not None and new_rows:
        report.append_scan_cache(cache_path, new_rows)
    fresh = {row.p: row for row in new_rows}
    return [fresh.get(p) or cached[p, args.k] for p in primes]


def _cmd_scan(args) -> int:
    if not 3 <= args.p_min <= args.p_max:
        raise UsageError(f"need 3 <= p_min <= p_max, got [{args.p_min}, {args.p_max}]")
    _require_precision(args.k, minimum=2)
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    # bound-check the raw endpoint before any prime enumeration
    if exceeds_bound(args.p_max, args.k):
        raise ModulusOverflow(f"{args.p_max}^{args.k} exceeds the 2^63 modulus bound")
    rows = _scan_rows(args)
    if args.format == "text":
        _emit(report.scan_to_text(rows, args.k, args.signed))
    else:
        params = {
            "p_min": args.p_min,
            "p_max": args.p_max,
            "k": args.k,
            "jobs": args.jobs,
        }
        summary = {"summary": report.scan_summary(rows)}
        _emit(report.envelope("scan", params, summary, rows))
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "roots": _cmd_roots,
    "scan": _cmd_scan,
    "core-theorem": _cmd_core_theorem,
    "lift": _cmd_lift,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoCubicRoots as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except ModulusOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except CorruptCache as exc:
        print(f"error: corrupt cache file: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
