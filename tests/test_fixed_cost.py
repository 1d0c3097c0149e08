"""What a command pays before its work: imports deferred to first use,
and a parser holding only the named command.

The import checks run in fresh interpreters, so they do not depend on
what other tests have already imported.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import pkarith
from pkarith import cli
from pkarith.cli import build_parser, main

SRC = str(Path(pkarith.__file__).resolve().parents[1])
DEFERRED = ("concurrent.futures", "multiprocessing", "json")


def run_fresh(code: str) -> str:
    """stdout of `code` run by a fresh interpreter that imports this
    checkout's pkarith."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("PKARITH_CACHE", None)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestDeferredImports:
    def test_cli_import_loads_no_pool_and_no_json(self):
        code = (
            "import sys\n"
            "import pkarith.cli\n"
            f"print([m for m in {DEFERRED!r} if m in sys.modules])\n"
        )
        assert run_fresh(code).strip() == "[]"

    def test_text_scans_on_a_written_cache_load_no_pool_and_no_json(self, tmp_path):
        cache = tmp_path / "scan.jsonl"
        code = (
            "import contextlib, io, sys\n"
            "from pkarith.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            f"    cold = main(['scan', '3', '100', '2', '--cache', {str(cache)!r}])\n"
            f"    warm = main(['scan', '3', '100', '2', '--cache', {str(cache)!r}])\n"
            f"print(cold, warm, [m for m in {DEFERRED!r} if m in sys.modules])\n"
            "print(out.getvalue().count('first proper triplet at p = 59'))\n"
        )
        assert run_fresh(code).split("\n") == ["0 0 []", "2", ""]

    def test_pool_is_resolved_on_first_use(self):
        code = (
            "import sys\n"
            "from pkarith import triplets\n"
            "loaded = 'concurrent.futures' in sys.modules\n"
            "pool = triplets.ProcessPoolExecutor\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "print(loaded, pool is ProcessPoolExecutor,\n"
            "      vars(triplets)['ProcessPoolExecutor'] is ProcessPoolExecutor)\n"
            "try:\n"
            "    triplets.NoSuchName\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        assert run_fresh(code).split("\n") == [
            "False True True",
            "module 'pkarith.triplets' has no attribute 'NoSuchName'",
            "",
        ]

    def test_a_stand_in_set_before_first_use_is_the_pool_a_scan_uses(self):
        """Set on the module before the real pool was ever resolved, a
        stand-in wins, and concurrent.futures is never imported."""
        code = (
            "import sys\n"
            "from pkarith import triplets\n"
            "started = []\n"
            "class RecordingPool:\n"
            "    def __init__(self, max_workers):\n"
            "        started.append(max_workers)\n"
            "    def __enter__(self):\n"
            "        return self\n"
            "    def __exit__(self, *exc):\n"
            "        return False\n"
            "    def map(self, fn, items, chunksize=1):\n"
            "        return map(fn, items)\n"
            "triplets.ProcessPoolExecutor = RecordingPool\n"
            "primes = [53, 59, 61, 67, 71, 73, 79, 83]\n"
            "pooled = [row[:5] for row in triplets.scan_prime_list(primes, 2, jobs=2)]\n"
            "serial = [row[:5] for row in triplets.scan_prime_list(primes, 2)]\n"
            "print(started, pooled == serial, 'concurrent.futures' in sys.modules)\n"
        )
        assert run_fresh(code).strip() == "[2] True False"

    def test_a_real_pool_gives_the_serial_output(self, capsys, monkeypatch):
        monkeypatch.delenv("PKARITH_CACHE", raising=False)
        outputs = {}
        for jobs in ("1", "2"):
            for fmt in ("text", "structured"):
                argv = ["scan", "3", "400", "2", "--jobs", jobs, "--format", fmt]
                assert main(argv) == 0
                outputs[jobs, fmt] = capsys.readouterr().out
        assert outputs["2", "text"] == outputs["1", "text"]
        assert "first proper triplet at p = 59" in outputs["2", "text"]
        serial, pooled = (json.loads(outputs[jobs, "structured"]) for jobs in ("1", "2"))
        assert pooled["params"] == dict(serial["params"], jobs=2)
        for doc in (serial, pooled):
            for record in doc["report"]["records"]:
                assert record.pop("elapsed") >= 0
        assert pooled["report"] == serial["report"]


# each command's required positional arguments
COMMAND_ARGS = {
    "analyze": ["7"],
    "roots": ["59"],
    "scan": ["3", "5"],
    "core-theorem": ["13"],
    "lift": ["7", "2", "4"],
}

EXITING_ARGV = (
    [[], ["-h"], ["--help", "scan"], ["--version"], ["bogus"]]
    + [[command, "-h"] for command in COMMAND_ARGS]
    # each command one positional argument short
    + [[command, *args[:-1]] for command, args in COMMAND_ARGS.items()]
    + [
        ["scan", "3", "x"],
        ["scan", "3", "5", "2", "--bogus"],
        ["scan", "3", "5", "2", "--jobs"],
        ["analyze", "7", "2", "--format", "xml"],
        ["lift", "7", "2", "1", "extra"],
    ]
)


def _outcome(call, argv):
    """(exit code, stdout, stderr) of call(argv), which parsing ends with
    SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        call(list(argv))
    return exc.value.code, out.getvalue(), err.getvalue()


class TestOneCommandParser:
    @pytest.mark.parametrize("argv", EXITING_ARGV, ids=" ".join)
    def test_help_usage_and_errors_are_the_full_parsers(self, argv):
        expected = _outcome(build_parser().parse_args, argv)
        assert expected[0] in (0, 2)
        assert _outcome(main, argv) == expected

    def test_usage_lists_every_command_and_errors_name_the_command_argument(self):
        usage = "usage: pkarith [-h] [--version] {analyze,roots,scan,core-theorem,lift} ...\n"
        assert _outcome(main, []) == (
            2, "", usage + "pkarith: error: the following arguments are required: command\n"
        )
        code, out, err = _outcome(main, ["bogus"])
        assert (code, out) == (2, "")
        assert err.startswith(usage + "pkarith: error: argument command: invalid choice: 'bogus'")
        assert _outcome(main, ["scan", "3", "5", "--bogus"]) == (
            2, "", usage + "pkarith: error: unrecognized arguments: --bogus\n"
        )

    @pytest.mark.parametrize("command", COMMAND_ARGS)
    def test_parsed_arguments_are_the_full_parsers(self, command):
        argv = [command, *COMMAND_ARGS[command], "--format", "structured", "--signed"]
        if command == "scan":
            argv += ["--jobs", "2", "--cache", "c.jsonl", "--force"]
        one = build_parser(command).parse_args(argv)
        assert one == build_parser().parse_args(argv)
        assert one.command == command

    def test_main_builds_only_the_named_commands_parser(self, capsys, monkeypatch):
        monkeypatch.delenv("PKARITH_CACHE", raising=False)
        built = []

        def recording_build_parser(command=None):
            built.append(command)
            return build_parser(command)

        monkeypatch.setattr(cli, "build_parser", recording_build_parser)
        assert main(["scan", "3", "60", "2"]) == 0
        assert main(["roots", "7"]) == 0
        with pytest.raises(SystemExit):
            main(["--help"])
        with pytest.raises(SystemExit):
            main(["bogus"])
        capsys.readouterr()
        assert built == ["scan", "roots", None, None]

    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch):
        """The path the pkarith console script takes: main()."""
        monkeypatch.delenv("PKARITH_CACHE", raising=False)
        monkeypatch.setattr(sys, "argv", ["pkarith", "scan", "3", "60", "2"])
        assert main() == 0
        assert "first proper triplet at p = 59" in capsys.readouterr().out
        for argv in (["bogus"], ["scan", "3", "x"]):
            monkeypatch.setattr(sys, "argv", ["pkarith", *argv])
            assert _outcome(lambda _: main(), argv) == _outcome(main, argv)
