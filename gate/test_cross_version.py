"""The report bytes and the command line's replies across interpreters,
opt-in and outside tier-1: `python3 -m pytest gate`.

`explore --p-list 2,3,5 --d-max 4 --json` runs with this checkout's `src`
under each CPython 3.10-3.13 that starts, with one job and with two, and
every run must write the same pinned bytes.  So must the replies to each
value flag joined to "--", which argparse reads as an empty list of values
up to 3.12 and as the value "--" from 3.13, to a weight with a leading
minus sign, to an empty -o path and to a composite --p-list entry: the
same exit code, stdout and stderr from every interpreter.  So must each
usage error of the pinned replies, the top-level refusals, the top-level
help and each subcommand's help, which the command writes itself at 80
columns whatever COLUMNS says.  Each interpreter is looked up as
`python3.X` on PATH, then as `~/.pyenv/versions/3.X.*/bin/python3.X`; one
that is absent or does not start is skipped, and a test fails if none
starts.
"""

import glob
import hashlib
import os
import shutil
import subprocess
from pathlib import Path

from test_cli import DASH_DASH_ARGVS, HELPS, REPLIES, TOP_HELP, TOP_USAGE

VERSIONS = ("3.10", "3.11", "3.12", "3.13")
ARGV = ("-m", "strata_cones.cli", "explore", "--p-list", "2,3,5",
        "--d-max", "4", "--json")
# sha256 of the command's stdout, the report and a final newline
REPORT_SHA256 = (
    "6d41d361cc2c0c725305d24435a4a93835cd97f4380381afde10c384028a91c1")
SRC = Path(__file__).resolve().parent.parent / "src"
TIMEOUT_SECONDS = 300
NEGATIVE_WEIGHT = ("member", "--p", "2", "--cycles", "3", "--t", "0.1",
                   "--weight", "-1,0,0")
# refused: an empty path is a path, and the library refuses a composite
EMPTY_OUTPUT = ("member", "--p", "2", "--cycles", "3", "--t", "0.1",
                "--weight", "1,0,0", "-o", "")
COMPOSITE_P_LIST = ("explore", "--p-list", "4", "--d-max", "1")
# refused under the top-level usage: no subcommand, a leftover, an unknown
# subcommand (whose choices argparse 3.13.13 lists without quotes) and a
# "--" before the subcommand (which argparse 3.13.13 drops and runs)
TOP_LEVEL_REFUSALS = ((), ("describe", "--p", "2", "--cycles", "3", "--t",
                           "0.1", "--bogus"), ("bogus",),
                      ("--", "describe", "--p", "2", "--cycles", "3", "--t",
                       "0.1"))


def starts(path: str, version: str) -> bool:
    """Does the interpreter at `path` start and report `version`?"""
    try:
        probe = subprocess.run(
            [path, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60)
    except OSError:
        return False
    return probe.returncode == 0 and probe.stdout.strip() == version


def interpreter(version: str) -> str | None:
    """The first interpreter of `version` that starts, or None."""
    candidates = [shutil.which(f"python{version}"), *sorted(glob.glob(
        os.path.expanduser(f"~/.pyenv/versions/{version}.*/bin/"
                           f"python{version}")))]
    return next((path for path in candidates
                 if path and starts(path, version)), None)


def interpreters() -> dict[str, str]:
    """Each version's interpreter that starts; at least one."""
    paths = {version: interpreter(version) for version in VERSIONS}
    paths = {version: path for version, path in paths.items() if path}
    assert paths, f"no CPython of {', '.join(VERSIONS)} starts"
    return paths


def report_digests(argv) -> dict[str, str]:
    """The sha256 of the report `argv` writes, on each interpreter."""
    digests = {}
    for version, path in interpreters().items():
        run = subprocess.run(
            [path, *argv], env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, timeout=TIMEOUT_SECONDS)
        # exit code 2: the report holds the failures of criterion 3
        assert run.returncode == 2, (version, path, run.stderr[-2000:])
        digests[version] = hashlib.sha256(run.stdout).hexdigest()
    return digests


def test_report_bytes_are_the_same_on_every_interpreter():
    digests = report_digests(ARGV)
    assert digests == dict.fromkeys(digests, REPORT_SHA256)


def test_report_bytes_with_two_jobs_are_the_same_on_every_interpreter():
    # the record tasks are pickled to the workers, and how a class without
    # `__dict__` pickles has changed between versions
    digests = report_digests((*ARGV, "--jobs", "2"))
    assert digests == dict.fromkeys(digests, REPORT_SHA256)


def replies(paths: dict[str, str], argv, cwd) -> tuple:
    """The exit code, stdout and stderr of `argv` at 80 columns, the same
    from each interpreter in `paths`, none of which writes a file."""
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    by_version = {}
    for version, path in paths.items():
        run = subprocess.run(
            [path, "-m", "strata_cones.cli", *argv], cwd=cwd,
            env=env, capture_output=True, timeout=TIMEOUT_SECONDS)
        by_version[version] = (run.returncode, run.stdout, run.stderr)
        assert list(cwd.iterdir()) == [], (version, argv)
    reply = next(iter(by_version.values()))
    assert by_version == dict.fromkeys(by_version, reply), argv
    return reply


def test_replies_are_the_same_on_every_interpreter(tmp_path):
    paths = interpreters()
    for argv in [*(argv for argv, _ in DASH_DASH_ARGVS), NEGATIVE_WEIGHT,
                 EMPTY_OUTPUT, COMPOSITE_P_LIST]:
        reply = replies(paths, argv, tmp_path)
        if argv == NEGATIVE_WEIGHT:
            assert reply[0] == 0 and reply[2] == b"", reply
        else:
            errors = [line for line in reply[2].splitlines()
                      if b"error:" in line]
            assert reply[:2] == (3, b"") and len(errors) == 1, reply


def test_usage_lines_and_the_help_are_the_same_on_every_interpreter(
        tmp_path):
    # the walk finds each refusal and writes its usage line, and writes the
    # help, where argparse 3.13 wrote "-o, --output OUTPUT"
    paths = interpreters()
    for argv, pinned in REPLIES.items():
        if pinned[0] == 3:
            assert replies(paths, argv, tmp_path) == (
                3, b"", pinned[2].encode()), argv
    for argv in TOP_LEVEL_REFUSALS:
        reply = replies(paths, argv, tmp_path)
        assert reply[:2] == (3, b"") and reply[2].startswith(
            TOP_USAGE.encode()), reply
    assert replies(paths, ["-h"], tmp_path) == (0, TOP_HELP.encode(), b"")
    for name, text in HELPS.items():
        assert replies(paths, [name, "-h"], tmp_path) == (
            0, text.encode(), b""), name
