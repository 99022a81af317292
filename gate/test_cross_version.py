"""The report bytes across interpreters, opt-in and outside tier-1:
`python3 -m pytest gate`.

`explore --p-list 2,3,5 --d-max 4 --json` runs with this checkout's `src`
under each CPython 3.10-3.13 that starts, and every run must write the same
pinned bytes.  Each interpreter is looked up as `python3.X` on PATH, then
as `~/.pyenv/versions/3.X.*/bin/python3.X`; one that is absent or does not
start is skipped, and the test fails if none starts.
"""

import glob
import hashlib
import os
import shutil
import subprocess
from pathlib import Path

VERSIONS = ("3.10", "3.11", "3.12", "3.13")
ARGV = ("-m", "strata_cones.cli", "explore", "--p-list", "2,3,5",
        "--d-max", "4", "--json")
# sha256 of the command's stdout, the report and a final newline
REPORT_SHA256 = (
    "6d41d361cc2c0c725305d24435a4a93835cd97f4380381afde10c384028a91c1")
SRC = Path(__file__).resolve().parent.parent / "src"
TIMEOUT_SECONDS = 300


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


def test_report_bytes_are_the_same_on_every_interpreter():
    digests = {}
    for version in VERSIONS:
        path = interpreter(version)
        if path is None:
            continue
        run = subprocess.run(
            [path, *ARGV], env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, timeout=TIMEOUT_SECONDS)
        # exit code 2: the report holds the failures of criterion 3
        assert run.returncode == 2, (version, path, run.stderr[-2000:])
        digests[version] = hashlib.sha256(run.stdout).hexdigest()
    assert digests, f"no CPython of {', '.join(VERSIONS)} starts"
    assert digests == dict.fromkeys(digests, REPORT_SHA256)
