"""Run the gate against the package in this checkout's `src`, with the
acceptance criteria of `tests` importable."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
