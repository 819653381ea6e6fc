"""Import the program from the checkout this benchmark sits in.

The benchmark runs from the root of a source checkout; it measures the
``repro`` package under that checkout's ``src/`` and nothing installed
elsewhere, and refuses to run without it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Put ``src/`` first on the path and import ``repro`` from it."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")
    return repro
