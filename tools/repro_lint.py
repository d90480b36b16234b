#!/usr/bin/env python3
"""CI entry point for the repro invariant linter.

Run from the repository root::

    python tools/repro_lint.py src/repro

Thin wrapper over :mod:`repro.analysis.lint` so CI does not need the package
installed — it only needs ``src`` on the path.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.lint import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
