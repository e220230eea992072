"""Puts ``tools/`` on sys.path so the dev scripts import as modules.

The scripts under ``tools/`` are executables, not package members; the
tests import them directly (``import check_docs``), as a script run from
its own directory would.
"""

import sys
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parents[2] / "tools"
if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))
