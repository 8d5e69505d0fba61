import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "tests", ROOT / "src", BENCH):
    sys.path.insert(0, str(path))

import run  # noqa: E402

if "numpy" not in sys.modules:
    run.pin_threads()
