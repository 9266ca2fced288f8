"""Put the benchmark modules and the system under test on the path.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
for path in (HERE.parent, HERE.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
