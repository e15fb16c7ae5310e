"""``python -m benchmarks.e2e [options]`` is ``python3 benchmarks/e2e/run.py``."""

import runpy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
runpy.run_path(str(HERE / "run.py"), run_name="__main__")
