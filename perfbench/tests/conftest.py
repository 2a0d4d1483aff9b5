import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the benchmark's modules are flat files next to run.py; gridest lives in src/
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
