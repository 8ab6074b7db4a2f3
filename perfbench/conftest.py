import sys
from pathlib import Path

# The benchmark measures the program in ``src/`` next to this directory.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
