import sys
from pathlib import Path

# the harness modules import each other by bare name, as run.py does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
