"""``tests/digest.py`` runs from the command line as documented."""

import os
import re
import subprocess
import sys
from pathlib import Path

from digest import CASES

ROOT = Path(__file__).resolve().parent.parent


def test_the_smallest_case_prints_one_digest():
    smallest = CASES[0].name  # the first case is the smallest
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "tests/digest.py", smallest], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert re.fullmatch(r"[0-9a-f]{64}  1 runs\n", out)
