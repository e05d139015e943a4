"""Every seeded grid trial keeps its committed outcome and work."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).with_name("grid_fingerprint.py")
# the NumPy that made grid_fingerprint.txt; another release may round
# differently, so its trials need not take the same steps
FINGERPRINT_NUMPY = "2.4.6"


@pytest.mark.skipif(np.__version__ != FINGERPRINT_NUMPY,
                    reason=f"fingerprints were made with numpy {FINGERPRINT_NUMPY}, "
                           f"this is {np.__version__}")
def test_grid_trials_keep_their_outcome_and_work():
    done = subprocess.run([sys.executable, str(SCRIPT), "--check"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
