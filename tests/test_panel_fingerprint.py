"""Every benchmark panel answer matches its committed fingerprint."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).with_name("panel_fingerprint.py")
# the NumPy that made panel_fingerprint.txt; another release may round
# differently, so its answers need not be bit-identical to these
FINGERPRINT_NUMPY = "2.4.6"


@pytest.mark.skipif(np.__version__ != FINGERPRINT_NUMPY,
                    reason=f"fingerprints were made with numpy {FINGERPRINT_NUMPY}, "
                           f"this is {np.__version__}")
def test_panel_answers_are_bit_identical():
    done = subprocess.run([sys.executable, str(SCRIPT), "--check"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
