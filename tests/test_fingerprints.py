"""Every benchmark panel answer and seeded grid trial matches its
committed fingerprint: the same answers, reached with the same work."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

# the NumPy that made the fingerprint files; another release may round
# differently, so its answers need not be bit-identical to these
FINGERPRINT_NUMPY = "2.4.6"


@pytest.mark.skipif(np.__version__ != FINGERPRINT_NUMPY,
                    reason=f"fingerprints were made with numpy {FINGERPRINT_NUMPY}, "
                           f"this is {np.__version__}")
@pytest.mark.parametrize("script", ["panel_fingerprint.py",
                                    "grid_fingerprint.py"])
def test_fingerprint_matches(script):
    done = subprocess.run([sys.executable, str(Path(__file__).with_name(script)),
                           "--check"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
