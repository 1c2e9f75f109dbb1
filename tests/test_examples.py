"""Every ``examples/*.py`` script runs to completion.

The examples are callers of the public surface (``tests/test_public_surface.py``
counts them), so each one is run as a subprocess, as a reader would run it,
and must exit 0.
"""

import glob
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "*.py")))


def test_examples_were_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=os.path.basename)
def test_example_exits_0(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, script], cwd=REPO_ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, universal_newlines=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "%s printed nothing" % script
