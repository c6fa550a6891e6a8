import os
import subprocess
import sys
from pathlib import Path

import relaycm


def test_harness_import_leaves_slow_scipy_modules_unloaded():
    # scipy.special, scipy.sparse and scipy.optimize are imported where
    # they are used, so the CLI and every pool worker start without them
    probe = ("import sys, relaycm.harness; "
             "print(' '.join(m for m in ('scipy.special', 'scipy.sparse', 'scipy.optimize') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(relaycm.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == ""
