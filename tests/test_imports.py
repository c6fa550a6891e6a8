import os
import subprocess
import sys
from pathlib import Path

import relaycm


def test_harness_import_leaves_slow_scipy_modules_unloaded():
    # scipy.special and scipy.optimize are imported where they are used,
    # and the package never imports scipy.sparse, so the CLI and every
    # pool worker start without them
    probe = ("import sys, relaycm.harness; "
             "print(' '.join(m for m in ('scipy.special', 'scipy.sparse', 'scipy.optimize') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(relaycm.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == ""


def test_harness_import_leaves_the_process_pool_unloaded():
    # the pool is imported only by a sweep that runs more than one worker
    probe = ("import sys, relaycm.harness; "
             "print(' '.join(m for m in ('concurrent.futures.process', 'multiprocessing') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(relaycm.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == ""


_SWEEP_PROBE = """
import sys
from relaycm.channel import transition_matrix
from relaycm.constellation import build_constellation
from relaycm.harness import main

transition_matrix(build_constellation("qam16"), 10.0, method="analytic")
with open(sys.argv[2], "w") as fh:
    fh.write("[run]\\nkind = snr_region\\n[link]\\nvariants = hd_matched, scale\\n"
             "[sweep]\\nsnr1_db = 17\\nn_symbols = 500\\ntol_db = 0.5\\n")
assert main(["snr-region", "--config", sys.argv[2], "--out", sys.argv[1]]) == 0
print("scipy.special" in sys.modules)
"""


def test_analytic_dmc_sweep_never_loads_scipy_special(tmp_path):
    # the analytic transition matrix has its own normal CDF, so a sweep
    # over it does not pay for importing scipy.special
    env = dict(os.environ, PYTHONPATH=str(Path(relaycm.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", _SWEEP_PROBE, str(tmp_path / "out"),
                          str(tmp_path / "sweep.ini")],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


_MA_PROBE = """
import sys
import numpy as np
from relaycm.constellation import build_constellation
from relaycm.harness import main
from relaycm.scldpc import build_code

build_constellation("qam16")
build_constellation("qam32")
with open(sys.argv[2], "w") as fh:
    fh.write("[run]\\nkind = snr_region\\n[link]\\nvariants = hd_matched, scale\\n"
             "[sweep]\\nsnr1_db = 17\\nn_symbols = 500\\ntol_db = 0.5\\n")
assert main(["snr-region", "--config", sys.argv[2], "--out", sys.argv[1]]) == 0
code = build_code(8, 4, 2)
code.encode(np.zeros(code.k, dtype=np.uint8))
print("numpy.ma" in sys.modules)
"""


def test_sweeps_never_load_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, about 1 MB and 10 ms in every process;
    # the package counts distinct values without it
    env = dict(os.environ, PYTHONPATH=str(Path(relaycm.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", _MA_PROBE, str(tmp_path / "out"),
                          str(tmp_path / "sweep.ini")],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


_POOL_PROBE = """
import sys
from relaycm.harness import main

with open(sys.argv[2], "w") as fh:
    fh.write("[run]\\nkind = distance_contour\\n[sweep]\\nspans1 = 0, 4\\n"
             "n_symbols = 500\\ntol_db = 0.5\\n")
assert main(["distance-contour", "--config", sys.argv[2], "--out", sys.argv[1],
             "--workers", "2"]) == 0
print("numpy.random" in sys.modules)
"""


def test_pooled_sweep_parent_never_loads_numpy_random(tmp_path):
    # each worker derives its point's seed, so the parent of a pooled
    # sweep draws no random numbers and leaves numpy.random unloaded
    env = dict(os.environ, PYTHONPATH=str(Path(relaycm.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", _POOL_PROBE, str(tmp_path / "out"),
                          str(tmp_path / "sweep.ini")],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
    rows = (tmp_path / "out" / "distance_hd_matched_f0.csv").read_text().splitlines()[-2:]
    assert [r.split(",")[0] for r in rows] == ["0.0", "4.0"]


def test_alist_export_leaves_scipy_sparse_unloaded():
    # the alist is read off the decoder's slot layout, not a sparse matrix
    probe = ("import sys; from relaycm.scldpc import build_code; "
             "build_code(8, 4, 2).to_alist(); print('scipy.sparse' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(relaycm.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_every_exported_name_resolves():
    missing = [name for name in relaycm.__all__ if not hasattr(relaycm, name)]
    assert missing == []
    assert len(set(relaycm.__all__)) == len(relaycm.__all__)
