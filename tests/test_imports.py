"""clmtree runs on numpy and scipy.special: importing the package and its
critical-value tables loads none of the scipy subpackages that cost most
of the import time.  ``scipy.signal`` is imported where OU ``delta_mc``
needs it, ``scipy.fft`` where ``fgn`` transforms its spectrum, and
``scipy.stats`` only by the tests."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def test_import_loads_no_heavy_scipy_subpackage():
    code = ("import sys, clmtree\n"
            "clmtree.load_all_tables()\n"
            "print(' '.join(sorted(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout.split()
    assert "clmtree" in out and "scipy.special" in out
    for name in ("scipy.integrate", "scipy.stats", "scipy.signal",
                 "scipy.fft"):
        assert name not in out
