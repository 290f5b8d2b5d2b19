"""The package's only runtime dependency is numpy."""

import subprocess
import sys
from pathlib import Path

import evsched

IMPORT_ALL = """
import sys
before = set(sys.modules)
import importlib, pkgutil, evsched
for info in pkgutil.walk_packages(evsched.__path__, "evsched."):
    importlib.import_module(info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(name for name in loaded - sys.stdlib_module_names
                      if not name.startswith("__"))))
"""


def test_every_module_imports_only_numpy_beyond_the_stdlib():
    # a fresh interpreter, so modules the test run has loaded do not count;
    # names loaded before the first import (site hooks) do not count either
    src = str(Path(evsched.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", IMPORT_ALL], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": src}, timeout=120)
    assert out.stdout.split() == ["evsched", "numpy"]


IMPORT_CLI = """
import sys
import evsched.cli
print(" ".join(sorted(name for name in sys.modules
                      if name.partition(".")[0] in ("multiprocessing", "concurrent"))))
"""


def test_the_cli_loads_no_multiprocessing():
    # only `simulate --workers` above 1 needs a process pool; every other
    # call of the CLI would pay for loading it (about 2 MB and 9 ms)
    src = str(Path(evsched.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", IMPORT_CLI], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": src}, timeout=120)
    assert out.stdout.split() == []
