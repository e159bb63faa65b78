"""`import rmproduct` loads the coding library; the sweep layer loads on first use."""

import os
import subprocess
import sys
from pathlib import Path

import rmproduct

# Run in a fresh interpreter, so that no other test's imports can hide an eager one.
FRESH_IMPORT = """
import sys
import rmproduct
heavy = ["rmproduct.sim", "rmproduct.cli", "concurrent.futures.process", "multiprocessing", "json"]
loaded = [name for name in heavy if name in sys.modules]
assert not loaded, f"import rmproduct loaded {loaded}"
for name in rmproduct.__all__:
    getattr(rmproduct, name)
assert rmproduct.run_point is rmproduct.sim.run_point
assert "SimConfig" in dir(rmproduct)
star = {}
exec("from rmproduct import *", star)
missing = set(rmproduct.__all__) - set(star)
assert not missing, f"from rmproduct import * did not bind {sorted(missing)}"
try:
    rmproduct.nonexistent
except AttributeError:
    pass
else:
    raise AssertionError("rmproduct.nonexistent resolved")
print("ok")
"""


def test_import_loads_the_sweep_layer_only_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(Path(rmproduct.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", FRESH_IMPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
