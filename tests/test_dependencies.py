"""The core package imports nothing outside the standard library."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports every streamcc module and prints the top-level names of the
# modules that became newly loaded.
PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import streamcc
for info in pkgutil.iter_modules(streamcc.__path__, "streamcc."):
    importlib.import_module(info.name)
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_every_module_imports_only_the_standard_library():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    completed = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(json.loads(completed.stdout))
    assert "streamcc" in loaded
    # multiprocessing registers the main module under this alias; concurrent.futures loads it
    allowed = set(sys.stdlib_module_names) | {"streamcc", "__mp_main__"}
    assert sorted(loaded - allowed) == []
