"""Import-graph checks: every module imports on its own, and the yield
paths never load the graph libraries they do not call.

Both run in a fresh interpreter, because the test session has already
imported most of ``repro`` (and networkx) by the time they run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Walks every ``repro`` module and imports each first and alone: all
#: ``repro*`` entries leave ``sys.modules`` before each import, so a cycle
#: that a lucky import order would hide still fails.
_WALK = """
import importlib, pkgutil, sys, traceback
import repro

names = sorted(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))
failed = []
for name in names:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failed.append(f"{name}: {type(exc).__name__}: {exc}")
print(len(names))
print("\\n".join(failed))
"""

_HEAVY = """
import sys
import {module}
print(" ".join(m for m in ("networkx", "scipy.sparse") if m in sys.modules))
"""


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_every_module_imports_first_and_alone():
    count, *failed = _run(_WALK).strip().split("\n")
    assert int(count) > 80
    assert not [line for line in failed if line], "\n".join(failed)


def test_yield_and_service_imports_skip_networkx_and_sparse():
    for module in ("repro.analysis.registry", "repro.service.manager"):
        assert _run(_HEAVY.format(module=module)).strip() == "", module
