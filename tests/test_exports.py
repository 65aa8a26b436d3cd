"""The export lists: every listed name resolves, once, in every module, and the
package re-exports only names its modules export."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mixedde

MODULES = sorted(f"mixedde.{m.name}" for m in pkgutil.iter_modules(mixedde.__path__))


def test_conftest_loads_every_module():
    # first in this file: the tests below import every module themselves
    assert [m for m in MODULES if m not in sys.modules] == []


@pytest.mark.parametrize("name", ["mixedde", *MODULES])
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_only_module_exports():
    exported = set().union(*(importlib.import_module(m).__all__ for m in MODULES))
    assert set(mixedde.__all__) <= exported


def test_importing_mixedde_starts_no_thread_and_no_executor():
    # the iteration kernel's helper thread starts on first need
    code = ("import sys, threading; n = threading.active_count(); import mixedde; "
            "print(threading.active_count() - n, 'concurrent.futures' in sys.modules)")
    src = str(Path(mixedde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.split() == ["0", "False"]
