"""The export lists: every listed name resolves, once, in every module, and the
package re-exports only names its modules export."""

import importlib
import pkgutil

import pytest

import mixedde

MODULES = sorted(f"mixedde.{m.name}" for m in pkgutil.iter_modules(mixedde.__path__))


@pytest.mark.parametrize("name", ["mixedde", *MODULES])
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_only_module_exports():
    exported = set().union(*(importlib.import_module(m).__all__ for m in MODULES))
    assert set(mixedde.__all__) <= exported
