"""Every name a module lists in ``__all__`` must exist in that module."""

import importlib
import pkgutil

import pytest

import hamcert

# ``hamcert.__main__`` runs the CLI on import and exports nothing.
MODULES = ["hamcert"] + [
    f"hamcert.{info.name}"
    for info in pkgutil.iter_modules(hamcert.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(exports) == len(set(exports)), f"{name}.__all__ repeats a name"
    missing = [export for export in exports if not hasattr(module, export)]
    assert missing == []

