"""Tier-1 gate: no stale import or export survives a deletion.

Imports every ``examples/*.py`` as a module — each keeps its work under
a ``__main__`` guard, so nothing runs — and checks that every name in
every ``repro`` module's ``__all__`` resolves.  Without this gate a
deleted function can leave an example or a re-export broken that no
other test imports.
"""

import glob
import importlib
import importlib.util
import os
import pkgutil
import sys

import pytest

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "*.py")))


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_example_imports(path):
    name = "example_" + os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]


def test_every_exported_name_resolves():
    # ``__main__`` modules run their CLI on import, and export nothing.
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]
    unresolved = []
    for module_name in names:
        module = importlib.import_module(module_name)
        for exported in getattr(module, "__all__", ()):
            if not hasattr(module, exported):
                unresolved.append(f"{module_name}.{exported}")
    assert len(names) > 1
    assert unresolved == []
