"""Every function the benchmark's traced run wraps must still exist.

perfbench/layers.py names the traced functions by module and qualified
name; a refactor that renames or removes one would otherwise only surface
as a crash of ``perfbench/run.py --trace 1``.  The file is loaded read-only
and nothing under perfbench/ is imported as a package.
"""

import importlib
import importlib.util
import pathlib

import pytest

LAYERS_PY = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(module, qualname) for module, qualname, *_ in mod.LAYERS]


@pytest.mark.parametrize("module, qualname", _layers())
def test_traced_function_resolves(module, qualname):
    owner = importlib.import_module(f"cyclat.{module}")
    *cls_path, attr = qualname.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    # the tracer patches methods in their class's own namespace
    target = owner.__dict__[attr] if cls_path else getattr(owner, attr)
    assert callable(target)
