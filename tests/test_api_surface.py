"""The package namespace: ``__all__`` names exactly what ``uavps`` binds.

A deleted function left in ``__all__`` would make ``from uavps import *``
fail, and one imported but left out would be missing from it.
"""

import inspect
import os
import subprocess
import sys

import uavps


def test_every_exported_name_resolves():
    missing = [name for name in uavps.__all__ if not hasattr(uavps, name)]
    assert not missing


def test_exports_have_no_duplicates():
    assert len(uavps.__all__) == len(set(uavps.__all__))


def test_exports_equal_the_public_names_bound_in_the_package():
    bound = {name for name, value in vars(uavps).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(uavps.__all__) == bound


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is most of a cold import; only high_regime_threshold needs it.
    src = os.path.dirname(os.path.dirname(uavps.__file__))
    check = "import sys, uavps; assert 'scipy.optimize' not in sys.modules"
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", check], env={**os.environ, "PYTHONPATH": path},
                   check=True, timeout=60)
