import os
import subprocess
import sys
from pathlib import Path

import eqgrass


def test_all_names_resolve_once():
    names = eqgrass.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(eqgrass, name)]
    assert missing == []


def test_star_import_in_fresh_namespace():
    namespace = {}
    exec("from eqgrass import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(eqgrass.__all__)


def test_import_leaves_the_oracles_until_first_use():
    code = ("import sys, eqgrass; assert 'eqgrass.oracle' not in sys.modules; "
            "assert eqgrass.naive_solve is sys.modules['eqgrass.oracle'].naive_solve")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
