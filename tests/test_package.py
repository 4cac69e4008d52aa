import inspect
import subprocess
import sys
from importlib import import_module

import revlcg


def run_fresh(code):
    """Run ``code`` in a fresh interpreter and return what it printed."""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_every_exported_name_resolves():
    missing = [name for name in revlcg.__all__ if not hasattr(revlcg, name)]
    assert missing == []
    assert set(revlcg.__all__) <= set(dir(revlcg))
    assert len(set(revlcg.__all__)) == len(revlcg.__all__)
    for name in revlcg.__all__:
        home = import_module(f"revlcg.{revlcg._HOMES[name]}")
        value = getattr(revlcg, name)
        assert value is getattr(home, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__, name
    star = (
        "from revlcg import *\n"
        "import revlcg\n"
        "print([n for n in revlcg.__all__ if globals().get(n) is not getattr(revlcg, n)])"
    )
    assert run_fresh(star) == "[]\n"


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(revlcg, "no_such_check")


def test_import_leaves_numpy_out_until_a_check_is_used():
    code = (
        "import sys, revlcg\n"
        "before = 'numpy' in sys.modules\n"
        "revlcg.roundtrip_sweep\n"
        "print(before, 'numpy' in sys.modules)"
    )
    assert run_fresh(code) == "False True\n"


def test_a_cold_derivation_loads_only_congruence():
    code = (
        "import sys, revlcg\n"
        "revlcg.derive_inverse(revlcg.LcgParams(1029, 1731, 2048))\n"
        "names = ['revlcg.congruence', 'revlcg.generator', 'revlcg.rund',\n"
        "         'revlcg.verification', 'decimal', 'fractions', 'numpy']\n"
        "print(sorted(n for n in names if n in sys.modules))\n"
        "revlcg.CoupledState\n"
        "print('CoupledState' in vars(revlcg), sorted(n for n in names if n in sys.modules))"
    )
    assert run_fresh(code).splitlines() == [
        "['revlcg.congruence']",
        "True ['decimal', 'fractions', 'revlcg.congruence', 'revlcg.generator']",
    ]
