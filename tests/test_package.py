import subprocess
import sys

import revlcg


def test_every_exported_name_resolves():
    missing = [name for name in revlcg.__all__ if not hasattr(revlcg, name)]
    assert missing == []
    assert set(revlcg.__all__) <= set(dir(revlcg))


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(revlcg, "no_such_check")


def test_import_leaves_numpy_out_until_a_check_is_used():
    code = (
        "import sys, revlcg\n"
        "before = 'numpy' in sys.modules\n"
        "revlcg.roundtrip_sweep\n"
        "print(before, 'numpy' in sys.modules)"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.stdout == "False True\n", res.stderr
