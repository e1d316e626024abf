"""tools/predict_ab.py, the in-process predict A/B of two checkouts: run
against its own checkout on a few tiny records, it prints a finite time
ratio and finds the two imports' predictions identical. No timing is
checked."""

import importlib.util
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "predict_ab", ROOT / "tools" / "predict_ab.py")
predict_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(predict_ab)


def test_own_checkout_prints_a_finite_ratio(capsys):
    try:
        assert predict_ab.main([str(ROOT)], preset="tiny", n_per_class=2,
                               passes=2) == 0
    finally:
        for name in ("betamix_parent", "betamix_change"):
            for module in [m for m in sys.modules
                           if m == name or m.startswith(name + ".")]:
                del sys.modules[module]
    out = capsys.readouterr().out
    assert "identical predictions: yes" in out, out
    (ratio,) = re.findall(r"ratio change/parent: (\S+)", out)
    assert math.isfinite(float(ratio)) and float(ratio) > 0, out


def test_needs_one_checkout(capsys):
    assert predict_ab.main([]) == 1
    assert "usage:" in capsys.readouterr().err
