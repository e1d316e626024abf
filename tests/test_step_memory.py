"""tools/step_memory.py, the per-preset memory of a train step: run on
this checkout's tiny preset for a few steps, it prints a finite peak, live
bytes within the peak and a fault count. No figure is checked."""

import importlib.util
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "step_memory", ROOT / "tools" / "step_memory.py")
step_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_memory)


def test_tiny_preset_prints_its_figures(capsys):
    assert step_memory.main([], presets=(("tiny", 8),), steps=2) == 0
    out = capsys.readouterr().out
    (line,) = out.splitlines()
    peak, live, faults = re.fullmatch(
        r"tiny batch 8: step peak (\S+) MiB, live between steps (\S+) MiB, "
        r"(\S+) minor faults per step \(2 steps\)", line).groups()
    assert math.isfinite(float(peak)) and float(peak) > 0, out
    assert 0 <= float(live) <= float(peak), out
    assert int(faults) >= 0, out


def test_takes_no_arguments(capsys):
    assert step_memory.main(["paper"]) == 1
    assert "usage:" in capsys.readouterr().err
