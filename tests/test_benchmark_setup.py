"""The benchmark's cold set-up still finds every program name it imports."""

import importlib.util
from pathlib import Path


def test_benchmark_set_up_runs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "setup_probe.py"
    spec = importlib.util.spec_from_file_location("setup_probe", path)
    setup_probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(setup_probe)
    setup_probe.set_up()
