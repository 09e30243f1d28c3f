"""Machine-speed calibration, and one cold set-up of the lab.

Run as a script with the source directory as its argument, it times the
calibration loop and then one set-up (import, MUB families and split-attack
tables) in this fresh interpreter, and prints both in seconds. The benchmark
runs it several times per run for ``setup_s``, and calls ``set_up`` itself
before timing any workload, so no iteration pays for lazy set-up.
"""

import sys
import time

CALIBRATION_LOOPS = 500_000


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop that touches no program code.

    The host's speed drifts by tens of percent over seconds to minutes, and
    Python code slows with it; timings are scaled by this loop's time, taken
    next to them, to cancel the drift (see README.md).
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def set_up() -> None:
    from hlpuf_lab import cli, qstate  # noqa: F401  (cli imports every module)
    from hlpuf_lab.adversary import _cached_attack
    from hlpuf_lab.hybrid import SCHEMES

    for family in (qstate.bb84_family, qstate.mub4_family, qstate.mub8_family):
        family()
    for kind in SCHEMES:
        _cached_attack(kind, 0.5, None).tables


if __name__ == "__main__":
    calibration = calibration_s()
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    set_up()
    print(repr(time.perf_counter() - t0), repr(calibration))
