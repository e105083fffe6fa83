"""The calibration that scales the benchmark's times to a reference speed.

The shared machine's speed drifts by up to 2x over minutes.  A time t
measured next to a calibration that took c seconds is reported as
t * CALIB_REF_S / c; see README.md, "Machine speed".
"""

import gc
import random
from fractions import Fraction
from time import perf_counter

from oracles import pmul, rank

# calibration_s() on the reference machine in a quiet phase
CALIB_REF_S = 0.020


def _calibration_inputs():
    rng = random.Random(0)
    mat = [[Fraction(rng.randint(-3, 3)) for _ in range(9)] for _ in range(9)]
    poly = {tuple(rng.randint(0, 3) for _ in range(4)):
            Fraction(rng.randint(1, 5)) for _ in range(20)}
    return mat, poly


CALIB_MAT, CALIB_POLY = _calibration_inputs()


def calibration_s():
    """Time of a fixed piece of exact arithmetic from the benchmark's own
    kit: Fraction elimination and dict-polynomial products, the kind of
    work pforge does, with none of pforge's code, so that no change to
    pforge can move it.  It makes no reference cycles, so the cyclic
    garbage collector is off while it runs: a collection of the jobs'
    garbage would otherwise land in it now and then."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        rank(CALIB_MAT)
        pmul(CALIB_POLY, pmul(CALIB_POLY, CALIB_POLY))
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
