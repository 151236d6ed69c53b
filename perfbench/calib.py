"""Host-speed calibration: a fixed slice of exact arithmetic, run between
questions.

The benchmark shares its machine with other work, and the speed of one core
drifts by more than 15 % over tens of seconds.  Every question is therefore
bracketed by a reference slice: row reduction of fixed small matrices over
Q and over GF(p), written here and not in the library, so no library change
can move it.  A question's time is scaled by NOMINAL_SLICE_S / (the median
slice time around it), i.e. reported at the host speed on which one slice
takes NOMINAL_SLICE_S.  Raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# one slice at nominal speed; the value only fixes the unit of the scaled
# times and must never change, or results before and after stop comparing
NOMINAL_SLICE_S = 0.005
# slices within this many seconds of a question estimate its host speed:
# many slices around a short question, the adjacent ones around a long one
NEAR_S = 0.5
MIN_NEAR = 2


def _rref(m, p=None):
    m = [row[:] for row in m]
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c] if p is None else pow(m[r][c], p - 2, p)
        m[r] = [x * inv if p is None else x * inv % p for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = [x - f * y if p is None else (x - f * y) % p
                        for x, y in zip(m[i], m[r])]
        r += 1
    return m


_Q = [[[Fraction((i * a + j * 13) % 11 - 5) for j in range(9)]
       for i in range(9)] for a in (7, 5, 3)]
_P = [[(i * 7 + j * j * 3 + 1) % 10007 for j in range(24)] for i in range(24)]


def reference_slice():
    """(midpoint, seconds) of one fixed slice of exact elimination.  The
    cyclic garbage collector is paused, so the slice never pays for
    collecting what a question left behind."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for m in _Q:
            _rref(m)
        _rref(_P, 10007)
        t1 = time.perf_counter()
        return (t0 + t1) / 2, t1 - t0
    finally:
        gc.enable()


def scale(slices, t0, t1):
    """NOMINAL_SLICE_S over the median slice near the interval [t0, t1]."""
    def gap(s):
        return max(t0 - s[0], s[0] - t1, 0.0)
    near = [d for mid, d in slices if gap((mid, d)) <= NEAR_S]
    if len(near) < MIN_NEAR:
        near = [d for _, d in sorted(slices, key=gap)[:MIN_NEAR]]
    return NOMINAL_SLICE_S / statistics.median(near)
