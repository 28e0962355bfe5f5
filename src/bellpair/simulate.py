"""Seeded Monte Carlo coincidence counts from the joint outcome law.

For analyzer directions a, b and a state with Bloch vectors A, P and
correlation matrix D, the joint +-1 outcome probabilities are

    p(s, t) = (1 + s a.A + t b.P + s t a.(D b)) / 4 .

Counts are multinomial draws from that law, reproducible bit-for-bit under
this stream contract:

* each setting gets its own Philox counter-based stream with the 128-bit
  key ``seed << 64 | setting index``, so a setting's counts do not depend
  on which settings come before or after it;
* each event is the top 53 bits of one raw 64-bit Philox word;
* the three cumulative probabilities of the outcomes in the fixed order
  (++, +-, -+, --) are rounded to integer edges on [0, 2^53], the draws
  below each edge are counted, and an outcome's count is the difference
  of consecutive totals (a zero-probability outcome has a zero-width bin
  and is never drawn).  A draw is below an edge e exactly when its raw
  word is below e * 2^11, so the raw words are compared unshifted, and an
  edge of 2^53 counts every draw;
* draws are made in fixed chunks of ``CHUNK`` words, which bounds memory
  at any event count and gives the same words as a single draw.

numpy, which the rest of bellpair does not use, draws the Philox words and
counts them; it is imported on the first draw.

Settings are drawn concurrently, striped over up to one thread per usable
core and per ``_THREAD_WORDS`` words of the run. The calling thread is one
of them, so a one-core host, a one-setting run or a short run starts no
thread. Each setting still reads only its own stream, so the counts do not
depend on the thread count or on scheduling.
"""
from __future__ import annotations

import itertools
import math
import operator
import os
import threading
from collections import namedtuple

from .protocol import CountTable, angle_to_direction, correlation
from .states import DensityMatrix, PauliDecomposition, decompose

_BITS = 53
_SCALE = float(1 << _BITS)
CHUNK = 1 << 16  # raw words drawn at a time
_THREAD_WORDS = 1 << 16  # words per thread below which a thread's start-up costs more than it saves


class SimConfigError(ValueError):
    """Angles, events per setting or seed that no simulation run accepts."""


class SimConfig(namedtuple("SimConfig", "state settings events_per_setting seed")):
    """One simulation run: a :class:`DensityMatrix`, angle pairs read by ``float`` as state-file numbers
    are (numeric strings and bools pass) into ``(float, float)`` tuples, events per pair and seed as ``int``."""

    __slots__ = ()

    def __new__(cls, state: DensityMatrix, settings, events_per_setting: int, seed: int) -> SimConfig:
        ints = []
        for name, value in zip(cls._fields[2:], (events_per_setting, seed)):
            try:
                ints.append(operator.index(value))
            except TypeError:
                raise SimConfigError(f"{name} must be an integer, got {value!r}") from None
        events_per_setting, seed = ints
        if events_per_setting < 1:
            raise SimConfigError("events_per_setting must be >= 1")
        if not (0 <= seed < 2**64):
            raise SimConfigError("seed must be a 64-bit unsigned integer")
        try:
            settings = tuple((float(p1), float(p2)) for p1, p2 in settings)
        except (TypeError, ValueError):
            raise SimConfigError("settings must be (phi1, phi2) pairs of numbers") from None
        except OverflowError:  # an int beyond the float range
            raise SimConfigError("settings angles must be finite") from None
        if not all(math.isfinite(phi) for pair in settings for phi in pair):
            raise SimConfigError("settings angles must be finite")
        return super().__new__(cls, state, settings, events_per_setting, seed)


def joint_probabilities(pd: PauliDecomposition, phi1: float, phi2: float) -> tuple[float, float, float, float]:
    """Outcome probabilities (p++, p+-, p-+, p--) for one angle pair, from a state's Pauli form."""
    s1, _, c1 = angle_to_direction(phi1)
    s2, _, c2 = angle_to_direction(phi2)
    sa = s1 * pd.A[0] + c1 * pd.A[2]
    sb = s2 * pd.P[0] + c2 * pd.P[2]
    sab = correlation(pd.D, phi1, phi2)
    return tuple(max(0.0, (1.0 + s * sa + t * sb + s * t * sab) / 4.0) for s in (1.0, -1.0) for t in (1.0, -1.0))


def _stream_key(seed: int, index: int) -> int:
    return (seed << 64) | index


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _draw_counts(probs, n: int, key: int) -> list[int]:
    import numpy as np

    # the cumulative sums, added left to right, rounded to nearest with ties to even, as bounds
    # on the raw words; None for an edge of 2^53 (or above), whose bound does not fit 64 bits
    edges = [round(c * _SCALE) for c in itertools.accumulate(probs[:3])]
    bounds = [None if edge >> _BITS else np.uint64(edge << (64 - _BITS)) for edge in edges]
    bitgen = np.random.Philox(key=key)
    below = [0, 0, 0]
    for start in range(0, n, CHUNK):
        size = min(CHUNK, n - start)
        words = bitgen.random_raw(size)
        for k, bound in enumerate(bounds):
            below[k] += size if bound is None else int(np.count_nonzero(words < bound))
        del words  # so a thread never holds two chunks
    return [below[0], below[1] - below[0], below[2] - below[1], n - below[2]]


def simulate(cfg: SimConfig) -> list[CountTable]:
    """Coincidence counts per setting; identical config, identical counts.

    Worker threads call only ``_draw_counts``; the decomposition, the
    probabilities and the tables are made on the calling thread.
    """
    pd = decompose(cfg.state)
    jobs = [(joint_probabilities(pd, phi1, phi2), _stream_key(cfg.seed, index))
            for index, (phi1, phi2) in enumerate(cfg.settings)]
    counts: list = [None] * len(jobs)
    errors: dict[int, BaseException] = {}
    words = len(jobs) * cfg.events_per_setting
    workers = max(1, min(len(jobs), _usable_cores(), words // _THREAD_WORDS))

    def work(first: int) -> None:
        for index in range(first, len(jobs), workers):
            if errors:  # another setting failed; its error is raised after join
                return
            try:
                probs, key = jobs[index]
                counts[index] = _draw_counts(probs, cfg.events_per_setting, key)
            except BaseException as exc:
                errors[index] = exc
                return

    helpers = [threading.Thread(target=work, args=(first,)) for first in range(1, workers)]
    for thread in helpers:
        thread.start()
    work(0)
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return [CountTable(*pair, *pair_counts) for pair, pair_counts in zip(cfg.settings, counts)]
