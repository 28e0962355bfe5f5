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
  and is never drawn);
* draws are made in fixed chunks of ``CHUNK`` words, which bounds memory
  at any event count and gives the same words as a single draw.

Settings are drawn concurrently, striped over up to one thread per usable
core and per ``_THREAD_WORDS`` words of the run. The calling thread is one
of them, so a one-core host, a one-setting run or a short run starts no
thread. Each setting still reads only its own stream, so the counts do not
depend on the thread count or on scheduling.
"""
from __future__ import annotations

from dataclasses import dataclass
import operator
import os
import threading

import numpy as np

from .protocol import CountTable, angle_to_direction
from .states import DensityMatrix, PauliDecomposition, decompose

_BITS = 53
_SCALE = float(1 << _BITS)
_SHIFT = np.uint64(64 - _BITS)
CHUNK = 1 << 16  # raw words drawn at a time
_THREAD_WORDS = 1 << 16  # words per thread below which a thread's start-up costs more than it saves


class SimConfigError(ValueError):
    """Events per setting or seed that no simulation run accepts."""


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: state, angle pairs, events per pair, seed."""

    state: DensityMatrix
    settings: tuple[tuple[float, float], ...]
    events_per_setting: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("events_per_setting", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise SimConfigError(f"{name} must be an integer, got {value!r}") from None
        if self.events_per_setting < 1:
            raise SimConfigError("events_per_setting must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise SimConfigError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "settings", tuple((float(p1), float(p2)) for p1, p2 in self.settings))


def joint_probabilities(rho: DensityMatrix, phi1: float, phi2: float) -> np.ndarray:
    """Outcome probabilities (p++, p+-, p-+, p--) for one angle pair."""
    return _probabilities(decompose(rho), phi1, phi2)


def _probabilities(pd: PauliDecomposition, phi1: float, phi2: float) -> np.ndarray:
    a = angle_to_direction(phi1)
    b = angle_to_direction(phi2)
    sa = float(a @ pd.A)
    sb = float(b @ pd.P)
    sab = float(a @ pd.D @ b)
    probs = np.array(
        [
            (1.0 + sa + sb + sab) / 4.0,
            (1.0 + sa - sb - sab) / 4.0,
            (1.0 - sa + sb - sab) / 4.0,
            (1.0 - sa - sb + sab) / 4.0,
        ]
    )
    return np.clip(probs, 0.0, None)


def _stream_key(seed: int, index: int) -> int:
    return (seed << 64) | index


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _draw_counts(probs: np.ndarray, n: int, key: int) -> list[int]:
    edges = np.rint(np.cumsum(probs[:3]) * _SCALE).astype(np.uint64)
    bitgen = np.random.Philox(key=key)
    below = [0, 0, 0]
    for start in range(0, n, CHUNK):
        draws = bitgen.random_raw(min(CHUNK, n - start))
        np.right_shift(draws, _SHIFT, out=draws)
        for k, edge in enumerate(edges):
            below[k] += int(np.count_nonzero(draws < edge))
        del draws  # so a thread never holds two chunks
    return [below[0], below[1] - below[0], below[2] - below[1], n - below[2]]


def simulate(cfg: SimConfig) -> list[CountTable]:
    """Coincidence counts per setting; identical config, identical counts.

    Worker threads call only ``_draw_counts``; the decomposition, the
    probabilities and the tables are made on the calling thread.
    """
    pd = decompose(cfg.state)
    jobs = [(_probabilities(pd, phi1, phi2), _stream_key(cfg.seed, index))
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
    return [
        CountTable(phi1=phi1, phi2=phi2, n_pp=n_pp, n_pm=n_pm, n_mp=n_mp, n_mm=n_mm)
        for (phi1, phi2), (n_pp, n_pm, n_mp, n_mm) in zip(cfg.settings, counts)
    ]
