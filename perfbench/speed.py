"""Host-speed probes: fixed pieces of work, timed next to each measured part.

On a small shared host the CPU switches between speeds up to 1.7x apart,
every few seconds and for stretches of up to a minute (most likely a sibling
hardware thread going busy or idle). A part's time divided by the slowdown
of a probe run just before it is steady across those switches, as long as
the probe does the same kind of work as the part: then both slow down
together. Two kinds are needed, as the switches slow them by different
amounts:

* ``dispatch``: Python-level dispatch of small numpy operations on a 32x44
  batch and one small BLAS matmul, the training steps of the default
  512-gene cohort and the logistic-regression fits;
* ``stream``: matmuls of a 32-sample batch with a 16000x16 weight matrix
  and its transpose, the training steps of the 16000-gene panel.

``workloads.PROBE`` says which kind each workload uses.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

_rng = np.random.default_rng(0)
_BATCH = _rng.random((32, 44))
_WEIGHTS = _rng.random((44, 16))
_SQUARE = _rng.random((200, 200))
_wide = []   # the stream probe's arrays (8 MB), made on first use


def _dispatch() -> None:
    for _ in range(400):
        h = np.maximum(_BATCH @ _WEIGHTS, 0.0) * 0.5 + 1.0
        float(h.sum())
    _SQUARE @ _SQUARE


def _stream() -> None:
    if not _wide:
        _wide.extend((_rng.random((32, 16000)), _rng.random((16000, 16)),
                      np.empty((32, 16)), np.empty((16000, 16))))
    # written into preallocated outputs, so that the probe's time does not
    # depend on the allocator's state, which the workload changes
    x, w, h, g = _wide
    for _ in range(3):
        np.matmul(x, w, out=h)
        np.matmul(x.T, h, out=g)


# kind -> (probe, its full-speed seconds: the fastest 10% of the probes
# taken between a workload's parts on the host the bounds were set on, 2
# vCPUs of a shared Intel Xeon with one BLAS thread)
PROBES = {"dispatch": (_dispatch, 0.0026), "stream": (_stream, 0.0039)}


def slowdown(kind: str) -> float:
    """How many times its full-speed time the probe takes now."""
    probe, full_speed_s = PROBES[kind]
    t0 = time.perf_counter()
    probe()
    return (time.perf_counter() - t0) / full_speed_s


class UnitsDiffer(ValueError):
    pass


def at_full_speed(walls: list, parts: list) -> tuple[float, float]:
    """A unit's wall time and training rate at the host's full speed.
    ``parts`` holds, per unit, a [work, seconds, slowdown] triple for each
    part, in call order; every unit makes the same parts with the same work,
    only the model seed differs. A part's time is its median over the units
    of seconds / slowdown; the rest of a unit, its wall time outside the
    parts, is divided by the unit's median slowdown."""
    work = [w for w, _, _ in parts[0]]
    if any([w for w, _, _ in unit] != work for unit in parts):
        raise UnitsDiffer("units differ in their parts")
    part_s = [statistics.median(t / f for _, t, f in col)
              for col in zip(*parts)]
    rest_s = statistics.median(
        (wall - sum(t for _, t, _ in unit))
        / statistics.median(f for _, _, f in unit)
        for wall, unit in zip(walls, parts))
    train_s = sum(part_s)
    return rest_s + train_s, sum(work) / train_s
