"""The reference computation that end-to-end times are expressed in.

The machine the benchmark runs on may be a share of a busy host, whose
single-thread speed moves by tens of percent over minutes, much the same
way for every process on it. Each measured command is therefore timed
between two passes of this fixed computation, and its time is reported
in units of their mean (`ref`): a slow spell of the host slows both and
cancels out, a slower engine slows only the command. The reference is
part of the benchmark, so it stays the same when the engine changes.

Its mix mirrors the engine's per-sample work: a strided window view, two
einsum contractions, a small matrix product, ufuncs, an outer product and
a scatter-add, on arrays of tens to hundreds of floats, so that interpreter
and NumPy dispatch take most of its time, as they do in the engine. On the
2-core machine the benchmark was built on, one pass takes about 0.3 s.
"""

from __future__ import annotations

import time

import numpy as np

STEPS = 3000


class Reference:
    """Fixed inputs, built once; `seconds()` times one pass over them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((18, 8))
        self.w = rng.standard_normal((32, 8, 3))
        self.v = rng.standard_normal(64)
        self.idx = rng.integers(0, 128, 64)
        self.a = rng.standard_normal((32, 16))
        self.b = rng.standard_normal((16, 64))

    def seconds(self) -> float:
        x, w, v, idx, a, b = self.x, self.w, self.v, self.idx, self.a, self.b
        start = time.perf_counter()
        for _ in range(STEPS):
            windows = np.lib.stride_tricks.sliding_window_view(x, 3, axis=0)
            h = np.einsum("tck,fck->tf", windows, w)
            g = np.where(h > 0.0, np.maximum(h, 0.0), 0.0)
            d = np.einsum("tf,tck->fck", g, windows)
            outer = np.outer(g.sum(axis=0), v)
            flat = np.zeros(128)
            np.add.at(flat, idx, outer[0, :64])
            np.maximum(a @ b, 0.0).sum() + d.sum() + flat.sum()
        return time.perf_counter() - start
