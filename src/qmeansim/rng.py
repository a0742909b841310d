"""Seeded, forkable random streams.

Every stochastic routine in this package takes an explicit ``RandomSource``.
A source is identified by a 64-bit seed plus a stream path; equal
(seed, path) pairs replay the identical sample sequence, and distinct paths
give statistically independent streams. Streams for repetitions, stages and
sweep cells are forked with :meth:`RandomSource.derive`, which keeps results
independent of scheduling order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomSource"]


class RandomSource:
    __slots__ = ("seed", "stream", "_gen")

    def __init__(self, seed: int, stream: tuple[int, ...] | int = ()) -> None:
        self.stream = (stream,) if isinstance(stream, int) else tuple(int(s) for s in stream)
        self.seed = int(seed)
        self._gen: np.random.Generator | None = None

    @property
    def gen(self) -> np.random.Generator:
        """The underlying generator; created lazily, single-owner."""
        if self._gen is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=self.stream)
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen

    def derive(self, *ids: int) -> "RandomSource":
        """Fork an independent sub-stream identified by ``ids``."""
        return RandomSource(self.seed, self.stream + tuple(int(i) for i in ids))
