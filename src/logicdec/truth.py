"""A truth value over a domain, kept as a background plus sparse entries.

``Truth(background, ids, values, size)`` is ``values[j]`` at position
``ids[j]`` and ``background`` at every other of the domain's ``size``
positions; ``ids`` is ascending and unique.  A scalar is a ``Truth`` with
no ids.  The prover's results are canonical: an entry is stored only where
its bits differ from the background, so under a hard gate a vocabulary
truth holds a few hundred entries of 50,000, and a constant one none.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Truth"]


class Truth:
    __slots__ = ("background", "ids", "values", "size")

    def __init__(self, background: float, ids: np.ndarray, values: np.ndarray, size: int):
        self.background = background
        self.ids = ids
        self.values = values
        self.size = size

    def __repr__(self) -> str:
        return (f"Truth(background={float(self.background)!r}, "
                f"{len(self.ids)} of {self.size} entries)")

    def dense(self) -> np.ndarray:
        """The value at every position, as one float64 vector."""
        out = np.full(self.size, self.background, dtype=np.float64)
        out[self.ids] = self.values
        return out

    def at(self, positions) -> np.ndarray:
        """The values at ``positions`` (in any order, repeats allowed)."""
        positions = np.asarray(positions, dtype=np.int64)
        if not len(self.ids):
            return np.full(len(positions), self.background, dtype=np.float64)
        slot = self.ids.searchsorted(positions)
        out = self.values.take(slot, mode="clip")
        out[self.ids.take(slot, mode="clip") != positions] = self.background
        return out

    def canonical(self) -> "Truth":
        """The same truth, with int64 ids and the entries that equal the
        background bit for bit dropped."""
        background = np.float64(self.background)
        differ = self.values.view(np.uint64) != background.view(np.uint64)
        return Truth(background, self.ids[differ].astype(np.int64, copy=False),
                     self.values[differ], self.size)
