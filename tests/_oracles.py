"""Brute-force references that tests check the library's fast paths against."""

import numpy as np


def brute_mean(sample, event, domain) -> float:
    """Fraction of the sample's points inside a dense event, point by point."""
    bits = np.asarray(event, dtype=bool)
    return float(np.mean(bits[domain.flat_index(np.asarray(sample, dtype=np.int64))]))


def brute_trace(event, grid) -> bytes:
    """A dense event's bits at the grid's cells, in cell order, packed."""
    bits = np.asarray(event, dtype=bool)
    return np.packbits(bits[grid.domain.flat_index(grid.cells())]).tobytes()
