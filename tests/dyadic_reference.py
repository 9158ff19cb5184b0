"""Slow reference for the `DyadicFamily` tables: the per-point build the
family ran before it evaluated the cutoff once per distinct lattice radius,
kept verbatim.  `smooth_cutoff` runs its 64-node quadrature on every
lattice point of every table.  `tests/test_dyadic.py` checks that the
family's tables are byte-equal to these.
"""

import numpy as np

from lanslab.dyadic import smooth_cutoff
from lanslab.grid import kmag


def dyadic_tables(grid, j_max):
    """(s_hat, psi_hat, low_hat) of the per-point build."""
    radii = kmag(grid)
    cumulative = np.stack(
        [smooth_cutoff(radii * 2.0 ** (-m)) for m in range(-1, j_max + 1)]
    )
    return cumulative, cumulative[1:] - cumulative[:-1], cumulative[0]
