"""Initial data for library calls, as the config parser builds them: the
eigenvalues of a domain's first modes and x0[mode, (u, v, theta)]."""

import numpy as np

from gradiplate import enumerate_modes


def initial(domain, count, u=(), v=(), theta=()):
    """(lams, x0) of the first `count` modes of `domain`, the coefficient
    lists zero-padded to `count` modes."""
    x0 = np.zeros((count, 3))
    for i, column in enumerate((u, v, theta)):
        x0[: len(column), i] = column
    return enumerate_modes(domain, count), x0
