"""Property-based checks of routes that must give the same numbers.

Every property runs derandomized, with no example database and a capped
example count, so the suite stays deterministic and its cost fixed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from circe.cme import DEFAULT_SIGMA2_Y_GRID
from circe.kernels import KernelParams, gram

EPS = np.finfo(np.float64).eps
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)
# a block of wider points rounds its rows cols^T GEMM differently from the
# whole: OpenBLAS's small-matrix kernel depends on the row count. Over 40,000
# random point sets like row_blocks' (2-4 columns, up to 300 x 300 points at
# scales 1e-3 to 10, sigma2 on the default grid) the worst |block - whole|
# was 0.99 eps (1 + (max r2 + max c2) / (2 sigma2)); the bound is twice that
GRAM_BLOCK_TOL = 2.0


@st.composite
def row_blocks(draw, dims):
    """(rows, cols, a contiguous block of rows): points with 1-4 columns,
    drawn from a base set so they repeat, some moved one ulp off a repeat."""
    d = draw(dims)
    n_rows = draw(st.integers(2, 300))
    n_cols = draw(st.integers(1, 300))
    n_base = draw(st.integers(1, 600))
    scale = draw(st.sampled_from([1e-3, 0.3, 1.0, 3.0, 10.0]))
    near = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = draw(st.integers(0, n_rows - 1))
    stop = draw(st.integers(start + 1, n_rows))
    base = rng.standard_normal((n_base, d)) * scale
    points = base[rng.integers(0, n_base, n_rows + n_cols)]
    nudge = rng.random(n_rows + n_cols) < near
    points[nudge] = np.nextafter(points[nudge], rng.choice([-np.inf, np.inf], (nudge.sum(), d)))
    return points[:n_rows], points[n_rows:], slice(start, stop)


@PROPERTY
@given(row_blocks(st.just(1)), st.sampled_from(DEFAULT_SIGMA2_Y_GRID))
def test_one_column_gram_of_a_row_block_is_those_rows_bitwise(blocked, sigma2):
    rows, cols, block = blocked
    params = KernelParams(sigma2=sigma2)
    assert np.array_equal(gram(rows[block], cols, params), gram(rows, cols, params)[block])


@PROPERTY
@given(row_blocks(st.integers(2, 4)), st.sampled_from(DEFAULT_SIGMA2_Y_GRID))
def test_wider_gram_of_a_row_block_is_those_rows_within_roundoff(blocked, sigma2):
    rows, cols, block = blocked
    params = KernelParams(sigma2=sigma2)
    norms = np.max(np.sum(rows * rows, axis=1)) + np.max(np.sum(cols * cols, axis=1))
    tol = GRAM_BLOCK_TOL * EPS * (1.0 + norms / (2.0 * sigma2))
    assert np.max(np.abs(gram(rows[block], cols, params) - gram(rows, cols, params)[block])) <= tol
