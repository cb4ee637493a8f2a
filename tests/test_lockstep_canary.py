"""numpy identities that tracking grasps in lockstep would rest on.

A batched DLS iterate reproduces the per-grasp one bit for bit only if numpy
runs, for each slice of a stack, the same kernel as for one matrix or vector.
Each test checks one identity by ``tobytes()`` over a few hundred random
cases, split into stacks of several sizes, so a platform that breaks it fails
here by name rather than as a golden drift.
"""

import numpy as np

# stack sizes; 300 cases per identity
SIZES = (1, 2, 5, 32, 260)


def assert_rows_equal(stacked, singles):
    for i, single in enumerate(singles):
        assert stacked[i].tobytes() == np.asarray(single).tobytes(), i


def test_stacked_solve_matches_single_solves(rng):
    for m in SIZES:
        jac = rng.standard_normal((m, 6, 7))
        a = jac @ np.swapaxes(jac, -1, -2) + 1e-3 * np.eye(6)
        b = rng.standard_normal((m, 6))
        stacked = np.linalg.solve(a, b[..., None])[..., 0]
        assert_rows_equal(stacked, [np.linalg.solve(a[i], b[i]) for i in range(m)])


def test_stacked_matmul_matches_single_products(rng):
    for m in SIZES:
        x = rng.standard_normal((m, 4, 4))
        y = rng.standard_normal((m, 4, 4))
        assert_rows_equal(x @ y, [x[i] @ y[i] for i in range(m)])


def test_row_dot_matches_vector_dot(rng):
    for m in SIZES:
        for k in (3, 6):
            v = rng.standard_normal((m, k))
            stacked = (v[:, None, :] @ v[:, :, None])[:, 0, 0]
            assert_rows_equal(stacked, [v[i].dot(v[i]) for i in range(m)])


def test_stacked_transpose_product_matches_single_products(rng):
    for m in SIZES:
        jac = rng.standard_normal((m, 6, 7))
        e = rng.standard_normal((m, 6))
        stacked = (np.swapaxes(jac, -1, -2) @ e[..., None])[..., 0]
        assert_rows_equal(stacked, [jac[i].T @ e[i] for i in range(m)])
