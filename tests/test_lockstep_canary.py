"""numpy identities that tracking grasps in lockstep would rest on.

A batched DLS iterate reproduces the per-grasp one bit for bit only if numpy
runs, for each slice of a stack, the same kernel as for one matrix or vector.
Each test checks one identity by ``tobytes()`` over a few hundred random
cases, split into stacks of several sizes, so a platform that breaks it fails
here by name rather than as a golden drift.
"""

import numpy as np

from postgrasp.metrics import _fd_derivatives, _segment_deltas

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


# Scoring a task's grasps as one (B, W) stack of rows rests on the same kind
# of identity: each reduction or factorisation below runs per row, or along
# an inner axis, and must give each slice the bits it gets alone.


def test_stacked_eigvalsh_matches_single_eigvalsh(rng):
    for m in SIZES:
        jac = rng.standard_normal((m, 6, 7))
        gram = jac @ np.swapaxes(jac, -1, -2)
        assert_rows_equal(np.linalg.eigvalsh(gram), [np.linalg.eigvalsh(gram[i]) for i in range(m)])


def test_stacked_eigh_matches_single_eigh(rng):
    # rank-deficient Gram matrices, as of arms with fewer than six joints
    for m in SIZES:
        for n in (2, 5):
            jac = rng.standard_normal((m, 6, n))
            gram = jac @ np.swapaxes(jac, -1, -2)
            eigs, vecs = np.linalg.eigh(gram)
            singles = [np.linalg.eigh(gram[i]) for i in range(m)]
            assert_rows_equal(eigs, [e for e, _ in singles])
            assert_rows_equal(vecs, [v for _, v in singles])


def test_stacked_solve_with_matrix_rhs_matches_single_solves(rng):
    for m in SIZES:
        a = rng.standard_normal((m, 7, 7))
        a = a @ np.swapaxes(a, -1, -2) + np.eye(7)
        jac = rng.standard_normal((m, 6, 7))
        rhs = np.swapaxes(jac, -1, -2)
        stacked = jac @ np.linalg.solve(a, rhs)
        assert_rows_equal(stacked, [jac[i] @ np.linalg.solve(a[i], jac[i].T) for i in range(m)])


def test_stacked_einsum_row_dot_matches_single_rows(rng):
    for m in SIZES:
        for k in (3, 6, 7):
            x = rng.standard_normal((m, 12, k))
            y = rng.standard_normal((m, 12, k))
            stacked = np.einsum("...j,...j->...", x, y)
            assert_rows_equal(stacked, [np.einsum("...j,...j->...", x[i], y[i]) for i in range(m)])


def test_cumsum_and_flip_along_an_inner_axis_match_single_slices(rng):
    for m in SIZES:
        f = rng.standard_normal((m, 5, 7, 6))
        stacked = np.flip(np.cumsum(np.flip(f, -2), axis=-2), -2)
        singles = [np.flip(np.cumsum(np.flip(f[i], -2), axis=-2), -2) for i in range(m)]
        assert_rows_equal(stacked, singles)


def test_trapezoid_along_the_last_axis_matches_single_rows(rng):
    for m in SIZES:
        for w in (12, 50, 100):
            s = np.sort(rng.random(w))
            y = rng.standard_normal((m, w))
            assert_rows_equal(np.trapezoid(y, s, axis=-1), [np.trapezoid(y[i], s) for i in range(m)])


# The scorer derives the joint rates and the gripper pose increments once
# per chunk, over the stacked paths; each path must get the bits it gets
# alone.


def test_fd_derivatives_of_a_stack_match_single_paths(rng):
    for w in (2, 3, 12):
        uniform = np.linspace(0.0, 1.0, w)
        non_uniform = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.5, w - 1))])
        for times in (uniform, non_uniform):
            for m in SIZES:
                pos = rng.standard_normal((m, w, 7))
                vel, acc = _fd_derivatives(times, pos)
                singles = [_fd_derivatives(times, pos[i]) for i in range(m)]
                assert_rows_equal(vel, [v for v, _ in singles])
                assert_rows_equal(acc, [a for _, a in singles])


def test_segment_deltas_of_a_stack_match_single_paths(rng):
    for w in (2, 12):
        for m in SIZES:
            translations = rng.standard_normal((m, w, 3))
            quats = rng.standard_normal((m, w, 4))
            quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
            # a repeated and a sign-flipped orientation: the small-angle and
            # the w < 0 branches
            quats[:, -1] = quats[:, -2]
            quats[:, 1] = -quats[:, 0]
            stacked = _segment_deltas(translations, quats)
            assert_rows_equal(stacked, [_segment_deltas(translations[i], quats[i]) for i in range(m)])
