import re

import numpy as np
import pytest
import scipy.linalg

from lapden import (
    Field2D,
    SingularSystemError,
    Stencil2DKind,
    apply_banded,
    build_d0,
    build_d1,
    solve_banded,
    laplacian_2d,
)
from lapden.grid_ops import build_lagged_1d, laplacian_2d_values


def banded_to_dense(ab: np.ndarray) -> np.ndarray:
    # band storage: ab[w + i - j, j] = A[i, j]
    w, n = ab.shape[0] // 2, ab.shape[1]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - w), min(n, i + w + 1)):
            out[i, j] = ab[w + i - j, j]
    return out


def dense_d0(n: int, h: float) -> np.ndarray:
    # independent oracle: assemble by diagonals
    m = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    m[0, 0] = m[-1, -1] = -1.0
    return m / h**2


def dense_d1(n: int, h: float) -> np.ndarray:
    m = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    return m / h**2


class TestBuildD0:
    def test_example_3_nodes(self):
        expected = 4.0 * np.array([[-1, 1, 0], [1, -2, 1], [0, 1, -1]], dtype=float)
        assert np.array_equal(banded_to_dense(build_d0(3, 0.5)), expected)

    def test_annihilates_constants(self):
        d0 = build_d0(3, 0.5)
        assert np.array_equal(apply_banded(d0, np.full(3, 7.25)), np.zeros(3))

    def test_second_order_on_sine(self):
        # analytic u'' as oracle; error ratio ~4 when n doubles
        errs = []
        for n in (200, 400):
            h = 1.0 / n
            x = np.arange(n + 1) / n
            u = np.sin(2 * np.pi * x)
            d2 = apply_banded(build_d0(n + 1, h), u)
            exact = -4 * np.pi**2 * np.sin(2 * np.pi * x)
            errs.append(np.abs(d2 - exact)[1:-1].max())
        assert errs[0] < 2e-2
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_rejects_tiny_or_bad_grid(self):
        with pytest.raises(ValueError):
            build_d0(1, 1.0)
        with pytest.raises(ValueError):
            build_d0(4, 0.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 128, 1024])
    def test_symmetric_with_zero_row_sums(self, n):
        dense = banded_to_dense(build_d0(n, 0.25))
        assert np.array_equal(dense, dense.T)
        assert np.array_equal(dense.sum(axis=1), np.zeros(n))


class TestBuildD1:
    def test_example_3_nodes(self):
        expected = np.array([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], dtype=float)
        assert np.array_equal(banded_to_dense(build_d1(3, 1.0)), expected)

    def test_action_on_ones(self):
        out = apply_banded(build_d1(3, 0.5), np.ones(3))
        assert np.array_equal(out, 4.0 * np.array([-1.0, 0.0, -1.0]))

    def test_negative_definite(self):
        d1 = build_d1(12, 0.3)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(size=12)
            assert x @ apply_banded(d1, x) < 0

    @pytest.mark.parametrize("n", [2, 3, 9, 257])
    def test_symmetric(self, n):
        dense = banded_to_dense(build_d1(n, 0.1))
        assert np.array_equal(dense, dense.T)


class TestApplyBanded:
    def test_identity(self):
        ident = np.ones((1, 4))
        x = np.array([3.0, -1.0, 0.5, 9.0])
        assert np.array_equal(apply_banded(ident, x), x)

    def test_hand_example(self):
        out = apply_banded(build_d0(3, 1.0), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(out, np.array([1.0, 0.0, -1.0]))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            w = int(rng.integers(0, 3))
            m = rng.normal(size=(2 * w + 1, n))
            x = rng.normal(size=n)
            assert np.allclose(apply_banded(m, x), banded_to_dense(m) @ x,
                               rtol=0, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_banded(build_d0(3, 1.0), np.ones(4))

    def test_reversal_equivariance(self):
        # conjugating D0 by reversal leaves it invariant
        d0 = build_d0(33, 0.5)
        rng = np.random.default_rng(2)
        x = rng.normal(size=33)
        lhs = apply_banded(d0, x[::-1])[::-1]
        assert np.allclose(lhs, apply_banded(d0, x), rtol=0, atol=1e-12)


class TestBuildLagged1D:
    @pytest.mark.parametrize("h", [1.0, 0.37])
    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_matches_dense_product(self, n, h):
        g = np.random.default_rng(3).uniform(0.1, 10.0, size=n)
        expect = dense_d1(n, h) @ np.diag(g) @ dense_d0(n, h) + 0.7 * np.eye(n)
        ab = build_lagged_1d(g, h, 0.7)
        assert ab.shape == (5, n)
        assert np.allclose(banded_to_dense(ab), expect,
                           rtol=1e-13, atol=1e-13 * np.abs(expect).max())


def gaussian_elimination(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # independent dense oracle with partial pivoting
    a = a.copy()
    b = b.copy()
    n = len(b)
    for col in range(n):
        pivot = col + np.argmax(np.abs(a[col:, col]))
        a[[col, pivot]] = a[[pivot, col]]
        b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


class TestSolveBanded:
    def _system(self, n: int, dt: float) -> np.ndarray:
        # I + dt D1 D0
        return build_lagged_1d(np.full(n, dt), 1.0, 1.0)

    def test_identity_solve(self):
        ident = np.ones((1, 5))
        rhs = np.array([1.0, -2.0, 3.0, 0.0, 5.0])
        assert np.array_equal(solve_banded(ident, rhs), rhs)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        m = self._system(40, 0.05)
        for _ in range(20):
            x = rng.normal(size=40)
            out = solve_banded(m, apply_banded(m, x))
            assert np.linalg.norm(out - x) <= 1e-9 * np.linalg.norm(x)

    def test_against_dense_elimination(self):
        m = self._system(5, 1.0)
        rhs = np.array([1.0, 0.0, -2.0, 4.0, 0.5])
        expect = gaussian_elimination(banded_to_dense(m), rhs)
        assert np.allclose(solve_banded(m, rhs), expect, rtol=1e-12, atol=1e-12)

    def test_singular_raises(self):
        zero = np.zeros((1, 3))
        with pytest.raises(SingularSystemError):
            solve_banded(zero, np.ones(3))

    def test_singular_pentadiagonal_raises(self):
        # LAPACK reports the zero pivot (info > 0)
        with pytest.raises(SingularSystemError, match="singular matrix"):
            solve_banded(np.zeros((5, 6)), np.ones(6))

    def test_non_finite_solution_raises(self):
        # LAPACK reports no zero pivot, but 1e300 / 1e-300 overflows
        tiny = np.full((1, 4), 1e-300)
        with pytest.raises(SingularSystemError, match="non-finite"):
            solve_banded(tiny, np.full(4, 1e300))

    @pytest.mark.parametrize("n", [5, 64, 257])
    def test_matches_scipy_bit_for_bit(self, n):
        # the direct gbsv call is the LU that scipy.linalg.solve_banded
        # runs for a pentadiagonal matrix
        rng = np.random.default_rng(n)
        m = build_lagged_1d(rng.uniform(0.05, 3.0, size=n), 0.5, 0.3)
        rhs = rng.normal(size=n)
        expect = scipy.linalg.solve_banded((2, 2), m, rhs)
        assert np.array_equal(solve_banded(m, rhs), expect)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_banded(self._system(4, 0.1), np.ones(5))


class TestLaplacian2D:
    def test_constant_neumann_is_zero(self):
        f = Field2D(np.full((5, 7), 3.5))
        out = laplacian_2d(f, Stencil2DKind.NEUMANN_MIRROR)
        assert np.array_equal(out.values, np.zeros((5, 7)))

    def test_quadratic_away_from_boundary(self):
        x, y = np.meshgrid(np.arange(7.0), np.arange(7.0), indexing="ij")
        out = laplacian_2d(Field2D(x**2 + y**2), Stencil2DKind.NEUMANN_MIRROR)
        assert np.allclose(out.values[2:-2, 2:-2], 4.0, rtol=0, atol=1e-12)

    def test_dirichlet_ones_4x4(self):
        # zero ghosts plus the zeroed boundary ring: the hand-evaluated
        # stencil value (0 + 0 + 1 + 1 - 4) = -2 shows at the inner corners
        out = laplacian_2d(Field2D(np.ones((4, 4))), Stencil2DKind.DIRICHLET_ZERO)
        expected = np.array([
            [0.0, 1.0, 1.0, 0.0],
            [1.0, -2.0, -2.0, 1.0],
            [1.0, -2.0, -2.0, 1.0],
            [0.0, 1.0, 1.0, 0.0],
        ])
        assert np.array_equal(out.values, expected)

    @pytest.mark.parametrize("kind", list(Stencil2DKind))
    def test_linearity(self, kind):
        rng = np.random.default_rng(13)
        u = rng.normal(size=(6, 5))
        v = rng.normal(size=(6, 5))
        a, b = 2.5, -1.25
        combo = laplacian_2d(Field2D(a * u + b * v), kind).values
        parts = a * laplacian_2d(Field2D(u), kind).values \
            + b * laplacian_2d(Field2D(v), kind).values
        assert np.allclose(combo, parts, rtol=0, atol=1e-12)

    def test_degenerate_grid(self):
        with pytest.raises(ValueError):
            laplacian_2d(Field2D(np.ones((2, 5))), Stencil2DKind.NEUMANN_MIRROR)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown stencil kind: 'mirror'"):
            laplacian_2d_values(np.ones((3, 3)), 1.0, "mirror")

    @pytest.mark.parametrize("kind", list(Stencil2DKind))
    def test_bit_identical_to_np_pad_formula(self, kind):
        # the ghost ring built by np.pad, with the stencil summed in the
        # same order: the sliced ghost cells must not change a single bit
        def padded_formula(values, h):
            if kind is Stencil2DKind.NEUMANN_MIRROR:
                padded = np.pad(values, 1, mode="reflect")
            else:
                padded = np.zeros((values.shape[0] + 2, values.shape[1] + 2))
                padded[2:-2, 2:-2] = values[1:-1, 1:-1]
            lap = (padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2]
                   + padded[1:-1, 2:] - 4.0 * padded[1:-1, 1:-1])
            lap /= h * h
            return lap

        rng = np.random.default_rng(21)
        for shape in ((3, 3), (3, 8), (9, 4), (33, 32)):
            for h in (1.0, 0.37):
                u = rng.normal(scale=10.0, size=shape)
                assert np.array_equal(laplacian_2d(Field2D(u, h), kind).values,
                                      padded_formula(u, h))


class TestBandStorageChecks:
    @pytest.mark.parametrize("func", [apply_banded, solve_banded])
    @pytest.mark.parametrize("storage, operand", [
        ((9,), (9,)),
        ((2, 9), (9,)),
        ((3, 9), (8,)),
    ], ids=["not-2d", "even-rows", "column-count"])
    def test_rejects_bad_storage(self, func, storage, operand):
        # the message names both shapes
        pattern = f"{re.escape(str(storage))}.*{re.escape(str(operand))}"
        with pytest.raises(ValueError, match=pattern):
            func(np.ones(storage), np.ones(operand))
