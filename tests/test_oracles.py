"""Grid oracles: vectorized passes against point-by-point evaluation."""

import math

import numpy as np
import pytest

from conftest import random_psd
from test_worstcase import _context
from wdrc import oracles
from wdrc.oracles import (
    _grid_max_rows,
    _linspace_rows,
    _saddle_mean_term,
    _saddle_var_term,
    _scalar_cov_objective,
    bracket_max,
    fd_gradient_sym,
    gaussian_w2_quadrature,
    grid_max,
    normal_quantile,
    t1_scalar_saddle,
)
from wdrc.worstcase import cov_objective, solve_worst_case_cov


def _per_point(term):
    """The grid objective that evaluates ``term`` one point at a time."""
    return lambda xs: np.array([term(x) for x in xs])


@pytest.mark.parametrize("seed", [24, 53])
def test_grids_on_stacked_cov_objective_match_per_point_calls(seed):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        ctx = _context(rng, 1, 1)

        def stacked(v):
            return cov_objective(np.maximum(v, 1e-12)[:, None, None], ctx)

        per_point = _per_point(
            lambda v: cov_objective(np.array([[max(v, 1e-12)]]), ctx)
        )
        start = float(ctx.Sigma_hat[0, 0]) * 8.0 + 1.0
        hi = bracket_max(stacked, 0.0, start)
        assert hi == bracket_max(per_point, 0.0, start)
        assert grid_max(stacked, 0.0, hi, points=1001) == grid_max(
            per_point, 0.0, hi, points=1001
        )


@pytest.mark.parametrize("seed", [0, 5])
def test_grids_on_saddle_terms_match_per_point_formulas(seed):
    """The saddle's terms on arrays against the same formulas written
    for one Python float, squaring by multiplication as the terms do."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        q_f = float(rng.uniform(0.5, 2.0))
        lam = q_f * float(rng.uniform(3.0, 6.0))
        w_hat = float(rng.uniform(-0.5, 0.5))
        sigma_hat = float(rng.uniform(0.05, 0.5))
        m = float(rng.uniform(-2.0, 2.0))

        def var_point(v):
            gap = math.sqrt(v) - math.sqrt(sigma_hat)
            return q_f * v - lam * (gap * gap)

        def mean_point(w):
            shifted, gap = m + w, w - w_hat
            return q_f * (shifted * shifted) - lam * (gap * gap)

        def var_term(v):
            return _saddle_var_term(v, q_f, lam, sigma_hat)

        def mean_term(w):
            return _saddle_mean_term(w, m, q_f, lam, w_hat)

        start = max(4.0 * sigma_hat, 1.0)
        v_hi = bracket_max(var_term, 0.0, start)
        assert v_hi == bracket_max(_per_point(var_point), 0.0, start)
        assert grid_max(var_term, 0.0, v_hi, 401) == grid_max(
            _per_point(var_point), 0.0, v_hi, 401
        )
        span = 4.0 + abs(m)
        assert grid_max(
            mean_term, w_hat - span, w_hat + span, 401, refinements=3
        ) == grid_max(
            _per_point(mean_point), w_hat - span, w_hat + span, 401, refinements=3
        )


def _loop_grid_max(f, lo, hi, points, refinements):
    """One grid at a time on scalar bounds, as ``grid_max`` was written
    before it gridded rows."""
    xs = np.linspace(lo, hi, points)
    vals = f(xs)
    k = int(np.argmax(vals))
    for _ in range(refinements):
        lo = xs[max(k - 1, 0)]
        hi = xs[min(k + 1, points - 1)]
        xs = np.linspace(lo, hi, points)
        vals = f(xs)
        k = int(np.argmax(vals))
    return float(xs[k]), float(vals[k])


def _loop_saddle(a, b, q, q_f, r, lam, w_hat, sigma_hat, x0, grid_points):
    """The saddle with one inner mean grid per control ``u``."""

    def var_term(v):
        return _saddle_var_term(v, q_f, lam, sigma_hat)

    v_hi = bracket_max(var_term, 0.0, max(4.0 * sigma_hat, 1.0))
    _, var_star = _loop_grid_max(var_term, 0.0, v_hi, grid_points, 2)
    span = (abs(w_hat) + abs(x0) + 1.0) * max(4.0, 4.0 * q_f / (lam - q_f))

    def stage_value(u):
        m = a * x0 + b * u
        _, mean_star = _loop_grid_max(
            lambda w: _saddle_mean_term(w, m, q_f, lam, w_hat),
            w_hat - span - abs(m),
            w_hat + span + abs(m),
            grid_points,
            3,
        )
        return q * x0 * x0 + r * u * u + mean_star + var_star

    u_span = (abs(x0) + abs(w_hat) + 1.0) * 8.0
    us = np.linspace(-u_span, u_span, grid_points)
    vals = np.array([stage_value(u) for u in us])
    k = int(np.argmin(vals))
    for _ in range(2):
        lo, hi = us[max(k - 1, 0)], us[min(k + 1, us.size - 1)]
        us = np.linspace(lo, hi, grid_points)
        vals = np.array([stage_value(u) for u in us])
        k = int(np.argmin(vals))
    return float(vals[k])


@pytest.mark.parametrize("seed, grid_points", [(3, 57), (4, 401), (8, 401)])
def test_saddle_equals_the_loop_over_controls_bit_for_bit(
    seed, grid_points, monkeypatch
):
    """The saddle's row blocks against one inner grid per control.  At
    401 points an outer pass spans five blocks, the last one short; at
    57 points it is one block.  No pass holds more than the cap."""
    sizes = []

    def recording(w, *args, **kwargs):
        sizes.append(w.size)
        return _saddle_mean_term(w, *args, **kwargs)

    rng = np.random.default_rng(seed)
    for _ in range(2):
        a, b = rng.uniform(0.5, 1.5, 2)
        q_f = float(rng.uniform(0.5, 2.0))
        lam = q_f * float(rng.uniform(3.0, 6.0))
        w_hat = float(rng.uniform(-0.5, 0.5))
        sigma_hat = float(rng.uniform(0.05, 0.5))
        x0 = float(rng.uniform(-1.0, 1.0))
        args = (float(a), float(b), 1.0, q_f, 1.0, lam, w_hat, sigma_hat, x0)
        with monkeypatch.context() as patch:
            patch.setattr(oracles, "_saddle_mean_term", recording)
            value = t1_scalar_saddle(*args, grid_points=grid_points)
        assert value == _loop_saddle(*args, grid_points=grid_points)
    blocks = -(-grid_points // (oracles._SADDLE_PASS_VALUES // grid_points))
    assert len(sizes) == 2 * 3 * 4 * blocks
    assert max(sizes) <= oracles._SADDLE_PASS_VALUES


def test_rows_with_a_zero_step_leave_the_other_rows_their_bits():
    """``np.linspace`` on array bounds changes how every row is scaled
    once one row's step is 0; here a zero-width and a subnormal bracket
    sit among ordinary ones."""
    lo = np.array([0.1, 2.5, -1.3, 0.0, 5e-324, 0.7])
    hi = np.array([0.7, 2.5, 4.1, 1e-320, 5e-324, 0.9])
    points = 7
    rows = _linspace_rows(lo, hi, points)
    scalar = [np.linspace(l, h, points) for l, h in zip(lo, hi)]
    for row, ref in zip(rows, scalar):
        assert row.tobytes() == ref.tobytes()
    # The bounds do trip numpy's whole-array rescaling.
    raw = np.linspace(lo, hi, points, axis=1)
    assert any(r.tobytes() != ref.tobytes() for r, ref in zip(raw, scalar))

    def f(x):
        return -((x - 0.3) * (x - 0.3))

    x, val = _grid_max_rows(f, lo, hi, points, refinements=2)
    for i in range(lo.size):
        assert (x[i], val[i]) == grid_max(f, lo[i], hi[i], points, refinements=2)


def _loop_fd_gradient_sym(f, x, h=1e-6):
    """One pair of single-point calls per symmetric perturbation."""
    n = x.shape[0]
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            d = np.zeros((n, n))
            d[i, j] = 1.0
            d[j, i] = 1.0
            step = (f(x + h * d) - f(x - h * d)) / (2.0 * h)
            if i == j:
                g[i, i] = step
            else:
                g[i, j] = g[j, i] = step / 2.0
    return g


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_fd_gradient_equals_the_perturbation_loop(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(4):
        ctx = _context(rng, n, max(1, n - 1))
        sigma = random_psd(rng, n, jitter=0.05)
        stacked = fd_gradient_sym(lambda s: cov_objective(s, ctx), sigma)
        looped = _loop_fd_gradient_sym(lambda s: cov_objective(s, ctx), sigma)
        assert stacked.tobytes() == looped.tobytes()


@pytest.mark.parametrize("seed", [61, 62])
def test_scalar_closed_form_equals_cov_objective(seed):
    """The suite's scalar reference against the production objective,
    at and below the clamp, around the maximizer and far past it."""
    rng = np.random.default_rng(seed)
    for _ in range(10):
        ctx = _context(rng, 1, 1)
        v_star = float(solve_worst_case_cov(ctx).cov[0, 0])
        v = np.concatenate(
            [
                [-1.0, 0.0, 1e-12, 2e-12],
                rng.uniform(0.0, 2.0 * v_star, 20),
                [1e2 * v_star, 1e4 * v_star],
            ]
        )
        ref = cov_objective(np.maximum(v, 1e-12)[:, None, None], ctx)
        np.testing.assert_allclose(_scalar_cov_objective(v, ctx), ref, rtol=1e-10)


def _uncached_quadrature(mean_a, std_a, mean_b, std_b, points):
    """The midpoint quadrature with its quantile grid built on each call."""
    z = normal_quantile((np.arange(points) + 0.5) / points)
    qa = mean_a + std_a * z
    qb = mean_b + std_b * z
    return float(np.mean((qa - qb) ** 2))


@pytest.mark.parametrize("points", [11, 200001])
def test_normal_quantile_matches_ndtri(points):
    """AS 241 agrees with scipy's ``ndtri`` to a few ulps on a midpoint
    grid and at points in each of its three ranges and their edges, is
    exactly 0 at one half, and is odd about one half."""
    ndtri = pytest.importorskip("scipy.special").ndtri
    p = np.concatenate(
        [
            (np.arange(points) + 0.5) / points,
            [1e-300, 1e-20, 1e-10, 0.02425, 0.075, 0.5, 0.925, 1.0 - 1e-10],
        ]
    )
    z, want = normal_quantile(p), ndtri(p)
    assert np.all(np.abs(z - want) <= 4e-15 * np.maximum(1.0, np.abs(want)))
    assert normal_quantile(np.array([0.5]))[0] == 0.0
    exact = 1.0 - (1.0 - p) == p
    assert exact.sum() > points // 2
    np.testing.assert_array_equal(normal_quantile(1.0 - p[exact]), -z[exact])


@pytest.mark.parametrize("points", [11, 200001])
def test_quadrature_equals_the_uncached_formula_bit_for_bit(points):
    rng = np.random.default_rng(points)
    for _ in range(3):
        ma, mb = rng.normal(size=2)
        sa, sb = 0.2 + rng.random(2)
        args = (float(ma), float(sa), float(mb), float(sb), points)
        assert gaussian_w2_quadrature(*args) == _uncached_quadrature(*args)


def test_quadratures_share_one_read_only_grid():
    oracles._quantile_grid.cache_clear()
    gaussian_w2_quadrature(0.0, 1.0, 0.5, 2.0, points=1001)
    gaussian_w2_quadrature(-0.3, 0.4, 0.1, 0.9, points=1001)
    info = oracles._quantile_grid.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    z = oracles._quantile_grid(1001)
    assert z is oracles._quantile_grid(1001)
    assert not z.flags.writeable
    with pytest.raises(ValueError):
        z[0] = 0.0
