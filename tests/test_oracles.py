"""Grid oracles: vectorized passes against point-by-point evaluation."""

import math

import numpy as np
import pytest

from test_worstcase import _context
from wdrc.oracles import (
    _saddle_mean_term,
    _saddle_var_term,
    bracket_max,
    grid_max,
)
from wdrc.worstcase import cov_objective


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
