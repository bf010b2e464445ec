"""Acceptance gate: one test per release criterion, at stated tolerances.

A verbose run reads as a checklist, one pass/fail line per criterion:

1. Gaussian benchmark: robust policy beats the nominal one in mean and
   spread on paired runs, inside sanity bands, under two minutes.
2. Uniform benchmark: same orderings and bands.
3. Huge penalty degenerates to the nominal design: LQR gains, nominal
   worst-case moments.
4. Covariance gradient matches central finite differences.
5. Scalar maximizer and one-step value match brute-force grids.
6. The guaranteed cost bound covers admissible disturbance laws.
7. Certificate sanity and calibration beats a dense penalty grid.
8. Filter invariants: PSD posteriors, posterior below prior, Joseph
   form consistent with the subtractive update.
9. Reports are byte-identical across executions and worker counts.

Campaign-level fixtures are shared across tests, so the module runs the
two benchmark campaigns once each.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_psd
from wdrc import (
    BeliefState,
    GaussianSpec,
    NominalDistribution,
    ScenarioSpec,
    certified_bounds,
    emit_reports,
    estimate_nominal,
    evaluate_value,
    gelbrich_dist_sq,
    initial_posterior_cov,
    kalman_gain,
    load_config,
    mean_affine,
    min_feasible_lambda,
    paired_mean_z,
    paired_std_z,
    predict,
    run_campaign,
    simulate_paired,
    solve_worst_case_cov,
    synthesize_wdrc,
    update,
)
from wdrc.errors import Diverged, PenaltyTooSmall
from wdrc.model import CostSpec, LinearSystem, draw_nominal_samples
from wdrc.oracles import (
    bracket_max,
    fd_gradient_sym,
    grid_max,
    lqr_gains,
    t1_scalar_saddle,
)
from wdrc.psdmath import MomentPair, symmetrize
from wdrc.worstcase import CovObjectiveContext, cov_gradient, cov_objective

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _random_context(rng: np.random.Generator, n: int, n_y: int) -> CovObjectiveContext:
    sys_ = LinearSystem(
        A=rng.standard_normal((n, n)) / np.sqrt(n),
        B=rng.standard_normal((n, 1)),
        C=rng.standard_normal((n_y, n)),
        M=random_psd(rng, n_y, jitter=0.1),
    )
    p_next = random_psd(rng, n)
    lam = float(np.linalg.eigvalsh(p_next).max() * (2.0 + 3.0 * rng.random()) + 1.0)
    return CovObjectiveContext(
        S_next=random_psd(rng, n),
        P_next=p_next,
        lam=lam,
        Sigma_hat=random_psd(rng, n),
        P_bar=random_psd(rng, n),
        sys=sys_,
    )


@pytest.fixture(scope="module")
def gaussian_campaign():
    cfg = load_config(str(CONFIG_DIR / "gaussian.yaml"))
    start = time.perf_counter()
    result = run_campaign(cfg)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def uniform_campaign():
    cfg = load_config(str(CONFIG_DIR / "uniform.yaml"))
    start = time.perf_counter()
    result = run_campaign(cfg)
    return result, time.perf_counter() - start


def _ordering_report(result, elapsed: float) -> tuple[float, float]:
    wdrc, lqg = result.stats["wdrc"], result.stats["lqg"]
    mean_z = paired_mean_z(lqg.costs, wdrc.costs)
    std_z = paired_std_z(lqg.costs, wdrc.costs)
    print(
        f"wdrc {wdrc.mean:.4f} +- {wdrc.std_dev:.4f} vs "
        f"lqg {lqg.mean:.4f} +- {lqg.std_dev:.4f}; "
        f"mean_z {mean_z:.1f}, std_z {std_z:.1f}, lam {result.lam:.4f}, "
        f"{elapsed:.1f} s"
    )
    return mean_z, std_z


def test_gaussian_benchmark_cost_ordering(gaussian_campaign):
    """Robust mean and spread beat the nominal policy on paired runs."""
    result, elapsed = gaussian_campaign
    mean_z, std_z = _ordering_report(result, elapsed)
    assert elapsed < 120.0
    assert result.runs == 1000
    assert result.stats["wdrc"].mean < result.stats["lqg"].mean
    assert result.stats["wdrc"].std_dev < result.stats["lqg"].std_dev
    assert mean_z > 2.0
    assert std_z > 2.0
    assert 2.0 <= result.stats["wdrc"].mean <= 9.0
    assert 2.5 <= result.stats["lqg"].mean <= 12.0


def test_uniform_benchmark_cost_ordering(uniform_campaign):
    """Same orderings under bounded disturbances and a uniform start."""
    result, elapsed = uniform_campaign
    mean_z, std_z = _ordering_report(result, elapsed)
    assert elapsed < 120.0
    assert result.runs == 1000
    assert result.stats["wdrc"].mean < result.stats["lqg"].mean
    assert result.stats["wdrc"].std_dev < result.stats["lqg"].std_dev
    assert mean_z > 2.0
    assert std_z > 2.0
    assert 0.2 <= result.stats["wdrc"].mean <= 1.2
    assert 0.3 <= result.stats["lqg"].mean <= 1.8


def test_huge_penalty_recovers_nominal_design(gaussian_campaign):
    """At a huge penalty the robust design collapses onto plain LQR.

    With zero nominal means the gains must match the finite-horizon
    LQR gains stage by stage, the worst-case means must vanish, and
    the worst-case covariances must equal the nominal ones.
    """
    result, _ = gaussian_campaign
    cfg = result.config
    sys_, cost = cfg.sys, cfg.cost
    base = estimate_nominal(draw_nominal_samples(result.scenario, cost.horizon))
    nominal = NominalDistribution(
        tuple(MomentPair(np.zeros(pair.dim), pair.cov) for pair in base.stages)
    )
    p0 = initial_posterior_cov(result.scenario.initial_state, sys_)
    ctrl = synthesize_wdrc(sys_, cost, nominal, 1e8, p0)

    _, k_ref = lqr_gains(sys_, cost)
    gain_err = max(
        float(np.linalg.norm(ctrl.solution.K[t] - k_ref[t]))
        / max(float(np.linalg.norm(k_ref[t])), 1e-12)
        for t in range(cost.horizon)
    )

    H, h = mean_affine(sys_, ctrl.solution, nominal)
    mean_err = 10.0 * float(np.abs(H).max()) + float(np.abs(h).max())

    cov_err = max(
        float(np.linalg.norm(ctrl.schedule.solves[t].cov - nominal.cov(t)))
        / float(np.linalg.norm(nominal.cov(t)))
        for t in range(cost.horizon)
    )
    print(
        f"gain rel err {gain_err:.2e}, worst-case mean {mean_err:.2e}, "
        f"cov rel err {cov_err:.2e}"
    )
    assert gain_err <= 1e-5
    assert mean_err <= 1e-6
    assert cov_err <= 1e-4


def test_cov_gradient_matches_finite_differences():
    """Analytic covariance gradient agrees with central differences."""
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        n_y = int(rng.integers(1, n + 1))
        ctx = _random_context(rng, n, n_y)
        sigma = random_psd(rng, n, jitter=0.05)
        grad = cov_gradient(sigma, ctx)
        fd = fd_gradient_sym(lambda s: cov_objective(s, ctx), sigma, h=1e-6)
        scale = max(float(np.abs(fd).max()), 1e-12)
        worst = max(worst, float(np.abs(grad - fd).max()) / scale)
    print(f"worst relative gradient error over 50 instances: {worst:.2e}")
    assert worst <= 1e-5


def test_scalar_solver_and_one_step_value_match_grids():
    """Scalar maximizer matches a refined grid; one-step value matches
    a brute-force saddle evaluation."""
    rng = np.random.default_rng(53)
    arg_err = 0.0
    val_err = 0.0
    for _ in range(20):
        ctx = _random_context(rng, 1, 1)
        solve = solve_worst_case_cov(ctx)

        def f(v: np.ndarray) -> np.ndarray:
            return cov_objective(np.maximum(v, 1e-12)[:, None, None], ctx)

        hi = bracket_max(f, 0.0, float(ctx.Sigma_hat[0, 0]) * 8.0 + 1.0)
        v_star, f_star = grid_max(f, 0.0, hi, points=10001, refinements=2)
        arg_err = max(
            arg_err, abs(float(solve.cov[0, 0]) - v_star) / max(v_star, 1e-9)
        )
        val_err = max(
            val_err, abs(solve.z_tilde - f_star) / max(abs(f_star), 1e-9)
        )

    saddle_err = 0.0
    for _ in range(5):
        a = float(rng.uniform(0.5, 1.5))
        b = float(rng.uniform(0.5, 1.5))
        q_f = float(rng.uniform(0.5, 2.0))
        lam = q_f * float(rng.uniform(3.0, 6.0))
        w_hat = float(rng.uniform(-0.5, 0.5))
        sigma_hat = float(rng.uniform(0.05, 0.5))
        x0 = float(rng.uniform(-1.0, 1.0))
        sys_ = LinearSystem(
            A=np.array([[a]]),
            B=np.array([[b]]),
            C=np.array([[1.0]]),
            M=np.array([[0.5]]),
        )
        cost = CostSpec(
            Q=np.array([[1.0]]),
            Q_f=np.array([[q_f]]),
            R=np.array([[1.0]]),
            horizon=1,
        )
        nominal = NominalDistribution(
            (MomentPair(np.array([w_hat]), np.array([[sigma_hat]])),)
        )
        ctrl = synthesize_wdrc(sys_, cost, nominal, lam, np.zeros((1, 1)))
        value = evaluate_value(
            ctrl.solution,
            ctrl.schedule.z_tilde_path,
            BeliefState(np.array([x0]), np.zeros((1, 1))),
        )
        ref = t1_scalar_saddle(
            a, b, 1.0, q_f, 1.0, lam, w_hat, sigma_hat, x0, grid_points=401
        )
        saddle_err = max(saddle_err, abs(value - ref) / max(abs(ref), 1e-6))

    print(
        f"argument rel err {arg_err:.2e}, value rel err {val_err:.2e}, "
        f"one-step saddle rel err {saddle_err:.2e}"
    )
    assert arg_err <= 1e-3
    assert val_err <= 1e-4
    assert saddle_err <= 1e-3


def test_guaranteed_bound_covers_admissible_disturbance_laws(gaussian_campaign):
    """Empirical mean cost stays below the certified bound for twenty
    disturbance laws inside the transport ball around the nominal.

    The laws cover boundary mean shifts in eight directions, covariance
    scalings in both directions at full and half radius, and random
    mixed perturbations; each admissibility is checked explicitly and
    each law is simulated for 2000 fresh runs.
    """
    result, _ = gaussian_campaign
    cfg, cert, ctrl = result.config, result.certificate, result.policies["wdrc"]
    theta = cfg.theta
    base = estimate_nominal(
        draw_nominal_samples(result.scenario, cfg.cost.horizon)
    ).stages[0]
    w_hat, sig_hat = base.mean, base.cov
    root_tr = math.sqrt(float(np.trace(sig_hat)))

    cases: list[tuple[str, GaussianSpec]] = []
    for k in range(8):
        ang = k * math.pi / 4.0
        shift = theta * np.array([math.cos(ang), math.sin(ang)])
        cases.append((f"mean shift {45 * k:3d} deg", GaussianSpec(w_hat + shift, sig_hat)))
    for label, c in (
        ("cov grow full radius", 1.0 + theta / root_tr),
        ("cov shrink full radius", 1.0 - theta / root_tr),
        ("cov grow half radius", 1.0 + 0.5 * theta / root_tr),
        ("cov shrink half radius", 1.0 - 0.5 * theta / root_tr),
    ):
        cases.append((label, GaussianSpec(w_hat, c * c * sig_hat)))
    rng = np.random.default_rng(97)
    for j in range(8):
        alpha = float(rng.random())
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        shift = math.sqrt(alpha) * theta * np.array([math.cos(ang), math.sin(ang)])
        sign = 1.0 if rng.random() < 0.5 else -1.0
        c = 1.0 + sign * math.sqrt(1.0 - alpha) * theta / root_tr
        cases.append((f"mixed perturbation {j}", GaussianSpec(w_hat + shift, c * c * sig_hat)))
    assert len(cases) == 20

    start = time.perf_counter()
    rows = []
    violations = []
    for i, (label, law) in enumerate(cases):
        dist_sq = gelbrich_dist_sq(law.moments(), base)
        assert dist_sq <= theta**2 + 1e-9
        scen = ScenarioSpec(
            true_disturbance=law,
            initial_state=result.scenario.initial_state,
            sample_count=result.scenario.sample_count,
            seed=211 + i,
        )
        (costs,) = simulate_paired([ctrl], scen, cfg.sys, cfg.cost, runs=2000)
        se = float(costs.std(ddof=1)) / math.sqrt(costs.size)
        limit = cert.guaranteed_bound + 3.0 * se
        gap = float(costs.mean()) - limit
        rows.append((label, float(costs.mean()), limit, gap, se))
        if gap > 0.0:
            violations.append((label, float(costs.mean()), limit, gap / se))
    elapsed = time.perf_counter() - start

    print(f"certified bound {cert.guaranteed_bound:.4f} at lam {cert.lam:.4f}")
    for label, mean, limit, gap, _ in rows:
        print(f"  {label:<24} mean {mean:8.4f}  limit {limit:8.4f}  margin {-gap:+8.4f}")
    print(f"{len(violations)}/20 admissible laws exceed the bound, {elapsed:.1f} s")
    assert elapsed < 600.0
    assert not violations, (
        "mean cost exceeds the certified bound for admissible laws: "
        + "; ".join(
            f"{label} (mean {mean:.4f} > limit {limit:.4f}, +{z:.1f} se)"
            for label, mean, limit, z in violations
        )
    )


def test_certificate_and_calibration_optimality(gaussian_campaign):
    """Certificate sanity plus calibration against a dense grid.

    The certified ratio must exceed one, the nominal-design value must
    sit below the bound, and the calibrated penalty must be at least as
    good as a 100-point log-spaced grid over the feasible range, with
    the grid objective (the certified bound of the controller at each
    penalty) rebuilt through the public function."""
    result, _ = gaussian_campaign
    cert, cal, cfg = result.certificate, result.calibration, result.config
    assert cert.rho > 1.0
    assert cert.j_lq <= cert.guaranteed_bound

    sys_, cost = cfg.sys, cfg.cost
    nominal = estimate_nominal(draw_nominal_samples(result.scenario, cost.horizon))
    x0_dist = result.scenario.initial_state
    p0 = initial_posterior_cov(x0_dist, sys_)

    lam_min = min_feasible_lambda(sys_, cost, 1e-3, 1e6)
    best = math.inf
    finite = 0
    for lam in np.geomspace(lam_min, 1e6, 100):
        try:
            ctrl = synthesize_wdrc(sys_, cost, nominal, float(lam), p0)
        except (PenaltyTooSmall, Diverged):
            continue
        bound = certified_bounds([ctrl], sys_, cost, x0_dist, cfg.theta)[0].bound
        best = min(best, bound)
        finite += 1
    print(
        f"rho {cert.rho:.4f}, calibrated objective {cal.objective:.6f} at "
        f"lam {cal.lam:.4f}, grid best {best:.6f} over {finite} feasible points"
    )
    assert finite > 0 and math.isfinite(best)
    assert cal.objective <= best * (1.0 + 1e-6)


def test_filter_updates_preserve_covariance_order():
    """Chained filter steps keep posteriors PSD and below the prior,
    and the Joseph form matches the subtractive update."""
    rng = np.random.default_rng(67)
    sys_ = None
    cov = np.eye(2)
    mean = np.zeros(2)
    min_eig = math.inf
    min_order = math.inf
    joseph_gap = 0.0
    for k in range(10_000):
        if k % 500 == 0:
            a = rng.standard_normal((2, 2))
            a *= 0.95 / max(float(np.abs(np.linalg.eigvals(a)).max()), 1e-6)
            sys_ = LinearSystem(
                A=a,
                B=rng.standard_normal((2, 1)),
                C=rng.standard_normal((1, 2)),
                M=random_psd(rng, 1, jitter=0.05),
            )
        w_cov = random_psd(rng, 2, jitter=1e-4)
        prior = predict(
            BeliefState(mean, cov),
            rng.standard_normal(1),
            0.1 * rng.standard_normal(2),
            w_cov,
            sys_,
        )
        post = update(prior, rng.standard_normal(1), sys_)
        gain = kalman_gain(prior.cov, sys_)
        subtractive = symmetrize(prior.cov - gain @ sys_.C @ prior.cov)
        joseph_gap = max(joseph_gap, float(np.abs(post.cov - subtractive).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(post.cov).min()))
        min_order = min(
            min_order, float(np.linalg.eigvalsh(prior.cov - post.cov).min())
        )
        mean, cov = post.mean, post.cov
    print(
        f"min posterior eigenvalue {min_eig:.2e}, min prior-minus-posterior "
        f"eigenvalue {min_order:.2e}, joseph gap {joseph_gap:.2e}"
    )
    assert min_eig >= -1e-9
    assert min_order >= -1e-9
    assert joseph_gap <= 1e-9


def test_reports_are_byte_identical_across_executions(tmp_path):
    """Re-running the same campaign yields byte-identical reports, and
    the simulated costs do not depend on the worker count."""
    cfg = load_config(str(CONFIG_DIR / "gaussian.yaml"))
    first = run_campaign(cfg, runs=60)
    second = run_campaign(cfg, runs=60)
    paths_a = emit_reports(first, str(tmp_path / "first"))
    paths_b = emit_reports(second, str(tmp_path / "second"))
    assert set(paths_a) == set(paths_b)
    for name in paths_a:
        assert Path(paths_a[name]).read_bytes() == Path(paths_b[name]).read_bytes()

    wdrc_costs, lqg_costs = simulate_paired(
        list(first.policies.values()),
        first.scenario,
        cfg.sys,
        cfg.cost,
        runs=60,
        jobs=3,
    )
    assert np.array_equal(wdrc_costs, first.stats["wdrc"].costs)
    assert np.array_equal(lqg_costs, first.stats["lqg"].costs)
    print("reports byte-identical; costs invariant to worker count")
