"""Exact closed-loop moments and the certified dual bound."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from wdrc import (
    certified_bounds,
    estimate_nominal,
    gelbrich_dist_sq,
    initial_posterior_cov,
    lqg_gains,
    load_config,
    simulate_paired,
    synthesize_wdrc,
)
from wdrc.closedloop import (
    _dual_terms,
    _index,
    _mean_hessian,
    _slope_models,
    closed_loop,
    exact_cost,
    initial_moments,
    penalized_value,
    worst_case_law,
)
from wdrc.bounds import performance_ratio
from wdrc.harness import config_from_dict
from wdrc.controller import WdrcController, synthesize_wdrcs
from wdrc.model import CostSpec, LinearSystem, NominalDistribution, draw_nominal_samples
from wdrc.psdmath import MomentPair
from wdrc.riccati import min_feasible_lambda

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(
    scope="module", params=["gaussian", "uniform", "gaussian-two-outputs"]
)
def setup(request):
    """Bundled config with both policies, the robust one pinned at 4.0;
    ``gaussian-two-outputs`` is ``gaussian.yaml`` with a second output
    and a measurement noise that is not a scalar."""
    name, _, variant = request.param.partition("-")
    raw = yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())
    if variant:
        raw["plant"]["C"] = [[1.023, 1.955], [0.5, -0.3]]
        raw["plant"]["M"] = [[0.2, 0.05], [0.05, 0.1]]
    cfg = config_from_dict(raw)
    scen = cfg.scenario
    nominal = estimate_nominal(draw_nominal_samples(scen, cfg.cost.horizon))
    p0 = initial_posterior_cov(scen.initial_state, cfg.sys)
    wdrc = synthesize_wdrc(cfg.sys, cfg.cost, nominal, 4.0, p0)
    lqg = lqg_gains(cfg.sys, cfg.cost, nominal, p0)
    return cfg, nominal, wdrc, lqg


def _loop(cfg, ctrl):
    """The loop of one controller: the member of its stack of one."""
    return _index(closed_loop([ctrl], cfg.sys, cfg.cost), 0)


def _stationary(T, mean, cov):
    return np.tile(mean, (T, 1)), np.tile(cov, (T, 1, 1))


def test_exact_cost_matches_batched_rollouts(setup):
    """Monte-Carlo means of both policies sit within 3 SE of the exact
    expectation under the scenario's true laws and the plant's noise."""
    cfg, _, wdrc, lqg = setup
    scen = cfg.scenario
    wdrc_costs, lqg_costs = simulate_paired(
        [wdrc, lqg], scen, cfg.sys, cfg.cost, runs=4000
    )
    z0 = initial_moments(scen.initial_state, cfg.sys)
    law = scen.true_disturbance
    means, covs = _stationary(cfg.cost.horizon, law.mean(), law.cov())
    for ctrl, costs in ((wdrc, wdrc_costs), (lqg, lqg_costs)):
        exact = exact_cost(_loop(cfg, ctrl), z0, means, covs)
        se = float(costs.std(ddof=1)) / math.sqrt(costs.size)
        z = (float(costs.mean()) - exact) / se
        print(f"exact {exact:.5f}, MC {costs.mean():.5f} +- {se:.5f}, z {z:+.2f}")
        assert abs(z) <= 3.0


def _admissible_laws(nominal, theta, T):
    """The acceptance test's twenty stationary laws (boundary shifts,
    rescalings at full and half radius, random mixtures) and a
    full-radius shift whose direction turns at every stage."""
    w_hat, sig_hat = nominal.mean(0), nominal.cov(0)
    root_tr = math.sqrt(float(np.trace(sig_hat)))
    laws = []
    for k in range(8):
        ang = k * math.pi / 4.0
        shift = theta * np.array([math.cos(ang), math.sin(ang)])
        laws.append((f"shift {45 * k}", *_stationary(T, w_hat + shift, sig_hat)))
    for frac in (1.0, -1.0, 0.5, -0.5):
        c = 1.0 + frac * theta / root_tr
        laws.append((f"scale {c:.3f}", *_stationary(T, w_hat, c * c * sig_hat)))
    rng = np.random.default_rng(97)
    for j in range(8):
        alpha = float(rng.random())
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        shift = math.sqrt(alpha) * theta * np.array([math.cos(ang), math.sin(ang)])
        c = 1.0 + math.copysign(math.sqrt(1.0 - alpha), rng.random() - 0.5) * (
            theta / root_tr
        )
        laws.append((f"mixed {j}", *_stationary(T, w_hat + shift, c * c * sig_hat)))
    angles = 2.0 * math.pi * np.arange(T) / 7.0
    turning = np.stack([nominal.mean(t) for t in range(T)]) + theta * np.stack(
        [np.cos(angles), np.sin(angles)], axis=1
    )
    laws.append(
        ("turning shift", turning, np.stack([nominal.cov(t) for t in range(T)]))
    )
    return laws


def test_certificate_covers_admissible_laws_exactly(setup):
    """The certified bound is at least the exact cost of the deployed loop
    for stationary and non-stationary laws inside the ball."""
    cfg, nominal, wdrc, _ = setup
    scen, T, theta = cfg.scenario, cfg.cost.horizon, cfg.theta
    cert = certified_bounds([wdrc], cfg.sys, cfg.cost, scen.initial_state, theta)[0]
    assert math.isfinite(cert.bound)
    loop = _loop(cfg, wdrc)
    z0 = initial_moments(scen.initial_state, cfg.sys)
    worst = -math.inf
    for label, means, covs in _admissible_laws(nominal, theta, T):
        for t in range(T):
            dist_sq = gelbrich_dist_sq(MomentPair(means[t], covs[t]), nominal.stages[t])
            assert dist_sq <= theta**2 + 1e-12, label
        cost = exact_cost(loop, z0, means, covs)
        assert cost <= cert.bound, label
        worst = max(worst, cost)
    print(f"bound {cert.bound:.4f} at kappa {cert.kappa:.4f}; worst law {worst:.4f}")


def test_zero_radius_certificate_is_exact_nominal_cost(setup):
    """At theta = 0 the certificate is the exact cost under the nominal
    law."""
    cfg, nominal, wdrc, _ = setup
    x0_dist, T = cfg.scenario.initial_state, cfg.cost.horizon
    cert = certified_bounds([wdrc], cfg.sys, cfg.cost, x0_dist, 0.0)[0]
    means = np.stack([nominal.mean(t) for t in range(T)])
    covs = np.stack([nominal.cov(t) for t in range(T)])
    z0 = initial_moments(x0_dist, cfg.sys)
    exact = exact_cost(_loop(cfg, wdrc), z0, means, covs)
    assert cert.kappa == math.inf
    assert cert.bound == pytest.approx(exact, rel=1e-12)


def test_certificate_is_the_cost_of_its_attaining_law(setup):
    """The relaxed dual bound is attained: the law ``worst_case_law``
    returns at the certificate's multiplier costs the bound, to rounding.
    The bound exceeds that cost by ``kappa (T theta^2 - sum_t G_t^2)``,
    whose sign at the computed multiplier is a matter of rounding, so
    both sides get the same tolerance."""
    cfg, nominal, wdrc, _ = setup
    x0_dist = cfg.scenario.initial_state
    cert = certified_bounds([wdrc], cfg.sys, cfg.cost, x0_dist, cfg.theta)[0]
    loop = _loop(cfg, wdrc)
    z0 = initial_moments(x0_dist, cfg.sys)
    means, covs = worst_case_law(loop, z0, nominal, cert.kappa)
    cost = exact_cost(loop, z0, means, covs)
    print(f"bound {cert.bound!r}, attaining law {cost!r}")
    assert cert.bound == pytest.approx(cost, rel=1e-12)


def test_baseline_value_is_the_exact_nominal_cost(setup):
    """The textbook LQG value ``j_lq`` is the exact expected cost of the
    baseline loop under the nominal moments and the plant's noise."""
    cfg, nominal, wdrc, lqg = setup
    scen, T = cfg.scenario, cfg.cost.horizon
    cert = performance_ratio(
        wdrc, lqg, cfg.sys, cfg.cost, scen.initial_state, cfg.theta
    )
    means = np.stack([nominal.mean(t) for t in range(T)])
    covs = np.stack([nominal.cov(t) for t in range(T)])
    z0 = initial_moments(scen.initial_state, cfg.sys)
    exact = exact_cost(_loop(cfg, lqg), z0, means, covs)
    assert cert.j_lq == pytest.approx(exact, rel=1e-12)


def test_penalized_value_duality(setup):
    """``W_kappa`` is attained by its maximizing law, dominates every
    other law's penalized cost, and its slope is minus the maximizer's
    summed squared distance; the dual bound is its minimum over kappa."""
    cfg, nominal, wdrc, _ = setup
    x0_dist, T = cfg.scenario.initial_state, cfg.cost.horizon
    loop = _loop(cfg, wdrc)
    z0 = initial_moments(x0_dist, cfg.sys)
    cert = certified_bounds([wdrc], cfg.sys, cfg.cost, x0_dist, cfg.theta)[0]
    assert cert.bound == cert.kappa * T * cfg.theta * cfg.theta + cert.w_kappa

    def penalty(means, covs):
        return sum(
            gelbrich_dist_sq(MomentPair(means[t], covs[t]), nominal.stages[t])
            for t in range(T)
        )

    rng = np.random.default_rng(5)
    for kappa in cert.kappa * np.array([0.97, 1.0, 1.5, 4.0]):
        value, slope = penalized_value(loop, z0, nominal, kappa)
        ahead, _ = penalized_value(loop, z0, nominal, kappa * (1.0 + 1e-6))
        behind, _ = penalized_value(loop, z0, nominal, kappa * (1.0 - 1e-6))
        assert slope == pytest.approx((ahead - behind) / (2e-6 * kappa), rel=1e-5)
        means, covs = worst_case_law(loop, z0, nominal, kappa)
        dist = penalty(means, covs)
        attained = exact_cost(loop, z0, means, covs) - kappa * dist
        assert value == pytest.approx(attained, rel=1e-10)
        assert slope == pytest.approx(-dist, rel=1e-8)
        assert cert.bound <= kappa * T * cfg.theta * cfg.theta + value
        for _ in range(5):
            other_means = means + 0.05 * rng.standard_normal(means.shape)
            a = 0.1 * rng.standard_normal(covs.shape)
            other_covs = covs + a @ np.swapaxes(a, 1, 2)
            other = exact_cost(loop, z0, other_means, other_covs)
            assert other - kappa * penalty(other_means, other_covs) <= value
    assert penalized_value(loop, z0, nominal, 0.5 * cert.kappa)[0] == math.inf


def test_dual_bound_recovers_from_poor_model_roots(setup, monkeypatch):
    """The exact refinement reaches the same bound when the model's
    predicted multiplier is unbounded or far too large."""
    import wdrc.closedloop as closedloop

    cfg, _, wdrc, _ = setup
    x0_dist = cfg.scenario.initial_state
    cert = certified_bounds([wdrc], cfg.sys, cfg.cost, x0_dist, cfg.theta)[0]
    for start in (0.5 * cert.kappa, 100.0 * cert.kappa):
        monkeypatch.setattr(closedloop, "_model_root", lambda *args: start)
        again = certified_bounds([wdrc], cfg.sys, cfg.cost, x0_dist, cfg.theta)[0]
        assert again.bound == pytest.approx(cert.bound, rel=1e-10)
        assert again.kappa == pytest.approx(cert.kappa, rel=1e-4)


def test_dual_bound_steps_by_secant_next_to_a_pole(monkeypatch):
    """On ``gaussian.yaml`` at scenario seed 2813 and ``lam = 3.1679`` the
    top Ritz pole (3.3012) sits just below the root (3.3111), where
    model-Newton steps alternate around the root and shrink ``|h|`` only
    about 0.7x per step (41 exact evaluations).  Once exact evaluations
    bracket the root, secant steps settle it in a few, at the same
    bound."""
    import wdrc.closedloop as closedloop
    from wdrc.harness import prepare

    cfg = load_config(str(CONFIG_DIR / "gaussian.yaml"))
    scenario, nominal, p0 = prepare(cfg, 2813)
    ctrl = synthesize_wdrc(cfg.sys, cfg.cost, nominal, 3.1679, p0)
    evaluations = []
    evaluate = closedloop._evaluate

    def counted(terms, kappa):
        evaluations.append(kappa)
        return evaluate(terms, kappa)

    monkeypatch.setattr(closedloop, "_evaluate", counted)
    (cert,) = certified_bounds(
        [ctrl], cfg.sys, cfg.cost, scenario.initial_state, cfg.theta
    )
    assert len(evaluations) <= 8
    # The bound the model-Newton search reaches in 41 evaluations, and the
    # searches started at half and 100 times the multiplier, within 1e-12.
    assert cert.bound == pytest.approx(7.447779441019523, rel=1e-9)


def test_dual_bound_steps_out_from_the_model_pole(monkeypatch):
    """On ``gaussian.yaml`` at scenario seed 2813 and ``lam = 3.5679`` the
    Lanczos model's top pole (3.62504) lies below the pole of ``W_kappa``
    (3.62642), so the model's root (3.62626) is unbounded, and the root
    (3.62748) lies just above the pole.  Stepping out from the model's
    pole, doubling the distance, brackets the root at once; doubling out
    from the top Bures pole (1.5575) overshot to 5.69 and bisected back
    toward the pole, 18 exact evaluations for a bound of
    7.435554896784209."""
    import wdrc.closedloop as closedloop
    from wdrc.harness import prepare

    cfg = load_config(str(CONFIG_DIR / "gaussian.yaml"))
    scenario, nominal, p0 = prepare(cfg, 2813)
    ctrl = synthesize_wdrc(cfg.sys, cfg.cost, nominal, 3.5679, p0)
    evaluations = []
    evaluate = closedloop._evaluate

    def counted(terms, kappa):
        evaluations.append(kappa)
        return evaluate(terms, kappa)

    monkeypatch.setattr(closedloop, "_evaluate", counted)
    (cert,) = certified_bounds(
        [ctrl], cfg.sys, cfg.cost, scenario.initial_state, cfg.theta
    )
    assert len(evaluations) <= 8
    assert cert.bound <= 7.435554896784209 * (1.0 + 1e-12)


def _scan_terms(sys, cost, nominal, x0_dist, count):
    """Dual terms of the robust loops at ``count`` penalties from 1.5 to
    ``1.5^count`` times the smallest feasible one."""
    lam_min = min_feasible_lambda(sys, cost, 1e-3, 1e6)
    lams = [lam_min * 1.5**j for j in range(1, count + 1)]
    p0 = initial_posterior_cov(x0_dist, sys)
    ctrls = synthesize_wdrcs(sys, cost, nominal, lams, p0)
    assert all(isinstance(ctrl, WdrcController) for ctrl in ctrls)
    z0 = initial_moments(x0_dist, sys)
    return _dual_terms(closed_loop(ctrls, sys, cost), z0, nominal)


def _two_input_terms(horizon, x0_dist):
    """The two-input plant of
    ``test_two_input_certificates_equal_stacks_of_one``."""
    sys = LinearSystem(
        A=np.array([[0.518, 0.266], [0.405, 0.806]]),
        B=np.array([[-2.972, 0.4], [-2.271, 1.3]]),
        C=np.array([[1.023, 1.955]]),
        M=np.array([[0.2]]),
    )
    R = np.array([[1.0, 0.3], [0.3, 0.7]])
    cost = CostSpec(Q=np.eye(2), Q_f=np.eye(2), R=R, horizon=horizon)
    cov = np.array([[0.02, 0.004], [0.004, 0.01]])
    nominal = NominalDistribution((MomentPair(np.array([0.93, -0.51]), cov),) * horizon)
    return _scan_terms(sys, cost, nominal, x0_dist, 6)


def _shift_map(terms):
    """Reference for :func:`_mean_hessian`: the map ``R`` from the stacked
    shifts to the mean states, ``(k, T + 1, 2n, T n)``, whose stage ``t``
    has ``R_{t+1} = F_t R_t`` plus ``E_t`` in the columns of shift ``t``,
    and the augmented mean states ``(E[z_t], 1)`` under the nominal means,
    ``(k, T + 1, 2n + 1)``."""
    k, T, m, n = terms.Ea.shape
    R = np.zeros((k, T + 1, m - 1, T * n))
    za = np.zeros((k, T + 1, m))
    za[:, 0] = terms.za0
    for t in range(T):
        R[:, t + 1] = terms.Fa[:, t, :-1, :-1] @ R[:, t]
        R[:, t + 1, :, t * n : (t + 1) * n] += terms.Ea[:, t, :-1]
        za[:, t + 1] = (terms.Fa[:, t] @ za[:, t, :, None])[..., 0]
    return R, za


@pytest.mark.parametrize("name", ["gaussian", "uniform", "two-input-2", "two-input-9"])
def test_explicit_hessian_is_the_product_through_the_shift_map(name, gaussian_scenario):
    """The mean part's Hessian built from the loop's cost-to-go equals
    ``sum_t R_t' Q_t R_t`` through the map from shifts to mean states, is
    exactly symmetric off its diagonal blocks, and has the ``N_t`` of the
    dual terms as its diagonal blocks; its gradient from the adjoint
    recursion equals ``sum_t R_t' (Q_t E[z_t] + q_t)``."""
    if name.startswith("two-input"):
        horizon = int(name.rsplit("-", 1)[1])
        terms = _two_input_terms(horizon, gaussian_scenario.initial_state)
    else:
        cfg = load_config(str(CONFIG_DIR / f"{name}.yaml"))
        nominal = estimate_nominal(draw_nominal_samples(cfg.scenario, cfg.cost.horizon))
        terms = _scan_terms(cfg.sys, cfg.cost, nominal, cfg.scenario.initial_state, 6)
    k, T, _, n = terms.Ea.shape
    H, g = _mean_hessian(terms)
    R, za = _shift_map(terms)
    Qs = np.concatenate([terms.Qa, terms.Qfa[:, None]], axis=1)
    ref = np.einsum("stia,stij,stjb->sab", R, Qs[..., :-1, :-1], R)
    c = np.einsum("stij,stj->sti", Qs, za)[..., :-1]
    ref_g = np.einsum("stia,sti->sa", R, c)
    for i in range(k):
        err = float(np.abs(H[i] - ref[i]).max()) / float(np.abs(ref[i]).max())
        assert err <= 1e-13, (i, err)
        err = float(np.abs(g[i] - ref_g[i]).max()) / float(np.abs(ref_g[i]).max())
        assert err <= 1e-14, (i, err)
    blocks = H.reshape(k, T, n, T, n)
    diag = blocks[:, np.arange(T), :, np.arange(T)]  # (T, k, n, n)
    off = np.ones((T, T), dtype=bool)
    off[np.arange(T), np.arange(T)] = False
    for s, t in zip(*np.nonzero(off)):
        assert np.array_equal(blocks[:, s, :, t], np.swapaxes(blocks[:, t, :, s], 1, 2))
    N = np.swapaxes(diag, 0, 1)
    scale = float(np.abs(terms.N).max())
    assert float(np.abs(N - terms.N).max()) <= 1e-14 * scale


def test_mean_hessian_holds_no_more_than_its_hessians():
    """At ``T = 200`` the Hessians and gradient of a three-problem stack
    are built with less than 1 MiB beside the Hessians themselves: the
    forward pass carries one stage of the shift map, never the whole
    ``(k, T + 1, 2n, T n)`` map (7.5 MiB here)."""
    cfg = load_config(str(CONFIG_DIR / "gaussian.yaml"))
    cost = cfg.cost._replace(horizon=200)
    nominal = estimate_nominal(draw_nominal_samples(cfg.scenario, cost.horizon))
    terms = _scan_terms(cfg.sys, cost, nominal, cfg.scenario.initial_state, 3)
    tracemalloc.start()
    try:
        H, _ = _mean_hessian(terms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"peak {peak / 2**20:.3f} MiB, H {H.nbytes / 2**20:.3f} MiB")
    assert peak - H.nbytes < 1 << 20


def test_slope_models_of_unequal_lanczos_runs_equal_stacks_of_one(setup):
    """A stack whose Lanczos runs end at different lengths (the shifts of
    later stages silenced in three problems, so their Krylov spaces are
    exhausted early, and a zero gradient in a fourth) gives each problem
    the poles and weights of its stack of one, bit for bit: the Ritz
    values of the runs of one length come from one stacked ``eigh``."""
    cfg, nominal, _, _ = setup
    terms = _scan_terms(cfg.sys, cfg.cost, nominal, cfg.scenario.initial_state, 6)
    Ea, EPi, za0 = terms.Ea.copy(), terms.EPi.copy(), terms.za0.copy()
    for i, stages in ((1, 1), (2, 3), (4, 1)):
        Ea[i, stages:], EPi[i, stages:] = 0.0, 0.0
    za0[3] = 0.0
    terms = terms._replace(Ea=Ea, EPi=EPi, za0=za0)
    models = _slope_models(terms)
    lengths = [poles.size - terms.nu[i].size for i, (poles, _) in enumerate(models)]
    print(f"Lanczos lengths {lengths}")
    assert lengths[3] == 0 and lengths[0] == lengths[5] == 30
    assert len(set(lengths)) >= 4
    for i, (poles, weights) in enumerate(models):
        ((alone_poles, alone_weights),) = _slope_models(_index(terms, [i]))
        assert np.array_equal(poles, alone_poles)
        assert np.array_equal(weights, alone_weights)
