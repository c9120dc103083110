"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. The expensive training-recovery criterion fits
the committed default study once per session.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

import brakedist.cli as cli
from brakedist.driver import DriverState, add_observation, compute_blup
from brakedist.model import ModelSpec, Observation, StimulusRegistry, TrainedModel, feature_row
from brakedist.numerics import is_psd
from brakedist.pbrt import PbrtEstimate, estimate_pbrt, norm_quantile, percentile
from brakedist.simgen import default_config, generate
from brakedist.training import FitOptions, fit, load_model, log_likelihood, save_model

from reference import grouped, henderson_oracle


@contextmanager
def criterion(num, desc):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {desc}")


def random_spd(rng, p, scale=0.1):
    a = rng.standard_normal((p, p)) * scale
    return a @ a.T + (scale * 0.1) ** 2 * np.eye(p)


def random_model(rng, spec=ModelSpec(3, 2)):
    p = spec.p
    return TrainedModel(
        spec=spec,
        stimuli=StimulusRegistry([f"s{i}" for i in range(spec.num_stimuli)]),
        beta=rng.standard_normal(p) * 0.2,
        sigma2=float(rng.uniform(0.02, 0.2)),
        sigma_gamma=random_spd(rng, p),
        beta_cov=random_spd(rng, p, scale=0.02),
    )


def random_state(rng, model, n, driver_id="d"):
    state = DriverState(driver_id=driver_id)
    for _ in range(n):
        s = int(rng.integers(0, model.spec.num_stimuli))
        add_observation(state, Observation(driver_id, s, float(rng.uniform(0.3, 9.0)),
                                           float(rng.uniform(0.3, 5.0))))
    return state


@pytest.fixture(scope="session")
def trained_default(tmp_path_factory):
    """Model fitted once on the committed default study (criteria 3 and 4)."""
    cfg = default_config()
    ts, truth = generate(cfg)
    t0 = time.perf_counter()
    model = fit(ts, FitOptions())
    elapsed = time.perf_counter() - t0
    path = tmp_path_factory.mktemp("model") / "default_model.json"
    save_model(model, path)
    return cfg, model, path, elapsed


def test_criterion_1_blup_oracle_equivalence():
    with criterion(1, "BLUP matches the mixed-model-equation oracle to 1e-8 "
                      "over 100 random instances in < 5 s"):
        rng = np.random.default_rng(20240901)
        t0 = time.perf_counter()
        for _ in range(100):
            model = random_model(rng)
            state = random_state(rng, model, int(rng.integers(1, 31)))
            got = compute_blup(state, model).gamma_hat
            want = henderson_oracle(state, model)
            rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)
            assert rel <= 1e-8
        assert time.perf_counter() - t0 < 5.0


def test_criterion_2_likelihood_oracle():
    with criterion(2, "profile log-likelihood matches a dense joint-normal "
                      "density oracle to 1e-8 on 20 instances"):
        from brakedist.model import build_design
        from brakedist.training import _PreparedDesigns, marginal_cov

        rng = np.random.default_rng(20240902)
        for _ in range(20):
            spec = ModelSpec(int(rng.integers(1, 4)), 2)
            registry = StimulusRegistry([f"s{i}" for i in range(spec.num_stimuli)])
            drivers = {}
            total = 0
            for d in range(int(rng.integers(2, 7))):
                n_d = int(rng.integers(2, 9))
                total += n_d
                drivers[f"d{d}"] = [
                    Observation(f"d{d}", int(rng.integers(0, spec.num_stimuli)),
                                float(rng.uniform(0.3, 9.0)), float(rng.uniform(0.3, 5.0)))
                    for _ in range(n_d)
                ]
            assert total <= 200
            ts = grouped(spec, registry, drivers)
            sg = random_spd(rng, spec.p)
            sigma2 = float(rng.uniform(0.02, 0.3))

            got = log_likelihood(ts, sigma2, sg)

            beta = _PreparedDesigns(ts).solve(sg / sigma2)[2]
            Xs, ys = [], []
            for obs in drivers.values():
                X, y = build_design(spec, obs)
                Xs.append(X)
                ys.append(y)
            n = sum(len(y) for y in ys)
            V = np.zeros((n, n))
            off = 0
            for X in Xs:
                V[off:off + X.shape[0], off:off + X.shape[0]] = marginal_cov(spec, X, sigma2, sg)
                off += X.shape[0]
            want = float(multivariate_normal.logpdf(
                np.concatenate(ys), mean=np.vstack(Xs) @ beta, cov=V))
            assert got == pytest.approx(want, abs=1e-8)


def test_criterion_3_parameter_recovery(trained_default):
    with criterion(3, "default-study training recovers sigma2 within 10%, "
                      "nonzero betas within 5%, covariance diagonal within 25%, "
                      "in under 10 minutes"):
        cfg, model, _, elapsed = trained_default
        assert elapsed < 600.0
        assert abs(model.sigma2 - cfg.sigma2_true) / cfg.sigma2_true <= 0.10
        nz = cfg.beta_true != 0
        rel_beta = np.abs((model.beta[nz] - cfg.beta_true[nz]) / cfg.beta_true[nz])
        assert np.max(rel_beta) <= 0.05
        tt = np.diag(cfg.sigma_gamma_true)
        dd = np.diag(model.sigma_gamma)
        assert np.max(np.abs(dd - tt) / tt) <= 0.25


def test_criterion_4_zero_data_fallback(trained_default, capsys):
    with criterion(4, "stateless pbrt query returns the population "
                      "distribution percentiles exactly"):
        cfg, model, model_path, _ = trained_default
        name = model.stimuli.name_of(0)
        assert cli.main(["pbrt", "--model", str(model_path), "--stimulus", name]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "q,percentile_naive,percentile_conservative"
        loaded = load_model(model_path)
        w = feature_row(loaded.spec, 0, loaded.t_star)
        mu = float(w @ loaded.beta)
        var_pop = float(w @ loaded.sigma_gamma @ w) + loaded.sigma2
        for row, q in zip(lines[1:], (0.1, 0.5, 0.9)):
            cons = float(row.split(",")[2])
            assert cons == math.exp(mu + norm_quantile(q) * math.sqrt(var_pop))


def test_criterion_5_conservatism():
    with criterion(5, "conservative variance dominates the naive variance and "
                      "the prediction-error covariance stays PSD"):
        rng = np.random.default_rng(20240905)
        for _ in range(60):
            model = random_model(rng)
            state = random_state(rng, model, int(rng.integers(0, 25)))
            blup = compute_blup(state, model)
            assert is_psd(blup.pred_err_cov, 1e-8)
            cov = blup.pred_err_cov
            assert np.linalg.eigvalsh(cov)[0] >= -1e-10 * np.linalg.norm(cov)
            s = int(rng.integers(0, model.spec.num_stimuli))
            est = estimate_pbrt(model, blup, s, t_star=float(rng.uniform(0.8, 2.5)))
            assert est.var_conservative >= est.var_naive


def test_criterion_6_convergence_with_sample_size():
    with criterion(6, "estimated 90th-percentile error shrinks monotonically "
                      "with per-driver sample size (n = 0, 5, 15, 40)"):
        cfg = default_config()
        model = TrainedModel(
            spec=cfg.spec,
            stimuli=cfg.stimuli,
            beta=cfg.beta_true,
            sigma2=cfg.sigma2_true,
            sigma_gamma=cfg.sigma_gamma_true,
            beta_cov=np.zeros((cfg.spec.p, cfg.spec.p)),
        )
        rng = np.random.default_rng(20240906)
        root = np.linalg.cholesky(cfg.sigma_gamma_true + 1e-12 * np.eye(cfg.spec.p))
        w = feature_row(cfg.spec, 0, model.t_star)
        z90 = norm_quantile(0.9)
        sizes = (0, 5, 15, 40)
        errors = {n: [] for n in sizes}
        lo, hi = cfg.headway_range
        for d in range(50):
            gamma = root @ rng.standard_normal(cfg.spec.p)
            true90 = math.exp(float(w @ (cfg.beta_true + gamma)) +
                              z90 * math.sqrt(cfg.sigma2_true))
            events = []
            for _ in range(max(sizes)):
                t = float(rng.uniform(lo, hi))
                x = feature_row(cfg.spec, 0, t)
                y = float(x @ (cfg.beta_true + gamma)) + rng.normal(0.0, math.sqrt(cfg.sigma2_true))
                events.append(Observation(f"drv{d}", 0, t, math.exp(y)))
            for n in sizes:
                state = DriverState(driver_id=f"drv{d}")
                for o in events[:n]:
                    add_observation(state, o)
                blup = compute_blup(state, model)
                est = estimate_pbrt(model, blup, 0)
                errors[n].append(abs(percentile(est, 0.9, conservative=True) - true90))
        mae = [float(np.mean(errors[n])) for n in sizes]
        assert all(a > b for a, b in zip(mae, mae[1:])), mae


def test_criterion_7_realtime_update_budget():
    with criterion(7, "a 100-observation update completes in under 50 ms"):
        rng = np.random.default_rng(20240907)
        model = random_model(rng)
        state = random_state(rng, model, 100)
        times = []
        for _ in range(5):
            state.cached = None
            t0 = time.perf_counter()
            compute_blup(state, model)
            times.append(time.perf_counter() - t0)
        assert float(np.median(times)) < 0.050


def test_criterion_8_determinism(tmp_path, tiny_sim_config_path):
    with criterion(8, "simulate and train are byte-identical across reruns "
                      "with fixed seeds"):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["simulate", "--out", str(a)]) == 0
        assert cli.main(["simulate", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        data = tmp_path / "train.csv"
        assert cli.main(["simulate", "--out", str(data),
                         "--config", str(tiny_sim_config_path)]) == 0
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for out in (m1, m2):
            code = cli.main(["train", "--data", str(data), "--out", str(out)])
            assert code in (0, 4)
        assert m1.read_bytes() == m2.read_bytes()


def test_criterion_9_lognormal_arithmetic():
    with criterion(9, "unit-lognormal percentiles: exact median, 90th matches "
                      "the erf-inverse oracle"):
        est = PbrtEstimate(mu=0.0, var_naive=1.0, var_conservative=1.0,
                           t_star=1.5, stimulus=0)
        assert abs(percentile(est, 0.5) - 1.0) <= 1e-12
        oracle_90 = math.exp(float(norm.ppf(0.9)))  # 3.6022, from the erf inverse
        assert abs(percentile(est, 0.9) - oracle_90) <= 1e-3
