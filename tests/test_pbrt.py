import math

import numpy as np
import pytest
from scipy.stats import norm

from brakedist.driver import BlupResult
from brakedist.model import ModelSpec, StimulusRegistry, TrainedModel
from brakedist.pbrt import (
    InvalidQuantile,
    PbrtEstimate,
    density_curve,
    estimate_pbrt,
    norm_quantile,
    percentile,
)


def make_model(beta, sigma2=0.04, sigma_gamma=None, beta_cov=None, spec=None):
    spec = spec or ModelSpec(1, 2)
    p = spec.p
    return TrainedModel(
        spec=spec,
        stimuli=StimulusRegistry([f"s{i}" for i in range(spec.num_stimuli)]),
        beta=np.asarray(beta, dtype=float),
        sigma2=sigma2,
        sigma_gamma=sigma_gamma if sigma_gamma is not None else 0.01 * np.eye(p),
        beta_cov=beta_cov if beta_cov is not None else np.zeros((p, p)),
    )


def zero_blup(p, pred_err=None):
    return BlupResult(
        gamma_hat=np.zeros(p),
        pred_err_cov=pred_err if pred_err is not None else np.zeros((p, p)),
    )


class TestNormQuantile:
    def test_median(self):
        assert norm_quantile(0.5) == 0.0

    def test_against_erf_inverse_oracle(self):
        # scipy's ndtri is the independent special-function route.
        for q in [1e-9, 1e-6, 0.001, 0.01, 0.1, 0.25, 0.5, 0.6, 0.9, 0.975, 0.999, 1 - 1e-7]:
            assert norm_quantile(q) == pytest.approx(norm.ppf(q), abs=1e-9)

    def test_symmetry(self):
        for q in [0.01, 0.2, 0.45]:
            assert norm_quantile(q) == pytest.approx(-norm_quantile(1 - q), abs=1e-12)

    def test_rejects_out_of_range(self):
        for q in [0.0, 1.0, -0.1, 1.5, float("nan")]:
            with pytest.raises(InvalidQuantile):
                norm_quantile(q)


class TestEstimatePbrt:
    def test_population_fallback_variance(self):
        sg = 0.02 * np.eye(3)
        model = make_model([0.1, 0.2, 0.05], sigma2=0.04, sigma_gamma=sg)
        blup = zero_blup(3, pred_err=sg.copy())
        est = estimate_pbrt(model, blup, 0, t_star=1.5)
        w = np.array([1.0, 1.5, 2.25])
        assert est.var_conservative == pytest.approx(w @ sg @ w + 0.04, abs=1e-15)
        assert est.var_naive == 0.04

    def test_zero_mean_gives_unit_median(self):
        model = make_model([0.0, 0.0, 0.0])
        est = estimate_pbrt(model, zero_blup(3), 0, t_star=2.0)
        assert est.mu == 0.0
        assert percentile(est, 0.5, conservative=False) == 1.0

    def test_polynomial_oracle(self):
        a, b, c = -0.4, 0.21, 0.013
        model = make_model([a, b, c])
        est = estimate_pbrt(model, zero_blup(3), 0, t_star=1.5)
        assert est.mu == pytest.approx(a + 1.5 * b + 2.25 * c, abs=1e-15)

    def test_defaults_to_model_t_star(self):
        model = make_model([0.0, 0.1, 0.0])
        est = estimate_pbrt(model, zero_blup(3), 0)
        assert est.t_star == 1.5

    def test_gamma_shifts_mean(self):
        model = make_model([0.0, 0.0, 0.0])
        blup = zero_blup(3)
        shifted = BlupResult(
            gamma_hat=np.array([0.2, 0.0, 0.0]),
            pred_err_cov=np.zeros((3, 3)),
        )
        base = estimate_pbrt(model, blup, 0)
        up = estimate_pbrt(model, shifted, 0)
        assert up.mu == pytest.approx(base.mu + 0.2)


class TestPercentile:
    def test_unit_lognormal_median(self):
        est = PbrtEstimate(mu=0.0, var_naive=1.0, var_conservative=1.0, t_star=1.5, stimulus=0)
        assert percentile(est, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_unit_lognormal_90th(self):
        # z_0.9 = 1.2815515655 from the erf-inverse oracle, so the 90th
        # percentile is exp(z_0.9) = 3.6022 (frozen from the oracle).
        est = PbrtEstimate(mu=0.0, var_naive=1.0, var_conservative=1.0, t_star=1.5, stimulus=0)
        assert percentile(est, 0.9) == pytest.approx(math.exp(norm.ppf(0.9)), rel=1e-9)
        assert percentile(est, 0.9) == pytest.approx(3.602224479279158, abs=1e-3)

    def test_quantile_product_symmetry(self):
        for mu, var in [(0.0, 1.0), (-0.3, 0.2), (0.7, 0.05)]:
            est = PbrtEstimate(mu=mu, var_naive=var, var_conservative=var, t_star=1.5, stimulus=0)
            prod = percentile(est, 0.1) * percentile(est, 0.9)
            assert prod == pytest.approx(math.exp(2 * mu), rel=1e-12)

    def test_conservative_nests_naive(self):
        est = PbrtEstimate(mu=-0.3, var_naive=0.04, var_conservative=0.09, t_star=1.5, stimulus=0)
        for q in [0.5, 0.6, 0.75, 0.9, 0.99]:
            assert percentile(est, q, True) >= percentile(est, q, False)
        for q in [0.01, 0.1, 0.25, 0.5]:
            assert percentile(est, q, True) <= percentile(est, q, False)

    def test_invalid_quantile(self):
        est = PbrtEstimate(mu=0.0, var_naive=1.0, var_conservative=1.0, t_star=1.5, stimulus=0)
        with pytest.raises(InvalidQuantile):
            percentile(est, 1.0)


class TestDensityCurve:
    def test_unit_lognormal_at_one(self):
        est = PbrtEstimate(mu=0.0, var_naive=1.0, var_conservative=1.0, t_star=1.5, stimulus=0)
        pts = density_curve(est, False, [1.0])
        assert pts[0][1] == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_nonnegative_everywhere(self):
        est = PbrtEstimate(mu=-0.2, var_naive=0.05, var_conservative=0.08, t_star=1.5, stimulus=0)
        pts = density_curve(est, True, np.linspace(0.01, 10.0, 500))
        assert all(f >= 0.0 for _, f in pts)

    def test_integrates_to_one(self):
        # Trapezoid quadrature oracle; the grid spans past the 0.001 and
        # 0.999 quantiles so the tail mass left out is negligible.
        est = PbrtEstimate(mu=-0.2, var_naive=0.05, var_conservative=0.08, t_star=1.5, stimulus=0)
        for conservative in (False, True):
            var = est.var_conservative if conservative else est.var_naive
            lo = math.exp(est.mu + norm.ppf(1e-6) * math.sqrt(var))
            hi = math.exp(est.mu + norm.ppf(1.0 - 1e-6) * math.sqrt(var))
            grid = np.linspace(lo, hi, 4000)
            pts = density_curve(est, conservative, grid)
            pdf = np.array([f for _, f in pts])
            integral = np.trapezoid(pdf, grid)
            assert integral == pytest.approx(1.0, abs=1e-3)

    def test_rejects_nonpositive_grid(self):
        est = PbrtEstimate(mu=0.0, var_naive=1.0, var_conservative=1.0, t_star=1.5, stimulus=0)
        with pytest.raises(ValueError):
            density_curve(est, False, [0.0, 1.0])


class TestEstimateInvariants:
    def test_var_conservative_floor(self):
        with pytest.raises(ValueError):
            PbrtEstimate(mu=0.0, var_naive=1.0, var_conservative=0.5, t_star=1.5, stimulus=0)

    def test_variance_gap_shrinks_with_driver_data(self):
        # More per-driver data -> smaller coefficient uncertainty -> the
        # conservative variance approaches the naive one (mean over drivers).
        from brakedist.driver import DriverState, add_observation, compute_blup
        from brakedist.model import Observation

        spec = ModelSpec(1, 2)
        model = TrainedModel(
            spec=spec,
            stimuli=StimulusRegistry(["s0"]),
            beta=np.array([-0.3, 0.1, 0.0]),
            sigma2=0.04,
            sigma_gamma=np.diag([0.02, 0.005, 5e-5]),
            beta_cov=np.zeros((3, 3)),
        )
        rng = np.random.default_rng(17)
        gaps = {n: [] for n in (2, 8, 32)}
        for _ in range(10):
            events = [
                Observation("d", 0, float(rng.uniform(0.3, 8.0)), float(rng.uniform(0.4, 3.0)))
                for _ in range(32)
            ]
            for n in gaps:
                state = DriverState(driver_id="d")
                for o in events[:n]:
                    add_observation(state, o)
                est = estimate_pbrt(model, compute_blup(state, model), 0)
                gaps[n].append(est.var_conservative - est.var_naive)
        means = [float(np.mean(gaps[n])) for n in sorted(gaps)]
        assert means[0] > means[1] > means[2]

    def test_population_estimate_independent_of_other_drivers(self):
        # Pure function of its arguments: identical inputs, identical output.
        model = make_model([-0.3, 0.1, 0.0])
        a = estimate_pbrt(model, zero_blup(3), 0)
        b = estimate_pbrt(model, zero_blup(3), 0)
        assert a == b
