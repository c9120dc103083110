import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from brakedist.model import ModelSpec, Observation, StimulusRegistry, TrainingSet, build_design
from brakedist.numerics import NotPositiveDefinite, is_psd
from brakedist.training import (
    FitOptions,
    _factor,
    _PreparedDesigns,
    _trust_step,
    chol_mask,
    fit,
    gls_beta,
    load_model,
    log_likelihood,
    marginal_cov,
    model_from_dict,
    model_to_dict,
    save_model,
    trust_newton,
)

from reference import grouped, trust_step_oracle

REG1 = StimulusRegistry(["stim"])


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
    return grouped(spec, registry, drivers)


class TestVarianceParams:
    def test_sigma_gamma_psd_for_any_vector(self):
        # Any theta on a full or block-diagonal mask gives a lower-triangular
        # factor L, zero off the mask, and a PSD Lambda = L L'.
        rng = np.random.default_rng(0)
        for free in (chol_mask(9), chol_mask(9, num_blocks=3)):
            for _ in range(20):
                L = _factor(rng.normal(scale=2.0, size=int(free.sum())), free)
                assert np.all(L[~free] == 0.0)
                assert is_psd(L @ L.T, 1e-8)

    def test_block_diagonal_indices(self):
        # nonzero() walks the mask row-major, as boolean indexing does: the
        # order of theta's entries, on which every fit's arithmetic depends.
        for num_blocks, count in ((None, 45), (3, 18)):  # 3 blocks x 6 lower-tri entries
            width = 9 // (num_blocks or 1)
            listed = [(i, j) for i in range(9) for j in range(i + 1) if i // width == j // width]
            rows, cols = chol_mask(9, num_blocks).nonzero()
            assert list(zip(rows.tolist(), cols.tolist())) == listed
            assert len(listed) == count

    def test_rejects_block_count_not_dividing_p(self):
        with pytest.raises(ValueError, match="divisible by the block count"):
            chol_mask(9, num_blocks=2)


class TestMarginalCov:
    def test_zero_sigma_gamma_gives_identity_scale(self):
        spec = ModelSpec(3, 2)
        X = np.random.default_rng(3).standard_normal((5, 9))
        assert np.allclose(marginal_cov(spec, X, 1.0, np.zeros((9, 9))), np.eye(5), atol=1e-12)

    def test_identity_design(self):
        spec = ModelSpec(3, 2)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((9, 9)) * 0.1
        sg = a @ a.T
        assert np.allclose(marginal_cov(spec, np.eye(9), 0.5, sg), sg + 0.5 * np.eye(9), atol=1e-12)

    def test_matches_naive_triple_loop(self):
        spec = ModelSpec(3, 2)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 9))
        a = rng.standard_normal((9, 9)) * 0.2
        sg = a @ a.T
        V = marginal_cov(spec, X, 0.07, sg)
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
        from brakedist.model import build_design

        def assemble(order):
            Xs, ys, blocks = [], [], []
            for d in order:
                X, y = build_design(spec, ts.drivers[d])
                Xs.append(X)
                ys.append(y)
                blocks.append(marginal_cov(spec, X, 0.05, 0.01 * np.eye(spec.p)))
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
        ts = grouped(ModelSpec(1, 0), REG1, {"d0": [simple_obs("d0", 0, 1.0, 0.7)]})
        assert log_likelihood(ts, 1.0, np.zeros((1, 1))) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-10)

    def test_doubling_sigma_decreases_loglik_at_zero_residuals(self):
        # Identical responses: the profiled mean fits exactly, so only the
        # log-determinant term moves.
        drivers = {f"d{i}": [simple_obs(f"d{i}", 0, 1.0 + i, 0.3)] for i in range(4)}
        ts = grouped(ModelSpec(1, 0), REG1, drivers)
        ll1 = log_likelihood(ts, 1.0, np.zeros((1, 1)))
        ll2 = log_likelihood(ts, 4.0, np.zeros((1, 1)))
        assert ll2 < ll1

    @pytest.mark.parametrize("sigma2, sigma_gamma, message", [
        (0.0, np.eye(2), "sigma2 must be positive and finite"),
        (-0.04, np.eye(2), "sigma2 must be positive and finite"),
        (math.nan, np.eye(2), "sigma2 must be positive and finite"),
        (math.inf, np.eye(2), "sigma2 must be positive and finite"),
        (0.04, np.eye(3), "sigma_gamma must be a finite 2 x 2 matrix"),
        (0.04, np.array([[1.0, 0.5], [0.0, 1.0]]), "sigma_gamma: matrix is not symmetric"),
        (0.04, np.diag([1.0, -1.0]), "sigma_gamma is not positive semidefinite"),
    ], ids=["zero", "negative", "nan", "inf", "shape", "asymmetric", "not-psd"])
    def test_rejects_invalid_variance_parameters(self, sigma2, sigma_gamma, message):
        import warnings

        ts = random_training_set(np.random.default_rng(17), ModelSpec(1, 1), 3, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=message):
                log_likelihood(ts, sigma2, sigma_gamma)

    def test_matches_dense_multivariate_normal_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            spec = ModelSpec(int(rng.integers(1, 4)), 2)
            ts = random_training_set(rng, spec, int(rng.integers(2, 7)), int(rng.integers(2, 9)))
            a = rng.standard_normal((spec.p, spec.p)) * 0.15
            sigma2, sg = float(rng.uniform(0.02, 0.3)), a @ a.T + 0.001 * np.eye(spec.p)
            assert log_likelihood(ts, sigma2, sg) == pytest.approx(
                dense_mvn_loglik(ts, sigma2, sg), abs=1e-8
            )

    def test_profile_beta_maximizes_density(self):
        # Random perturbations of beta never increase the joint density.
        rng = np.random.default_rng(11)
        spec = ModelSpec(2, 1)
        ts = random_training_set(rng, spec, 5, 6)
        a = rng.standard_normal((spec.p, spec.p)) * 0.1
        sg = a @ a.T + 0.01 * np.eye(spec.p)
        base = dense_mvn_loglik(ts, 0.05, sg)
        beta_hat = _PreparedDesigns(ts).solve(sg / 0.05)[2]
        for _ in range(10):
            beta = beta_hat + rng.normal(scale=0.05, size=spec.p)
            assert dense_mvn_loglik(ts, 0.05, sg, beta=beta) <= base + 1e-9

    def test_tiny_sigma2_beside_sigma_gamma_matches_extended_precision(self):
        # sigma2 = exp(-60) beside Sigma_gamma = I: sigma2 ~ 1e-26 against
        # Sigma_gamma X'X of order 1. The kernel solves at Lambda =
        # Sigma_gamma / sigma2, where M = I + Lambda X'X keeps every digit,
        # so the value agrees with a 60-digit dense evaluation.
        import mpmath
        from brakedist.model import build_design

        ts = random_training_set(np.random.default_rng(12), ModelSpec(1, 1), 4, 5)
        got = log_likelihood(ts, math.exp(-60.0), np.eye(2))
        with mpmath.workdps(60):
            designs = []
            info, score = mpmath.zeros(2, 2), mpmath.zeros(2, 1)
            for obs in ts.drivers.values():
                X, y = (mpmath.matrix(a.tolist()) for a in build_design(ts.spec, obs))
                V = X * X.T + mpmath.exp(-60) * mpmath.eye(X.rows)
                info += X.T * V**-1 * X
                score += X.T * V**-1 * y
                designs.append((X, y, V))
            beta = info**-1 * score
            want = 0
            for X, y, V in designs:
                r = y - X * beta
                want -= (X.rows * mpmath.log(2 * mpmath.pi) + mpmath.log(mpmath.det(V))
                         + (r.T * V**-1 * r)[0]) / 2
            want = float(want)
        assert got == pytest.approx(want, rel=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        num_stimuli=st.integers(2, 3),
        degree=st.integers(0, 2),
        n_drivers=st.integers(2, 6),
        nobody_sees_last=st.booleans(),
        rank_share=st.floats(0.0, 1.0),
        log10_ridge=st.floats(-12.0, -2.0),
        log_sigma=st.floats(-2.5, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_finite_values_match_dense_oracle(self, num_stimuli, degree, n_drivers,
                                              nobody_sees_last, rank_share, log10_ridge,
                                              log_sigma, seed):
        # Driver d0 (or every driver) never sees the last stimulus, and
        # Sigma_gamma is a low-rank product plus a tiny ridge.
        from brakedist.model import build_design

        spec = ModelSpec(num_stimuli, degree)
        rng = np.random.default_rng(seed)
        registry = StimulusRegistry([f"s{i}" for i in range(num_stimuli)])
        drivers = {}
        for d in range(n_drivers):
            seen = num_stimuli - 1 if d == 0 or nobody_sees_last else num_stimuli
            drivers[f"d{d}"] = [
                Observation(f"d{d}", int(rng.integers(0, seen)), float(rng.uniform(0.3, 9.0)),
                            float(rng.uniform(0.3, 5.0)))
                for _ in range(int(rng.integers(1, 9)))
            ]
        ts = grouped(spec, registry, drivers)
        a = rng.standard_normal((spec.p, round(rank_share * spec.p))) * 0.3
        sg = a @ a.T + 10.0**log10_ridge * np.eye(spec.p)
        sigma2 = math.exp(2.0 * log_sigma)
        try:
            got = log_likelihood(ts, sigma2, sg)
        except NotPositiveDefinite:
            return
        designs = [build_design(spec, obs) for obs in drivers.values()]
        X = np.vstack([X_d for X_d, _ in designs])
        y = np.concatenate([y_d for _, y_d in designs])
        blocks = [marginal_cov(spec, X_d, sigma2, sg) for X_d, _ in designs]
        beta, _ = gls_beta(X, y, blocks)
        V = np.zeros((len(y), len(y)))
        off = 0
        for block in blocks:
            V[off : off + len(block), off : off + len(block)] = block
            off += len(block)
        want = float(multivariate_normal.logpdf(y, mean=X @ beta, cov=V))
        assert got == pytest.approx(want, abs=1e-8)


class TestPreparedSolve:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_d=st.integers(1, 3), log10_c=st.floats(0.0, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_quadratic_form_and_logdet_match_extended_precision(self, n_d, log10_c, seed):
        # Eight drivers with n_d <= p = 3 events each and Lambda = c A A':
        # at large c the random effects nearly explain every driver's
        # residuals, so r'V^-1 r is far below r'r. q and log det V must
        # still match a 50-digit dense evaluation at the exact GLS beta;
        # the difference r'r - (X'r)' Lambda u cancels here, by up to 0.58
        # relative at n_d = 1, c = 1e10. q is held to 1e-9, not 1e-10:
        # where A A' is ill-conditioned (cond ~2e5), forming and factoring
        # T = I + R_x Lambda R_x' (cond ~5e7) costs up to 2.6e-10 of it,
        # though one ulp of Lambda moves q by 1e-12.
        import mpmath
        from brakedist.model import build_design

        rng = np.random.default_rng(seed)
        ts = random_training_set(rng, ModelSpec(1, 2), 8, n_d)
        a = rng.standard_normal((3, 3))
        lam = 10.0**log10_c * (a @ a.T)
        logdet, q, *_ = _PreparedDesigns(ts).solve(lam)
        with mpmath.workdps(50):
            lam_mp = mpmath.matrix(lam.tolist())
            designs = []
            info, score = mpmath.zeros(3, 3), mpmath.zeros(3, 1)
            for obs in ts.drivers.values():
                X, y = (mpmath.matrix(v.tolist()) for v in build_design(ts.spec, obs))
                V = mpmath.eye(X.rows) + X * lam_mp * X.T
                info += X.T * V**-1 * X
                score += X.T * V**-1 * y
                designs.append((X, y, V))
            beta = info**-1 * score
            want_logdet = float(sum(mpmath.log(mpmath.det(V)) for _, _, V in designs))
            want_q = float(sum((r.T * V**-1 * r)[0] for r, V in ((y - X * beta, V) for X, y, V in designs)))
        assert logdet == pytest.approx(want_logdet, rel=1e-10)
        assert q == pytest.approx(want_q, rel=1e-9)

    @pytest.mark.parametrize("lam", [np.full((2, 2), np.inf), np.array([[np.nan, 0.0], [0.0, 1.0]])],
                             ids=["inf", "nan"])
    def test_non_finite_lambda_is_refused(self, lam):
        # Sigma_gamma / sigma2 overflows at a subnormal sigma2. The refusal is
        # the one that log_likelihood documents, not a numpy error from later on.
        ts = random_training_set(np.random.default_rng(1), ModelSpec(1, 1), 4, 3)
        with np.errstate(all="ignore"), pytest.raises(NotPositiveDefinite):
            _PreparedDesigns(ts).solve(lam)

    def test_ragged_event_counts_match_dense_blocks(self):
        # 1 to 40 events per driver, with some counts repeated and the
        # drivers shuffled, so that each batched QR group is scattered
        # across the study; every per-driver output must land on its driver.
        from brakedist.model import build_design

        rng = np.random.default_rng(27)
        spec = ModelSpec(3, 2)
        registry = StimulusRegistry([f"s{i}" for i in range(3)])
        counts = rng.permutation(np.r_[1:41, 1:41:3])
        drivers = {
            f"d{d}": [Observation(f"d{d}", int(rng.integers(0, 3)), float(rng.uniform(0.3, 9.0)),
                                  float(rng.uniform(0.3, 5.0))) for _ in range(n)]
            for d, n in enumerate(counts)
        }
        ts = grouped(spec, registry, drivers)
        a = rng.standard_normal((spec.p, spec.p)) * 0.3
        lam = a @ a.T
        logdet, q, beta, info, _, u, P = _PreparedDesigns(ts).solve(lam)

        designs = [build_design(spec, obs) for obs in drivers.values()]
        blocks = [marginal_cov(spec, X_d, 1.0, lam) for X_d, _ in designs]
        want_beta, want_cov = gls_beta(np.vstack([X_d for X_d, _ in designs]),
                                       np.concatenate([y_d for _, y_d in designs]), blocks)
        want_u = np.array([X_d.T @ np.linalg.solve(V_d, y_d - X_d @ want_beta)
                           for (X_d, y_d), V_d in zip(designs, blocks)])
        want_P = np.array([X_d.T @ np.linalg.solve(V_d, X_d) for (X_d, _), V_d in zip(designs, blocks)])
        want_q = sum(float((y_d - X_d @ want_beta) @ np.linalg.solve(V_d, y_d - X_d @ want_beta))
                     for (X_d, y_d), V_d in zip(designs, blocks))
        assert logdet == pytest.approx(sum(np.linalg.slogdet(V_d)[1] for V_d in blocks), rel=1e-12)
        assert q == pytest.approx(want_q, rel=1e-10)
        assert np.allclose(beta, want_beta, rtol=1e-9, atol=0.0)
        assert np.allclose(np.linalg.inv(info), want_cov, rtol=1e-9, atol=1e-12)
        assert np.allclose(u, want_u, rtol=1e-9, atol=1e-11)
        assert np.allclose(P, want_P, rtol=1e-9, atol=1e-11)


class TestColumnarStudy:
    @staticmethod
    def twins(ts):
        """``ts`` and the same rows rebuilt from ``Observation`` objects."""
        return ts, grouped(ts.spec, ts.stimuli, ts.drivers)

    @staticmethod
    def assert_same_fit(a, b, opts):
        pa, pb = _PreparedDesigns(a), _PreparedDesigns(b)
        for name in ("r", "mean_square"):
            assert getattr(pa, name).tobytes() == getattr(pb, name).tobytes(), name
        ma, mb = fit(a, opts), fit(b, opts)
        for name in ("beta", "sigma_gamma", "beta_cov"):
            assert getattr(ma, name).tobytes() == getattr(mb, name).tobytes(), name
        assert (ma.sigma2, ma.fit_info.loglik, ma.fit_info.iterations) == \
            (mb.sigma2, mb.fit_info.loglik, mb.fit_info.iterations)

    def test_default_study_fits_bit_for_bit_as_observations(self):
        # The simulator's columns hold one event count, so set-up factors one group.
        from brakedist.simgen import default_config, generate

        columnar, from_objects = self.twins(generate(default_config())[0])
        assert np.unique(columnar.counts).size == 1
        self.assert_same_fit(columnar, from_objects, FitOptions(block_diagonal=True))

    def test_ragged_study_fits_bit_for_bit_as_observations(self):
        # 1 to 14 events per driver, some repeated apart from each other, so
        # that some R factors are padded (n_d <= p = 6) and some groups'
        # drivers are not consecutive; built from columns directly.
        rng = np.random.default_rng(28)
        spec = ModelSpec(2, 2)
        counts = np.r_[rng.permutation(np.arange(1, 15)), 3, 3, 12, 1]
        n = int(counts.sum())
        ids = [f"d{d}" for d in range(counts.size)]
        columnar = TrainingSet(spec, StimulusRegistry(["s0", "s1"]), ids, counts, rng.integers(0, 2, n),
                               rng.uniform(0.3, 9.0, n), rng.uniform(0.3, 5.0, n))
        columnar, from_objects = self.twins(columnar)
        self.assert_same_fit(columnar, from_objects, FitOptions(max_iter=400))
        # Each driver's factor is its own QR factor, padded with zero rows.
        prepared = _PreparedDesigns(columnar)
        for d, obs in enumerate(from_objects.drivers.values()):
            assert len(obs) == counts[d]
            r = np.linalg.qr(np.column_stack(build_design(spec, obs)), mode="r")
            assert np.allclose(np.abs(prepared.r[d, : r.shape[0]]), np.abs(r), rtol=1e-12, atol=1e-12)
            assert not prepared.r[d, r.shape[0]:].any()


class TestFitMetamorphic:
    """Transforms of the default study whose effect on the fit is known exactly.
    Each needs no oracle: the fit of the transformed study must be the plain
    fit, mapped, to 1e-8 relative in norm."""

    @pytest.fixture(scope="class")
    def plain(self):
        from brakedist.simgen import default_config, generate

        ts = generate(default_config())[0]
        return ts, {block: fit(ts, FitOptions(block_diagonal=block)) for block in (True, False)}

    @staticmethod
    def assert_close(got, want):
        got, want = np.asarray(got, float), np.asarray(want, float)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def assert_fit(self, got, want, beta=None, copies=1):
        """``got`` is ``want`` with ``beta`` for its beta, of a study that holds
        each of ``want``'s drivers ``copies`` times."""
        self.assert_close(got.beta, want.beta if beta is None else beta)
        self.assert_close(got.sigma2, want.sigma2)
        self.assert_close(got.sigma_gamma, want.sigma_gamma)
        self.assert_close(got.beta_cov, want.beta_cov / copies)
        self.assert_close(got.fit_info.loglik, want.fit_info.loglik * copies)
        assert got.fit_info.converged

    @pytest.mark.parametrize("block", [True, False], ids=["block-diagonal", "full"])
    def test_every_driver_duplicated_doubles_the_information(self, plain, block):
        ts, models = plain
        twice = TrainingSet(ts.spec, ts.stimuli, ts.driver_ids + tuple(f"{d}'" for d in ts.driver_ids),
                            *(np.tile(column, 2) for column in (ts.counts, ts.stimulus, ts.headway_s, ts.brt_s)))
        self.assert_fit(fit(twice, FitOptions(block_diagonal=block)), models[block], copies=2)

    @pytest.mark.parametrize("block", [True, False], ids=["block-diagonal", "full"])
    def test_drivers_in_reverse_order_fit_alike(self, plain, block):
        ts, models = plain
        ends = np.cumsum(ts.counts)[:-1]
        events = [np.concatenate(np.split(column, ends)[::-1]) for column in (ts.stimulus, ts.headway_s, ts.brt_s)]
        reverse = TrainingSet(ts.spec, ts.stimuli, ts.driver_ids[::-1], ts.counts[::-1], *events)
        self.assert_fit(fit(reverse, FitOptions(block_diagonal=block)), models[block])

    @pytest.mark.parametrize("block", [True, False], ids=["block-diagonal", "full"])
    def test_scaled_responses_move_only_the_intercepts(self, plain, block):
        # log(brt * e^0.1) = log(brt) + 0.1: each stimulus's intercept moves by 0.1.
        ts, models = plain
        scaled = TrainingSet(ts.spec, ts.stimuli, ts.driver_ids, ts.counts, ts.stimulus, ts.headway_s,
                             ts.brt_s * math.exp(0.1))
        shift = np.zeros(ts.spec.p)
        shift[:: ts.spec.degree + 1] = 0.1  # each stimulus block opens with its intercept
        want = models[block]
        self.assert_fit(fit(scaled, FitOptions(block_diagonal=block)), want, beta=want.beta + shift)

    @pytest.mark.parametrize("block", [True, False], ids=["block-diagonal", "full"])
    def test_events_in_another_order_within_each_driver_fit_alike(self, plain, block):
        ts, models = plain
        rng = np.random.default_rng(14)
        order = np.lexsort((rng.random(ts.stimulus.size), np.repeat(np.arange(ts.counts.size), ts.counts)))
        shuffled = TrainingSet(ts.spec, ts.stimuli, ts.driver_ids, ts.counts, ts.stimulus[order],
                               ts.headway_s[order], ts.brt_s[order])
        self.assert_fit(fit(shuffled, FitOptions(block_diagonal=block)), models[block])

    @pytest.fixture(scope="class")
    def rescaled(self, plain):
        """Fits of the default study with its headways divided by c, mapped back
        to the plain fit's basis, by fit and c. Dividing t by c divides design
        column t^k by c^k, so beta_k is multiplied by c^k and Sigma_gamma and
        beta_cov entry (j, k) by c^(j + k); c = 4.704 is the headways' RMS."""
        ts, _ = plain
        fits = {}
        for block, c in itertools.product((True, False), (2.0, 4.704, 0.5)):
            got = fit(TrainingSet(ts.spec, ts.stimuli, ts.driver_ids, ts.counts, ts.stimulus, ts.headway_s / c,
                                  ts.brt_s), FitOptions(block_diagonal=block))
            back = np.tile(c ** -np.arange(ts.spec.degree + 1.0), ts.spec.num_stimuli)
            fits[block, c] = dataclasses.replace(got, beta=got.beta * back,
                                                 sigma_gamma=got.sigma_gamma * np.outer(back, back),
                                                 beta_cov=got.beta_cov * np.outer(back, back))
        return fits

    @pytest.mark.parametrize("c", [2.0, 4.704, 0.5])
    @pytest.mark.parametrize("block", [True, False], ids=["block-diagonal", "full"])
    def test_rescaled_headways_rescale_beta(self, plain, rescaled, block, c):
        # Iteration counts move (15 to 10-14, 76 to 64-81) and are not asserted.
        got, want = rescaled[block, c], plain[1][block]
        self.assert_close(got.fit_info.loglik, want.fit_info.loglik)
        self.assert_close(got.beta, want.beta)
        self.assert_close(got.sigma2, want.sigma2)
        assert got.fit_info.converged

    @pytest.mark.parametrize("c", [2.0, 4.704, 0.5])
    @pytest.mark.parametrize("block", [
        pytest.param(True, id="block-diagonal", marks=pytest.mark.xfail(strict=True, reason=(
            "the block-diagonal search stops with -loglik settled to 1e-15 but Sigma_gamma only to "
            "1.4e-8-5e-8 relative (FOUND in CHANGES.md; ROADMAP item 2's stop rule)"))),
        pytest.param(False, id="full"),
    ])
    def test_rescaled_headways_rescale_the_covariances(self, plain, rescaled, block, c):
        got, want = rescaled[block, c], plain[1][block]
        self.assert_close(got.sigma_gamma, want.sigma_gamma)
        self.assert_close(got.beta_cov, want.beta_cov)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))), ids=lambda order: "%d%d%d" % order)
    @pytest.mark.parametrize("block", [True, False], ids=["block-diagonal", "full"])
    def test_relabelled_stimuli_permute_the_blocks(self, plain, block, order):
        # Stimulus k of the relabelled registry is the plain one's stimulus order[k]:
        # its name and its events move together, and so do its coefficient blocks.
        # The full fit's path depends on the order (59 to 243 iterations), not its end.
        ts, models = plain
        order = np.array(order)
        relabelled = TrainingSet(ts.spec, StimulusRegistry([ts.stimuli.names[s] for s in order]), ts.driver_ids,
                                 ts.counts, np.argsort(order)[ts.stimulus], ts.headway_s, ts.brt_s)
        got = fit(relabelled, FitOptions(block_diagonal=block))
        k = ts.spec.degree + 1
        back = np.argsort((order[:, None] * k + np.arange(k)).ravel())  # into the plain fit's coefficient order
        got = dataclasses.replace(got, stimuli=ts.stimuli, beta=got.beta[back],
                                  sigma_gamma=got.sigma_gamma[np.ix_(back, back)],
                                  beta_cov=got.beta_cov[np.ix_(back, back)])
        self.assert_fit(got, models[block])


def dense_mvn_loglik(ts, sigma2, sigma_gamma, beta=None):
    """Oracle: materialize the full block-diagonal covariance and evaluate
    one joint Gaussian density (never used by the library itself)."""
    from brakedist.model import build_design

    if beta is None:
        beta = _PreparedDesigns(ts).solve(sigma_gamma / sigma2)[2]
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
        V[off : off + m, off : off + m] = marginal_cov(ts.spec, X, sigma2, sigma_gamma)
        off += m
    return float(multivariate_normal.logpdf(y_all, mean=X_all @ beta, cov=V))


def _ill_scaled_quadratic():
    a, c = np.array([1.0, 1e4]), np.array([3.0, -2.0])
    return (lambda x: 0.5 * float(a @ (x - c) ** 2), lambda x: (a * (x - c), np.diag(a)),
            c + np.array([1.0, 0.01]), c)


def _rosenbrock():
    def f(x):
        return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2

    def derivatives(x):
        grad = np.array([-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                         200.0 * (x[1] - x[0] ** 2)])
        hess = np.array([[1200.0 * x[0] ** 2 - 400.0 * x[1] + 2.0, -400.0 * x[0]],
                         [-400.0 * x[0], 200.0]])
        return grad, hess

    return f, derivatives, np.array([-1.2, 1.0]), np.array([1.0, 1.0])


def _boxed_barrier():
    # -sum log(1 - x_i^2) - b'x, infinite outside the open box |x_i| < 1;
    # the minimizer solves 2 x_i / (1 - x_i^2) = b_i.
    b = np.array([10.0, -30.0])

    def f(x):
        if np.any(np.abs(x) >= 1.0):
            return np.inf
        return float(-np.sum(np.log1p(-x * x)) - b @ x)

    def derivatives(x):
        return 2.0 * x / (1.0 - x * x) - b, np.diag(2.0 * (1.0 + x * x) / (1.0 - x * x) ** 2)

    xmin = (np.sqrt(1.0 + b * b) - 1.0) / b
    return f, derivatives, np.array([-0.5, 0.5]), xmin


class TestBfgs:
    """The fit's search, ``trust_newton``, on test functions with known
    minimizers and analytic Hessians."""

    @pytest.mark.parametrize("problem", [_ill_scaled_quadratic, _rosenbrock, _boxed_barrier],
                             ids=["ill-scaled-quadratic", "rosenbrock", "boxed-barrier"])
    def test_reaches_the_minimizer(self, problem):
        f, derivatives, x0, xmin = problem()
        result = trust_newton(f, x0, 1000, derivatives)
        assert result.converged
        assert np.max(np.abs(result.x - xmin)) <= 1e-4

    @pytest.mark.parametrize("x0", [[0.0, 0.0], [0.5, 0.0]], ids=["saddle", "gradient-off-the-dip"])
    def test_leaves_a_saddle_along_negative_curvature(self, x0):
        # x0^2 + (x1^2 - 1)^2 has a saddle at 0 and minima at (0, +-1). At
        # both starts g has no part along e_1, where the Hessian's curvature
        # is -4: shifting by 4 alone would divide 0 by 0 there.
        import warnings

        def f(x):
            return float(x[0] ** 2 + (x[1] ** 2 - 1.0) ** 2)

        def derivatives(x):
            grad = np.array([2.0 * x[0], 4.0 * x[1] * (x[1] ** 2 - 1.0)])
            return grad, np.diag([2.0, 12.0 * x[1] ** 2 - 4.0])

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = trust_newton(f, np.array(x0), 100, derivatives)
        assert result.converged
        assert np.max(np.abs(np.abs(result.x) - [0.0, 1.0])) <= 1e-6

    def test_an_infinite_start_ends_the_search_at_once(self):
        def derivatives(x):
            raise AssertionError("derivatives asked for at an infeasible start")

        result = trust_newton(lambda x: np.inf, np.array([0.5, 0.0]), 100, derivatives)
        assert (result.fun, result.iterations, result.nfev, result.converged) == (np.inf, 0, 1, False)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        kind=st.sampled_from(["definite", "indefinite", "singular", "hard", "hard-rotated"]),
        log_radius=st.floats(-3.0, 3.0),
        log_g=st.floats(-3.0, 3.0),
    )
    def test_trust_step_solves_the_subproblem(self, seed, n, kind, log_radius, log_g):
        # "hard" is a diagonal H whose lowest entry is negative and where g
        # is exactly 0, so g has no part along the lowest eigenvector;
        # "hard-rotated" rotates that case, leaving g orthogonal to it only
        # to rounding. The multiplier is recovered from s as the shift that
        # best solves (H + shift I) s = -g. The direct form of the gain
        # carries rounding of order |H| |s|^2, which bounds its agreement.
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        g = rng.standard_normal(n) * 10.0**log_g
        radius = 10.0**log_radius
        if kind == "definite":
            H = A @ A.T
        elif kind == "indefinite":
            H = A + A.T
        elif kind == "singular":
            B = A[:, : n - 1]
            H = B @ B.T
        else:
            curv = rng.uniform(-5.0, 5.0, n)
            curv[0] = -abs(curv[0]) - 0.1
            g[0] = 0.0
            Q = np.linalg.qr(A)[0] if kind == "hard-rotated" else np.eye(n)
            H, g = (Q * curv) @ Q.T, Q @ g
            H = 0.5 * (H + H.T)
        curv, basis = np.linalg.eigh(H)
        step, gain = _trust_step(g, curv, basis, radius)
        size = np.linalg.norm(step)
        scale = np.abs(curv).max() + np.linalg.norm(g) / radius
        assert size <= radius * (1.0 + 1e-12)
        if size > 0:
            shift = -step @ (H @ step + g) / size**2
            residual = np.linalg.norm(H @ step + shift * step + g)
            assert residual <= 1e-12 * ((np.abs(curv).max() + abs(shift)) * size + np.linalg.norm(g))
            assert shift >= max(0.0, -curv[0]) - 1e-12 * scale
            assert abs(shift * (radius - size)) <= 1e-12 * scale * radius
        else:
            assert not g.any() and curv[0] >= 0
        direct = -(g @ step + 0.5 * step @ H @ step)
        assert gain >= 0
        assert abs(gain - direct) <= 1e-10 * (abs(g @ step) + 0.5 * np.abs(curv).max() * size**2)
        oracle, _ = trust_step_oracle(g, H, radius)
        assert np.linalg.norm(step - oracle) <= 1e-9 * radius


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
    return grouped(spec, REG1, drivers)


class TestFit:
    def test_recovers_zero_random_effects(self):
        # Generating Sigma_gamma = 0 (all drivers identical), D=100, n_d=20.
        # The ML boundary estimate of a zero variance component can inflate
        # on unlucky draws; this data seed was checked to sit cleanly at zero.
        sigma2 = 0.05
        ts = make_identical_driver_data(0, 100, 20, sigma2, beta=(-0.4, 0.2, -0.01))
        model = fit(ts, FitOptions(max_iter=2000))
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
        ts = grouped(spec, REG1, drivers)
        model = fit(ts, FitOptions(max_iter=1500))
        ll_true = log_likelihood(ts, 0.04, sg_true)
        assert model.fit_info.loglik >= ll_true

    def test_deterministic_given_seed(self):
        ts = make_identical_driver_data(9, 12, 6, 0.04, beta=(-0.3, 0.1, 0.0))
        opts = FitOptions(max_iter=300)
        m1 = fit(ts, opts)
        m2 = fit(ts, opts)
        assert np.array_equal(m1.beta, m2.beta)
        assert m1.sigma2 == m2.sigma2
        assert np.array_equal(m1.sigma_gamma, m2.sigma_gamma)

    def test_requires_two_drivers(self):
        ts = grouped(ModelSpec(1, 0), REG1, {"solo": [simple_obs("solo", 0, 1.0, 0.1)]})
        with pytest.raises(ValueError, match="at least 2 drivers"):
            fit(ts)

    def test_block_diagonal_option_zeroes_cross_blocks(self):
        rng = np.random.default_rng(13)
        spec = ModelSpec(2, 1)
        ts = random_training_set(rng, spec, 10, 8)
        model = fit(ts, FitOptions(max_iter=400, block_diagonal=True))
        assert np.allclose(model.sigma_gamma[2:, :2], 0.0, atol=1e-30)

    def test_beta_and_cov_match_dense_gls(self):
        # fit reads beta and beta_cov off the profile likelihood; the dense
        # per-driver GLS at exactly the fitted (sigma2, Sigma_gamma), rank
        # deficient or not, is the reference.
        from brakedist.model import build_design

        rng = np.random.default_rng(13)
        spec = ModelSpec(2, 1)
        ts = random_training_set(rng, spec, 10, 8)
        model = fit(ts, FitOptions(max_iter=400))
        designs = [build_design(spec, obs) for obs in ts.drivers.values()]
        beta, cov = gls_beta(
            np.vstack([X for X, _ in designs]),
            np.concatenate([y for _, y in designs]),
            [marginal_cov(spec, X, model.sigma2, model.sigma_gamma) for X, _ in designs],
        )
        assert np.linalg.norm(model.beta - beta) <= 1e-10 * np.linalg.norm(beta)
        assert np.linalg.norm(model.beta_cov - cov) <= 1e-10 * np.linalg.norm(cov)

    def test_searches_from_the_moment_start_only(self, monkeypatch):
        # One search, from Lambda = diag(X'X / N)^-1: each log-diagonal entry
        # is -log of its column's root mean square, the rest 0, and a column
        # that no event reaches (here stimulus 1's) starts at 0 as well.
        from brakedist import training
        from brakedist.model import build_design

        rng = np.random.default_rng(14)
        drivers = {f"d{d}": [Observation(f"d{d}", 0, float(rng.uniform(0.3, 9.0)),
                                         float(rng.uniform(0.3, 5.0))) for _ in range(5)]
                   for d in range(8)}
        ts = grouped(ModelSpec(2, 1), StimulusRegistry(["a", "b"]), drivers)
        X, _ = build_design(ts.spec, [o for obs in drivers.values() for o in obs])
        rms = np.sqrt(np.mean(X**2, axis=0))
        original = training.nelder_mead
        for block_diagonal in (False, True):
            starts = []

            def recorder(fn, x0, *args, **kwargs):
                starts.append(np.array(x0))
                return original(fn, x0, *args, **kwargs)

            monkeypatch.setattr(training, "nelder_mead", recorder)
            fit(ts, FitOptions(max_iter=100, block_diagonal=block_diagonal))
            free = chol_mask(4, 2 if block_diagonal else None)
            want = np.diag([-math.log(rms[0]), -math.log(rms[1]), 0.0, 0.0])[free]
            assert len(starts) == 1
            np.testing.assert_allclose(starts[0], want, rtol=1e-14, atol=0.0)

    def test_default_study_evaluation_budget(self, monkeypatch):
        # The trust-region Newton search takes 15 (block-diagonal) and 76
        # (full) evaluations here; the BFGS search it replaced took 81 and
        # 290, and ended at -loglik 397.2154453251103 and 375.5896296058306.
        # Each evaluation is one deviance call and one solve, with one
        # generalized inverse; the gradient and Hessian are built at the
        # start and at each accepted trial only (a trial is accepted when it
        # lowers the deviance), and the model is read off the search's own
        # solve at the point it ends on.
        from collections import Counter

        from brakedist import training
        from brakedist.simgen import default_config, generate

        ts, _ = generate(default_config())
        searches, values, counts = [], [], Counter()
        original = training.nelder_mead

        def recorder(fn, *args, **kwargs):
            def recording(x):
                values[-1].append(fn(x))
                return values[-1][-1]

            values.append([])
            searches.append(original(recording, *args, **kwargs))
            return searches[-1]

        def count(owner, name):
            counted = getattr(owner, name)

            def counting(*args, **kwargs):
                counts[name] += 1
                return counted(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        monkeypatch.setattr(training, "nelder_mead", recorder)
        for name in ("deviance", "solve", "derivatives"):
            count(training._PreparedDesigns, name)
        count(training, "generalized_inverse")
        models, per_fit = [], []
        for opts in (FitOptions(block_diagonal=True), FitOptions()):
            models.append(fit(ts, opts))
            per_fit.append(dict(counts))
            counts.clear()
        for search, fun, used in zip(searches, values, per_fit):
            accepted = sum(f < min(fun[:i]) for i, f in enumerate(fun) if i)
            assert used["deviance"] == used["solve"] == search.nfev == len(fun)
            assert used["derivatives"] == accepted + 1
            assert used["generalized_inverse"] <= search.nfev
        assert [used["derivatives"] for used in per_fit] == [12, 65]
        block, full = models
        assert searches[0].nfev <= 20
        assert searches[1].nfev <= 150
        assert block.fit_info.converged and full.fit_info.converged
        assert -block.fit_info.loglik <= 397.2154453251103 + 1e-9
        assert -full.fit_info.loglik <= 375.5896296058306 + 1e-9

    def test_capped_fits_read_the_model_off_the_accepted_point(self, monkeypatch):
        # Capped at 3 to 5 iterations, the block-diagonal search on the
        # default study ends on a rejected trial, whose solve is the latest
        # but not the one the model must come from.
        from brakedist import training
        from brakedist.simgen import default_config, generate

        ts, _ = generate(default_config())
        prepared = _PreparedDesigns(ts)
        ended_rejected = []
        original = training.nelder_mead

        def recorder(fn, *args, **kwargs):
            latest = []

            def recording(x):
                latest[:] = [fn(x)]
                return latest[0]

            result = original(recording, *args, **kwargs)
            ended_rejected.append(latest[0] != result.fun)
            return result

        monkeypatch.setattr(training, "nelder_mead", recorder)
        for max_iter in range(1, 17):
            model = fit(ts, FitOptions(block_diagonal=True, max_iter=max_iter))
            loglik = log_likelihood(ts, model.sigma2, model.sigma_gamma)
            assert loglik == pytest.approx(model.fit_info.loglik, rel=1e-9), max_iter
            beta = prepared.solve(model.sigma_gamma / model.sigma2)[2]
            assert np.linalg.norm(model.beta - beta) <= 1e-9 * np.linalg.norm(beta), max_iter
        assert ended_rejected[2:5] == [True] * 3

    def test_objective_is_infinite_beyond_the_parameter_bound(self, monkeypatch):
        from brakedist import training

        ts = random_training_set(np.random.default_rng(16), ModelSpec(1, 1), 6, 4)
        runs = []
        original = training.nelder_mead

        def recorder(fn, x0, *args, **kwargs):
            runs.append((fn, np.array(x0)))
            return original(fn, x0, *args, **kwargs)

        monkeypatch.setattr(training, "nelder_mead", recorder)
        fit(ts, FitOptions(max_iter=20))
        deviance, x0 = runs[0]
        assert np.isfinite(deviance(x0))
        for i in range(x0.size):
            for sign in (1.0, -1.0):
                vec = x0.copy()
                vec[i] = sign * np.nextafter(training._PARAM_BOUND, np.inf)
                assert deviance(vec) == np.inf

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_drivers=st.integers(3, 12),
        obs=st.integers(2, 8),
        block_diagonal=st.booleans(),
        jitter=st.floats(0.0, 1.0),
    )
    def test_gradient_matches_central_difference(self, seed, num_drivers, obs, block_diagonal,
                                                 jitter):
        # Around the fit's start on small simgen studies, kept where the
        # deviance is finite and where its rounding noise, read off
        # symmetric second differences, lets the central difference resolve
        # 1e-7 of |g|. The Hessian is checked against central differences
        # of the gradient.
        from hypothesis import assume

        from brakedist import training
        from brakedist.simgen import default_config, generate

        config = default_config()
        config.seed, config.num_drivers, config.obs_per_driver = seed, num_drivers, (obs,) * 3
        ts, _ = generate(config)
        prepared = training._PreparedDesigns(ts)
        free = chol_mask(ts.spec.p, ts.spec.num_stimuli if block_diagonal else None)
        rng = np.random.default_rng(seed)
        start = np.diag(-0.5 * np.log(prepared.mean_square))
        theta = start[free] + jitter * rng.standard_normal(int(free.sum()))
        value, point = prepared.deviance(theta, free)
        assume(np.isfinite(value))
        grad, hess = prepared.derivatives(point, free)

        def deviance(t):
            return prepared.deviance(t, free)[0]

        h = 1e-5
        noise = max(abs(deviance(theta + d) + deviance(theta - d) - 2.0 * value)
                    for d in 1e-9 * rng.standard_normal((4, theta.size)))
        assume(noise / h <= 1e-7 * np.linalg.norm(grad))
        central = np.array([(deviance(theta + h * e) - deviance(theta - h * e)) / (2.0 * h)
                            for e in np.eye(theta.size)])
        assert np.linalg.norm(grad - central) <= 1e-6 * np.linalg.norm(grad)
        def gradient(t):
            return prepared.derivatives(prepared.deviance(t, free)[1], free)[0]

        central = np.array([(gradient(theta + h * e) - gradient(theta - h * e)) / (2.0 * h)
                            for e in np.eye(theta.size)])
        assert np.linalg.norm(hess - central) <= 1e-6 * np.linalg.norm(hess)

    def test_small_study_panel_converges_at_or_below_nelder_mead(self):
        # Twelve small studies, fixed in advance; the reference is -loglik
        # of the BFGS search from the moment start that this fit replaced.
        # At k = 3 that search took 213 evaluations, and this one 517.
        import warnings

        from brakedist.simgen import default_config, generate

        bfgs = [
            34.19251333164949, 87.5582928274874, 113.82075885002692, 53.68781979334012,
            50.93053718649665, 60.11521946974409, 14.559815927660225, 63.84725399787769,
            42.04980141927808, 10.11188228368853, 49.193122679000496, 52.02563010339,
        ]
        got = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for k, reference in enumerate(bfgs):
                config = default_config()
                config.seed = 1000 + k
                config.num_drivers = [20, 30, 40][k % 3]
                config.obs_per_driver = [(3, 3, 3), (5, 5, 5), (10, 10, 10)][k % 3]
                ts, _ = generate(config)
                model = fit(ts, FitOptions(block_diagonal=bool(k % 2)))
                assert model.fit_info.converged, k
                got.append(-model.fit_info.loglik)
                assert got[-1] <= reference + 1e-6, k
        assert sum(got) <= 632.0926478696396

    @pytest.mark.parametrize("study", ["long-headways", *range(10)])
    def test_ends_at_or_below_lbfgsb_from_the_same_start(self, study, monkeypatch):
        # scipy's L-BFGS-B on the same deviance and gradient, from the
        # search's own start, is the oracle. The long-headway study
        # (30 drivers x 12 events at 300-900 s, block-diagonal) is one where
        # the BFGS search this fit replaced stopped, reporting convergence,
        # at -loglik -144.42, where L-BFGS-B reaches -222.33. The other
        # studies are random_training_set draws, fitted block-diagonal: on
        # full fits of this size L-BFGS-B creeps along the boundary for
        # several seconds each.
        from scipy.optimize import minimize

        from brakedist import training

        if study == "long-headways":
            rng = np.random.default_rng(0)
            drivers = {}
            for d in range(30):
                g = rng.normal(0, 0.2)
                drivers[f"d{d}"] = [
                    Observation(f"d{d}", int(rng.integers(0, 2)), float(t),
                                math.exp(-0.5 + g + 0.01 * rng.normal() + 0.1 * rng.normal()))
                    for t in rng.uniform(300, 900, 12)]
            ts = grouped(ModelSpec(2, 2), StimulusRegistry(["s0", "s1"]), drivers)
        else:
            ts = random_training_set(np.random.default_rng(study), ModelSpec(2, 2), 10, 8)
            block_diagonal = True
        starts = []
        original = training.nelder_mead

        def recorder(fn, x0, *args, **kwargs):
            starts.append(np.array(x0))
            return original(fn, x0, *args, **kwargs)

        monkeypatch.setattr(training, "nelder_mead", recorder)
        model = fit(ts, FitOptions(block_diagonal=True))
        prepared = _PreparedDesigns(ts)
        free = chol_mask(ts.spec.p, ts.spec.num_stimuli)

        def value_and_gradient(theta):
            value, point = prepared.deviance(theta, free)
            if not np.isfinite(value):
                return np.inf, np.zeros_like(theta)
            return value, prepared.derivatives(point, free)[0]

        bound = training._PARAM_BOUND
        oracle = minimize(value_and_gradient, starts[0], jac=True, method="L-BFGS-B",
                          bounds=[(-bound, bound)] * starts[0].size,
                          options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 20000})
        assert model.fit_info.converged
        assert -model.fit_info.loglik <= oracle.fun + 1e-8

    def test_refuses_a_start_where_the_likelihood_is_not_finite(self):
        # Every response equal: the residuals vanish for any Lambda, so the
        # profiled sigma2 = q / N is 0 and the deviance infinite.
        ts = make_identical_driver_data(22, 4, 5, 0.0, beta=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match=r"not finite at the start Lambda = diag\(X'X / N\)\^-1"):
            fit(ts)

    def test_fit_info_populated(self):
        ts = make_identical_driver_data(10, 8, 5, 0.04, beta=(-0.3, 0.1, 0.0))
        model = fit(ts, FitOptions(max_iter=200))
        assert model.fit_info.iterations > 0
        assert isinstance(model.fit_info.converged, bool)


class TestModelFile:
    def test_save_load_round_trip_bytes(self, tmp_path):
        ts = make_identical_driver_data(20, 8, 5, 0.04, beta=(-0.3, 0.1, 0.0))
        model = fit(ts, FitOptions(max_iter=200))
        path1 = tmp_path / "m1.json"
        path2 = tmp_path / "m2.json"
        save_model(model, path1)
        loaded = load_model(path1)
        save_model(loaded, path2)
        assert path1.read_bytes() == path2.read_bytes()

    def test_dict_round_trip_preserves_values(self):
        ts = make_identical_driver_data(21, 8, 5, 0.04, beta=(-0.3, 0.1, 0.0))
        model = fit(ts, FitOptions(max_iter=200))
        clone = model_from_dict(model_to_dict(model))
        assert np.array_equal(clone.beta, model.beta)
        assert clone.sigma2 == model.sigma2
        assert np.array_equal(clone.sigma_gamma, model.sigma_gamma)
        assert np.array_equal(clone.beta_cov, model.beta_cov)
        assert clone.stimuli == model.stimuli
        assert clone.fit_info.loglik == model.fit_info.loglik
