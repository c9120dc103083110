import itertools
import json
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brakedist.driver import (
    DriverMismatch,
    DriverState,
    add_observation,
    compute_blup,
    load_driver_state,
    state_from_dict,
    state_to_dict,
)
from brakedist.model import (MAX_HEADWAY_S, ModelSpec, Observation, StimulusRegistry, TrainedModel,
                             build_design, design)
from brakedist.numerics import NotPositiveDefinite, spd_solve
from brakedist.pbrt import estimate_pbrt, percentile

from reference import henderson_oracle, state_columns_oracle


def scalar_model(sigma_gamma=1.0, sigma2=1.0, beta=0.0, beta_cov=0.0):
    # S=1, degree=0 gives a single coefficient: the cleanest hand-checkable case.
    return TrainedModel(
        spec=ModelSpec(num_stimuli=1, degree=0),
        stimuli=StimulusRegistry(["stim"]),
        beta=np.array([beta]),
        sigma2=sigma2,
        sigma_gamma=np.array([[sigma_gamma]]),
        beta_cov=np.array([[beta_cov]]),
    )


def random_model(rng, p_spec=ModelSpec(3, 2), sigma2=None, rank=None, beta_cov_scale=0.0):
    p = p_spec.p
    a = rng.standard_normal((p, p if rank is None else rank)) * 0.1
    sg = a @ a.T
    if rank is None:
        sg += 0.001 * np.eye(p)
    bc = np.zeros((p, p))
    if beta_cov_scale:
        b = rng.standard_normal((p, p)) * beta_cov_scale
        bc = b @ b.T
    return TrainedModel(
        spec=p_spec,
        stimuli=StimulusRegistry([f"s{i}" for i in range(p_spec.num_stimuli)]),
        beta=rng.standard_normal(p) * 0.2,
        sigma2=float(sigma2 if sigma2 is not None else rng.uniform(0.02, 0.2)),
        sigma_gamma=0.5 * (sg + sg.T),
        beta_cov=bc,
    )


def random_state(rng, model, n, driver_id="d"):
    state = DriverState(driver_id=driver_id)
    for _ in range(n):
        s = int(rng.integers(0, model.spec.num_stimuli))
        t = float(rng.uniform(0.3, 9.0))
        brt = float(rng.uniform(0.3, 5.0))
        add_observation(state, Observation(driver_id, s, t, brt))
    return state


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def dense_blup(state, model):
    """Reference for compute_blup: the plug-in formulas evaluated by forming
    the n x n marginal covariance V = X Sg X' + s2 I, solving V^-1 [X | r]
    with its Cholesky factor, and taking the prediction-error covariance
    as the direct subtraction it is defined by."""
    p = model.spec.p
    sg = model.sigma_gamma
    X, y = build_design(model.spec, state.observations)
    resid = y - X @ model.beta
    V = X @ sg @ X.T + model.sigma2 * np.eye(state.n)
    W = spd_solve(0.5 * (V + V.T), np.column_stack([X, resid]))
    gamma_hat = sg @ (X.T @ W[:, p])
    info = X.T @ W[:, :p]
    sg_info = sg @ (0.5 * (info + info.T))
    gamma_hat_cov = sg_info @ sg - sg_info @ model.beta_cov @ sg_info.T
    gamma_hat_cov = 0.5 * (gamma_hat_cov + gamma_hat_cov.T)
    cross = model.beta_cov @ sg_info.T
    pred_err = model.beta_cov + (sg - gamma_hat_cov) - cross - cross.T
    return gamma_hat, 0.5 * (pred_err + pred_err.T)


def mp_pred_err_cov(state, model, dps=60):
    """pred_err_cov at ``dps`` digits from the same float64 inputs, by the
    defining subtraction beta_cov + Sg - Cov(gamma_hat) - cross - cross'
    with info = X' V^-1 X = M^-T X'X, M = Sg X'X + s2 I (p x p)."""
    X, _ = build_design(model.spec, state.observations)
    with mpmath.workdps(dps):
        xm = mpmath.matrix(X.tolist())
        xtx = xm.T * xm
        sg = mpmath.matrix(model.sigma_gamma.tolist())
        bc = mpmath.matrix(model.beta_cov.tolist())
        m = sg * xtx + mpmath.mpf(model.sigma2) * mpmath.eye(model.spec.p)
        s_info = sg * (mpmath.inverse(m.T) * xtx)
        cross = bc * s_info.T
        want = bc + sg - (s_info * sg - s_info * bc * s_info.T) - cross - cross.T
        return np.array(want.tolist(), dtype=float)


class TestAddObservation:
    def test_append_and_cache_invalidation(self):
        state = DriverState(driver_id="a")
        add_observation(state, Observation("a", 0, 1.0, 1.0))
        assert state.n == 1
        add_observation(state, Observation("a", 0, 2.0, 1.2))
        assert state.n == 2

    def test_driver_mismatch(self):
        state = DriverState(driver_id="a")
        with pytest.raises(DriverMismatch):
            add_observation(state, Observation("b", 0, 1.0, 1.0))

    def test_order_preserved(self):
        state = DriverState(driver_id="a")
        for i in range(50):
            add_observation(state, Observation("a", 0, 1.0 + i, 1.0))
        assert state.n == 50
        assert [o.headway_s for o in state.observations] == [1.0 + i for i in range(50)]

    def test_history_window_evicts_oldest(self):
        state = DriverState(driver_id="a", max_history=5)
        for i in range(8):
            add_observation(state, Observation("a", 0, 1.0 + i, 1.0))
        assert state.n == 5
        assert state.observations[0].headway_s == 4.0

    @pytest.mark.parametrize("max_history", [0, -1, 2.5, True, "3"])
    def test_max_history_must_be_a_positive_integer(self, max_history):
        # 0 and negative windows silently kept nothing.
        with pytest.raises(ValueError, match=f"max_history must be an integer >= 1, got "
                                             f"{re.escape(repr(max_history))}$"):
            DriverState(driver_id="a", max_history=max_history)

    @pytest.mark.parametrize("max_history", [np.int64(5), 5.0])
    def test_max_history_is_stored_as_an_int(self, max_history):
        # np.int64(5) was kept as given, and json.dumps of the state document raised TypeError.
        state = DriverState(driver_id="a", max_history=max_history)
        assert type(state.max_history) is int and state.max_history == 5
        assert json.loads(json.dumps(state_to_dict(state, StimulusRegistry(["s"]))))["max_history"] == 5

    def test_driver_id_must_be_a_string(self):
        # DriverState(5) was accepted, and wrote a state file that every reader refused.
        with pytest.raises(ValueError, match="^driver_id must be a string, got 5$"):
            DriverState(driver_id=5)

    def test_header_is_checked_in_order(self):
        # With both header fields bad, the first one, driver_id, is named.
        with pytest.raises(ValueError, match="^driver_id must be a string, got 5$"):
            state_from_dict({"driver_id": 5, "max_history": 0}, StimulusRegistry(["s"]))
        with pytest.raises(ValueError, match="^max_history must be an integer >= 1, got 0$"):
            state_from_dict({"driver_id": "a", "max_history": 0}, StimulusRegistry(["s"]))

    def test_window_of_one_keeps_the_newest_event(self):
        state = DriverState(driver_id="a", max_history=1)
        for i in range(3):
            add_observation(state, Observation("a", 0, 1.0 + i, 1.0))
        assert state.observations == [Observation("a", 0, 3.0, 1.0)]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        max_history=st.integers(1, 8),
        events=st.lists(st.tuples(st.integers(0, 2), st.floats(0.1, 20.0), st.floats(0.05, 5.0)),
                        max_size=20),
    )
    def test_window_matches_a_list_reference(self, max_history, events):
        model = random_model(np.random.default_rng(5), beta_cov_scale=0.05)
        state = DriverState(driver_id="w", max_history=max_history)
        reference = []
        for stimulus, headway, brt in events:
            obs = Observation("w", stimulus, headway, brt)
            add_observation(state, obs)
            reference = (reference + [obs])[-max_history:]
            assert state.observations == reference
            X, y = build_design(model.spec, state.observations)
            assert np.array_equal(design(model.spec, state.stimulus, state.headway_s), X)
            assert np.array_equal(np.log(state.brt_s), y)
            doc = json.loads(json.dumps(state_to_dict(state, model.stimuli)))
            loaded = state_from_dict(doc, model.stimuli)
            got, want = compute_blup(state, model), compute_blup(loaded, model)
            assert np.array_equal(got.gamma_hat, want.gamma_hat)
            assert np.array_equal(got.pred_err_cov, want.pred_err_cov)
        # The state file keeps the window: one more event evicts alike. A
        # reloaded state once came back with the default window.
        doc = json.loads(json.dumps(state_to_dict(state, model.stimuli)))
        loaded = state_from_dict(doc, model.stimuli)
        for s in (state, loaded):
            add_observation(s, Observation("w", 0, 2.0, 1.0))
        assert loaded.n == state.n
        got, want = compute_blup(state, model), compute_blup(loaded, model)
        assert np.array_equal(got.gamma_hat, want.gamma_hat)
        assert np.array_equal(got.pred_err_cov, want.pred_err_cov)


class TestComputeBlup:
    def test_zero_data_population_fallback(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, beta_cov_scale=0.05)
        state = DriverState(driver_id="a")
        res = compute_blup(state, model)
        assert np.array_equal(res.gamma_hat, np.zeros(9))
        # Individual-effect uncertainty with no data is the population
        # covariance itself, exactly.
        assert np.array_equal(res.pred_err_cov, model.sigma_gamma)

    def test_zero_prior_variance_pins_gamma_to_zero(self):
        model = scalar_model(sigma_gamma=0.0)
        rng = np.random.default_rng(1)
        state = random_state(rng, model, 12)
        res = compute_blup(state, model)
        assert np.allclose(res.gamma_hat, 0.0, atol=1e-15)

    def test_scalar_hand_case(self):
        # X=(1), Sigma=1, sigma2=1, beta=0, y=(2): V=2, gamma=1*1*(1/2)*2=1,
        # Cov(gamma_hat)=1*(1/2)*2*(1/2)*1=0.5, pred err = (1-0.5) = 0.5.
        model = scalar_model()
        state = DriverState(driver_id="a")
        add_observation(state, Observation("a", 0, 1.0, math.exp(2.0)))
        res = compute_blup(state, model)
        assert res.gamma_hat[0] == pytest.approx(1.0, abs=1e-12)
        assert res.pred_err_cov[0, 0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 7])
    def test_leaves_state_unchanged(self, n):
        model = random_model(np.random.default_rng(12), beta_cov_scale=0.05)
        state = random_state(np.random.default_rng(13), model, n)
        names = ("stimulus", "headway_s", "brt_s")
        columns = {name: getattr(state, name) for name in names}
        contents = {name: column.copy() for name, column in columns.items()}
        compute_blup(state, model)
        for name in names:
            assert getattr(state, name) is columns[name]
            assert not columns[name].flags.writeable
            assert np.array_equal(columns[name], contents[name])
        if n:
            with pytest.raises(ValueError, match="read-only"):
                state.headway_s[0] = 2.0

    def test_cache_not_reused_with_another_model(self):
        # Same history, second model with Sigma_gamma four times larger: the
        # second query must answer for that model, not return the first's.
        a, b = scalar_model(sigma_gamma=0.25), scalar_model(sigma_gamma=1.0)
        for n in (0, 3):
            state = random_state(np.random.default_rng(4), a, n)
            first = compute_blup(state, a)
            got = compute_blup(state, b)
            want = compute_blup(random_state(np.random.default_rng(4), b, n), b)
            assert np.array_equal(got.gamma_hat, want.gamma_hat)
            assert np.array_equal(got.pred_err_cov, want.pred_err_cov)
            assert not np.array_equal(got.pred_err_cov, first.pred_err_cov)

    def test_shrinkage_with_growing_noise(self):
        rng = np.random.default_rng(2)
        norms = []
        for sigma2 in (1.0, 10.0, 100.0, 1000.0):
            model = random_model(np.random.default_rng(7), sigma2=sigma2)
            state = random_state(rng, model, 15, driver_id="d")
            norms.append(np.linalg.norm(compute_blup(state, model).gamma_hat))
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_information_monotone_without_beta_uncertainty(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            model = random_model(np.random.default_rng(100 + trial))
            state = DriverState(driver_id="d")
            prev = None
            for _ in range(12):
                s = int(rng.integers(0, 3))
                add_observation(state, Observation("d", s, float(rng.uniform(0.3, 9.0)),
                                                   float(rng.uniform(0.3, 5.0))))
                res = compute_blup(state, model)
                remaining = float(np.trace(res.pred_err_cov))
                if prev is not None:
                    assert remaining <= prev + 1e-10
                prev = remaining

    def test_pred_err_cov_psd(self):
        # is_psd's floor is at least 1e-8 absolute, which is above the norm
        # of many of these covariances, so the smallest eigenvalue is also
        # held relative to the norm.
        rng = np.random.default_rng(4)
        from brakedist.numerics import is_psd

        for trial in range(20):
            model = random_model(np.random.default_rng(200 + trial), beta_cov_scale=0.02)
            state = random_state(rng, model, int(rng.integers(1, 25)))
            cov = compute_blup(state, model).pred_err_cov
            assert is_psd(cov, 1e-8)
            assert np.linalg.eigvalsh(cov)[0] >= -1e-10 * np.linalg.norm(cov)
        # Rank-deficient Sigma_gamma with a long history: where the covariance
        # is smallest and a subtraction would cancel most.
        for trial in range(16):
            model = random_model(np.random.default_rng(250 + trial), rank=1 + trial % 8,
                                 beta_cov_scale=0.02 if trial % 2 else 0.0)
            cov = compute_blup(random_state(rng, model, 500), model).pred_err_cov
            assert is_psd(cov, 1e-8)
            assert np.linalg.eigvalsh(cov)[0] >= -1e-10 * np.linalg.norm(cov)

    def test_pred_err_cov_matches_high_precision_reference(self):
        # Rank-deficient Sigma_gamma at n = 500: without beta_cov the
        # covariance is ~1e-6 of Sigma_gamma, so a formula that subtracts
        # in float64 loses most of its digits there.
        for seed, rank, beta_cov_scale in ((0, 1, 0.0), (1, 2, 0.0), (2, 4, 0.0),
                                           (3, 8, 0.0), (4, 1, 0.05), (5, 4, 0.05)):
            rng = np.random.default_rng(600 + seed)
            model = random_model(rng, rank=rank, beta_cov_scale=beta_cov_scale)
            state = random_state(rng, model, 500)
            got = compute_blup(state, model).pred_err_cov
            want = mp_pred_err_cov(state, model)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), (seed, rank)

    def test_overflowing_sums_are_a_domain_error(self):
        # X'X is finite over the headway domain, but a model file's
        # Sigma_gamma can make Sigma_gamma X'X overflow. This gave "overflow
        # encountered in matmul" warnings before the error.
        model = TrainedModel(spec=ModelSpec(1, 2), stimuli=StimulusRegistry(["stim"]), beta=np.zeros(3),
                             sigma2=1.0, sigma_gamma=1e300 * np.eye(3), beta_cov=np.zeros((3, 3)))
        state = DriverState(driver_id="d")
        for _ in range(2):
            add_observation(state, Observation("d", 0, MAX_HEADWAY_S, 1.0))
        with pytest.raises(NotPositiveDefinite, match="driver 'd''s 2 events is singular or not finite"):
            compute_blup(state, model)


class TestWindowMetamorphic:
    """The BLUP and every percentile depend on the window only as a multiset of
    events, and under a block-diagonal model only on each stimulus's own events.
    Each transform's effect is known exactly, so the check needs no oracle."""

    LEVELS = (0.01, 0.1, 0.5, 0.9, 0.99)

    @staticmethod
    def events(rng, model, n, stimulus=None):
        stimuli = rng.integers(0, model.spec.num_stimuli, n) if stimulus is None else np.full(n, stimulus)
        return [(s, t, b) for s, t, b in zip(stimuli.tolist(), rng.uniform(0.3, 9.0, n).tolist(),
                                             rng.uniform(0.3, 5.0, n).tolist())]

    @staticmethod
    def state_of(events):
        state = DriverState("d")
        for event in events:
            add_observation(state, Observation("d", *event))
        return state

    def percentiles(self, model, blup):
        return np.array([percentile(estimate_pbrt(model, blup, s), q, conservative)
                         for s in range(model.spec.num_stimuli) for q in self.LEVELS for conservative in (True, False)])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 60))
    def test_event_order_does_not_matter(self, seed, n):
        rng = np.random.default_rng(seed)
        model = random_model(rng, beta_cov_scale=0.02)
        events = self.events(rng, model, n)
        want = compute_blup(self.state_of(events), model)
        got = compute_blup(self.state_of([events[i] for i in rng.permutation(n)]), model)
        assert rel_err(got.gamma_hat, want.gamma_hat) <= 1e-8
        assert rel_err(got.pred_err_cov, want.pred_err_cov) <= 1e-8
        assert rel_err(self.percentiles(model, got), self.percentiles(model, want)) <= 1e-8

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 30))
    def test_an_event_leaves_other_stimuli_offsets_unchanged(self, seed, n):
        rng = np.random.default_rng(seed)
        model = random_model(rng, beta_cov_scale=0.02)
        k = model.spec.degree + 1
        model.sigma_gamma *= np.kron(np.eye(model.spec.num_stimuli), np.ones((k, k)))  # block-diagonal
        events = self.events(rng, model, n)
        s = int(rng.integers(0, model.spec.num_stimuli))
        want = compute_blup(self.state_of(events), model)
        got = compute_blup(self.state_of(events + self.events(rng, model, 1, s)), model)
        for other in set(range(model.spec.num_stimuli)) - {s}:
            block = slice(other * k, (other + 1) * k)
            assert np.linalg.norm(got.gamma_hat[block] - want.gamma_hat[block]) <= \
                1e-8 * np.linalg.norm(want.gamma_hat[block])
            # So is its block of pred_err_cov once the window holds an event; an
            # empty window's is Sigma_gamma alone, without beta_cov's share.
            if n:
                assert rel_err(got.pred_err_cov[block, block], want.pred_err_cov[block, block]) <= 1e-8


    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 60), st.integers(1, 80))
    def test_json_round_trip_changes_nothing(self, seed, n, max_history):
        rng = np.random.default_rng(seed)
        model = random_model(rng, beta_cov_scale=0.02)
        state = DriverState("d", max_history)
        for event in self.events(rng, model, n):
            add_observation(state, Observation("d", *event))
        back = state_from_dict(json.loads(json.dumps(state_to_dict(state, model.stimuli))), model.stimuli)
        assert back.max_history == max_history
        for column in ("stimulus", "headway_s", "brt_s"):
            want = getattr(state, column)
            assert getattr(back, column).dtype == want.dtype
            assert getattr(back, column).tobytes() == want.tobytes()
        want, got = compute_blup(state, model), compute_blup(back, model)
        assert np.array_equal(got.gamma_hat, want.gamma_hat)
        assert np.array_equal(got.pred_err_cov, want.pred_err_cov)
        assert np.array_equal(self.percentiles(model, got), self.percentiles(model, want))


class TestDenseOracle:
    """compute_blup's p x p kernel against the n x n formula it replaced.

    Errors are relative to the magnitude of the quantities the formulas
    combine, not to the result alone: with rank-deficient Sigma_gamma and
    n = 500, pred_err_cov is a near-total cancellation of Sigma_gamma
    (norm ~1e-6 of it), where neither path has relative accuracy.
    """

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        num_stimuli=st.integers(1, 3),
        degree=st.integers(0, 2),
        rank_share=st.floats(0.0, 1.0),
        n=st.one_of(st.just(1), st.integers(1, 8), st.integers(1, 60), st.just(500)),
        with_beta_cov=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_formula(self, num_stimuli, degree, rank_share, n, with_beta_cov, seed):
        spec = ModelSpec(num_stimuli, degree)
        rng = np.random.default_rng(seed)
        model = random_model(rng, spec, rank=round(rank_share * spec.p),
                             beta_cov_scale=0.05 if with_beta_cov else 0.0)
        state = random_state(rng, model, n)
        got = compute_blup(state, model)
        want_gamma, want_err = dense_blup(state, model)
        cov_scale = np.linalg.norm(model.sigma_gamma) + np.linalg.norm(model.beta_cov)
        for value, want, scale in (
            (got.gamma_hat, want_gamma, np.sqrt(np.linalg.norm(model.sigma_gamma))),
            (got.pred_err_cov, want_err, cov_scale),
        ):
            assert np.linalg.norm(value - want) <= 1e-10 * (np.linalg.norm(want) + scale)


class TestHendersonOracle:
    def test_scalar_hand_case(self):
        model = scalar_model()
        state = DriverState(driver_id="a")
        add_observation(state, Observation("a", 0, 1.0, math.exp(2.0)))
        assert henderson_oracle(state, model)[0] == pytest.approx(1.0, abs=1e-12)

    def test_requires_data(self):
        with pytest.raises(ValueError):
            henderson_oracle(DriverState(driver_id="a"), scalar_model())

    def test_agrees_with_compute_blup(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            model = random_model(np.random.default_rng(300 + trial), beta_cov_scale=0.05)
            state = random_state(rng, model, int(rng.integers(1, 31)))
            blup = compute_blup(state, model)
            oracle = henderson_oracle(state, model)
            assert rel_err(blup.gamma_hat, oracle) <= 1e-8

    def test_agrees_when_sigma_gamma_singular(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            model = random_model(np.random.default_rng(400 + trial), rank=4)
            state = random_state(rng, model, int(rng.integers(1, 20)))
            blup = compute_blup(state, model)
            oracle = henderson_oracle(state, model)
            assert rel_err(blup.gamma_hat, oracle) <= 1e-8


class TestComputeCost:
    def test_update_cost_growth_measured(self):
        # Only the X'X cross product grows with the history length (linearly);
        # the solve is p x p. Measured and reported, not asserted as a hard
        # bound (machine-dependent); the real-time budget assertion lives in
        # the acceptance suite.
        import time

        rng = np.random.default_rng(7)
        model = random_model(np.random.default_rng(8))
        timings = {}
        for n in (50, 100, 200):
            state = random_state(rng, model, n)
            runs = []
            for _ in range(5):
                t0 = time.perf_counter()
                compute_blup(state, model)
                runs.append(time.perf_counter() - t0)
            timings[n] = float(np.median(runs))
        print(f"compute_blup medians: {timings}")
        assert all(t > 0 for t in timings.values())


class TestStateFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        model = random_model(np.random.default_rng(9))
        state = random_state(rng, model, 7, driver_id="driver_x")
        before = compute_blup(state, model)
        path = tmp_path / "driver_x.json"
        path.write_text(json.dumps(state_to_dict(state, model.stimuli)))
        loaded = load_driver_state(path, model.stimuli)
        assert loaded.driver_id == "driver_x"
        assert loaded.observations == state.observations
        # The prediction is not persisted; the loaded history reproduces it.
        again = compute_blup(loaded, model)
        assert np.array_equal(again.gamma_hat, before.gamma_hat)
        assert np.array_equal(again.pred_err_cov, before.pred_err_cov)

    def test_round_trip_without_cache(self, tmp_path):
        model = random_model(np.random.default_rng(10))
        state = DriverState(driver_id="empty")
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(state_to_dict(state, model.stimuli)))
        loaded = load_driver_state(path, model.stimuli)
        assert loaded.n == 0 and loaded.cached is None

    def test_load_keeps_the_newest_window(self):
        registry = scalar_model().stimuli
        doc = {"driver_id": "a", "stimulus": ["stim"] * 503, "headway_s": [1.0 + i for i in range(503)],
               "brt_s": [1.0] * 503}
        state = state_from_dict(doc, registry)
        assert state.n == 500 and state.headway_s[0] == 4.0
        assert state.stimulus.dtype == np.intp and not state.stimulus.flags.writeable


# Strings a state file must escape: quotes, backslashes, control characters
# and text outside ASCII (json.dumps writes the last as \uXXXX escapes).
AWKWARD_TEXT = st.one_of(
    st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", "日本", "\U0001f697", "a\"b\\c"]), st.text(max_size=8))
# Headways in (0, MAX_HEADWAY_S] and responses in (0, 60], with the floats
# whose repr is least like the usual: the smallest subnormal and 1e-05.
EDGE_FLOATS = [5e-324, 1e-05, 1e-300, 0.1, 1.0 / 3.0]
HEADWAYS = st.one_of(st.sampled_from(EDGE_FLOATS + [MAX_HEADWAY_S]),
                     st.floats(0.0, MAX_HEADWAY_S, exclude_min=True))
RESPONSES = st.one_of(st.sampled_from(EDGE_FLOATS + [60.0]), st.floats(0.0, 60.0, exclude_min=True))


@st.composite
def state_files(draw):
    """(state, registry) with awkward names and n from 0 to past the window."""
    names = draw(st.lists(AWKWARD_TEXT, min_size=1, max_size=3, unique=True))
    registry = StimulusRegistry(names)
    state = DriverState(driver_id=draw(AWKWARD_TEXT), max_history=draw(st.integers(1, 6)))
    for _ in range(draw(st.integers(0, state.max_history + 3))):
        add_observation(state, Observation(state.driver_id, draw(st.integers(0, len(names) - 1)),
                                           draw(HEADWAYS), draw(RESPONSES)))
    return state, registry


def outcome(read, doc, registry):
    """What ``read`` returns for ``doc``, as comparable columns, or its error."""
    try:
        result = read(doc, registry)
    except (KeyError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(result, DriverState):
        result = (result.driver_id, result.max_history, result.stimulus, result.headway_s, result.brt_s)
    return tuple((c.dtype, c.tolist()) if isinstance(c, np.ndarray) else c for c in result)


# One event's mutations; each makes a bad event but for the in-domain ints.
# ``mutate`` applies them to an entry of the column layout.
MUTATIONS = {
    "int": lambda rec: rec.update(headway_s=2),
    "int-brt": lambda rec: rec.update(brt_s=1),
    "int-out-of-domain": lambda rec: rec.update(brt_s=61),
    "bool": lambda rec: rec.update(brt_s=True),
    "nan": lambda rec: rec.update(headway_s=math.nan),
    "infinity": lambda rec: rec.update(brt_s=math.inf),
    "negative": lambda rec: rec.update(headway_s=-1.0),
    "string-number": lambda rec: rec.update(headway_s="1.5"),
    "null-number": lambda rec: rec.update(brt_s=None),
    "unknown-name": lambda rec: rec.update(stimulus="no such stimulus"),
    "list-name": lambda rec: rec.update(stimulus=["a"]),
    "number-name": lambda rec: rec.update(stimulus=5),
    "null-name": lambda rec: rec.update(stimulus=None),
    "missing-key": lambda rec: rec.pop("headway_s", None),
    "missing-name": lambda rec: rec.pop("stimulus", None),
    "missing-brt": lambda rec: rec.pop("brt_s", None),
}
# Stand-ins for a whole headway_s column: not a list, or not the right list.
BAD_COLUMNS = [None, 3, "record", ["driver_id", "stimulus"], []]
COLUMNS = ("stimulus", "headway_s", "brt_s")
MISSING = object()  # a header value that deletes the field
HEADER_MUTATIONS = {
    "driver_id": [True, 0, 1.5, "someone else", MISSING],
    "max_history": [True, 0, 1.5, "3", MISSING],
    "observations": [{"driver_id": "x"}, "[]", None, []],
    "stimulus": [None, "ab", {}, MISSING],
    "headway_s": [5, [], MISSING],
    "brt_s": [None, MISSING],
}
RECORD_REFUSAL = "observations: records are no longer read; a state file holds stimulus, headway_s and brt_s"


def mutate(doc, i, mutation):
    """Apply an event mutation to event i of a column-layout state document.

    A changed field lands in its column, a removed one drops the entry from
    its column, and an index into ``BAD_COLUMNS`` replaces the whole
    ``headway_s`` column. A column that is no longer a list, or too short,
    keeps what it holds.
    """
    if isinstance(mutation, int):
        doc["headway_s"] = BAD_COLUMNS[mutation]
        return
    held = [key for key in COLUMNS if isinstance(doc[key], list) and i < len(doc[key])]
    rec = {key: doc[key][i] for key in held}
    MUTATIONS[mutation](rec)
    for key in held:
        if key in rec:
            doc[key][i] = rec[key]
        else:
            del doc[key][i]


def as_records(doc):
    """A column-layout state document in the older record layout."""
    records = [{"driver_id": doc["driver_id"], "stimulus": s, "headway_s": t, "brt_s": b}
               for s, t, b in zip(*(doc[key] for key in COLUMNS))]
    return {"driver_id": doc["driver_id"], "observations": records}


def three_events(**header):
    """A column-layout document of three good events for registry ["a", "b"]."""
    return {"driver_id": "x", **header, "stimulus": ["a", "b", "a"], "headway_s": [1.5, 2.5, 3.5],
            "brt_s": [0.5, 0.5, 0.5]}


class TestStateFileColumns:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=state_files())
    def test_text_is_what_json_dumps_writes(self, case):
        # update writes json.dumps of state_to_dict's document and a newline:
        # the header and three lists, which decode and encode to the same text.
        state, registry = case
        text = json.dumps(state_to_dict(state, registry)) + "\n"
        doc = json.loads(text)
        assert text == json.dumps(doc) + "\n"
        assert list(doc) == ["driver_id", "max_history", *COLUMNS]
        assert outcome(state_from_dict, doc, registry) == outcome(state_columns_oracle, doc, registry)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=state_files(), data=st.data())
    def test_round_trip_keeps_the_columns_bit_for_bit(self, case, data):
        # State to text to state, with eviction on the way in and, for a
        # hand-edited window, max_history below the file's event count.
        state, registry = case
        doc = json.loads(json.dumps(state_to_dict(state, registry)))
        doc["max_history"] = window = data.draw(st.integers(1, state.max_history))
        loaded = state_from_dict(doc, registry)
        assert (loaded.driver_id, loaded.max_history) == (state.driver_id, window)
        for got, want in zip((loaded.stimulus, loaded.headway_s, loaded.brt_s),
                             (state.stimulus, state.headway_s, state.brt_s)):
            assert got.dtype == want.dtype and got.tobytes() == want[len(want) - min(len(want), window):].tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=state_files(), data=st.data())
    def test_one_bad_record_is_read_as_the_row_reader_reads_it(self, case, data):
        state, registry = case
        doc = json.loads(json.dumps(state_to_dict(state, registry)))
        if state.n:
            mutation = data.draw(st.sampled_from([*sorted(MUTATIONS), *range(len(BAD_COLUMNS))]))
            mutate(doc, data.draw(st.integers(0, state.n - 1)), mutation)
        assert outcome(state_from_dict, doc, registry) == outcome(state_columns_oracle, doc, registry)

    def test_every_mutation_is_refused_or_read_alike(self):
        # Each mutation on its own, on the second of three events: refused
        # naming that entry, or a missing one naming the column.
        registry = StimulusRegistry(["a", "b"])
        for mutation in [*MUTATIONS, *range(len(BAD_COLUMNS))]:
            doc = three_events(max_history=2)
            mutate(doc, 1, mutation)
            got = outcome(state_from_dict, doc, registry)
            assert got == outcome(state_columns_oracle, doc, registry), mutation
            read = mutation in ("int", "int-brt")
            assert (type(got[0]) is type) == (not read), mutation
            if not read and mutation in MUTATIONS:
                assert ("[1]" in got[1]) == (not mutation.startswith("missing")), mutation

    def test_every_pair_of_mutations_in_one_record_is_read_alike(self):
        # One event's fields are checked in a fixed order: shape, then
        # stimulus, then headway_s's type and domain, then brt_s's.
        registry = StimulusRegistry(["a", "b"])
        for first, second in itertools.permutations(MUTATIONS, 2):
            doc = three_events()
            mutate(doc, 1, first)
            mutate(doc, 1, second)
            got = outcome(state_from_dict, doc, registry)
            assert got == outcome(state_columns_oracle, doc, registry), (first, second)

    @pytest.mark.parametrize("layout", ["columns", "records"])
    @pytest.mark.parametrize("events, message", [
        # Headway before response, even at a higher index.
        ({1: "infinity", 0: "negative"}, "headway_s[0] must be positive, got -1.0"),
        ({0: "infinity", 2: "nan"}, "headway_s[2] must be positive, got nan"),
        # In one column, a non-number before an out-of-domain value.
        ({0: "nan", 2: "string-number"}, "headway_s[2] must be a number, got '1.5'"),
        # Each at its lowest index.
        ({2: "infinity", 1: "int-out-of-domain"}, "brt_s[1] 61.0 exceeds sanity bound 60.0"),
        # Stimulus names before numbers, read in order.
        ({0: "nan", 2: "list-name", 1: "unknown-name"}, "stimulus[1]: unknown stimulus name 'no such stimulus'"),
    ], ids=["columns-in-order", "headway-any-index", "type-before-domain", "lowest-index",
            "stimulus-first"])
    def test_refusal_order(self, layout, events, message):
        # The same events as records are refused as the older layout before
        # any of them is read.
        registry = StimulusRegistry(["a", "b"])
        doc = three_events()
        for i, mutation in events.items():
            mutate(doc, i, mutation)
        if layout == "records":
            doc, message = as_records(doc), RECORD_REFUSAL
        got = outcome(state_from_dict, doc, registry)
        assert got == outcome(state_columns_oracle, doc, registry)
        assert got[1] == message

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=state_files(), data=st.data())
    def test_bad_records_and_header_are_read_as_the_row_reader_reads_them(self, case, data):
        # Two or three events with one or two mutations each, and/or header fields.
        state, registry = case
        doc = json.loads(json.dumps(state_to_dict(state, registry)))
        mutate_events = data.draw(st.booleans()) and state.n >= 2
        if mutate_events:
            for i in data.draw(st.lists(st.integers(0, state.n - 1), min_size=2, max_size=3, unique=True)):
                if data.draw(st.booleans()):
                    for mutation in data.draw(st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=1,
                                                       max_size=2, unique=True)):
                        mutate(doc, i, mutation)
                else:
                    mutate(doc, i, data.draw(st.integers(0, len(BAD_COLUMNS) - 1)))
        fields = st.sampled_from(sorted(HEADER_MUTATIONS))
        for field in data.draw(st.lists(fields, min_size=0 if mutate_events else 1, unique=True)):
            value = data.draw(st.sampled_from(HEADER_MUTATIONS[field]))
            if value is MISSING:
                doc.pop(field, None)
            else:
                doc[field] = value
        assert outcome(state_from_dict, doc, registry) == outcome(state_columns_oracle, doc, registry)
