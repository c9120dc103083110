import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import skew

from brakedist import simgen
from brakedist.model import MAX_BRT_S, ModelSpec, StimulusRegistry, build_design
from brakedist.simgen import SimConfig, config_from_dict, config_to_dict, default_config, generate

from reference import first_draws, generate_oracle

REG1 = StimulusRegistry(["traffic_signal"])


def small_config(**overrides):
    base = dict(
        spec=ModelSpec(1, 2),
        stimuli=REG1,
        beta_true=np.array([-0.3, 0.1, 0.0]),
        sigma2_true=0.04,
        sigma_gamma_true=np.diag([0.02, 0.005, 5e-5]),
        num_drivers=10,
        obs_per_driver=(6,),
        headway_range=(0.3, 8.0),
        seed=11,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestDefaultConfig:
    def test_validates(self):
        cfg = default_config()
        assert cfg.spec.p == 9
        assert len(cfg.stimuli) == 3
        assert cfg.num_drivers == 200
        assert cfg.obs_per_driver == (10, 10, 10)
        assert cfg.seed == 42
        assert cfg.sigma2_true == 0.04

    def test_median_brt_at_reference_headway(self):
        # 1e4 direct draws at t = 1.5 from the generating parameters.
        cfg = default_config()
        rng = np.random.default_rng(1)
        root = np.linalg.cholesky(cfg.sigma_gamma_true + 1e-15 * np.eye(9))
        w = np.zeros(9)
        w[:3] = (1.0, 1.5, 2.25)
        gammas = (root @ rng.standard_normal((9, 10_000))).T
        y = w @ cfg.beta_true + gammas @ w + rng.normal(0, math.sqrt(cfg.sigma2_true), 10_000)
        med = float(np.median(np.exp(y)))
        assert 0.5 <= med <= 1.5

    def test_mean_increases_with_headway(self):
        cfg = default_config()
        rng = np.random.default_rng(2)
        root = np.linalg.cholesky(cfg.sigma_gamma_true + 1e-15 * np.eye(9))
        means = []
        for t in (1.5, 4.0):
            w = np.zeros(9)
            w[:3] = (1.0, t, t * t)
            gammas = (root @ rng.standard_normal((9, 10_000))).T
            y = w @ cfg.beta_true + gammas @ w + rng.normal(0, math.sqrt(cfg.sigma2_true), 10_000)
            means.append(float(np.mean(np.exp(y))))
        assert means[1] > means[0]


class TestGenerate:
    def test_deterministic(self):
        cfg = small_config()
        ts1, truth1 = generate(cfg)
        ts2, truth2 = generate(cfg)
        assert ts1.drivers == ts2.drivers
        for d in truth1:
            assert np.array_equal(truth1[d], truth2[d])

    def test_seed_changes_data(self):
        ts1, _ = generate(small_config(seed=1))
        ts2, _ = generate(small_config(seed=2))
        assert ts1.drivers != ts2.drivers

    def test_zero_noise_reproduces_mean_exactly(self):
        # Responses come from the rows training builds, stimulus blocks and all.
        one_stimulus = small_config(sigma2_true=0.0, sigma_gamma_true=np.zeros((3, 3)))
        three_stimuli = dataclasses.replace(default_config(), sigma2_true=0.0, num_drivers=10,
                                            obs_per_driver=(3, 0, 2))
        for cfg in (one_stimulus, three_stimuli):
            ts, truth = generate(cfg)
            layout = np.repeat(np.arange(cfg.spec.num_stimuli), cfg.obs_per_driver).tolist()
            for d, obs in ts.drivers.items():
                assert [o.stimulus for o in obs] == layout
                if cfg is one_stimulus:
                    assert np.array_equal(truth[d], np.zeros(3))
                expected = np.exp(build_design(cfg.spec, obs)[0] @ (cfg.beta_true + truth[d]))
                assert np.array_equal(np.array([o.brt_s for o in obs]), expected)

    def test_observation_invariants_hold(self):
        ts, _ = generate(default_config())
        for obs in ts.drivers.values():
            for o in obs:
                assert 0 < o.brt_s <= 60.0
                assert o.headway_s > 0

    def test_residual_variance_matches_sigma2(self):
        # Law-of-large-numbers check on ~1e5 observations.
        cfg = small_config(
            spec=ModelSpec(3, 2),
            stimuli=StimulusRegistry(["a", "b", "c"]),
            beta_true=np.array([-0.3, 0.1, 0.0, -0.4, 0.12, 0.0, -0.35, 0.09, 0.0]),
            sigma_gamma_true=np.diag([0.02, 0.005, 5e-5] * 3),
            num_drivers=400,
            obs_per_driver=(84, 83, 83),
            seed=7,
        )
        ts, truth = generate(cfg)
        resid = []
        for d, obs in ts.drivers.items():
            X, y = build_design(cfg.spec, obs)
            resid.append(y - X @ (cfg.beta_true + truth[d]))
        resid = np.concatenate(resid)
        assert resid.size == 100_000
        assert np.var(resid) == pytest.approx(cfg.sigma2_true, rel=0.02)

    def test_gamma_sample_covariance_converges(self):
        cfg = small_config(
            spec=ModelSpec(2, 1),
            stimuli=StimulusRegistry(["a", "b"]),
            beta_true=np.array([-0.3, 0.1, -0.4, 0.12]),
            sigma_gamma_true=np.array([
                [0.02, 0.0, 0.006, 0.0],
                [0.0, 0.005, 0.0, 0.0],
                [0.006, 0.0, 0.02, 0.0],
                [0.0, 0.0, 0.0, 0.005],
            ]),
            num_drivers=10_000,
            obs_per_driver=(1, 0),
            seed=3,
        )
        _, truth = generate(cfg)
        gam = np.array(list(truth.values()))
        sample = np.cov(gam.T, bias=True)
        rel = np.linalg.norm(sample - cfg.sigma_gamma_true) / np.linalg.norm(cfg.sigma_gamma_true)
        assert rel <= 0.05

    def test_right_skew_within_headway_bins(self):
        ts, _ = generate(default_config())
        brt = np.array([o.brt_s for obs in ts.drivers.values() for o in obs])
        hw = np.array([o.headway_s for obs in ts.drivers.values() for o in obs])
        edges = np.quantile(hw, [0.0, 0.25, 0.5, 0.75, 1.0])
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (hw >= lo) & (hw <= hi)
            assert sel.sum() > 200
            assert skew(brt[sel]) > 0.0

    def test_per_driver_streams_independent_of_driver_count(self):
        # Counter-based substreams: driver k's data is identical whether or
        # not later drivers are generated.
        cfg_small = small_config(num_drivers=3)
        cfg_big = small_config(num_drivers=10)
        ts_small, truth_small = generate(cfg_small)
        ts_big, truth_big = generate(cfg_big)
        for d in range(3):
            a = f"driver_{d}"  # width differs with D; compare by index
            small_key = sorted(ts_small.drivers)[d]
            big_key = sorted(ts_big.drivers)[d]
            obs_a = [(o.stimulus, o.headway_s, o.brt_s) for o in ts_small.drivers[small_key]]
            obs_b = [(o.stimulus, o.headway_s, o.brt_s) for o in ts_big.drivers[big_key]]
            assert obs_a == obs_b
            assert np.array_equal(truth_small[small_key], truth_big[big_key])

    def test_unphysical_config_raises(self):
        # Mean log response at or above the sanity bound for long headways:
        # redrawing the noise cannot bring such a response under 60 s, so the
        # study is refused, naming where, rather than silently emitting garbage.
        cfg = small_config(beta_true=np.array([4.0, 0.1, 0.0]))
        for draw in (generate, generate_oracle):
            with pytest.raises(ValueError, match="^driver 'driver_1', stimulus 'traffic_signal': response "
                                                 "still exceeds 60.0 s after 100 redraws of its noise$"):
                draw(cfg)

    def test_a_response_past_the_bound_is_redrawn_alone(self):
        # This study first draws one response of 74.87 s, which aborted it
        # (and with it any benchmark run at seed 72). Each driver's stream is
        # its own and the redraw comes after the driver's other draws, so
        # every other response, here and in any study with no such draw, is
        # the one first drawn.
        cfg = dataclasses.replace(default_config(), num_drivers=400, seed=1072)
        ts, _ = generate(cfg)
        brt = np.array([o.brt_s for obs in ts.drivers.values() for o in obs])
        assert brt.size == 12_000 and brt.max() <= MAX_BRT_S
        drawn = np.concatenate([first_draws(cfg, d)[-1] for d in range(cfg.num_drivers)])
        changed = (brt != drawn).nonzero()[0]
        assert changed.size == 1 and drawn[changed[0]] > MAX_BRT_S


def assert_same_study(got, want):
    """Two (training_set, truth) pairs agree bit for bit."""
    (ts, truth), (ts_want, truth_want) = got, want
    assert ts.driver_ids == ts_want.driver_ids and list(truth) == list(truth_want)
    pairs = [(getattr(ts, k), getattr(ts_want, k)) for k in ("headway_s", "brt_s", "stimulus", "counts")]
    for a, b in pairs + [(truth[d], truth_want[d]) for d in truth]:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def oracle_cases(draw):
    """A small study and a block size to generate it with: drivers from 1 to
    one block plus one, degree 0-3, 0-12 events per stimulus, a covariance of
    any rank, and noise that is absent, the default's, or large enough that
    responses past MAX_BRT_S are redrawn."""
    num_stimuli, degree = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    spec = ModelSpec(num_stimuli, degree)
    counts = draw(st.lists(st.integers(0, 12), min_size=num_stimuli, max_size=num_stimuli).filter(any))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = np.tile(8.1 ** -np.arange(degree + 1.0), num_stimuli)  # keeps x'gamma small at 8.1 s
    root = rng.normal(0.0, 0.1, (spec.p, draw(st.integers(0, spec.p)))) * scale[:, None]
    block_events = draw(st.sampled_from([simgen._BLOCK_EVENTS, 1, 50]))
    per_block = max(1, block_events // sum(counts))
    config = SimConfig(
        spec=spec,
        stimuli=StimulusRegistry([f"s{i}" for i in range(num_stimuli)]),
        beta_true=np.tile(np.r_[-0.4, np.zeros(degree)], num_stimuli) + rng.normal(0.0, 0.02, spec.p) * scale,
        sigma2_true=draw(st.sampled_from([0.0, default_config().sigma2_true, 4.0])),
        sigma_gamma_true=root @ root.T,
        num_drivers=draw(st.integers(1, max(per_block + 1, 12))),
        obs_per_driver=counts,
        headway_range=(0.31, 8.1),
        seed=draw(st.one_of(st.sampled_from([0, 2**63]), st.integers(0, 2**64 - 1))),
    )
    return config, block_events


class TestOracle:
    """``generate`` transforms many drivers at once; ``reference.generate_oracle``
    draws one driver at a time, as the simulator did before. Each driver's
    uniforms come from its own stream in the same order, so the two must agree
    bit for bit, wherever the blocks end."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(oracle_cases())
    def test_matches_the_per_driver_oracle(self, case):
        config, block_events = case
        with mock.patch.object(simgen, "_BLOCK_EVENTS", block_events):
            assert_same_study(generate(config), generate_oracle(config))

    @pytest.mark.parametrize("overrides, blocks", [
        ({}, 6),
        ({"sigma2_true": 4.0}, 6),  # responses redrawn in every block
        ({"num_drivers": 400, "seed": 1072}, 12),  # one response redrawn
        ({"num_drivers": 37, "obs_per_driver": (3, 0, 5), "sigma2_true": 4.0, "seed": 7}, 1),  # 6 of 296 redrawn
    ], ids=["default", "redraws", "one-redraw", "odd-n-zero-count"])
    def test_whole_studies_match_the_oracle(self, overrides, blocks):
        config = dataclasses.replace(default_config(), **overrides)
        assert math.ceil(config.num_drivers / (simgen._BLOCK_EVENTS // sum(config.obs_per_driver))) == blocks
        assert_same_study(generate(config), generate_oracle(config))


class TestConfigDict:
    def test_round_trip(self):
        cfg = default_config()
        clone = config_from_dict(config_to_dict(cfg))
        assert np.array_equal(clone.beta_true, cfg.beta_true)
        assert np.array_equal(clone.sigma_gamma_true, cfg.sigma_gamma_true)
        assert clone.headway_range == cfg.headway_range
        assert clone.obs_per_driver == cfg.obs_per_driver
        assert clone.stimuli == cfg.stimuli
        assert clone.seed == cfg.seed

    def test_scalar_obs_count_broadcasts(self):
        doc = config_to_dict(default_config())
        doc["obs_per_driver"] = 5
        cfg = config_from_dict(doc)
        assert cfg.obs_per_driver == (5, 5, 5)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            small_config(headway_range=(0.0, 5.0))
        with pytest.raises(ValueError):
            small_config(num_drivers=0)
        with pytest.raises(ValueError):
            small_config(obs_per_driver=(1, 2))
        with pytest.raises(ValueError):
            small_config(sigma_gamma_true=np.diag([-0.01, 0.0, 0.0]))
        # Config files fix these shapes before SimConfig sees them.
        with pytest.raises(ValueError, match=r"^beta_true must have shape \(3,\)$"):
            small_config(beta_true=np.zeros(2))
        with pytest.raises(ValueError, match="^sigma_gamma_true must be a finite 3 x 3 matrix$"):
            small_config(sigma_gamma_true=np.eye(2))
        # Within a model's 1e-8 tolerance, but not a config's 1e-10.
        with pytest.raises(ValueError, match="^sigma_gamma_true is not positive semidefinite$"):
            small_config(sigma_gamma_true=np.diag([0.02, 0.005, -1e-9]))
        # Counts and seeds are integers, as in config files; none is truncated.
        with pytest.raises(ValueError, match=r"^obs_per_driver must be an integer, got 2\.5$"):
            dataclasses.replace(default_config(), obs_per_driver=(2.5, 1, 1))
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.7$"):
            small_config(seed=1.7)
        with pytest.raises(ValueError, match=r"^num_drivers must be an integer, got 2\.5$"):
            small_config(num_drivers=2.5)
        exact = small_config(num_drivers=3.0, obs_per_driver=(6.0,), seed=2**63)
        assert (exact.num_drivers, exact.obs_per_driver, exact.seed) == (3, (6,), 2**63)
