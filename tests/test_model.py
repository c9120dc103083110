import re

import numpy as np
import pytest

from brakedist.model import (
    ModelSpec,
    Observation,
    StimulusRegistry,
    TrainedModel,
    UnknownStimulus,
    build_design,
    feature_row,
    read_observations_csv,
    write_observations_csv,
)

SPEC = ModelSpec(num_stimuli=3, degree=2)


class TestTypes:
    def test_spec_coefficient_count(self):
        assert SPEC.p == 9
        assert ModelSpec(1, 2).p == 3
        assert ModelSpec(4, 1).p == 8

    def test_registry_lookup(self):
        reg = StimulusRegistry(["traffic_signal", "lead_car_brake"])
        assert reg.id_of("lead_car_brake") == 1
        assert reg.name_of(0) == "traffic_signal"
        assert len(reg) == 2

    def test_registry_unknown(self):
        reg = StimulusRegistry(["a"])
        with pytest.raises(UnknownStimulus):
            reg.id_of("b")
        with pytest.raises(UnknownStimulus):
            reg.name_of(5)

    def test_registry_rejects_duplicates(self):
        with pytest.raises(ValueError):
            StimulusRegistry(["a", "a"])

    def test_observation_validation(self):
        Observation("d1", 0, 1.5, 0.8)
        with pytest.raises(ValueError):
            Observation("d1", 0, -1.0, 0.8)
        with pytest.raises(ValueError):
            Observation("d1", 0, 1.5, 0.0)
        with pytest.raises(ValueError):
            Observation("d1", 0, 1.5, 61.0)  # beyond the sensor sanity bound
        with pytest.raises(ValueError):
            Observation("d1", -1, 1.5, 0.8)

    def test_trained_model_validation(self):
        reg = StimulusRegistry(["a", "b", "c"])
        model = TrainedModel(
            spec=SPEC,
            stimuli=reg,
            beta=np.zeros(9),
            sigma2=0.04,
            sigma_gamma=0.01 * np.eye(9),
            beta_cov=np.zeros((9, 9)),
        )
        assert model.t_star == 1.5
        with pytest.raises(ValueError):
            TrainedModel(spec=SPEC, stimuli=reg, beta=np.zeros(9), sigma2=0.0,
                         sigma_gamma=np.eye(9), beta_cov=np.eye(9))
        bad = -0.01 * np.eye(9)
        with pytest.raises(ValueError):
            TrainedModel(spec=SPEC, stimuli=reg, beta=np.zeros(9), sigma2=0.04,
                         sigma_gamma=bad, beta_cov=np.eye(9))


class TestFeatureRow:
    def test_middle_block(self):
        row = feature_row(SPEC, 1, 2.0)
        assert np.array_equal(row, [0, 0, 0, 1.0, 2.0, 4.0, 0, 0, 0])

    def test_powers_of_one(self):
        row = feature_row(SPEC, 0, 1.0)
        assert np.array_equal(row, [1, 1, 1, 0, 0, 0, 0, 0, 0])

    def test_single_block(self):
        row = feature_row(ModelSpec(1, 2), 0, 1.5)
        assert np.array_equal(row, [1.0, 1.5, 2.25])

    def test_unknown_stimulus(self):
        with pytest.raises(UnknownStimulus):
            feature_row(SPEC, 3, 1.0)
        with pytest.raises(UnknownStimulus):
            feature_row(SPEC, -1, 1.0)

    def test_nonzero_entries_confined_to_block(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            s = int(rng.integers(0, 3))
            t = float(rng.uniform(0.1, 8.0))
            row = feature_row(SPEC, s, t)
            block = slice(3 * s, 3 * s + 3)
            assert np.all(row[block] != 0.0)
            outside = np.delete(row, np.arange(3 * s, 3 * s + 3))
            assert np.all(outside == 0.0)


class TestBuildDesign:
    def test_empty(self):
        X, y = build_design(SPEC, [])
        assert X.shape == (0, 9)
        assert y.shape == (0,)

    def test_log_one_is_zero(self):
        X, y = build_design(SPEC, [Observation("d", 2, 3.0, 1.0)])
        assert np.array_equal(X, [[0, 0, 0, 0, 0, 0, 1.0, 3.0, 9.0]])
        assert y[0] == 0.0

    def test_rows_match_feature_row_oracle(self):
        rng = np.random.default_rng(13)
        for degree in (0, 2, 3):
            spec = ModelSpec(num_stimuli=3, degree=degree)
            for n in (0, 1, 40):
                obs = [
                    Observation("d", int(rng.integers(0, 3)), float(rng.uniform(0.2, 9.0)),
                                float(rng.uniform(0.3, 5.0)))
                    for _ in range(n)
                ]
                X, y = build_design(spec, obs)
                assert X.shape == (n, spec.p) and y.shape == (n,)
                for i, o in enumerate(obs):
                    assert np.array_equal(X[i], feature_row(spec, o.stimulus, o.headway_s))
                    assert y[i] == np.log(o.brt_s)

    def test_unknown_stimulus_mid_batch_is_named(self):
        obs = [Observation("d", s, 1.0 + s, 1.0) for s in (0, 2, 7, 1, 9)]
        with pytest.raises(UnknownStimulus, match=r"stimulus id 7 out of range \[0, 3\)"):
            build_design(SPEC, obs)

    def test_full_column_rank_with_enough_distinct_headways(self):
        rng = np.random.default_rng(17)
        obs = [
            Observation("d", s, float(rng.uniform(0.2, 9.0)), 1.0)
            for s in range(3)
            for _ in range(4)
        ]
        X, _ = build_design(SPEC, obs)
        assert np.linalg.matrix_rank(X) == 9


class TestObservationCsv:
    def test_round_trip(self, tmp_path):
        reg = StimulusRegistry(["traffic_signal", "lead_car_brake"])
        obs = [
            Observation("a", 0, 1.25, 0.7312498712),
            Observation("a", 1, 3.5, 1.125),
            Observation("b", 1, 0.875, 0.6600000000000001),
        ]
        path = tmp_path / "obs.csv"
        write_observations_csv(path, obs, reg)
        reg2, obs2 = read_observations_csv(path)
        assert reg2 == reg
        assert obs2 == obs

    def test_registry_from_first_appearance(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "driver_id,stimulus,headway_s,brt_s\n"
            "a,later,1.0,0.5\n"
            "a,early,2.0,0.6\n"
            "b,later,1.5,0.7\n"
        )
        reg, obs = read_observations_csv(path)
        assert reg.names == ("later", "early")
        assert [o.stimulus for o in obs] == [0, 1, 0]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("who,what,when,how\n")
        with pytest.raises(ValueError, match="line 1"):
            read_observations_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "driver_id,stimulus,headway_s,brt_s\n"
            "a,x,1.0,0.5\n"
            "a,x,-2.0,0.6\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            read_observations_csv(path)

    def test_first_bad_line_in_file_order_is_reported(self, tmp_path):
        # Read in two passes, a short row anywhere was reported before a
        # bad value on an earlier line.
        path = tmp_path / "obs.csv"
        path.write_text(
            "driver_id,stimulus,headway_s,brt_s\n"
            "a,x,1.0,0.5\n"
            "a,x,-2.0,0.6\n"
            "a,x,1.0\n"
        )
        with pytest.raises(ValueError, match=f"^observation file {re.escape(str(path))}: "
                                             "line 3: headway_s must be positive"):
            read_observations_csv(path)
