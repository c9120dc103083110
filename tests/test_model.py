import math
import re

import numpy as np
import pytest

from brakedist import model as model_mod
from brakedist import numerics
from brakedist.model import (
    MAX_DEGREE,
    MAX_HEADWAY_S,
    ModelSpec,
    Observation,
    StimulusRegistry,
    TrainedModel,
    UnknownStimulus,
    build_design,
    design,
    feature_row,
    read_observations_csv,
    write_observations_csv,
)

SPEC = ModelSpec(num_stimuli=3, degree=2)
ABOVE_BOUND = math.nextafter(MAX_HEADWAY_S, math.inf)


class TestTypes:
    def test_spec_coefficient_count(self):
        assert SPEC.p == 9
        assert ModelSpec(1, 2).p == 3
        assert ModelSpec(4, 1).p == 8
        assert ModelSpec(1, MAX_DEGREE).p == MAX_DEGREE + 1
        for degree in (-1, MAX_DEGREE + 1):
            with pytest.raises(ValueError, match=re.escape(f"degree must be in [0, {MAX_DEGREE}], "
                                                           f"got {degree}")):
                ModelSpec(1, degree)

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
        assert Observation("d1", 0, MAX_HEADWAY_S, 0.8).headway_s == MAX_HEADWAY_S
        with pytest.raises(ValueError, match=f"headway_s {ABOVE_BOUND} exceeds the headway bound"):
            Observation("d1", 0, ABOVE_BOUND, 0.8)
        with pytest.raises(ValueError, match="headway_s must be positive, got -1.0"):
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
        fields = dict(spec=SPEC, stimuli=reg, beta=np.zeros(9), sigma2=0.04,
                      sigma_gamma=0.01 * np.eye(9), beta_cov=np.zeros((9, 9)))
        assert TrainedModel(**fields, t_star=MAX_HEADWAY_S).t_star == MAX_HEADWAY_S
        with pytest.raises(ValueError, match=f"t_star {ABOVE_BOUND} exceeds the headway bound"):
            TrainedModel(**fields, t_star=ABOVE_BOUND)
        with pytest.raises(ValueError):
            TrainedModel(spec=SPEC, stimuli=reg, beta=np.zeros(9), sigma2=0.0,
                         sigma_gamma=np.eye(9), beta_cov=np.eye(9))
        bad = -0.01 * np.eye(9)
        with pytest.raises(ValueError):
            TrainedModel(spec=SPEC, stimuli=reg, beta=np.zeros(9), sigma2=0.04,
                         sigma_gamma=bad, beta_cov=np.eye(9))
        for field, value, message in [
            ("stimuli", StimulusRegistry(["a", "b"]),
             "registry size does not match spec.num_stimuli"),
            ("beta", np.zeros(8), "beta must have shape (9,), got (8,)"),
            ("sigma_gamma", 0.01 * np.eye(8), "sigma_gamma must be a finite 9 x 9 matrix"),
            ("beta_cov", np.zeros((9, 3)), "beta_cov must be a finite 9 x 9 matrix"),
            ("beta_cov", np.full((9, 9), np.nan), "beta_cov must be finite"),
            ("sigma_gamma", np.triu(0.01 * np.ones((9, 9))),
             "sigma_gamma: matrix is not symmetric within 1e-12"),
            ("beta_cov", -0.01 * np.eye(9), "beta_cov is not positive semidefinite"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                TrainedModel(**{**fields, field: value})

    def test_each_covariance_is_checked_once(self, monkeypatch):
        # check_covariance once ran check_symmetric itself and again inside
        # is_psd; a model load now pays one symmetry check and one eigvalsh
        # per matrix.
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module in (numerics, model_mod):
            if hasattr(module, "check_symmetric"):
                monkeypatch.setattr(module, "check_symmetric", counted("symmetric", module.check_symmetric))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        TrainedModel(spec=SPEC, stimuli=StimulusRegistry(["a", "b", "c"]), beta=np.zeros(9), sigma2=0.04,
                     sigma_gamma=0.01 * np.eye(9), beta_cov=np.zeros((9, 9)))
        assert calls == ["symmetric", "eigvalsh"] * 2


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
        row = feature_row(ModelSpec(1, 2), 0, MAX_HEADWAY_S)
        assert np.array_equal(row, [1.0, 1e3, 1e6])

    @pytest.mark.parametrize("headway, message", [
        (ABOVE_BOUND, f"headway_s {ABOVE_BOUND} exceeds the headway bound {MAX_HEADWAY_S}"),
        (math.inf, f"headway_s inf exceeds the headway bound {MAX_HEADWAY_S}"),
        (0.0, "headway_s must be positive, got 0.0"),
        (math.nan, "headway_s must be positive, got nan"),
    ], ids=["above-bound", "inf", "zero", "nan"])
    def test_headway_outside_the_domain_is_refused(self, headway, message):
        # design's prefilter hands the row to feature_row: one message for both.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            feature_row(SPEC, 0, headway)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            design(SPEC, np.array([0, 1]), np.array([1.0, headway]))

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
        path.write_text("driver_id,stimulus,headway_s,brt_s\n")
        with pytest.raises(ValueError, match=f"^observation file {re.escape(str(path))}: "
                                             "CSV contains no observations$"):
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
        # A wrong field count is reported like a bad value, and a blank row keeps its line.
        for rows, message in [
            ("a,x,1.0,0.5\na,x,1.0\na,x,-2.0,0.6\n", "line 3: expected 4 fields, got 3"),
            ("a,x,1.0,0.5\n\na,x,-2.0,0.6\n", "line 4: headway_s must be positive, got -2.0"),
        ]:
            path.write_text("driver_id,stimulus,headway_s,brt_s\n" + rows)
            with pytest.raises(ValueError, match=f"^observation file {re.escape(str(path))}: "
                                                 f"{re.escape(message)}$"):
                read_observations_csv(path)
