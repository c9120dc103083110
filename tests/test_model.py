import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brakedist import model as model_mod
from brakedist import numerics
from brakedist.model import (
    MAX_BRT_S,
    MAX_DEGREE,
    MAX_HEADWAY_S,
    ModelSpec,
    Observation,
    StimulusRegistry,
    TrainedModel,
    TrainingSet,
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

    @pytest.mark.parametrize("fields, message", [
        ((2.5, 2), "num_stimuli must be an integer, got 2.5"),
        ((3, True), "degree must be an integer, got True"),
        (("2", 2), "num_stimuli must be an integer, got '2'"),
        ((math.nan, 2), "num_stimuli must be an integer, got nan"),
        ((3, math.inf), "degree must be an integer, got inf"),
        ((0, 2), "num_stimuli must be >= 1"),
    ], ids=["fraction", "bool", "string", "nan", "inf", "no-stimuli"])
    def test_spec_refusals(self, fields, message):
        # 2.5 stimuli once gave p = 7.5, and degree True a degree-1 model.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ModelSpec(*fields)

    @pytest.mark.parametrize("fields", [(3, 2.0), (np.int64(3), np.int32(2)), (3.0, np.float64(2.0))])
    def test_spec_stores_whole_numbers_as_int(self, fields):
        # Degree 2.0 was stored as given, and design died with a TypeError.
        spec = ModelSpec(*fields)
        assert spec == SPEC and type(spec.num_stimuli) is type(spec.degree) is int
        assert np.array_equal(design(spec, np.array([1]), np.array([2.0])), [[0, 0, 0, 1, 2, 4, 0, 0, 0]])

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

    def test_registry_rejects_an_empty_list(self):
        with pytest.raises(ValueError, match="^registry needs at least one stimulus$"):
            StimulusRegistry([])

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

    @pytest.mark.parametrize("stimulus", [True, -1, 0.5, "1", None])
    def test_observation_refuses_a_stimulus_id_that_is_not_an_integer(self, stimulus):
        # True was accepted as stimulus 1.
        message = f"stimulus id must be an integer >= 0, got {stimulus!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Observation("a", stimulus, 1.2, 0.8)

    @pytest.mark.parametrize("stimulus", [1.0, np.int64(1), np.float64(1.0)])
    def test_observation_stores_a_whole_stimulus_id_as_int(self, stimulus):
        # 1.0 was refused, though TrainingSet's column reads it as 1.
        assert type(Observation("a", stimulus, 1.2, 0.8).stimulus) is int
        assert Observation("a", stimulus, 1.2, 0.8).stimulus == 1

    @pytest.mark.parametrize("value, low, want", [
        (3, None, 3), (np.int32(3), None, 3), (np.uint64(2**64 - 1), None, 2**64 - 1), (3.0, None, 3),
        (2.0**63, None, 2**63), (2**70, None, 2**70), (0, 0, 0), (-4, None, -4),
    ])
    def test_integer_rule_accepts_whole_numbers(self, value, low, want):
        got = model_mod._integer(value, "x", low)
        assert type(got) is int and got == want

    @pytest.mark.parametrize("value, low, message", [
        (True, None, "x must be an integer, got True"),
        (np.bool_(False), None, f"x must be an integer, got {np.bool_(False)!r}"),
        ("3", None, "x must be an integer, got '3'"),
        (2.5, None, "x must be an integer, got 2.5"),
        (math.nan, None, "x must be an integer, got nan"),
        (-math.inf, None, "x must be an integer, got -inf"),
        (None, None, "x must be an integer, got None"),
        (-1, 0, "x must be an integer >= 0, got -1"),
        (0.5, 1, "x must be an integer >= 1, got 0.5"),
    ])
    def test_integer_rule_refusals(self, value, low, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            model_mod._integer(value, "x", low)

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
        rows = [("a", 0, 1.25, 0.7312498712), ("a", 1, 3.5, 1.125), ("b", 1, 0.875, 0.6600000000000001)]
        path = tmp_path / "obs.csv"
        write_observations_csv(path, TrainingSet.from_rows(ModelSpec(2, 1), reg, *zip(*rows)))
        ts = read_observations_csv(path, degree=1)
        assert ts.stimuli == reg
        assert ts.spec == ModelSpec(2, 1)
        obs = [Observation(*row) for row in rows]
        assert ts.drivers == {"a": obs[:2], "b": obs[2:]}

    def test_registry_from_first_appearance(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "driver_id,stimulus,headway_s,brt_s\n"
            "a,later,1.0,0.5\n"
            "a,early,2.0,0.6\n"
            "b,later,1.5,0.7\n"
        )
        ts = read_observations_csv(path)
        assert ts.stimuli.names == ("later", "early")
        assert ts.stimulus.tolist() == [0, 1, 0]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("who,what,when,how\n")
        with pytest.raises(ValueError, match="line 1"):
            read_observations_csv(path)
        path.write_text("driver_id,stimulus,headway_s,brt_s\n")
        with pytest.raises(ValueError, match=f"^observation file {re.escape(str(path))}: "
                                             "CSV contains no observations$"):
            read_observations_csv(path)

    def test_bad_degree_is_refused_before_the_file_is_read(self, tmp_path):
        with pytest.raises(ValueError, match=f"^{re.escape(f'degree must be in [0, {MAX_DEGREE}], got 26')}$"):
            read_observations_csv(tmp_path / "missing.csv", degree=MAX_DEGREE + 1)

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

    def test_refusal_order_across_kinds_of_problem(self, tmp_path):
        # The rows are checked as columns, each kind of problem at once; the
        # first bad line in file order is still the one named, whatever its kind.
        path = tmp_path / "obs.csv"
        rows = ["a,x,1.0", "a,x,-2.0,0.6", "a,x,1.5,0.5", "b,x,1_5,0.5", "b,x,2.0,0.7"]
        for fix, message in [
            (None, "line 2: expected 4 fields, got 3"),
            (0, "line 3: headway_s must be positive, got -2.0"),
            (1, "line 5: could not convert string to float: '1_5'"),
        ]:
            if fix is not None:
                rows[fix] = "a,x,1.0,0.5"
            path.write_text("driver_id,stimulus,headway_s,brt_s\n" + "\n".join(rows) + "\n")
            with pytest.raises(ValueError, match=f"^observation file {re.escape(str(path))}: "
                                                 f"{re.escape(message)}$"):
                read_observations_csv(path)
        rows[3] = "b,x,1.5,0.5"
        path.write_text("driver_id,stimulus,headway_s,brt_s\n" + "\n".join(rows) + "\n")
        assert read_observations_csv(path).num_observations == 5

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("rows, message", [
        (['"a\nb",x,1.0,0.5', "c,x,1.0,0.5", "d,x,nan,0.5"], "line 5: headway_s must be positive, got nan"),
        (["c,x,1.0,0.5", '"a\nb",x,nan,0.5', "d,x,1.0,0.5"], "line 3: headway_s must be positive, got nan"),
        (['"a\n\nb",x,1.0,0.5', "c,x,1.0"], "line 5: expected 4 fields, got 3"),
    ], ids=["after", "within", "blank-line-in-field"])
    def test_bad_line_is_counted_in_physical_lines(self, tmp_path, rows, message, newline):
        # Rows were counted, not lines: a quoted field holding a newline made the
        # refusal name the line before the bad one. A row is named by its first line.
        path = tmp_path / "obs.csv"
        text = "\n".join(["driver_id,stimulus,headway_s,brt_s", *rows, ""])
        path.write_bytes(text.replace("\n", newline).encode())
        with pytest.raises(ValueError, match=f"^observation file {re.escape(str(path))}: {re.escape(message)}$"):
            read_observations_csv(path)

    @pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_not_utf8_byte_is_named_by_its_physical_line(self, tmp_path, newline):
        # A byte that is not UTF-8 and a nan in the same field are named by the same line.
        path = tmp_path / "obs.csv"
        head = newline.join(["driver_id,stimulus,headway_s,brt_s", "a,x,1.0,0.5", "a,x,1.0,0.5", "b,x,"]).encode()
        for field, message in [(b"nan", "line 4: headway_s must be positive, got nan"),
                               (b"1.\xff", f"line 4: not UTF-8: byte 0xff at offset {len(head) + 2} "
                                           "(invalid start byte)")]:
            path.write_bytes(head + field + b",0.5" + newline.encode())
            with pytest.raises(ValueError, match=f"^observation file {re.escape(str(path))}: "
                                                 f"{re.escape(message)}$"):
                read_observations_csv(path)

    @pytest.mark.parametrize("field", ["1_5", "\u0661.5", "\u0661\u0665", " 1.5", "1.5 ", "\t1.5", "Infinity",
                                       "NaN", "INF", "+Inf", "1,5", "0x1p0", "", "1.5\n"])
    def test_python_only_number_spellings_are_refused(self, tmp_path, field):
        # float() reads 1_5 as 15.0 and Arabic-Indic digits as ASCII ones, so such a
        # headway once loaded silently; it is now refused as an unparsable field.
        path = tmp_path / "obs.csv"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows([["driver_id", "stimulus", "headway_s", "brt_s"],
                                      ["a", "x", "1.0", "0.5"], ["a", "x", field, "0.5"]])
        message = f"observation file {path}: line 3: could not convert string to float: {field!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_observations_csv(path)

    @pytest.mark.parametrize("field, value", [("15", 15.0), ("1.", 1.0), (".5", 0.5), ("+1.5", 1.5),
                                              ("15e-1", 1.5), ("1.5E+0", 1.5), (repr(0.1 + 0.2), 0.1 + 0.2)])
    def test_ascii_decimal_and_exponent_forms_are_read(self, tmp_path, field, value):
        path = tmp_path / "obs.csv"
        path.write_text(f"driver_id,stimulus,headway_s,brt_s\na,x,{field},{field}\n")
        ts = read_observations_csv(path)
        assert ts.headway_s.tolist() == [value] and ts.brt_s.tolist() == [value]

    @pytest.mark.parametrize("headway, brt, message", [
        ("nan", "0.5", "headway_s must be positive, got nan"),
        ("-inf", "0.5", "headway_s must be positive, got -inf"),
        ("inf", "0.5", f"headway_s inf exceeds the headway bound {MAX_HEADWAY_S}"),
        ("1.0", "inf", "brt_s must be positive and finite, got inf"),
        ("1.0", "-nan", "brt_s must be positive and finite, got nan"),
    ])
    def test_nan_and_inf_reach_the_domain_refusals(self, tmp_path, headway, brt, message):
        path = tmp_path / "obs.csv"
        path.write_text(f"driver_id,stimulus,headway_s,brt_s\na,x,1.0,0.5\na,x,{headway},{brt}\n")
        with pytest.raises(ValueError, match=f": line 3: {re.escape(message)}$"):
            read_observations_csv(path)

    def test_interleaved_drivers_group_in_first_appearance_order(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "driver_id,stimulus,headway_s,brt_s\n"
            "b,s,1.0,0.51\n"
            "a,t,2.0,0.52\n"
            "b,t,3.0,0.53\n"
            "c,s,4.0,0.54\n"
            "a,s,5.0,0.55\n"
            "b,s,6.0,0.56\n"
        )
        ts = read_observations_csv(path)
        assert ts.driver_ids == ("b", "a", "c")
        assert ts.counts.tolist() == [3, 2, 1]
        assert ts.stimuli.names == ("s", "t")
        assert ts.headway_s.tolist() == [1.0, 3.0, 6.0, 2.0, 5.0, 4.0]
        assert ts.brt_s.tolist() == [0.51, 0.53, 0.56, 0.52, 0.55, 0.54]
        assert ts.stimulus.tolist() == [0, 1, 0, 1, 0, 0]
        assert ts.drivers == {
            "b": [Observation("b", 0, 1.0, 0.51), Observation("b", 1, 3.0, 0.53),
                  Observation("b", 0, 6.0, 0.56)],
            "a": [Observation("a", 1, 2.0, 0.52), Observation("a", 0, 5.0, 0.55)],
            "c": [Observation("c", 0, 4.0, 0.54)],
        }
        # The writer writes the grouped order, which reads back to the same set.
        write_observations_csv(tmp_path / "again.csv", ts)
        again = read_observations_csv(tmp_path / "again.csv")
        assert again.drivers == ts.drivers and again.stimuli == ts.stimuli


class TestTrainingSet:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.integers(0, 2),
                              st.floats(1e-3, MAX_HEADWAY_S), st.floats(1e-3, MAX_BRT_S)), min_size=1))
    def test_drivers_returns_the_observations_grouped_by_driver(self, rows):
        observations = [Observation(*row) for row in rows]
        ts = TrainingSet.from_rows(SPEC, StimulusRegistry(["s0", "s1", "s2"]), *zip(*rows))
        want = {}
        for o in observations:
            want.setdefault(o.driver_id, []).append(o)
        assert ts.drivers == want
        assert list(ts.drivers) == list(want) == list(ts.driver_ids)
        assert ts.counts.tolist() == [len(obs) for obs in want.values()]
        assert ts.num_observations == len(observations)
        assert ts.drivers is not ts.drivers  # built on each read, never cached

    @pytest.mark.parametrize("change, message", [
        ({"driver_ids": ()}, "training set has no drivers"),
        ({"counts": [3, 0]}, "driver 'b' has no observations"),
        ({"counts": [1, 1]}, "driver ids, counts and event columns disagree in length"),
        ({"brt_s": [0.5, 0.6]}, "driver ids, counts and event columns disagree in length"),
        ({"stimulus": [0, 3, 0]}, "stimulus id 3 out of range [0, 3)"),
        ({"headway_s": [1.0, 0.0, 2.0]}, "headway_s must be positive, got 0.0"),
        ({"brt_s": [0.5, 0.6, MAX_BRT_S + 1.0]}, f"brt_s {MAX_BRT_S + 1.0} exceeds sanity bound {MAX_BRT_S}"),
        # The first bad event is named, whichever of its columns is out of the domain.
        ({"headway_s": [1.0, 2.0, -3.0], "brt_s": [0.5, math.nan, 0.7]}, "brt_s must be positive and finite, got nan"),
        # A fraction is refused, not truncated to an integer.
        ({"stimulus": [0, 0.9, 0]}, "stimulus id must be an integer, got 0.9"),
        ({"stimulus": [0, 1, math.nan]}, "stimulus id must be an integer, got nan"),
        ({"counts": [2.5, 0.5]}, "event count must be an integer, got 2.5"),
        # A bool column is refused as its first entry, not read as 0 and 1.
        ({"counts": [True, True]}, "event count must be an integer, got True"),
        ({"stimulus": [False, True, False]}, "stimulus id must be an integer, got False"),
        # Once accepted here, and refused only after fit's whole search.
        ({"stimuli": StimulusRegistry(["s0", "s1"])}, "registry size does not match spec.num_stimuli"),
    ], ids=["no-drivers", "empty-driver", "counts", "columns", "stimulus", "headway", "brt", "first-bad-event",
            "fractional-stimulus", "nan-stimulus", "fractional-count", "bool-count", "bool-stimulus",
            "registry-size"])
    def test_refusals(self, change, message):
        columns = {"stimuli": StimulusRegistry(["s0", "s1", "s2"]), "driver_ids": ("a", "b"), "counts": [2, 1],
                   "stimulus": [0, 1, 0], "headway_s": [1.0, 2.0, 3.0], "brt_s": [0.5, 0.6, 0.7]}
        TrainingSet(SPEC, **columns)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainingSet(SPEC, **{**columns, **change})

    def test_from_rows_refuses_a_fractional_stimulus_id(self):
        # from_rows hands the ids to the constructor's check as given, not cast to integers.
        with pytest.raises(ValueError, match=r"^stimulus id must be an integer, got 0\.9$"):
            TrainingSet.from_rows(ModelSpec(2, 1), StimulusRegistry(["a", "b"]), ["d", "d"], [0.9, 1.7],
                                  [1.0, 2.0], [0.5, 0.6])
