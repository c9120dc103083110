import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from brakedist import cli
from brakedist.driver import DriverState, add_observation, compute_blup, load_driver_state
from brakedist.model import MAX_DEGREE, MAX_HEADWAY_S, Observation, read_observations_csv
from brakedist.pbrt import density_curve, estimate_pbrt, norm_quantile, percentile
from brakedist.training import load_model


def run(argv):
    return cli.main(argv)


MISSING = object()  # a field value that deletes the field

# The next float above the headway domain's bound, MAX_HEADWAY_S.
ABOVE_BOUND = math.nextafter(MAX_HEADWAY_S, math.inf)
RANGE_REFUSAL = f"headway_range must satisfy 0 < min < max <= {MAX_HEADWAY_S}"


def above_bound(name, headway):
    """The refusal of a headway outside the domain."""
    return f"{name} {float(headway)} exceeds the headway bound {MAX_HEADWAY_S}"


def degree_refusal(degree):
    """The refusal of a degree outside [0, MAX_DEGREE]."""
    return f"degree must be in [0, {MAX_DEGREE}], got {degree}"


def refusal(kind, path, message):
    """The stderr line of a refused file; a document of the wrong shape is
    named without a colon after the path."""
    sep = " " if message.startswith("has the wrong shape: ") else ": "
    return f"error: {kind} {path}{sep}{message}"


class TestSimulate:
    def test_default_row_count(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert run(["simulate", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "rows=6000"
        lines = out.read_text().splitlines()
        assert len(lines) == 6001
        assert lines[0] == "driver_id,stimulus,headway_s,brt_s"
        assert (tmp_path / "data.truth.json").exists()

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--out", str(a), "--seed", "9"]) == 0
        assert run(["simulate", "--out", str(b), "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.truth.json").read_bytes() == (tmp_path / "b.truth.json").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--out", str(a), "--seed", "1"])
        run(["simulate", "--out", str(b), "--seed", "2"])
        assert a.read_bytes() != b.read_bytes()

    def test_custom_config(self, tmp_path, tiny_sim_config_path, capsys):
        out = tmp_path / "tiny.csv"
        assert run(["simulate", "--out", str(out), "--config", str(tiny_sim_config_path)]) == 0
        assert capsys.readouterr().out.strip() == "rows=72"
        truth = json.loads((tmp_path / "tiny.truth.json").read_text())
        assert len(truth) == 12
        assert all(len(g) == 3 for g in truth.values())

    def test_unwritable_path_is_io_error(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert run(["simulate", "--out", str(missing_dir)]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_config_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"num_stimuli": 1}))
        assert run(["simulate", "--out", str(tmp_path / "x.csv"), "--config", str(bad)]) == 3


class TestTrain:
    def test_train_writes_model(self, tmp_path, tiny_sim_config_path, capsys):
        data = tmp_path / "data.csv"
        run(["simulate", "--out", str(data), "--config", str(tiny_sim_config_path)])
        model_path = tmp_path / "model.json"
        code = run(["train", "--data", str(data), "--out", str(model_path)])
        assert code in (0, 4)  # non-convergence still writes the file
        out = capsys.readouterr().out
        assert "loglik=" in out and "converged=" in out
        model = load_model(model_path)
        assert model.spec.p == 3
        assert model.sigma2 > 0

    def test_deterministic_output(self, tmp_path, tiny_sim_config_path):
        data = tmp_path / "data.csv"
        run(["simulate", "--out", str(data), "--config", str(tiny_sim_config_path)])
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        run(["train", "--data", str(data), "--out", str(m1)])
        run(["train", "--data", str(data), "--out", str(m2)])
        assert m1.read_bytes() == m2.read_bytes()

    def test_default_study_full_covariance_converges(self, tmp_path, capsys):
        # The committed study with the default options: the full-covariance
        # fit reaches its optimum, so the command exits 0.
        data, model_path = tmp_path / "data.csv", tmp_path / "model.json"
        assert run(["simulate", "--out", str(data)]) == 0
        capsys.readouterr()
        assert run(["train", "--data", str(data), "--out", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("loglik=") and out.rstrip().endswith("converged=True")
        assert load_model(model_path).fit_info.converged

    def test_single_driver_rejected(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text(
            "driver_id,stimulus,headway_s,brt_s\n"
            "only,stim,1.0,0.5\n"
            "only,stim,2.0,0.6\n"
        )
        assert run(["train", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 3
        assert "at least 2 drivers" in capsys.readouterr().err

    def test_overflowing_design_names_the_driver(self, tmp_path, capfd):
        # A headway whose design overflowed once failed inside LAPACK
        # (DLASCL); then it was named by driver. Now the reader refuses any
        # headway outside the domain, naming the line of d1's row.
        for headway in (1e200, ABOVE_BOUND):
            rows = ["driver_id,stimulus,headway_s,brt_s"]
            rows += [f"d{d},stim,{1.0 + 0.5 * k!r},{0.5 + 0.1 * d!r}"
                     for d in range(3) for k in range(4)]
            rows.append(f"d1,stim,{headway!r},0.9")
            data = tmp_path / "big.csv"
            data.write_text("\n".join(rows) + "\n")
            assert run(["train", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 3
            captured = capfd.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                f"error: observation file {data}: line 14: {above_bound('headway_s', headway)}"]
            assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("degree", [MAX_DEGREE + 1, 10**9])
    def test_degree_above_the_bound_is_refused(self, tmp_path, tiny_sim_config_path, capfd,
                                               monkeypatch, degree):
        # Refused by ModelSpec, before any design of p = degree + 1 columns
        # is allocated.
        data = tmp_path / "d.csv"
        assert run(["simulate", "--out", str(data), "--config", str(tiny_sim_config_path)]) == 0
        capfd.readouterr()
        monkeypatch.setattr("brakedist.training.build_design", None)
        assert run(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                    "--degree", str(degree)]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {degree_refusal(degree)}"]
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("degree", [MAX_DEGREE - 1, MAX_DEGREE])
    def test_degree_whose_start_is_not_finite_is_refused(self, tmp_path, capfd, degree):
        # On the default study ModelSpec accepts degrees 24 and 25, but a reduced
        # system T_d fails to factor at the start Lambda; degree 23 starts.
        data, model_path = tmp_path / "data.csv", tmp_path / "m.json"
        assert run(["simulate", "--out", str(data)]) == 0
        capfd.readouterr()
        assert run(["train", "--data", str(data), "--out", str(model_path), "--degree", str(degree)]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the likelihood is not finite at the start Lambda = diag(X'X / N)^-1"]
        assert not model_path.exists()

    def test_headways_at_the_bound_are_served(self, tmp_path, tiny_sim_config_path):
        # A config whose range ends at the bound, and a CSV row exactly at it.
        # beta_true and sigma_gamma_true have no headway terms here, so the
        # drawn responses stay under MAX_BRT_S out to the bound.
        doc = json.loads(tiny_sim_config_path.read_text())
        doc.update(headway_range=[0.3, MAX_HEADWAY_S], beta_true=[-0.3, 0.0, 0.0],
                   sigma_gamma_true=np.diag([0.02, 0.0, 0.0]).tolist())
        tiny_sim_config_path.write_text(json.dumps(doc))
        data = tmp_path / "d.csv"
        assert run(["simulate", "--out", str(data), "--config", str(tiny_sim_config_path)]) == 0
        with data.open("a") as fh:
            fh.write(f"driver_03,traffic_signal,{MAX_HEADWAY_S!r},0.9\n")
        assert run(["train", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 0

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text(
            "driver_id,stimulus,headway_s,brt_s\n"
            "a,stim,1.0,0.5\n"
            "b,stim,zzz,0.6\n"
        )
        assert run(["train", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 3
        assert "line 3" in capsys.readouterr().err

    def test_non_utf8_byte_names_file_line_and_offset(self, tmp_path, capfd):
        # The decode error escaped the reader: exit 3 with only "'utf-8'
        # codec can't decode byte 0xff in position ...", naming no file.
        data = tmp_path / "bad.csv"
        head = b"driver_id,stimulus,headway_s,brt_s\na,stim,1.0,0.5\nb,st"
        data.write_bytes(head + b"\xffim,1.0,0.6\n")
        assert run(["train", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: observation file {data}: line 3: not UTF-8: byte 0xff at offset "
            f"{len(head)} (invalid start byte)"]

    def test_missing_data_file_is_io_error(self, tmp_path):
        assert run(["train", "--data", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "m.json")]) == 2

    @pytest.mark.parametrize("failure", ["write", "rename"])
    def test_failed_write_keeps_old_model(self, tmp_path, tiny_sim_config_path,
                                          handmade_model_path, monkeypatch, failure):
        data = tmp_path / "data.csv"
        run(["simulate", "--out", str(data), "--config", str(tiny_sim_config_path)])
        before = handmade_model_path.read_bytes()
        real_fdopen = os.fdopen

        class TornFile:
            """Writes half of what it is given, then reports a full disk."""

            def __init__(self, fd, mode):
                self.fh = real_fdopen(fd, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        def no_rename(src, dst):
            raise OSError("injected failure before rename")

        if failure == "write":
            monkeypatch.setattr(os, "fdopen", TornFile)
        else:
            monkeypatch.setattr(os, "replace", no_rename)
        code = run(["train", "--data", str(data), "--out", str(handmade_model_path)])
        assert code == 2
        assert handmade_model_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "data.csv", "data.truth.json", "model.json", "sim_config.json"]


class TestUpdate:
    def test_fresh_state_created(self, tmp_path, handmade_model_path, capsys):
        state = tmp_path / "alice.json"
        code = run(["update", "--model", str(handmade_model_path), "--state", str(state),
                    "--event", "traffic_signal,1.2,0.8"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("n=1 gamma_norm=")
        # The header and the window's three columns, as json.dumps writes them.
        text = state.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc) + "\n"
        assert doc == {"driver_id": "alice", "max_history": 500, "stimulus": ["traffic_signal"],
                       "headway_s": [1.2], "brt_s": [0.8]}  # no prediction: it is recomputed

    def test_validation_errors(self, tmp_path, handmade_model_path, capfd):
        state = tmp_path / "s.json"
        for event, message in [
            ("traffic_signal,-1.0,0.8", "headway_s must be positive, got -1.0"),
            ("mystery,1.0,0.8", "unknown stimulus name 'mystery'"),
            ("traffic_signal,1.0", '--event must be "stimulus,headway,brt"'),
            ("traffic_signal,1.2,0.7,", '--event must be "stimulus,headway,brt"'),
            # Read with bare float(), these named neither the option nor the field.
            ("traffic_signal,abc,0.7", "--event headway must be a number, got 'abc'"),
            ("traffic_signal,1.2,0.7s", "--event brt must be a number, got '0.7s'"),
        ]:
            assert run(["update", "--model", str(handmade_model_path), "--state", str(state),
                        "--event", event]) == 3
            captured = capfd.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: {message}"]
            assert not state.exists()

    def test_overflowing_headway_is_a_validation_error(self, tmp_path, handmade_model_path,
                                                       capfd):
        # The event once got stored, and the next prediction failed with
        # numpy warnings and a "singular" message that did not name it.
        state = tmp_path / "zz.json"
        for headway in ("1e200", "1e100", "1e45", repr(ABOVE_BOUND)):
            assert run(["update", "--model", str(handmade_model_path), "--state", str(state),
                        "--event", f"traffic_signal,{headway},0.9"]) == 3
            captured = capfd.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: {above_bound('headway_s', headway)}"]
            assert not state.exists()

    def test_event_at_the_bound_is_served(self, tmp_path, handmade_model_path, capsys):
        # update stores the event, and pbrt reads it back from the state file.
        state = tmp_path / "s.json"
        assert run(["update", "--model", str(handmade_model_path), "--state", str(state),
                    "--event", f"traffic_signal,{MAX_HEADWAY_S!r},0.9"]) == 0
        assert json.loads(state.read_text())["headway_s"] == [MAX_HEADWAY_S]
        assert run(["pbrt", "--model", str(handmade_model_path), "--state", str(state),
                    "--stimulus", "traffic_signal"]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out and "inf" not in out

    def test_missing_model_is_io_error(self, tmp_path):
        assert run(["update", "--model", str(tmp_path / "no.json"),
                    "--state", str(tmp_path / "s.json"),
                    "--event", "traffic_signal,1.0,0.8"]) == 2

    def test_incremental_matches_batch(self, tmp_path, handmade_model_path):
        # 30 sequential updates, then compare the prediction recomputed from
        # the stored history with a batch computation over the same events.
        rng = np.random.default_rng(3)
        model = load_model(handmade_model_path)
        state_path = tmp_path / "bob.json"
        events = []
        for _ in range(30):
            name = ["traffic_signal", "lead_car_brake"][int(rng.integers(0, 2))]
            t = float(rng.uniform(0.4, 7.0))
            brt = float(rng.uniform(0.3, 4.0))
            events.append((name, t, brt))
            assert run(["update", "--model", str(handmade_model_path),
                        "--state", str(state_path),
                        "--event", f"{name},{t!r},{brt!r}"]) == 0
        loaded = load_driver_state(state_path, model.stimuli)
        assert loaded.cached is None
        batch = DriverState(driver_id="bob")
        for name, t, brt in events:
            add_observation(batch, Observation("bob", model.stimuli.id_of(name), t, brt))
        assert loaded.observations == batch.observations
        recomputed = compute_blup(loaded, model)
        expected = compute_blup(batch, model)
        assert np.array_equal(recomputed.gamma_hat, expected.gamma_hat)
        assert np.array_equal(recomputed.pred_err_cov, expected.pred_err_cov)

    def test_atomic_write_keeps_old_state_on_failure(self, tmp_path, handmade_model_path,
                                                     monkeypatch, capfd):
        state = tmp_path / "carol.json"
        run(["update", "--model", str(handmade_model_path), "--state", str(state),
             "--event", "traffic_signal,1.2,0.8"])
        before = state.read_bytes()

        def boom(src, dst):
            raise OSError("injected failure before rename")

        monkeypatch.setattr(os, "replace", boom)
        code = run(["update", "--model", str(handmade_model_path), "--state", str(state),
                    "--event", "traffic_signal,2.0,0.9"])
        assert code == 2
        assert "injected failure before rename" in capfd.readouterr().err  # an errno-less OSError keeps its text
        assert state.read_bytes() == before  # never a torn file
        assert sorted(p.name for p in tmp_path.iterdir()) == ["carol.json", "model.json"]

    def test_stale_temp_name_does_not_block_update(self, tmp_path, handmade_model_path):
        state = tmp_path / "alice.json"
        (tmp_path / "alice.json.tmp").mkdir()
        for headway in ("1.2", "2.0"):
            assert run(["update", "--model", str(handmade_model_path), "--state", str(state),
                        "--event", f"traffic_signal,{headway},0.8"]) == 0
        assert len(load_driver_state(state, load_model(handmade_model_path).stimuli).observations) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "alice.json", "alice.json.tmp", "model.json"]

    @pytest.mark.parametrize("argv, message", [
        (["update", "--event", "traffic_signal,1_5,0.8"], "--event headway must be a number, got '1_5'"),
        (["update", "--event", "traffic_signal,1.2,\u0660.8"],
         "--event brt must be a number, got '\u0660.8'"),
        (["update", "--event", "traffic_signal, 1.2,0.8"], "--event headway must be a number, got ' 1.2'"),
        (["update", "--event", "traffic_signal,Infinity,0.8"],
         "--event headway must be a number, got 'Infinity'"),
        (["curve", "--grid", "0.2,3.0,1_0"], "--grid steps must be an integer, got '1_0'"),
        (["curve", "--grid", "0.2,3.0,\u0665"], "--grid steps must be an integer, got '\u0665'"),
        (["curve", "--grid", "\u0660.2,3.0,5"], "--grid min must be a number, got '\u0660.2'"),
        (["pbrt", "--percentiles", "5_0"], "--percentiles level must be a number, got '5_0'"),
    ], ids=["underscore", "arabic-indic-digit", "blank", "Infinity", "steps-underscore",
            "steps-arabic-indic-digit", "min-arabic-indic-digit", "level-underscore"])
    def test_python_only_number_spellings_are_refused(self, tmp_path, handmade_model_path, capfd,
                                                      argv, message):
        # float() and int() read 1_5 as 15 and Arabic-Indic digits as ASCII ones; only
        # the forms that repr writes, and integers, are numbers here.
        state, curve = tmp_path / "s.json", tmp_path / "c.csv"
        extra = {"update": ["--state", str(state)], "pbrt": ["--stimulus", "traffic_signal"],
                 "curve": ["--stimulus", "traffic_signal", "--out", str(curve)]}[argv[0]]
        assert run([argv[0], "--model", str(handmade_model_path), *extra, *argv[1:]]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not state.exists() and not curve.exists()

    @pytest.mark.parametrize("argv, message", [
        (["pbrt", "--model", "m.json", "--stimulus", "traffic_signal", "--t-star", "1_5"],
         "--t-star: invalid float value: '1_5'"),
        (["curve", "--model", "m.json", "--stimulus", "traffic_signal", "--grid", "0.2,3.0,5", "--out", "OUT",
          "--t-star", "\u0661.5"], "--t-star: invalid float value: '\u0661.5'"),
        (["simulate", "--out", "OUT", "--seed", "\u0663"], "--seed: invalid int value: '\u0663'"),
        (["train", "--data", "d.csv", "--out", "OUT", "--degree", "1_0"], "--degree: invalid int value: '1_0'"),
    ], ids=["t-star-underscore", "t-star-arabic-indic-digit", "seed-arabic-indic-digit", "degree-underscore"])
    def test_python_only_number_spellings_in_options_are_usage_errors(self, tmp_path, capfd, argv,
                                                                       message):
        # argparse's type=float and type=int read --t-star 1_5 as 15 s and --seed \u0663 as 3.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run([str(out) if a == "OUT" else a for a in argv])
        assert exc.value.code == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(f"error: argument {message}")
        assert not out.exists()

    def test_write_error_names_the_given_path(self, tmp_path, handmade_model_path, capfd):
        # The temp file's random name was reported instead, different on every run.
        (tmp_path / "adir").mkdir()
        state, out = tmp_path / "nodir" / "x.json", tmp_path / "adir"
        for argv, path in [(["update", "--state", str(state), "--event", "traffic_signal,1.2,0.8"], state),
                           (["curve", "--stimulus", "traffic_signal", "--grid", "0.2,3.0,5",
                             "--out", str(out)], out)]:
            errors = []
            for _ in range(2):
                assert run([argv[0], "--model", str(handmade_model_path), *argv[1:]]) == 2
                captured = capfd.readouterr()
                assert captured.out == ""
                errors.append(captured.err)
            assert errors[0] == errors[1]
            assert repr(str(path)) in errors[0] and ".tmp" not in errors[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "model.json"]
        assert list(out.iterdir()) == []


class TestPbrt:
    def test_integer_model_entries_read_as_their_floats(self, tmp_path, handmade_model_path, capfd):
        # A hand-written 0 where a saved model holds 0.0 reads as the same number.
        doc = json.loads(handmade_model_path.read_text())
        doc["beta"][2] = 0.0
        twins = {"float": doc, "int": json.loads(json.dumps(doc), parse_float=lambda text: (
            int(float(text)) if float(text).is_integer() else float(text)))}
        ints = twins["int"]
        entries = ints["beta"][2], ints["sigma_gamma"][0][1], ints["beta_cov"][0][1]
        assert {type(v) for v in entries} == {int}
        state = tmp_path / "x.json"
        state.write_text(json.dumps(COLUMNS))
        outputs = []
        for kind, twin in twins.items():
            model = tmp_path / f"{kind}.json"
            model.write_text(json.dumps(twin))
            assert run(["pbrt", "--model", str(model), "--state", str(state), "--stimulus",
                        "traffic_signal"]) == 0
            outputs.append(capfd.readouterr().out)
        assert outputs[0] == outputs[1] != ""

    def test_stateless_population_percentiles_exact(self, handmade_model_path, capsys):
        assert run(["pbrt", "--model", str(handmade_model_path),
                    "--stimulus", "traffic_signal"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "q,percentile_naive,percentile_conservative"
        assert [row.split(",")[0] for row in lines[1:]] == ["10", "50", "90"]

        model = load_model(handmade_model_path)
        w = np.array([1.0, 1.5, 2.25, 0.0, 0.0, 0.0])
        mu = float(w @ model.beta)
        var_cons = float(w @ model.sigma_gamma @ w) + model.sigma2
        for row, q in zip(lines[1:], (0.1, 0.5, 0.9)):
            naive, cons = map(float, row.split(",")[1:])
            assert naive == math.exp(mu + norm_quantile(q) * math.sqrt(model.sigma2))
            assert cons == math.exp(mu + norm_quantile(q) * math.sqrt(var_cons))

    def test_median_is_exp_mean(self, handmade_model_path, capsys):
        run(["pbrt", "--model", str(handmade_model_path), "--stimulus", "lead_car_brake",
             "--percentiles", "50"])
        line = capsys.readouterr().out.strip().splitlines()[1]
        model = load_model(handmade_model_path)
        w = np.array([0.0, 0.0, 0.0, 1.0, 1.5, 2.25])
        assert float(line.split(",")[1]) == math.exp(float(w @ model.beta))

    def test_naive_only_output(self, handmade_model_path, capsys):
        run(["pbrt", "--model", str(handmade_model_path), "--stimulus", "traffic_signal",
             "--no-conservative"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "q,percentile_naive"
        assert all(len(row.split(",")) == 2 for row in lines[1:])

    def test_reused_parser_does_not_leak_options(self, handmade_model_path, capsys):
        # The argparse tree is built once per process; a flag given to one
        # call must not carry over into the next.
        args = ["pbrt", "--model", str(handmade_model_path), "--stimulus", "traffic_signal"]
        assert run(args + ["--no-conservative"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "q,percentile_naive"
        assert run(args) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "q,percentile_naive,percentile_conservative"
        assert cli.build_parser() is cli.build_parser()

    def test_t_star_override(self, handmade_model_path, capsys):
        run(["pbrt", "--model", str(handmade_model_path), "--stimulus", "traffic_signal",
             "--t-star", "2.0", "--percentiles", "50"])
        line = capsys.readouterr().out.strip().splitlines()[1]
        model = load_model(handmade_model_path)
        w = np.array([1.0, 2.0, 4.0, 0.0, 0.0, 0.0])
        assert float(line.split(",")[1]) == math.exp(float(w @ model.beta))

    def test_stale_cache_in_state_file_is_ignored(self, tmp_path, handmade_model_path, capsys):
        # State files once carried the last prediction, which pbrt reused
        # with whatever model it was given. A wrong or wrongly shaped block
        # in an old file must not change the output.
        model = load_model(handmade_model_path)
        state_path = tmp_path / "erin.json"
        events = [("traffic_signal", 1.2, 0.8), ("lead_car_brake", 2.5, 1.1),
                  ("traffic_signal", 0.9, 0.7)]
        for name, t, brt in events:
            run(["update", "--model", str(handmade_model_path), "--state", str(state_path),
                 "--event", f"{name},{t!r},{brt!r}"])
        doc = json.loads(state_path.read_text())
        doc["cached"] = {
            "gamma_hat": [0.5] * (model.spec.p + 3),
            "gamma_hat_cov": [[0.0]],
            "pred_err_cov": [[1.0]],
        }
        state_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["pbrt", "--model", str(handmade_model_path), "--state", str(state_path),
                    "--stimulus", "traffic_signal"]) == 0
        out = capsys.readouterr().out

        state = DriverState(driver_id="erin")
        for name, t, brt in events:
            add_observation(state, Observation("erin", model.stimuli.id_of(name), t, brt))
        est = estimate_pbrt(model, compute_blup(state, model), 0)
        lines = ["q,percentile_naive,percentile_conservative"]
        for q in (10, 50, 90):
            naive = percentile(est, q / 100.0, conservative=False)
            cons = percentile(est, q / 100.0, conservative=True)
            lines.append(f"{q:g},{naive!r},{cons!r}")
        assert out == "\n".join(lines) + "\n"

    def test_uses_state_when_present(self, tmp_path, handmade_model_path, capsys):
        state = tmp_path / "dave.json"
        run(["update", "--model", str(handmade_model_path), "--state", str(state),
             "--event", "traffic_signal,1.0,2.5"])
        capsys.readouterr()
        run(["pbrt", "--model", str(handmade_model_path), "--state", str(state),
             "--stimulus", "traffic_signal", "--percentiles", "50"])
        with_state = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
        run(["pbrt", "--model", str(handmade_model_path), "--stimulus", "traffic_signal",
             "--percentiles", "50"])
        without = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
        assert with_state > without  # slow observation pulls the estimate up

    def test_unknown_stimulus(self, handmade_model_path):
        assert run(["pbrt", "--model", str(handmade_model_path), "--stimulus", "mystery"]) == 3

    @pytest.mark.parametrize("field, path, value", [
        ("beta", (0,), "nan"),
        ("sigma2", (), "inf"),
        ("t_star", (), "inf"),
        ("sigma_gamma", (1, 1), "nan"),
        ("beta_cov", (0, 0), "nan"),
    ], ids=["beta", "sigma2", "t_star", "sigma_gamma", "beta_cov"])
    def test_non_finite_model_field_is_named(self, handmade_model_path, capsys,
                                             field, path, value):
        doc = json.loads(handmade_model_path.read_text())
        if path:
            target = doc[field]
            for i in path[:-1]:
                target = target[i]
            target[path[-1]] = float(value)
        else:
            doc[field] = float(value)
        handmade_model_path.write_text(json.dumps(doc))  # writes NaN / Infinity
        assert run(["pbrt", "--model", str(handmade_model_path),
                    "--stimulus", "traffic_signal"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{field} must be finite" in captured.err

    FIT_INFO = {"converged": True, "loglik": -1.0, "iterations": 3}

    @pytest.mark.parametrize("path, value, message", [
        (("spec", "degree"), 1.5, "spec.degree must be an integer, got 1.5"),
        (("spec", "degree"), "2", "spec.degree must be a number, got '2'"),
        (("spec", "num_stimuli"), True, "spec.num_stimuli must be a number, got True"),
        (("sigma2",), True, "sigma2 must be a number, got True"),
        (("t_star",), "1.5", "t_star must be a number, got '1.5'"),
        (("fit_info",), {**FIT_INFO, "loglik": "-1.0"}, "fit_info.loglik must be a number, got '-1.0'"),
        (("fit_info",), {**FIT_INFO, "converged": "false"},
         "fit_info.converged must be true or false, got 'false'"),
        (("beta", 0), "-0.3", "beta[0] must be a number, got '-0.3'"),
        (("beta", 5), True, "beta[5] must be a number, got True"),
        (("sigma_gamma", 2), [0.0] * 5, "sigma_gamma[2] must have 6 entries, got 5"),
        (("sigma_gamma", 0), 0.02, "has the wrong shape: sigma_gamma[0] must be a list, got 0.02"),
        (("beta_cov",), [[0.0004]], "beta_cov must have 6 entries, got 1"),
        (("beta",), MISSING, "missing field 'beta'"),
        (("spec", "stimuli", 0), True, "stimulus names must be strings, got True"),
        (("spec", "stimuli"), "abc", "has the wrong shape: spec.stimuli must be a list, got 'abc'"),
        (("spec", "stimuli"), {"traffic_signal": 0},
         "has the wrong shape: spec.stimuli must be a list, got {'traffic_signal': 0}"),
        (("spec", "degree"), MAX_DEGREE + 1, degree_refusal(MAX_DEGREE + 1)),
        (("t_star",), ABOVE_BOUND, above_bound("t_star", ABOVE_BOUND)),
        (("sigma2",), 10**400, "sigma2 must be finite"),  # an integer too large for a float
    ], ids=["degree-fraction", "degree-string", "num_stimuli-bool", "sigma2-bool", "t_star-string",
            "loglik-string", "converged-string", "beta-string", "beta-bool", "sigma_gamma-ragged",
            "sigma_gamma-row-number", "beta_cov-short", "beta-missing", "stimuli-bool",
            "stimuli-string", "stimuli-object", "degree-above-bound", "t_star-above-bound",
            "sigma2-huge-integer"])
    def test_mistyped_model_field_is_named(self, handmade_model_path, capsys, path, value, message):
        # Read with bare int() and float() these were truncated (degree 1.5,
        # then a misleading beta-shape error) or accepted ("2", true); read
        # with np.array, number arrays took "-0.3" and true, and a ragged
        # matrix failed with numpy's "inhomogeneous shape" text. A missing
        # field was named without the file, and a stimulus name true was
        # served as "True". A string of names was read one character per
        # name, and an object by its keys.
        doc = json.loads(handmade_model_path.read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is MISSING:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        handmade_model_path.write_text(json.dumps(doc))
        assert run(["pbrt", "--model", str(handmade_model_path),
                    "--stimulus", "traffic_signal"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [refusal("model file", handmade_model_path, message)]

    def test_fit_info_seed_of_an_older_model_file_is_ignored(self, handmade_model_path, capsys):
        # Model files once recorded the unused search seed in fit_info.
        outputs = []
        for fit_info in (self.FIT_INFO, {**self.FIT_INFO, "seed": 42}):
            doc = json.loads(handmade_model_path.read_text())
            doc["fit_info"] = fit_info
            handmade_model_path.write_text(json.dumps(doc))
            assert run(["pbrt", "--model", str(handmade_model_path),
                        "--stimulus", "traffic_signal"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != ""

    def test_bad_percentiles(self, handmade_model_path, capfd):
        files = sorted(handmade_model_path.parent.iterdir())
        for levels, message in [
            ("0,50", "percentile levels must lie in (0, 100)"),
            # Read with bare float(), this named neither the option nor the level.
            ("10,abc", "--percentiles level must be a number, got 'abc'"),
            # Empty levels were skipped: "10,,90" printed two rows.
            ("10,,90", "--percentiles level must be a number, got ''"),
            ("10,90,", "--percentiles level must be a number, got ''"),
            ("", "--percentiles level must be a number, got ''"),
        ]:
            assert run(["pbrt", "--model", str(handmade_model_path),
                        "--stimulus", "traffic_signal", "--percentiles", levels]) == 3
            captured = capfd.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: {message}"]
            assert sorted(handmade_model_path.parent.iterdir()) == files

    @pytest.mark.parametrize("t_star, levels, message", [
        ("1e5", "99.9", above_bound("--t-star", 1e5)),
        ("300", "10,99.9", "percentile at level 0.999 is too large for a float"),
    ], ids=["1e5-99.9", "300-10,99.9"])
    def test_overflowing_percentile_is_a_validation_error(self, handmade_model_path, capfd,
                                                          t_star, levels, message):
        # math.exp raised OverflowError: exit 1 with a traceback, after the
        # rows before the overflowing one had been printed. A 1e5 s headway
        # is now refused as outside the domain, before any percentile.
        assert run(["pbrt", "--model", str(handmade_model_path), "--stimulus", "traffic_signal",
                    "--t-star", t_star, "--percentiles", levels]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("t_star", ["inf", "1e308", "1e200", "1e100", repr(ABOVE_BOUND)])
    @pytest.mark.parametrize("command", ["pbrt", "curve"])
    def test_overflowing_t_star_is_a_validation_error(self, tmp_path, handmade_model_path, capfd,
                                                      command, t_star):
        # Non-finite or overflowing headway powers once gave inf/nan rows
        # (1e100: nan and inf percentiles, all-zero densities) and numpy
        # warnings with exit 0. Any headway outside the domain is refused.
        out = tmp_path / "curve.csv"
        args = [command, "--model", str(handmade_model_path), "--stimulus", "traffic_signal",
                "--t-star", t_star]
        if command == "curve":
            args += ["--grid", "0.2,3.0,5", "--out", str(out)]
        assert run(args) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {above_bound('--t-star', t_star)}"]
        assert not out.exists()

    @pytest.mark.parametrize("t_star", ["nan", "0", "-1.5"])
    @pytest.mark.parametrize("command", ["pbrt", "curve"])
    def test_nonpositive_t_star_names_the_option(self, tmp_path, handmade_model_path, capfd,
                                                 command, t_star):
        # These were refused as "headway_s must be positive", naming a field
        # of no file or option the command was given.
        out = tmp_path / "curve.csv"
        args = [command, "--model", str(handmade_model_path), "--stimulus", "traffic_signal",
                "--t-star", t_star]
        if command == "curve":
            args += ["--grid", "0.2,3.0,5", "--out", str(out)]
        assert run(args) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: --t-star must be positive, got {float(t_star)}"]
        assert not out.exists()

    @pytest.mark.parametrize("source", ["option", "model"])
    @pytest.mark.parametrize("command", ["pbrt", "curve"])
    def test_t_star_at_the_bound_is_served(self, tmp_path, handmade_model_path, capsys,
                                           command, source):
        # With no headway terms in beta or sigma_gamma, the percentiles stay
        # finite out to the bound.
        doc = json.loads(handmade_model_path.read_text())
        doc.update(beta=[-0.3, 0.0, 0.0, -0.4, 0.0, 0.0],
                   sigma_gamma=np.diag([0.02, 0.0, 0.0, 0.02, 0.0, 0.0]).tolist())
        args = [command, "--model", str(handmade_model_path), "--stimulus", "traffic_signal"]
        if source == "model":
            doc["t_star"] = MAX_HEADWAY_S
        else:
            args += ["--t-star", repr(MAX_HEADWAY_S)]
        handmade_model_path.write_text(json.dumps(doc))
        if command == "curve":
            args += ["--grid", "0.2,3.0,5", "--out", str(tmp_path / "curve.csv")]
        assert run(args) == 0
        out = capsys.readouterr().out
        assert "nan" not in out and "inf" not in out


class TestCurve:
    def test_writes_grid_rows(self, tmp_path, handmade_model_path):
        out = tmp_path / "curve.csv"
        assert run(["curve", "--model", str(handmade_model_path),
                    "--stimulus", "traffic_signal", "--grid", "0.2,3.0,200",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t_seconds,pdf_naive,pdf_conservative"
        assert len(lines) == 201
        vals = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
        assert np.all(vals[:, 1:] >= 0.0)

    def test_written_whole_without_temp_file(self, tmp_path, handmade_model_path):
        model = load_model(handmade_model_path)
        est = estimate_pbrt(model, compute_blup(DriverState(driver_id="x"), model), 0)
        grid = np.linspace(0.2, 3.0, 50)
        rows = zip(density_curve(est, False, grid), density_curve(est, True, grid))
        want = "t_seconds,pdf_naive,pdf_conservative\n" + "".join(
            f"{t!r},{f_n!r},{f_c!r}\n" for (t, f_n), (_, f_c) in rows)
        (tmp_path / "curves").mkdir()
        out = tmp_path / "curves" / "curve.csv"
        out.write_text("an older, longer curve file\n" * 200)
        for _ in range(2):
            assert run(["curve", "--model", str(handmade_model_path), "--stimulus",
                        "traffic_signal", "--grid", "0.2,3.0,50", "--out", str(out)]) == 0
            assert out.read_bytes() == want.encode("utf-8")
        assert [p.name for p in out.parent.iterdir()] == ["curve.csv"]

    def test_density_integrates_to_one(self, tmp_path, handmade_model_path):
        model = load_model(handmade_model_path)
        w = np.array([1.0, 1.5, 2.25, 0.0, 0.0, 0.0])
        mu = float(w @ model.beta)
        var_cons = float(w @ model.sigma_gamma @ w) + model.sigma2
        lo = math.exp(mu + norm_quantile(1e-5) * math.sqrt(var_cons))
        hi = math.exp(mu + norm_quantile(1 - 1e-5) * math.sqrt(var_cons))
        out = tmp_path / "curve.csv"
        run(["curve", "--model", str(handmade_model_path), "--stimulus", "traffic_signal",
             "--grid", f"{lo},{hi},3000", "--out", str(out)])
        vals = np.array([[float(x) for x in row.split(",")]
                         for row in out.read_text().strip().splitlines()[1:]])
        for col in (1, 2):
            integral = np.trapezoid(vals[:, col], vals[:, 0])
            assert 0.995 <= integral <= 1.005

    def test_conservative_has_heavier_right_tail(self, tmp_path, handmade_model_path):
        model = load_model(handmade_model_path)
        w = np.array([1.0, 1.5, 2.25, 0.0, 0.0, 0.0])
        mu = float(w @ model.beta)
        t99 = math.exp(mu + norm_quantile(0.99) * math.sqrt(model.sigma2))
        out = tmp_path / "curve.csv"
        run(["curve", "--model", str(handmade_model_path), "--stimulus", "traffic_signal",
             "--grid", f"{t99},{t99 + 1.0},2", "--out", str(out)])
        row = out.read_text().strip().splitlines()[1].split(",")
        assert float(row[2]) > float(row[1])

    def test_invalid_grid(self, tmp_path, handmade_model_path, capfd):
        out = tmp_path / "c.csv"
        out_of_range = "grid needs 0 < min < max < inf and steps >= 2"
        for grid, message in [
            ("0,3,100", out_of_range),
            ("3,1,100", out_of_range),
            ("0.5,3.0,1", out_of_range),
            ("junk", '--grid must be "min,max,steps"'),
            ("0.2,inf,5", out_of_range),
            # Read with bare int() and float(), these named neither the option nor the field.
            ("0.2,3.0,2.5", "--grid steps must be an integer, got '2.5'"),
            ("0.2,x,5", "--grid max must be a number, got 'x'"),
            ("y,3.0,5", "--grid min must be a number, got 'y'"),
        ]:
            assert run(["curve", "--model", str(handmade_model_path),
                        "--stimulus", "traffic_signal", "--grid", grid, "--out", str(out)]) == 3
            captured = capfd.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: {message}"]
            assert not out.exists()


# One good event of driver "x" in the older record layout, which is no longer read.
EVENT = {"driver_id": "x", "stimulus": "traffic_signal", "headway_s": 1.2, "brt_s": 0.8}
RECORD_REFUSAL = "observations: records are no longer read; a state file holds stimulus, headway_s and brt_s"
# Two good events of driver "x" in the column layout.
COLUMNS = {"driver_id": "x", "stimulus": ["traffic_signal"] * 2, "headway_s": [1.2] * 2, "brt_s": [0.8] * 2}


class TestMalformedJson:
    @pytest.mark.parametrize("kind, doc, detail", [
        ("model", [], None),
        ("model", {"spec": {"num_stimuli": 2, "degree": 2, "stimuli": None}},
         "spec.stimuli must be a list, got None"),
        ("state", [], None),
        # A file in the older record layout is refused whole, whatever its records hold.
        ("state", {"driver_id": "x", "observations": 5}, RECORD_REFUSAL),
        ("state", {"driver_id": "x", "observations": [{**EVENT, "headway_s": None}]}, RECORD_REFUSAL),
        ("config", [], None),
        # These four were served as an empty history, or refused naming no field.
        ("state", {"driver_id": "x", "observations": {}}, RECORD_REFUSAL),
        ("state", {"driver_id": "x", "observations": ""}, RECORD_REFUSAL),
        ("state", {"driver_id": "x", "observations": "abc"}, RECORD_REFUSAL),
        ("state", {"driver_id": "x", "observations": {"a": 1}}, RECORD_REFUSAL),
        ("state", {"driver_id": "x", "observations": [EVENT, 3, EVENT]}, RECORD_REFUSAL),
        ("state", {**COLUMNS, "headway_s": 5}, "headway_s must be a list, got 5"),
        ("state", {**COLUMNS, "stimulus": {"a": 1}}, "stimulus must be a list, got {'a': 1}"),
        ("state", {**COLUMNS, "brt_s": [0.8, None]}, "brt_s[1] must be a number, got None"),
    ], ids=["model-list", "model-null-stimuli", "state-list", "state-int-observations",
            "state-null-headway", "config-list", "state-object-observations",
            "state-empty-string-observations", "state-string-observations",
            "state-keyed-object-observations", "state-number-record", "state-int-column",
            "state-object-column", "state-null-response"])
    def test_wrong_shape_is_a_validation_error(self, tmp_path, handmade_model_path, capfd,
                                               kind, doc, detail):
        # detail is None where the message is Python's own (a list indexed by a key).
        bad = tmp_path / f"bad-{kind}.json"
        bad.write_text(json.dumps(doc))
        if kind == "config":
            args = ["simulate", "--out", str(tmp_path / "x.csv"), "--config", str(bad)]
        else:
            model = bad if kind == "model" else handmade_model_path
            args = ["pbrt", "--model", str(model), "--stimulus", "traffic_signal"]
            if kind == "state":
                args += ["--state", str(bad)]
        assert run(args) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {kind} file {bad} has the wrong shape: ")
        if detail is not None:
            assert line == f"error: {kind} file {bad} has the wrong shape: {detail}"

    def test_state_without_observations_is_an_empty_history(self, tmp_path, handmade_model_path,
                                                            capfd):
        state = tmp_path / "x.json"
        state.write_text(json.dumps({"driver_id": "x"}))
        args = ["pbrt", "--model", str(handmade_model_path), "--stimulus", "traffic_signal"]
        assert run(args + ["--state", str(state)]) == 0
        with_state = capfd.readouterr().out
        assert run(args) == 0
        assert with_state == capfd.readouterr().out

    def test_deeply_nested_model_is_a_validation_error(self, tmp_path, capfd):
        # json.load raised RecursionError here: exit 1 with a traceback.
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000)
        assert run(["pbrt", "--model", str(bad), "--stimulus", "traffic_signal"]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: model file {bad} is nested too deeply to read"]


    @pytest.mark.parametrize("kind", ["model", "state", "config"])
    def test_unreadable_text_names_the_file(self, tmp_path, handmade_model_path, capfd, kind):
        # A byte that is not UTF-8 gave only the codec's message, and text
        # that is not JSON only the parser's; neither named the file.
        for content, message in [(b'{"driver_id": "\xff"}', "is not UTF-8: byte 0xff at offset 15 "
                                                           "(invalid start byte)"),
                                 (b"{", "is not JSON: Expecting property name enclosed in "
                                        "double quotes: line 1 column 2 (char 1)")]:
            bad = tmp_path / f"bad-{kind}.json"
            bad.write_bytes(content)
            if kind == "config":
                args = ["simulate", "--out", str(tmp_path / "x.csv"), "--config", str(bad)]
            else:
                model = bad if kind == "model" else handmade_model_path
                args = ["pbrt", "--model", str(model), "--stimulus", "traffic_signal"]
                if kind == "state":
                    args += ["--state", str(bad)]
            assert run(args) == 3
            captured = capfd.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: {kind} file {bad} {message}"]

    @pytest.mark.parametrize("field, value, message", [
        ("headway_s", True, "headway_s[1] must be a number, got True"),
        ("brt_s", "0.8", "brt_s[1] must be a number, got '0.8'"),
        ("stimulus", "mystery", "stimulus[1]: unknown stimulus name 'mystery'"),
        ("brt_s", MISSING, "missing field 'brt_s'"),
        ("headway_s", ABOVE_BOUND, above_bound("headway_s[1]", ABOVE_BOUND)),
        ("headway_s", math.nan, "headway_s[1] must be positive, got nan"),
    ], ids=["headway-bool", "brt-string", "unknown-stimulus", "brt-missing", "headway-above-bound",
            "headway-nan"])
    def test_bad_state_field_names_file_and_field(self, tmp_path, handmade_model_path, capfd,
                                                  field, value, message):
        # Read with bare float(), "headway_s": true was stored as 1.0. update
        # refuses the file before the new event is added, and leaves it as it was.
        state = tmp_path / "x.json"
        doc = json.loads(json.dumps(COLUMNS))
        if value is MISSING:
            del doc[field]
        else:
            doc[field][1] = value
        state.write_text(json.dumps(doc))
        before = state.read_bytes()
        assert run(["update", "--model", str(handmade_model_path), "--state", str(state),
                    "--event", "traffic_signal,1.2,0.8"]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: state file {state}: {message}"]
        assert state.read_bytes() == before

    def test_first_bad_record_in_file_order_is_named(self, tmp_path, handmade_model_path, capfd):
        # Event 1's refusal was reported without naming it; event 2 is bad too. In one
        # column, out-of-domain values are refused at the lowest index.
        state = tmp_path / "x.json"
        state.write_text(json.dumps({**COLUMNS, "stimulus": ["traffic_signal"] * 3, "headway_s": [1.2] * 3,
                                     "brt_s": [0.8, math.inf, -1.0]}))
        assert run(["pbrt", "--model", str(handmade_model_path), "--state", str(state),
                    "--stimulus", "traffic_signal"]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: state file {state}: brt_s[1] must be positive and finite, got inf"]

    @pytest.mark.parametrize("column, value, message", [
        ("headway_s", True, "headway_s[1] must be a number, got True"),
        ("brt_s", "0.8", "brt_s[1] must be a number, got '0.8'"),
        ("stimulus", "mystery", "stimulus[1]: unknown stimulus name 'mystery'"),
        ("brt_s", MISSING, "stimulus, headway_s and brt_s must have equal lengths, got [2, 2, 1]"),
        ("headway_s", ABOVE_BOUND, above_bound("headway_s[1]", ABOVE_BOUND)),
        ("headway_s", math.nan, "headway_s[1] must be positive, got nan"),
        ("brt_s", 61.0, "brt_s[1] 61.0 exceeds sanity bound 60.0"),
        ("headway_s", 10**400, "headway_s[1] must be finite"),  # an integer too large for a float
    ], ids=["headway-bool", "brt-string", "unknown-stimulus", "brt-short", "headway-above-bound",
            "headway-nan", "brt-above-bound", "headway-huge-integer"])
    def test_bad_state_entry_names_file_and_entry(self, tmp_path, handmade_model_path, capfd,
                                                  column, value, message):
        # The column layout names the entry by its column and index.
        state = tmp_path / "x.json"
        doc = json.loads(json.dumps(COLUMNS))
        if value is MISSING:
            del doc[column][1]
        else:
            doc[column][1] = value
        state.write_text(json.dumps(doc))
        assert run(["pbrt", "--model", str(handmade_model_path), "--state", str(state),
                    "--stimulus", "traffic_signal"]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: state file {state}: {message}"]

    @pytest.mark.parametrize("layout", ["columns", "records"])
    @pytest.mark.parametrize("name", [["a"], 5, None, True, {}], ids=["list", "number", "null", "bool", "object"])
    def test_stimulus_name_that_is_not_a_string_is_named(self, tmp_path, handmade_model_path, capfd,
                                                         layout, name):
        # ["a"] was refused with Python's "unhashable type: 'list'", and 5 as an unknown name.
        # In the older record layout, the file is refused as that layout before any name is read.
        state = tmp_path / "x.json"
        if layout == "columns":
            doc = {**COLUMNS, "stimulus": ["traffic_signal", name]}
            message = f"stimulus[1] must be a string, got {name!r}"
        else:
            doc = {"driver_id": "x", "observations": [EVENT, {**EVENT, "stimulus": name}]}
            message = f"has the wrong shape: {RECORD_REFUSAL}"
        state.write_text(json.dumps(doc))
        assert run(["update", "--model", str(handmade_model_path), "--state", str(state),
                    "--event", "traffic_signal,1.2,0.8"]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [refusal("state file", state, message)]
        assert json.loads(state.read_text()) == doc

    @pytest.mark.parametrize("command", ["update", "pbrt", "curve"])
    @pytest.mark.parametrize("doc", [
        {"driver_id": "x", "max_history": 500, "observations": [EVENT, EVENT]},
        {"driver_id": "x", "observations": []},
        {"driver_id": "x", "observations": None},
        {**COLUMNS, "observations": [EVENT]},
    ], ids=["records", "empty", "null", "beside-columns"])
    def test_record_layout_is_refused(self, tmp_path, handmade_model_path, capfd, command, doc):
        # The older layout was read, and rewritten as columns by update. A file holding
        # observations is now refused, never served as an empty history, and left as it was.
        state, curve = tmp_path / "x.json", tmp_path / "curve.csv"
        state.write_text(json.dumps(doc))
        before = state.read_bytes()
        args = {"update": ["--event", "traffic_signal,1.2,0.8"], "pbrt": ["--stimulus", "traffic_signal"],
                "curve": ["--stimulus", "traffic_signal", "--grid", "0.2,3.0,50", "--out", str(curve)]}[command]
        assert run([command, "--model", str(handmade_model_path), "--state", str(state), *args]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [refusal("state file", state, f"has the wrong shape: {RECORD_REFUSAL}")]
        assert state.read_bytes() == before
        assert not curve.exists()

    def test_non_string_driver_id_names_file(self, tmp_path, handmade_model_path, capfd):
        # A state file with "driver_id": 5 was accepted.
        state = tmp_path / "x.json"
        state.write_text(json.dumps({**COLUMNS, "driver_id": 5}))
        assert run(["update", "--model", str(handmade_model_path), "--state", str(state),
                    "--event", "traffic_signal,1.2,0.8"]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: state file {state}: driver_id must be a string, got 5"]
        assert json.loads(state.read_text())["driver_id"] == 5

    @pytest.mark.parametrize("field, value, message", [
        ("degree", 1.5, "degree must be an integer, got 1.5"),
        ("num_stimuli", True, "num_stimuli must be a number, got True"),
        ("num_drivers", "12", "num_drivers must be a number, got '12'"),
        ("obs_per_driver", [6.5], "obs_per_driver[0] must be an integer, got 6.5"),
        ("obs_per_driver", True, "obs_per_driver must be a number, got True"),
        ("sigma2_true", "0.04", "sigma2_true must be a number, got '0.04'"),
        ("headway_range", [0.3, "8.0"], "headway_range[1] must be a number, got '8.0'"),
        ("headway_range", [0.3, 4.0, 8.0], "headway_range must be [min, max]"),
        ("seed", 11.5, "seed must be an integer, got 11.5"),
        ("beta_true", [-0.3, "0.1", 0.0], "beta_true[1] must be a number, got '0.1'"),
        ("beta_true", [-0.3, 0.1, False], "beta_true[2] must be a number, got False"),
        ("sigma_gamma_true", [[0.02, 0.0, 0.0], [0.0, 0.005], [0.0, 0.0, 5e-5]],
         "sigma_gamma_true[1] must have 3 entries, got 2"),
        ("seed", MISSING, "missing field 'seed'"),
        ("stimuli", [True], "stimulus names must be strings, got True"),
        ("sigma2_true", math.inf, "sigma2_true must be finite"),
        ("beta_true", [math.inf, 0.1, 0.0], "beta_true must be finite"),
        ("headway_range", [0.3, math.inf], "headway_range must be finite"),
        ("sigma_gamma_true", [[0.02, 0.0, 0.0], [0.0, math.nan, 0.0], [0.0, 0.0, 5e-5]],
         "sigma_gamma_true must be finite"),
        ("headway_range", [0.3, 1e100], RANGE_REFUSAL),
        ("stimuli", "abc", "has the wrong shape: stimuli must be a list, got 'abc'"),
        ("stimuli", {"a": 1, "b": 2, "c": 3},
         "has the wrong shape: stimuli must be a list, got {'a': 1, 'b': 2, 'c': 3}"),
        ("headway_range", [0.3, ABOVE_BOUND], RANGE_REFUSAL),
        ("degree", MAX_DEGREE + 1, degree_refusal(MAX_DEGREE + 1)),
        # Refused only when the first driver was grouped, naming neither file nor field.
        ("obs_per_driver", [0], "obs_per_driver needs at least one positive count"),
        ("obs_per_driver", 0, "obs_per_driver needs at least one positive count"),
        ("obs_per_driver", [-1], "observation counts must be >= 0"),
        ("sigma2_true", -0.04, "sigma2_true must be nonnegative"),
        ("stimuli", ["a", "b"], "registry size does not match spec.num_stimuli"),
    ], ids=["degree-fraction", "num_stimuli-bool", "num_drivers-string", "count-fraction",
            "count-bool", "sigma2-string", "headway-string", "headway-three", "seed-fraction",
            "beta_true-string", "beta_true-bool", "sigma_gamma_true-ragged", "seed-missing",
            "stimuli-bool", "sigma2-infinite", "beta_true-infinite", "headway-infinite",
            "sigma_gamma_true-nan", "headway-overflows", "stimuli-string", "stimuli-object",
            "headway-above-bound", "degree-above-bound", "count-all-zero", "count-scalar-zero",
            "count-negative", "sigma2-negative", "stimuli-size-mismatch"])
    def test_bad_config_field_names_file_and_field(self, tmp_path, tiny_sim_config_path, capfd,
                                                   field, value, message):
        # Read with bare int(), "degree": 1.5 was truncated to 1 and failed
        # later as "beta_true must have shape (2,)".
        doc = json.loads(tiny_sim_config_path.read_text())
        if value is MISSING:
            del doc[field]
        else:
            doc[field] = value
        tiny_sim_config_path.write_text(json.dumps(doc))
        assert run(["simulate", "--out", str(tmp_path / "x.csv"),
                    "--config", str(tiny_sim_config_path)]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [refusal("config file", tiny_sim_config_path, message)]
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("value", [{"a": 1, "b": 2}, "ab"], ids=["object", "string"])
    def test_config_headway_range_not_a_list_is_wrong_shape(self, tmp_path, tiny_sim_config_path,
                                                            capfd, value):
        # Read by index, an object failed as a missing field 0 and a
        # two-character string one character at a time.
        doc = json.loads(tiny_sim_config_path.read_text())
        doc["headway_range"] = value
        tiny_sim_config_path.write_text(json.dumps(doc))
        assert run(["simulate", "--out", str(tmp_path / "x.csv"),
                    "--config", str(tiny_sim_config_path)]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: config file {tiny_sim_config_path} has the wrong shape: "
            f"headway_range must be a list, got {value!r}"]
        assert not (tmp_path / "x.csv").exists()


class TestRoundTrip:
    def test_model_file_load_save_byte_identical(self, tmp_path, handmade_model_path):
        from brakedist.training import save_model

        model = load_model(handmade_model_path)
        clone_path = tmp_path / "clone.json"
        save_model(model, clone_path)
        assert clone_path.read_bytes() == handmade_model_path.read_bytes()

    def test_csv_observations_survive_round_trip(self, tmp_path, tiny_sim_config_path):
        data = tmp_path / "d.csv"
        run(["simulate", "--out", str(data), "--config", str(tiny_sim_config_path)])
        from brakedist.model import write_observations_csv

        again = tmp_path / "again.csv"
        write_observations_csv(again, read_observations_csv(data))
        assert again.read_bytes() == data.read_bytes()


# Log-uniform over [1e-3, 1e308]: from everyday headways to far past the
# headway domain's bound, MAX_HEADWAY_S = 1e3.
EXTREME = st.floats(-3.0, 308.0).map(lambda e: 10.0 ** e)


class TestExtremeInputs:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        stimulus=st.sampled_from(["traffic_signal", "lead_car_brake"]),
        headways=st.lists(EXTREME, min_size=1, max_size=3),
        t_star=EXTREME,
        levels=st.lists(st.floats(0.0, 100.0, exclude_min=True, exclude_max=True),
                        min_size=1, max_size=3),
    )
    def test_commands_exit_0_or_3_with_finite_output(self, handmade_model_path, stimulus,
                                                     headways, t_star, levels):
        # Every call returns 0 or 3 and never raises; the pytest config makes
        # a RuntimeWarning an error. Stdout never shows nan or inf, and an
        # exit 3 prints nothing on stdout and writes no file.
        model = str(handmade_model_path)
        with tempfile.TemporaryDirectory() as tmp:
            state, curve = Path(tmp) / "d.json", Path(tmp) / "curve.csv"
            query = ["--model", model, "--state", str(state), "--stimulus", stimulus,
                     "--t-star", repr(t_star)]
            calls = [(["update", "--model", model, "--state", str(state),
                       "--event", f"{stimulus},{h!r},0.9"], state) for h in headways]
            calls += [(["pbrt", *query, "--percentiles", ",".join(map(repr, levels))], None),
                      (["curve", *query, "--grid", "0.2,3.0,5", "--out", str(curve)], curve)]
            for argv, written in calls:
                before = written.read_bytes() if written is not None and written.exists() else None
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                assert code in (0, 3), argv
                text = out.getvalue() + (curve.read_text() if written is curve and code == 0 else "")
                assert "nan" not in text and "inf" not in text, (argv, text)
                if code == 3:
                    assert out.getvalue() == "", argv
                    if written is not None:
                        after = written.read_bytes() if written.exists() else None
                        assert after == before, argv
