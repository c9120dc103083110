"""A bounded fuzz of the three input documents: a model file, a driver state file and a simulator config.

Each example mutates one valid document once (a leaf or a subtree replaced, a key deleted, or the whole
document replaced) with a value from a fixed set of awkward JSON values, and runs it through ``cli.main``:
``pbrt`` and ``update`` for a model or a state, ``simulate`` for a config. Every run must end 0 or 3 without
raising or warning, a refusal must print nothing on stdout and write nothing, and its message must name the file
and the field in the package's words, not quote Python's container errors.
"""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brakedist import cli
from brakedist.driver import DriverState, add_observation, state_to_dict
from brakedist.model import FitInfo, ModelSpec, Observation, StimulusRegistry, TrainedModel
from brakedist.simgen import config_to_dict, default_config
from brakedist.training import model_to_dict

REGISTRY = StimulusRegistry(["traffic_signal", "lead_car_brake"])
MODEL = model_to_dict(TrainedModel(
    spec=ModelSpec(2, 2), stimuli=REGISTRY, beta=np.array([-0.3, 0.1, 0.005, -0.4, 0.12, 0.004]), sigma2=0.04,
    sigma_gamma=np.diag([0.02, 0.005, 5e-5, 0.02, 0.005, 5e-5]), beta_cov=0.0004 * np.eye(6), t_star=1.5,
    fit_info=FitInfo(converged=True, loglik=-12.5, iterations=7)))
_state = DriverState("alice", max_history=40)
for _event in [(0, 1.2, 0.74), (1, 2.5, 0.93), (0, 0.8, 1.1)]:
    add_observation(_state, Observation("alice", *_event))
STATE = state_to_dict(_state, REGISTRY)
CONFIG = config_to_dict(dataclasses.replace(default_config(), num_drivers=4, obs_per_driver=(2, 1, 2)))
DOCUMENTS = {"model": MODEL, "state": STATE, "config": CONFIG}

_nested = []
for _ in range(49):
    _nested = [_nested]
VALUES = [None, True, "", "x", [], {}, [1], _nested, 0, -1, 2.5, 1e308, -1e308, 10**400, math.nan, math.inf]

# Python's own words for a step into the wrong container; a refusal must name the field instead.
CONTAINER_ERRORS = ("subscriptable", "indices must be", "not iterable")

# FOUND: these refusals arise in computation, after every file was read, and do not name the file whose values
# caused them. They are the open part of "every refusal names the file", listed here so that no other refusal
# can omit the file unnoticed.
COMPUTED = ("marginal covariance of driver", "is too large", "response still exceeds",
            "brt_s must be positive and finite", "unknown stimulus name 'traffic_signal'")


def paths(doc, prefix=()):
    """Every path in ``doc``, the root first: the keys and list indices of each value, leaf or subtree."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from paths(value, (*prefix, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from paths(value, (*prefix, i))


PATHS = {kind: list(paths(doc)) for kind, doc in DOCUMENTS.items()}


def mutated(doc, path, op, value):
    """A deep copy of ``doc`` with the value at ``path`` replaced by ``value``, or its key deleted."""
    if not path:
        return value if op == "replace" else json.loads(json.dumps(doc))
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "delete" and isinstance(path[-1], str):
        del parent[path[-1]]
    elif op == "replace":
        parent[path[-1]] = value
    return doc


def commands(kind, files, tmp):
    """The runs a document of ``kind`` takes part in, each with the file it may write."""
    if kind == "config":
        return [(["simulate", "--config", str(files["config"]), "--out", str(tmp / "out.csv")], tmp / "out.csv")]
    model, state = str(files["model"]), str(files["state"])
    return [(["pbrt", "--model", model, "--state", state, "--stimulus", "traffic_signal"], None),
            (["update", "--model", model, "--state", state, "--event", "traffic_signal,1.2,0.8"], files["state"])]


def run(argv):
    """``cli.main(argv)`` with RuntimeWarnings as errors: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_documents(tmp, docs):
    files = {kind: tmp / f"{kind}.json" for kind in DOCUMENTS}
    for kind, path in files.items():
        path.write_text(json.dumps(docs[kind]))
    return files


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(DOCUMENTS)), data=st.data(),
       op=st.sampled_from(["replace", "replace", "replace", "delete", "keep"]), value=st.sampled_from(VALUES))
def test_a_mutated_document_is_served_or_refused_naming_the_file(kind, data, op, value):
    path = data.draw(st.sampled_from(PATHS[kind]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = write_documents(tmp, {**DOCUMENTS, kind: mutated(DOCUMENTS[kind], path, op, value)})
        for argv, written in commands(kind, files, tmp):
            before = written.read_bytes() if written is not None and written.exists() else None
            code, out, err = run(argv)
            assert code in (0, 3), (argv, err)
            assert not any(words in err for words in CONTAINER_ERRORS), err
            if op == "keep":
                assert code == 0, err
            if code == 0:
                continue
            assert out == ""
            if written is not None:
                assert (written.read_bytes() if written.exists() else None) == before
            assert not (tmp / "out.truth.json").exists()
            [line] = err.splitlines()
            assert str(files[kind]) in line or any(found in line for found in COMPUTED), line


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_unmutated_documents_give_byte_identical_output(kind):
    # The documents above, written compactly, give what the package's own writers' files give.
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for name in ("compact", "indented"):
            folder = Path(tmp) / name
            folder.mkdir()
            files = write_documents(folder, DOCUMENTS)
            if name == "indented":  # as save_model and a config export write them
                for path in (files["model"], files["config"]):
                    path.write_text(json.dumps(json.loads(path.read_text()), indent=2) + "\n")
            runs = [run(argv)[:2] for argv, _ in commands(kind, files, folder)]
            written = sorted(p.name for p in folder.iterdir())
            outputs.append((runs, written, [(folder / p).read_bytes() for p in written if p != "model.json"
                                            and p != "config.json"]))
        assert outputs[0] == outputs[1]
        assert all(code == 0 for code, _ in outputs[0][0])
