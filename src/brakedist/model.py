"""Domain types and design-matrix construction.

The regression works on log brake response times. Each stimulus type
owns a block of polynomial-in-headway coefficients, so a model with S
stimulus types and polynomial degree ``degree`` has p = S * (degree + 1)
coefficients; an observation's feature row is zero outside its stimulus
block and holds (1, t, t^2, ..., t^degree) inside it.
"""

import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import check_symmetric, is_psd

# Observations with a longer response are rejected as sensor error;
# non-stopping events must be filtered upstream.
MAX_BRT_S = 60.0

OBSERVATION_CSV_HEADER = ["driver_id", "stimulus", "headway_s", "brt_s"]


class UnknownStimulus(ValueError):
    """Raised for a stimulus id or name not present in the registry."""


class StimulusRegistry:
    """Ordered set of stimulus names; ids are contiguous positions."""

    def __init__(self, names):
        names = tuple(names)
        for name in names:
            if not isinstance(name, str):
                raise ValueError(f"stimulus names must be strings, got {name!r}")
        if not names:
            raise ValueError("registry needs at least one stimulus")
        if len(set(names)) != len(names):
            raise ValueError("stimulus names must be unique")
        self._names = names
        self._ids = {name: i for i, name in enumerate(names)}

    @property
    def names(self):
        return self._names

    def id_of(self, name):
        try:
            return self._ids[name]
        except KeyError:
            raise UnknownStimulus(f"unknown stimulus name {name!r}") from None

    def name_of(self, stimulus_id):
        if not 0 <= stimulus_id < len(self._names):
            raise UnknownStimulus(f"stimulus id {stimulus_id} out of range")
        return self._names[stimulus_id]

    def __len__(self):
        return len(self._names)

    def __eq__(self, other):
        return isinstance(other, StimulusRegistry) and self._names == other._names

    def __repr__(self):
        return f"StimulusRegistry({list(self._names)!r})"


@dataclass(frozen=True)
class Observation:
    """One braking event: who, what triggered it, when, and how fast.

    ``headway_s`` is the time headway to the stimulus source at stimulus
    onset and ``brt_s`` the observed brake response time, both in
    seconds. Both must be positive (the response enters the model as
    log(brt_s)) and brt_s must not exceed MAX_BRT_S.
    """

    driver_id: str
    stimulus: int
    headway_s: float
    brt_s: float

    def __post_init__(self):
        if not isinstance(self.stimulus, (int, np.integer)) or self.stimulus < 0:
            raise ValueError(f"stimulus id must be a nonnegative integer, got {self.stimulus!r}")
        object.__setattr__(self, "stimulus", int(self.stimulus))
        object.__setattr__(self, "headway_s", float(self.headway_s))
        object.__setattr__(self, "brt_s", float(self.brt_s))
        if not np.isfinite(self.headway_s) or self.headway_s <= 0:
            raise ValueError(f"headway_s must be positive and finite, got {self.headway_s}")
        if not np.isfinite(self.brt_s) or self.brt_s <= 0:
            raise ValueError(f"brt_s must be positive and finite, got {self.brt_s}")
        if self.brt_s > MAX_BRT_S:
            raise ValueError(f"brt_s {self.brt_s} exceeds sanity bound {MAX_BRT_S}")


@dataclass(frozen=True)
class ModelSpec:
    """Shape of the coefficient vector: stimulus count and polynomial degree."""

    num_stimuli: int
    degree: int = 2

    def __post_init__(self):
        if self.num_stimuli < 1:
            raise ValueError("num_stimuli must be >= 1")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

    @property
    def p(self):
        """Total coefficient count across stimulus blocks."""
        return self.num_stimuli * (self.degree + 1)


@dataclass(eq=False)
class FitInfo:
    """Bookkeeping from a training run."""

    converged: bool
    loglik: float
    iterations: int


@dataclass(eq=False)
class TrainedModel:
    """Population-level parameters estimated from a training study.

    Immutable by convention once constructed; safe to share across
    threads for concurrent reads.
    """

    spec: ModelSpec
    stimuli: StimulusRegistry
    beta: np.ndarray
    sigma2: float
    sigma_gamma: np.ndarray
    beta_cov: np.ndarray
    t_star: float = 1.5
    fit_info: FitInfo | None = None

    def __post_init__(self):
        p = self.spec.p
        if len(self.stimuli) != self.spec.num_stimuli:
            raise ValueError("registry size does not match spec.num_stimuli")
        for name in ("beta", "sigma2", "sigma_gamma", "beta_cov", "t_star"):
            if not np.all(np.isfinite(np.asarray(getattr(self, name), dtype=float))):
                raise ValueError(f"{name} must be finite")
        self.beta = np.asarray(self.beta, dtype=float)
        if self.beta.shape != (p,):
            raise ValueError(f"beta must have shape ({p},), got {self.beta.shape}")
        self.sigma_gamma = check_symmetric(self.sigma_gamma)
        self.beta_cov = check_symmetric(self.beta_cov)
        if self.sigma_gamma.shape != (p, p) or self.beta_cov.shape != (p, p):
            raise ValueError("covariance matrices must be p x p")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        if not is_psd(self.sigma_gamma, 1e-8):
            raise ValueError("sigma_gamma is not positive semidefinite")
        if not is_psd(self.beta_cov, 1e-8):
            raise ValueError("beta_cov is not positive semidefinite")
        if not self.t_star > 0:
            raise ValueError("t_star must be positive")


def feature_row(spec, stimulus, headway_s):
    """Design row for one observation.

    Zero everywhere except the stimulus block, which holds the headway
    powers (1, t, ..., t^degree).

    Raises:
        UnknownStimulus: if the stimulus id is outside [0, num_stimuli).
        ValueError: if the headway is not positive, or is not finite or
            overflows a power up to twice the degree: the row's outer
            product, which X'X and w'Pw add up, must be finite.
    """
    if not 0 <= stimulus < spec.num_stimuli:
        raise UnknownStimulus(f"stimulus id {stimulus} out of range [0, {spec.num_stimuli})")
    if not headway_s > 0:
        raise ValueError(f"headway_s must be positive, got {headway_s}")
    try:
        finite = math.isfinite(headway_s) and math.isfinite(float(headway_s) ** (2 * spec.degree))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"headway_s {headway_s} too large for a degree-{spec.degree} design")
    row = np.zeros(spec.p)
    start = stimulus * (spec.degree + 1)
    row[start : start + spec.degree + 1] = float(headway_s) ** np.arange(spec.degree + 1)
    return row


def build_design(spec, observations):
    """Stack feature rows and log responses for a list of observations.

    Returns:
        (X, y): X is (n, p) with row i = feature_row(obs[i]) and
        y[i] = ln(brt_s) of obs[i]; input order is preserved.
    """
    n = len(observations)
    stimulus = np.fromiter((o.stimulus for o in observations), dtype=np.intp, count=n)
    headway = np.fromiter((o.headway_s for o in observations), dtype=float, count=n)
    brt = np.fromiter((o.brt_s for o in observations), dtype=float, count=n)
    # Slightly below the headway whose outer product's top power overflows,
    # so every such row is flagged; feature_row has the last word on each.
    limit = 0.999 * sys.float_info.max ** (1.0 / max(2 * spec.degree, 1))
    bad = (stimulus < 0) | (stimulus >= spec.num_stimuli) | ~((headway > 0) & (headway <= limit))
    for i in bad.nonzero()[0]:
        # feature_row raises the error it would raise for this row.
        feature_row(spec, int(stimulus[i]), float(headway[i]))
    powers = np.arange(spec.degree + 1)
    X = np.zeros((n, spec.p))
    X[np.arange(n)[:, None], stimulus[:, None] * powers.size + powers] = headway[:, None] ** powers
    return X, np.log(brt)


def read_observations_csv(path):
    """Read observation rows from a CSV file in one pass.

    The header must be ``driver_id,stimulus,headway_s,brt_s`` and the
    stimulus column carries names; the registry lists them in order of
    first appearance.

    Returns:
        (registry, observations)

    Raises:
        ValueError: naming the file, on a byte that is not UTF-8 or a
            malformed header or row, with the 1-based line number of the
            first bad line, or on a file with no rows.
    """
    data = Path(path).read_bytes()
    ids, observations = {}, []
    try:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"line {line}: {_not_utf8(data, exc)}") from None
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, None)
        if header != OBSERVATION_CSV_HEADER:
            raise ValueError(
                f"line 1: expected header {','.join(OBSERVATION_CSV_HEADER)}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != 4:
                    raise ValueError(f"expected 4 fields, got {len(row)}")
                driver_id, name, headway, brt = row
                stim_id = ids.setdefault(name, len(ids))
                observations.append(Observation(driver_id, stim_id, float(headway), float(brt)))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        if not ids:
            raise ValueError("CSV contains no observations")
    except ValueError as exc:
        raise ValueError(f"observation file {path}: {exc}") from None
    return StimulusRegistry(ids), observations


def _not_utf8(data, exc):
    """The first byte that stopped ``data.decode("utf-8")`` with ``exc``, at its offset."""
    return f"not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start} ({exc.reason})"


def write_observations_csv(path, observations, registry):
    """Write observations as CSV with stimulus names from the registry."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(OBSERVATION_CSV_HEADER)
    for o in observations:
        writer.writerow([o.driver_id, registry.name_of(o.stimulus), repr(o.headway_s), repr(o.brt_s)])
    atomic_write_text(path, buf.getvalue())


def atomic_write_text(path, text):
    """Write ``text`` as UTF-8, verbatim, via a temp file and rename, so
    readers never see a torn file. Every file the package writes goes
    through here.

    The temp file sits beside ``path`` under a fresh random name, with the
    mode ``open(path, "w")`` gives; a failed write or rename removes it.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _field_name(path):
    """A field's path as messages name it, e.g. ``observations[3].headway_s``."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).removeprefix(".")


def json_number(doc, *path, integral=False):
    """The JSON number at ``path`` (keys and list indices) in ``doc``, as a
    float, or an int if ``integral``. A bool, a string or a fraction where
    an integer belongs is a ValueError naming the field; null, a list or an
    object is a TypeError, which ``read_json`` reports as the wrong shape."""
    value = doc
    for key in path:
        value = value[key]
    if type(value) is float and not integral:  # every number a state file holds
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        error = TypeError if value is None or isinstance(value, (list, dict)) else ValueError
        raise error(f"{_field_name(path)} must be a number, got {value!r}")
    if integral and not (isinstance(value, int) or value.is_integer()):
        raise ValueError(f"{_field_name(path)} must be an integer, got {value!r}")
    try:
        return int(value) if integral else float(value)
    except OverflowError:
        raise ValueError(f"{_field_name(path)} must be finite") from None


def json_array(doc, *path, shape):
    """The JSON array at ``path`` in ``doc`` as a float ndarray of ``shape``:
    lists nested to exactly those lengths, whose entries ``json_number``
    accepts. A list of the wrong length is a ValueError naming the field
    and index; anything else where a list belongs is a TypeError, which
    ``read_json`` reports as the wrong shape."""
    value = doc
    for key in path:
        value = value[key]
    return np.array(_checked_list(doc, path, value, shape), dtype=float)


def _checked_list(doc, path, value, shape):
    if type(value) is not list:
        raise TypeError(f"{_field_name(path)} must be a list, got {value!r}")
    if len(value) != shape[0]:
        raise ValueError(f"{_field_name(path)} must have {shape[0]} entries, got {len(value)}")
    if len(shape) > 1:
        return [_checked_list(doc, (*path, i), row, shape[1:]) for i, row in enumerate(value)]
    if set(map(type, value)) <= {float}:  # every number a saved model holds
        return value
    return [json_number(doc, *path, i) for i in range(len(value))]


def read_json(path, from_dict, kind):
    """``from_dict`` of the JSON document in the ``kind`` file at ``path``.

    A file that is not UTF-8 or not JSON, a document of the wrong shape
    (``from_dict`` raises TypeError: a list where an object belongs, null
    where a number does), one nested too deeply for the parser, a missing
    field (KeyError) and every other ValueError of ``from_dict`` (a bad
    field) is a ValueError naming the file.
    """
    data = Path(path).read_bytes()
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{kind} {path} is {_not_utf8(data, exc)}") from None
    except RecursionError:
        raise ValueError(f"{kind} {path} is nested too deeply to read") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{kind} {path} is not JSON: {exc}") from None
    try:
        return from_dict(doc)
    except TypeError as exc:
        raise ValueError(f"{kind} {path} has the wrong shape: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"{kind} {path}: missing field {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{kind} {path}: {exc}") from None
