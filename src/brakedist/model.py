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
import os
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .numerics import is_psd

# Observations with a longer response are rejected as sensor error;
# non-stopping events must be filtered upstream.
MAX_BRT_S = 60.0

# The headway domain is (0, MAX_HEADWAY_S] and degrees run up to MAX_DEGREE:
# MAX_HEADWAY_S ** (2 * MAX_DEGREE) = 1e150, so every design's X'X is finite.
MAX_HEADWAY_S = 1000.0
MAX_DEGREE = 25

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
    log(brt_s)); headway_s must not exceed MAX_HEADWAY_S, nor brt_s MAX_BRT_S.
    """

    driver_id: str
    stimulus: int
    headway_s: float
    brt_s: float

    def __post_init__(self):
        if not isinstance(self.stimulus, (int, np.integer)) or self.stimulus < 0:
            raise ValueError(f"stimulus id must be a nonnegative integer, got {self.stimulus!r}")
        object.__setattr__(self, "stimulus", int(self.stimulus))
        object.__setattr__(self, "headway_s", check_headway(self.headway_s))
        object.__setattr__(self, "brt_s", check_brt(self.brt_s))


@dataclass(frozen=True)
class ModelSpec:
    """Shape of the coefficient vector: stimulus count and polynomial degree."""

    num_stimuli: int
    degree: int = 2

    def __post_init__(self):
        for name, value in (("num_stimuli", self.num_stimuli), ("degree", self.degree)):
            whole = isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer()
            if type(value) is bool or not whole:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.num_stimuli < 1:
            raise ValueError("num_stimuli must be >= 1")
        if not 0 <= self.degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in [0, {MAX_DEGREE}], got {self.degree}")

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
        for name in ("beta", "sigma2", "t_star"):
            if not np.all(np.isfinite(np.asarray(getattr(self, name), dtype=float))):
                raise ValueError(f"{name} must be finite")
        self.beta = np.asarray(self.beta, dtype=float)
        if self.beta.shape != (p,):
            raise ValueError(f"beta must have shape ({p},), got {self.beta.shape}")
        self.sigma_gamma = check_covariance("sigma_gamma", self.sigma_gamma, p, 1e-8)
        self.beta_cov = check_covariance("beta_cov", self.beta_cov, p, 1e-8)
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        check_headway(self.t_star, "t_star")


@dataclass(eq=False)
class TrainingSet:
    """Multi-driver study used to fit the population model, held as columns.

    ``driver_ids`` lists the drivers in order of first appearance and
    ``counts`` their event counts; the event columns ``stimulus`` (ids),
    ``headway_s`` and ``brt_s`` hold each driver's rows in turn, in input
    order. ``drivers`` derives a dict of ``Observation`` lists from them on
    each read, for the benchmark and the tests; nothing that simulates,
    reads or fits a study reads it. A driver with no events is refused, and
    so is the first event with a stimulus id, headway or response outside
    its domain, with ``feature_row``'s or ``check_brt``'s error.
    """

    spec: ModelSpec
    stimuli: StimulusRegistry
    driver_ids: tuple
    counts: np.ndarray
    stimulus: np.ndarray
    headway_s: np.ndarray
    brt_s: np.ndarray

    def __post_init__(self):
        self.driver_ids, self.counts = tuple(self.driver_ids), _integers(self.counts, "event count")
        self.stimulus, self.headway_s = _integers(self.stimulus, "stimulus id"), np.asarray(self.headway_s, float)
        self.brt_s = np.asarray(self.brt_s, float)
        if len(self.stimuli) != self.spec.num_stimuli:
            raise ValueError("registry size does not match spec.num_stimuli")
        if not self.driver_ids:
            raise ValueError("training set has no drivers")
        sizes = {self.counts.sum(), self.stimulus.size, self.headway_s.size, self.brt_s.size}
        if len(self.driver_ids) != self.counts.size or len(sizes) > 1:
            raise ValueError("driver ids, counts and event columns disagree in length")
        for i in np.flatnonzero(self.counts < 1)[:1]:
            raise ValueError(f"driver {self.driver_ids[i]!r} has no observations")
        _refuse_bad_events(self.spec, self.stimulus, self.headway_s, self.brt_s)

    @classmethod
    def from_rows(cls, spec, stimuli, driver_id, stimulus, headway_s, brt_s):
        """A training set from per-event columns in any order, ``driver_id``
        naming each event's driver: the events are grouped by driver in
        order of first appearance, each driver's kept in input order."""
        index = {}
        driver = np.fromiter((index.setdefault(d, len(index)) for d in driver_id), np.intp, len(driver_id))
        order = np.argsort(driver, kind="stable")
        return cls(spec, stimuli, tuple(index), np.bincount(driver, minlength=len(index)),
                   np.asarray(stimulus)[order], np.asarray(headway_s, float)[order],
                   np.asarray(brt_s, float)[order])

    @property
    def drivers(self):
        rows = zip(self.stimulus.tolist(), self.headway_s.tolist(), self.brt_s.tolist())
        return {d: [Observation(d, s, t, b) for s, t, b in islice(rows, n)]
                for d, n in zip(self.driver_ids, self.counts.tolist())}

    @property
    def num_observations(self):
        return self.brt_s.size


def _integers(values, name):
    """``values`` as an intp array; the first entry that differs from its cast, such as 0.9, is a ValueError."""
    values = np.asarray(values)
    with np.errstate(invalid="ignore"):  # nan, inf and huge floats cast to an integer they differ from
        ints = values.astype(np.intp, copy=False)
    for value in values[ints != values][:1].tolist():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return ints


def check_covariance(name, a, p, tol):
    """``a`` as a float ndarray if it is a finite symmetric p x p matrix that
    ``is_psd(a, tol)`` accepts, else a ValueError naming ``name``."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    if a.shape != (p, p):
        raise ValueError(f"{name} must be a finite {p} x {p} matrix")
    try:
        psd = is_psd(a, tol)  # checks symmetry, then the eigenvalues
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if not psd:
        raise ValueError(f"{name} is not positive semidefinite")
    return a


def check_headway(headway_s, name="headway_s"):
    """``headway_s`` as a float if it lies in (0, MAX_HEADWAY_S], else a ValueError naming ``name``."""
    headway_s = float(headway_s)
    if not headway_s > 0:
        raise ValueError(f"{name} must be positive, got {headway_s}")
    if not headway_s <= MAX_HEADWAY_S:
        raise ValueError(f"{name} {headway_s} exceeds the headway bound {MAX_HEADWAY_S}")
    return headway_s


def check_brt(brt_s, name="brt_s"):
    """``brt_s`` as a float if it lies in (0, MAX_BRT_S], else a ValueError naming ``name``."""
    brt_s = float(brt_s)
    if not 0 < brt_s < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {brt_s}")
    if brt_s > MAX_BRT_S:
        raise ValueError(f"{name} {brt_s} exceeds sanity bound {MAX_BRT_S}")
    return brt_s


def feature_row(spec, stimulus, headway_s):
    """Design row for one observation.

    Zero everywhere except the stimulus block, which holds the headway
    powers (1, t, ..., t^degree).

    Raises:
        UnknownStimulus: if the stimulus id is outside [0, num_stimuli).
        ValueError: if the headway is outside the headway domain.
    """
    if not 0 <= stimulus < spec.num_stimuli:
        raise UnknownStimulus(f"stimulus id {stimulus} out of range [0, {spec.num_stimuli})")
    row = np.zeros(spec.p)
    start = stimulus * (spec.degree + 1)
    row[start : start + spec.degree + 1] = check_headway(headway_s) ** np.arange(spec.degree + 1)
    return row


def design(spec, stimulus, headway):
    """Design matrix whose row i is feature_row(spec, stimulus[i], headway[i]),
    from arrays of stimulus ids and headways; simulation, training and
    serving all build their rows here. The first row that feature_row
    refuses raises feature_row's error."""
    n = stimulus.size
    _refuse_bad_events(spec, stimulus, headway)
    powers = np.arange(spec.degree + 1)
    X = np.zeros((n, spec.p))
    X[np.arange(n)[:, None], stimulus[:, None] * powers.size + powers] = headway[:, None] ** powers
    return X


def _refuse_bad_events(spec, stimulus, headway_s, brt_s=None):
    """``refuse_outside_domain`` with ``feature_row``'s checks, then ``check_brt`` if ``brt_s`` is given."""
    def explain(i):
        feature_row(spec, int(stimulus[i]), float(headway_s[i]))
        if brt_s is not None:
            check_brt(brt_s[i])

    refuse_outside_domain(explain, (stimulus < 0) | (stimulus >= spec.num_stimuli), headway_s, brt_s)


def refuse_outside_domain(explain, bad, headway_s=None, brt_s=None):
    """Call ``explain(i)``, which raises the scalar checks' error, at the first event i flagged by the mask ``bad``
    or with a headway or response (if given) outside (0, MAX_HEADWAY_S] or (0, MAX_BRT_S]; AssertionError if not."""
    if headway_s is not None:
        bad = bad | ~((headway_s > 0) & (headway_s <= MAX_HEADWAY_S))
    if brt_s is not None:
        bad = bad | ~((brt_s > 0) & (brt_s <= MAX_BRT_S))
    for i in bad.nonzero()[0][:1]:
        explain(int(i))
        raise AssertionError(f"event {i} fails a domain mask but passes the scalar checks")


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
    return design(spec, stimulus, headway), np.log(brt)


def read_observations_csv(path, degree=2):
    """Read an observation CSV into a ``TrainingSet`` of polynomial degree ``degree``.

    The header must be ``driver_id,stimulus,headway_s,brt_s`` and the
    stimulus column carries names; the registry lists them in order of
    first appearance, and the events are grouped by driver as
    ``TrainingSet.from_rows`` groups them. Numbers are read as
    ``parse_number`` reads them. The rows are checked as columns, the
    domains by ``TrainingSet``; only a file that fails is read again row by
    row, to name its first bad line.

    Raises:
        ValueError: as ``ModelSpec`` does for ``degree``; then naming the
            file, on a byte that is not UTF-8 or a malformed header or row,
            with the 1-based number of the physical line that the first bad
            row starts on, or on a file with no rows.
    """
    ModelSpec(1, degree)  # a bad degree is refused before the file is read
    data = Path(path).read_bytes()
    try:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len(data[: exc.start + 1].splitlines())  # lines end at \r, \n or \r\n, as in the row walk
            raise ValueError(f"line {line}: {_not_utf8(data, exc)}") from None
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, None)
        if header != OBSERVATION_CSV_HEADER:
            raise ValueError(
                f"line 1: expected header {','.join(OBSERVATION_CSV_HEADER)}, got {header}"
            )
        rows = [row for row in reader if row]
        if not rows:
            raise ValueError("CSV contains no observations")
        try:
            if set(map(len, rows)) != {4}:
                raise ValueError
            driver_id, names, headway, brt = zip(*rows)
            if "".join(headway + brt).strip(_NUMBER_CHARS[False]):  # parse_number's test, on all at once
                raise ValueError
            ids = {name: i for i, name in enumerate(dict.fromkeys(names))}
            return TrainingSet.from_rows(ModelSpec(len(ids), degree), StimulusRegistry(ids), driver_id,
                                         [*map(ids.__getitem__, names)], [*map(float, headway)], [*map(float, brt)])
        except ValueError:  # name the first bad line, checking the rows one by one
            reader = csv.reader(io.StringIO(text, newline=""))
            end = 1  # the physical line the last row read ends on: a quoted field may hold newlines
            for row in islice(reader, 1, None):
                try:
                    if len(row) not in (0, 4):
                        raise ValueError(f"expected 4 fields, got {len(row)}")
                    if row:
                        headway, brt = parse_number(row[2]), parse_number(row[3])
                        check_headway(headway)
                        check_brt(brt)
                except ValueError as exc:
                    raise ValueError(f"line {end + 1}: {exc}") from None
                end = reader.line_num
            raise AssertionError("the column checks refused rows that the row checks pass") from None
    except ValueError as exc:
        raise ValueError(f"observation file {path}: {exc}") from None


# Of the text that ``float`` reads, these characters leave only ASCII decimal
# and exponent forms and lowercase nan and inf, which is all that ``repr``
# writes; of the text ``int`` reads, these leave only ASCII digits with a sign.
_NUMBER_CHARS = "0123456789+-.eEnaif", "0123456789+-"


def parse_number(text, integral=False):
    """``text`` as a float where it is an ASCII decimal or exponent form,
    ``nan`` or ``inf`` (every float's ``repr`` is one), or as an int where
    ``integral`` and it is ASCII digits; else the ValueError ``float`` gives
    for text it cannot read. Python's other spellings, such as ``1_5``,
    non-ASCII digits, ``Infinity`` and surrounding blanks, are refused."""
    try:
        if text.strip(_NUMBER_CHARS[integral]):  # a character outside the set
            raise ValueError
        return int(text) if integral else float(text)
    except ValueError:
        raise ValueError(f"could not convert string to {'int' if integral else 'float'}: {text!r}") from None


def _not_utf8(data, exc):
    """The first byte that stopped ``data.decode("utf-8")`` with ``exc``, at its offset."""
    return f"not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start} ({exc.reason})"


def write_observations_csv(path, ts):
    """Write a training set's events as CSV, driver by driver, with
    stimulus names from its registry and numbers as ``repr`` writes them."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(OBSERVATION_CSV_HEADER)
    driver_id = [d for d, n in zip(ts.driver_ids, ts.counts.tolist()) for _ in range(n)]
    writer.writerows(zip(driver_id, map(ts.stimuli.names.__getitem__, ts.stimulus.tolist()),
                         map(repr, ts.headway_s.tolist()), map(repr, ts.brt_s.tolist())))
    atomic_write_text(path, buf.getvalue())


def atomic_write_text(path, text):
    """Write ``text`` as UTF-8, verbatim, via a temp file and rename, so
    readers never see a torn file. Every file the package writes goes
    through here.

    The temp file sits beside ``path`` under a fresh random name, with the
    mode ``open(path, "w")`` gives; a failed write or rename removes it and
    raises its OSError, naming ``path`` (not the temp file) if it has an errno.
    """
    target = Path(path)
    tmp = target.with_name(f"{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(text.encode("utf-8"))
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def field_name(path):
    """A field's path as messages name it, e.g. ``fit_info.loglik`` or ``beta_cov[3][1]``."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).removeprefix(".")


def json_number(doc, *path, integral=False):
    """The JSON number at ``path`` (keys and list indices) in ``doc``, as a
    float, or an int if ``integral``. A bool, a string or a fraction where
    an integer belongs is a ValueError naming the field; null, a list or an
    object is a TypeError, which ``read_json`` reports as the wrong shape."""
    value = doc
    for key in path:
        value = value[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        error = TypeError if value is None or isinstance(value, (list, dict)) else ValueError
        raise error(f"{field_name(path)} must be a number, got {value!r}")
    if integral and not (isinstance(value, int) or value.is_integer()):
        raise ValueError(f"{field_name(path)} must be an integer, got {value!r}")
    try:
        return int(value) if integral else float(value)
    except OverflowError:
        raise ValueError(f"{field_name(path)} must be finite") from None


def json_array(doc, *path, shape):
    """The JSON array at ``path`` in ``doc`` as a float ndarray of ``shape``:
    lists nested to exactly those lengths, whose entries ``json_number``
    accepts. A list of the wrong length is a ValueError naming the field
    and index; anything else where a list belongs is a TypeError, which
    ``read_json`` reports as the wrong shape."""
    return np.array(_checked_list(doc, path, json_list(doc, *path), shape), dtype=float)


def json_list(doc, *path):
    """The JSON list at ``path`` in ``doc``; anything else is a TypeError,
    which ``read_json`` reports as the wrong shape."""
    value = doc
    for key in path:
        value = value[key]
    if type(value) is not list:
        raise TypeError(f"{field_name(path)} must be a list, got {value!r}")
    return value


def _checked_list(doc, path, value, shape):
    if type(value) is not list:
        raise TypeError(f"{field_name(path)} must be a list, got {value!r}")
    if len(value) != shape[0]:
        raise ValueError(f"{field_name(path)} must have {shape[0]} entries, got {len(value)}")
    if len(shape) > 1:
        return [_checked_list(doc, (*path, i), row, shape[1:]) for i, row in enumerate(value)]
    return [v if type(v) is float else json_number(doc, *path, i) for i, v in enumerate(value)]


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
