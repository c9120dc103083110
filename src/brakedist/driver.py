"""Per-driver state and real-time individual-effect prediction.

Given population parameters and one driver's accumulated events, the
driver's coefficient offsets are predicted by empirical-Bayes shrinkage:

    gamma_hat = Sigma_gamma @ X' @ V^-1 @ (y - X beta),
    V = X @ Sigma_gamma @ X' + sigma2 * I,

together with the prediction-error covariance of
(beta_hat + gamma_hat) - (beta + gamma), which feeds the conservative
variance downstream. The push-through identity V^-1 X = X M^-1,
M = sigma2 I + Sigma_gamma X'X, gives X' V^-1 [X | r] and M^-T by one p x p
solve (``reduced_solve``), so no n x n matrix is formed; training evaluates
its likelihood with the same solve, batched over drivers. It also makes the
prediction-error covariance a sum of PSD terms, sigma2 Sigma_gamma M^-T +
A beta_cov A' with A = I - Sigma_gamma X' V^-1 X, so nothing cancels and
nothing is clipped.
Every query rebuilds X'X from the windowed history: no running sums and
no prediction are kept, so ``compute_blup`` only reads the state.
"""

import json
from dataclasses import dataclass

import numpy as np

from .model import MAX_BRT_S, MAX_HEADWAY_S, Observation, design, json_list, json_number, read_json
from .model import build_design  # the benchmark's tracer wraps it
from .numerics import NotPositiveDefinite, reduced_solve
from .numerics import spd_solve  # the benchmark's tracer wraps it

DEFAULT_MAX_HISTORY = 500


class DriverMismatch(ValueError):
    """Raised when an observation's driver id does not match the state."""


@dataclass(eq=False)
class BlupResult:
    """Predicted individual offsets with their uncertainty.

    ``pred_err_cov`` estimates Cov((beta_hat + gamma_hat) - (beta + gamma)).
    """

    gamma_hat: np.ndarray
    pred_err_cov: np.ndarray


@dataclass(eq=False)
class DriverState:
    """One driver's accumulated event window, oldest event first.

    The window is three read-only columns of equal length, which
    ``compute_blup`` builds its design from: ``stimulus`` (intp ids),
    ``headway_s`` and ``brt_s``. ``observations`` is a list of
    ``Observation`` derived from them on each read, for the benchmark's
    Henderson check and the tests; no serving path reads it.

    Single writer: callers must serialize add_observation on the same
    state; compute_blup only reads it. Distinct drivers are independent.

    Raises:
        ValueError: if max_history is not an integer >= 1.
    """

    driver_id: str
    max_history: int = DEFAULT_MAX_HISTORY
    # Always None; not a field. Kept only because the benchmark's tracer
    # reads it to report a cache-hit share.
    cached = None

    def __post_init__(self):
        limit = self.max_history
        if isinstance(limit, bool) or not isinstance(limit, (int, np.integer)) or limit < 1:
            raise ValueError(f"max_history must be an integer >= 1, got {limit!r}")
        _keep_window(self, np.empty(0, np.intp), np.empty(0), np.empty(0))

    @property
    def n(self):
        return self.brt_s.size

    @property
    def observations(self):
        return [Observation(self.driver_id, s, t, b) for s, t, b in
                zip(self.stimulus.tolist(), self.headway_s.tolist(), self.brt_s.tolist())]


def _keep_window(state, stimulus, headway_s, brt_s):
    """Hold the last ``max_history`` entries of each column, read-only."""
    keep = -state.max_history
    state.stimulus, state.headway_s, state.brt_s = stimulus[keep:], headway_s[keep:], brt_s[keep:]
    for column in (state.stimulus, state.headway_s, state.brt_s):
        column.flags.writeable = False


def add_observation(state, obs):
    """Append an event to the driver's history.

    When the history exceeds the window, the oldest events are evicted
    first.

    Raises:
        DriverMismatch: if obs.driver_id differs from the state's.
    """
    if obs.driver_id != state.driver_id:
        raise DriverMismatch(f"observation for {obs.driver_id!r} added to state of {state.driver_id!r}")
    _keep_window(state, np.concatenate((state.stimulus, (obs.stimulus,))),
                 np.concatenate((state.headway_s, (obs.headway_s,))),
                 np.concatenate((state.brt_s, (obs.brt_s,))))
    return state


def compute_blup(state, model):
    """Predict the driver's coefficient offsets from the current history.

    With no data the prediction is the zero vector: the individual's
    estimated mean equals the population mean and the individual-effect
    uncertainty is Sigma_gamma itself (no numerical work is performed).
    With data, the plug-in formulas use the population estimates as-is;
    the population is never refit. Both come from one LU solve of M'
    against [X'X | X'r | I], and the prediction-error covariance is PSD
    by construction (module docstring).

    A pure function of the state's event window and the model: nothing is
    cached, and the state is not written.

    Raises:
        NotPositiveDefinite: if that system is singular, or it or the
            prediction is not finite.
    """
    p = model.spec.p
    sg = model.sigma_gamma
    if state.n == 0:
        return BlupResult(gamma_hat=np.zeros(p), pred_err_cov=sg.copy())

    X, y = design(model.spec, state.stimulus, state.headway_s), np.log(state.brt_s)
    eye = np.eye(p)
    try:
        # X'X is finite over the headway domain, but a model file's
        # Sigma_gamma or beta can still make the products below overflow.
        with np.errstate(over="raise", invalid="raise"):
            resid = y - X @ model.beta
            xtx = X.T @ X
            # W = [X' V^-1 X | X' V^-1 r | M^-T].
            _, W = reduced_solve(xtx, sg, model.sigma2, np.column_stack([xtx, X.T @ resid, eye]))
            gamma_hat = sg @ W[:, p]

            info = W[:, :p]  # X' V^-1 X
            sg_info = sg @ (0.5 * (info + info.T))

            # Sigma_gamma - Sigma_gamma info Sigma_gamma = sigma2 Sigma_gamma M^-T, and
            # the beta_cov terms regroup as A beta_cov A': a sum of PSD terms.
            a = eye - sg_info
            pred_err = model.sigma2 * (sg @ W[:, p + 1:]) + a @ model.beta_cov @ a.T
            pred_err = 0.5 * (pred_err + pred_err.T)
    except (NotPositiveDefinite, FloatingPointError):
        raise NotPositiveDefinite(f"marginal covariance of driver {state.driver_id!r}'s "
                                  f"{state.n} events is singular or not finite") from None
    return BlupResult(gamma_hat=gamma_hat, pred_err_cov=pred_err)


def state_to_dict(state, registry):
    """JSON-ready dict for a driver state file."""
    events = zip(state.stimulus.tolist(), state.headway_s.tolist(), state.brt_s.tolist())
    return {
        "driver_id": state.driver_id,
        "max_history": state.max_history,
        "observations": [{"driver_id": state.driver_id, "stimulus": registry.name_of(s),
                          "headway_s": t, "brt_s": b} for s, t, b in events],
    }


# A state file's record, as json.dumps(..., indent=2) lays out state_to_dict's.
_RECORD = ('    {\n      "driver_id": %s,\n      "stimulus": %s,\n'
           '      "headway_s": %r,\n      "brt_s": %r\n    }')


def state_text(doc):
    """``json.dumps(doc, indent=2) + "\\n"`` for a ``state_to_dict`` document, byte for byte,
    without the pure-Python encoder ``indent`` selects: strings via json.dumps, numbers via repr."""
    records = doc["observations"]
    quoted = {s: json.dumps(s) for s in {r["driver_id"] for r in records} | {r["stimulus"] for r in records}}
    body = ",\n".join([_RECORD % (quoted[r["driver_id"]], quoted[r["stimulus"]], r["headway_s"], r["brt_s"])
                       for r in records])
    return '{\n  "driver_id": %s,\n  "max_history": %r,\n  "observations": %s\n}\n' % (
        json.dumps(doc["driver_id"]), doc["max_history"], f"[\n{body}\n  ]" if records else "[]")


def state_from_dict(doc, registry):
    """The state a state file's document holds, its records read once each in file
    order. The first bad record raises its refusal, naming the record."""
    driver_id = doc["driver_id"]
    if not isinstance(driver_id, str):
        raise ValueError(f"driver_id must be a string, got {driver_id!r}")
    state = DriverState(driver_id, json_number(doc, "max_history", integral=True) if "max_history" in doc
                        else DEFAULT_MAX_HISTORY)
    id_of, stimulus, headway_s, brt_s = registry.id_of, [], [], []
    for i, rec in enumerate(json_list(doc, "observations") if "observations" in doc else []):
        try:  # the KeyError clause names a field missing from any read below
            try:
                owner, s, t = rec["driver_id"], id_of(rec["stimulus"]), rec["headway_s"]
            except (TypeError, ValueError) as exc:  # not an object, or an unhashable or unknown stimulus name
                if type(rec) is not dict:
                    raise TypeError(f"observations[{i}] must be an object, got {rec!r}") from None
                raise type(exc)(f"observations[{i}]: {exc}") from None
            b = rec.get("brt_s")
            if type(t) is not float or type(b) is not float:  # json_number reads an integer, refuses the rest
                t, b = (json_number(doc, "observations", i, key) for key in ("headway_s", "brt_s"))
        except KeyError as exc:
            raise KeyError(f"observations[{i}].{exc.args[0]}") from None
        if not (owner == driver_id and 0 < t <= MAX_HEADWAY_S and 0 < b <= MAX_BRT_S):
            try:
                add_observation(DriverState(driver_id), Observation(owner, s, t, b))  # raises its refusal
            except ValueError as exc:
                raise type(exc)(f"observations[{i}]: {exc}") from None
        stimulus.append(s)
        headway_s.append(t)
        brt_s.append(b)
    _keep_window(state, np.fromiter(stimulus, np.intp), np.fromiter(headway_s, float), np.fromiter(brt_s, float))
    return state


def load_driver_state(path, registry):
    return read_json(path, lambda doc: state_from_dict(doc, registry), "state file")
