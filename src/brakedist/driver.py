"""Per-driver state and real-time individual-effect prediction.

Given population parameters and one driver's accumulated events, the
driver's coefficient offsets are predicted by empirical-Bayes shrinkage:

    gamma_hat = Sigma_gamma @ X' @ V^-1 @ (y - X beta),
    V = X @ Sigma_gamma @ X' + sigma2 * I,

together with the prediction-error covariance of
(beta_hat + gamma_hat) - (beta + gamma), which feeds the conservative
variance downstream. The push-through identity V^-1 X = X M^-1,
M = sigma2 I + Sigma_gamma X'X, gives X' V^-1 [X | r] and M^-T by one p x p
solve (``reduced_solve``), so no n x n matrix is formed. It also makes the
prediction-error covariance a sum of PSD terms, sigma2 Sigma_gamma M^-T +
A beta_cov A' with A = I - Sigma_gamma X' V^-1 X, so nothing cancels and
nothing is clipped.
Every query rebuilds X'X from the windowed history: no running sums and
no prediction are kept, so ``compute_blup`` only reads the state.
"""

from dataclasses import dataclass

import numpy as np

from .model import (Observation, UnknownStimulus, check_brt, check_headway, design, json_array, json_list,
                    json_number, read_json, refuse_outside_domain)
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
            W = reduced_solve(xtx, sg, model.sigma2, np.column_stack([xtx, X.T @ resid, eye]))
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
    """JSON-ready dict for a driver state file: the header and the window's columns."""
    return {"driver_id": state.driver_id, "max_history": state.max_history,
            "stimulus": list(map(registry.name_of, state.stimulus.tolist())),
            "headway_s": state.headway_s.tolist(), "brt_s": state.brt_s.tolist()}


def state_from_dict(doc, registry):
    """The state a state file's document holds, its columns all absent for no events. A refusal names the entry:
    header, ``observations`` (the older layout, refused), shape, stimulus, headway_s, brt_s, type before domain."""
    driver_id = doc["driver_id"]
    if not isinstance(driver_id, str):
        raise ValueError(f"driver_id must be a string, got {driver_id!r}")
    state = DriverState(driver_id, json_number(doc, "max_history", integral=True) if "max_history" in doc
                        else DEFAULT_MAX_HISTORY)
    if "observations" in doc:  # the older layout is refused, never read as an empty window that drops its events
        raise TypeError("observations: records are no longer read; a state file holds stimulus, headway_s and brt_s")
    keys = ("stimulus", "headway_s", "brt_s")  # the window, oldest event first
    if not doc.keys() & keys:
        return state
    names, *_ = columns = [json_list(doc, key) for key in keys]
    if len(set(map(len, columns))) > 1:
        raise ValueError(f"stimulus, headway_s and brt_s must have equal lengths, got {[*map(len, columns)]}")
    for i, name in enumerate(names):
        if type(name) is not str:
            raise ValueError(f"stimulus[{i}] must be a string, got {name!r}")
        if name not in registry.names:
            raise UnknownStimulus(f"stimulus[{i}]: unknown stimulus name {name!r}")
    headway_s = json_array(doc, "headway_s", shape=(len(names),))
    refuse_outside_domain(lambda i: check_headway(headway_s[i], f"headway_s[{i}]"), False, headway_s)
    brt_s = json_array(doc, "brt_s", shape=(len(names),))
    refuse_outside_domain(lambda i: check_brt(brt_s[i], f"brt_s[{i}]"), False, brt_s=brt_s)
    _keep_window(state, np.array(list(map(registry.id_of, names)), np.intp), headway_s, brt_s)
    return state


def load_driver_state(path, registry):
    return read_json(path, lambda doc: state_from_dict(doc, registry), "state file")
