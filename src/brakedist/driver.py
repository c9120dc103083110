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

from dataclasses import dataclass

import numpy as np

from .model import Observation, design, json_list, json_number, read_json
from .model import build_design  # the benchmark's tracer wraps it
from .numerics import NotPositiveDefinite, spd_solve  # spd_solve: the benchmark's tracer wraps it

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


def _check_driver(state, obs):
    if obs.driver_id != state.driver_id:
        raise DriverMismatch(
            f"observation for {obs.driver_id!r} added to state of {state.driver_id!r}")


def add_observation(state, obs):
    """Append an event to the driver's history.

    When the history exceeds the window, the oldest events are evicted
    first.

    Raises:
        DriverMismatch: if obs.driver_id differs from the state's.
    """
    _check_driver(state, obs)
    _keep_window(state, np.concatenate((state.stimulus, (obs.stimulus,))),
                 np.concatenate((state.headway_s, (obs.headway_s,))),
                 np.concatenate((state.brt_s, (obs.brt_s,))))
    return state


def reduced_solve(xtx, sigma_gamma, sigma2, rhs):
    """The push-through system M = sigma2 I + Sigma_gamma X'X and M^-T rhs.

    Batched over leading axes of ``xtx`` and ``rhs``. With rhs = [X'X | X'r]
    the solution is [X' V^-1 X | X' V^-1 r]. M's eigenvalues are >= sigma2
    and it needs no factor of Sigma_gamma, which may be singular.

    Raises:
        NotPositiveDefinite: if M is singular or the solution not finite.
    """
    m = sigma_gamma @ xtx + sigma2 * np.eye(xtx.shape[-1])
    try:
        W = np.linalg.solve(m.swapaxes(-1, -2), rhs)
        if not np.all(np.isfinite(W)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("reduced system is singular or not finite") from None
    return m, W


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
        # Every row's powers are finite (design), but the sums and
        # products below can still overflow at extreme headways.
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
        "observations": [{"driver_id": state.driver_id, "stimulus": registry.name_of(s),
                          "headway_s": t, "brt_s": b} for s, t, b in events],
    }


def state_from_dict(doc, registry):
    driver_id = doc["driver_id"]
    if not isinstance(driver_id, str):
        raise ValueError(f"driver_id must be a string, got {driver_id!r}")
    state = DriverState(driver_id=driver_id)
    stimulus, headway_s, brt_s = [], [], []
    for i, rec in enumerate(json_list(doc, "observations") if "observations" in doc else []):
        obs = Observation(
            driver_id=rec["driver_id"],
            stimulus=registry.id_of(rec["stimulus"]),
            headway_s=json_number(doc, "observations", i, "headway_s"),
            brt_s=json_number(doc, "observations", i, "brt_s"),
        )
        _check_driver(state, obs)
        stimulus.append(obs.stimulus)
        headway_s.append(obs.headway_s)
        brt_s.append(obs.brt_s)
    _keep_window(state, np.array(stimulus, dtype=np.intp), np.array(headway_s), np.array(brt_s))
    return state


def load_driver_state(path, registry):
    return read_json(path, lambda doc: state_from_dict(doc, registry), "state file")
