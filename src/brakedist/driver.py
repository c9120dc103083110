"""Per-driver state and real-time individual-effect prediction.

Given population parameters and one driver's accumulated events, the
driver's coefficient offsets are predicted by empirical-Bayes shrinkage:

    gamma_hat = Sigma_gamma @ X' @ V^-1 @ (y - X beta),
    V = X @ Sigma_gamma @ X' + sigma2 * I,

together with the covariance of the predictor and the prediction-error
covariance of (beta_hat + gamma_hat) - (beta + gamma), which feeds the
conservative variance downstream. The push-through identity V^-1 X = X M^-1,
M = sigma2 I + Sigma_gamma X'X, gives X' V^-1 [X | r] and M^-T by one p x p
solve, so no n x n matrix is formed. It also makes the prediction-error
covariance a sum of PSD terms, sigma2 Sigma_gamma M^-T + A beta_cov A' with
A = I - Sigma_gamma X' V^-1 X, so nothing cancels and nothing is clipped.
Each event invalidates the cached result; the next query rebuilds X'X from
the windowed history, so no running sums are kept.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .model import Observation, build_design
from .numerics import NotPositiveDefinite, spd_solve

DEFAULT_MAX_HISTORY = 500


class DriverMismatch(ValueError):
    """Raised when an observation's driver id does not match the state."""


@dataclass(eq=False)
class BlupResult:
    """Predicted individual offsets with their uncertainty.

    ``gamma_hat_cov`` estimates Cov of the predictor itself;
    ``pred_err_cov`` estimates Cov((beta_hat + gamma_hat) - (beta + gamma)).
    """

    gamma_hat: np.ndarray
    gamma_hat_cov: np.ndarray
    pred_err_cov: np.ndarray


@dataclass(eq=False)
class DriverState:
    """One driver's accumulated events plus a cached prediction.

    Single writer: callers must serialize add_observation/compute_blup
    on the same state. Distinct drivers are independent.
    """

    driver_id: str
    observations: list = field(default_factory=list)
    max_history: int = DEFAULT_MAX_HISTORY
    cached: BlupResult | None = None
    cached_model: object = field(default=None, repr=False)  # the model ``cached`` is for

    @property
    def n(self):
        return len(self.observations)


def add_observation(state, obs):
    """Append an event to the driver's history.

    Invalidates any cached prediction. When the history exceeds the
    window, the oldest events are evicted first.

    Raises:
        DriverMismatch: if obs.driver_id differs from the state's.
    """
    if obs.driver_id != state.driver_id:
        raise DriverMismatch(
            f"observation for {obs.driver_id!r} added to state of {state.driver_id!r}"
        )
    state.observations.append(obs)
    if len(state.observations) > state.max_history:
        del state.observations[: len(state.observations) - state.max_history]
    state.cached = None
    return state


def compute_blup(state, model):
    """Predict the driver's coefficient offsets from the current history.

    With no data the prediction is the zero vector: the individual's
    estimated mean equals the population mean, the predictor covariance
    is zero, and the individual-effect uncertainty is Sigma_gamma itself
    (no numerical work is performed). With data, the plug-in formulas
    use the population estimates as-is; the population is never refit.
    All three come from one LU solve of M' against [X'X | X'r | I], and the
    prediction-error covariance is PSD by construction (module docstring).

    The result is cached on the state and reused, for the same model
    object, until the next event.

    Raises:
        NotPositiveDefinite: if that system is singular or not finite.
    """
    if state.cached is not None and state.cached_model is model:
        return state.cached

    p = model.spec.p
    sg = model.sigma_gamma
    if state.n == 0:
        result = BlupResult(
            gamma_hat=np.zeros(p),
            gamma_hat_cov=np.zeros((p, p)),
            pred_err_cov=sg.copy(),
        )
        state.cached, state.cached_model = result, model
        return result

    X, y = build_design(model.spec, state.observations)
    resid = y - X @ model.beta
    xtx = X.T @ X
    # M^-T [X'X | X'r | I] = [X' V^-1 X | X' V^-1 r | M^-T]. M's eigenvalues
    # are >= sigma2 and it needs no factor of Sigma_gamma, which may be singular.
    eye = np.eye(p)
    m = sg @ xtx + model.sigma2 * eye
    try:
        W = np.linalg.solve(m.T, np.column_stack([xtx, X.T @ resid, eye]))
        if not np.all(np.isfinite(W)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"marginal covariance of driver {state.driver_id!r}'s "
                                  f"{state.n} events is singular or not finite") from None
    gamma_hat = sg @ W[:, p]

    info = W[:, :p]  # X' V^-1 X
    info = 0.5 * (info + info.T)
    sg_info = sg @ info
    gamma_hat_cov = sg_info @ sg - sg_info @ model.beta_cov @ sg_info.T
    gamma_hat_cov = 0.5 * (gamma_hat_cov + gamma_hat_cov.T)

    # Sigma_gamma - Sigma_gamma info Sigma_gamma = sigma2 Sigma_gamma M^-T, and
    # the beta_cov terms regroup as A beta_cov A': a sum of PSD terms.
    a = eye - sg_info
    pred_err = model.sigma2 * (sg @ W[:, p + 1:]) + a @ model.beta_cov @ a.T
    pred_err = 0.5 * (pred_err + pred_err.T)

    result = BlupResult(gamma_hat=gamma_hat, gamma_hat_cov=gamma_hat_cov, pred_err_cov=pred_err)
    state.cached, state.cached_model = result, model
    return result


def henderson_oracle(state, model):
    """Independent prediction of the driver offsets via the mixed-model
    normal equations; test and diagnostic use only.

    Solves ``(X'X / sigma2 + Sigma_gamma^-1) gamma = X' r / sigma2``
    restricted to the range space of Sigma_gamma (the pseudo-inverse
    convention) by Cholesky in the eigenbasis of that range; compute_blup
    never inverts Sigma_gamma and solves sigma2 I + X'X Sigma_gamma by LU.

    Requires at least one observation.
    """
    if state.n == 0:
        raise ValueError("henderson_oracle requires at least one observation")
    X, y = build_design(model.spec, state.observations)
    resid = y - X @ model.beta
    sg = model.sigma_gamma

    eigvals, eigvecs = np.linalg.eigh(sg)
    cutoff = sg.shape[0] * max(float(eigvals[-1]), 0.0) * 1e-12
    keep = eigvals > cutoff
    if not np.any(keep):
        return np.zeros(model.spec.p)
    basis = eigvecs[:, keep]
    lam = eigvals[keep]

    Xb = X @ basis
    lhs = Xb.T @ Xb / model.sigma2 + np.diag(1.0 / lam)
    rhs = Xb.T @ resid / model.sigma2
    w = spd_solve(0.5 * (lhs + lhs.T), rhs)
    return basis @ w


def state_to_dict(state, registry):
    """JSON-ready dict for a driver state file."""
    return {
        "driver_id": state.driver_id,
        "observations": [
            {
                "driver_id": o.driver_id,
                "stimulus": registry.name_of(o.stimulus),
                "headway_s": o.headway_s,
                "brt_s": o.brt_s,
            }
            for o in state.observations
        ],
    }


def state_from_dict(doc, registry):
    state = DriverState(driver_id=doc["driver_id"])
    for rec in doc.get("observations", []):
        obs = Observation(
            driver_id=rec["driver_id"],
            stimulus=registry.id_of(rec["stimulus"]),
            headway_s=float(rec["headway_s"]),
            brt_s=float(rec["brt_s"]),
        )
        add_observation(state, obs)
    return state


def save_driver_state(state, registry, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(state, registry), fh, indent=2)
        fh.write("\n")


def load_driver_state(path, registry):
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_dict(json.load(fh), registry)
