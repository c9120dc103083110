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

from dataclasses import dataclass, field

import numpy as np

from .model import Observation, build_design, read_json
from .numerics import NotPositiveDefinite, spd_solve

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
    """One driver's accumulated event window.

    Single writer: callers must serialize add_observation on the same
    state; compute_blup only reads it. Distinct drivers are independent.
    """

    driver_id: str
    observations: list = field(default_factory=list)
    max_history: int = DEFAULT_MAX_HISTORY
    # Always None; not a field. Kept only because the benchmark's tracer
    # reads it to report a cache-hit share.
    cached = None

    @property
    def n(self):
        return len(self.observations)


def add_observation(state, obs):
    """Append an event to the driver's history.

    When the history exceeds the window, the oldest events are evicted
    first.

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
        NotPositiveDefinite: if that system is singular or not finite.
    """
    p = model.spec.p
    sg = model.sigma_gamma
    if state.n == 0:
        return BlupResult(gamma_hat=np.zeros(p), pred_err_cov=sg.copy())

    X, y = build_design(model.spec, state.observations)
    resid = y - X @ model.beta
    xtx = X.T @ X
    # W = [X' V^-1 X | X' V^-1 r | M^-T].
    eye = np.eye(p)
    try:
        _, W = reduced_solve(xtx, sg, model.sigma2, np.column_stack([xtx, X.T @ resid, eye]))
    except NotPositiveDefinite:
        raise NotPositiveDefinite(f"marginal covariance of driver {state.driver_id!r}'s "
                                  f"{state.n} events is singular or not finite") from None
    gamma_hat = sg @ W[:, p]

    info = W[:, :p]  # X' V^-1 X
    sg_info = sg @ (0.5 * (info + info.T))

    # Sigma_gamma - Sigma_gamma info Sigma_gamma = sigma2 Sigma_gamma M^-T, and
    # the beta_cov terms regroup as A beta_cov A': a sum of PSD terms.
    a = eye - sg_info
    pred_err = model.sigma2 * (sg @ W[:, p + 1:]) + a @ model.beta_cov @ a.T
    return BlupResult(gamma_hat=gamma_hat, pred_err_cov=0.5 * (pred_err + pred_err.T))


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


def load_driver_state(path, registry):
    return read_json(path, lambda doc: state_from_dict(doc, registry), "state file")
