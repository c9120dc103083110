"""Independent reference computations for the test suite.

Kept out of the package: nothing in ``brakedist`` calls them. (Not named
``oracles``: the benchmark's ``perfbench/oracles.py`` is imported by that
name in the same test session.)
"""

import math

import numpy as np

from brakedist.driver import DEFAULT_MAX_HISTORY, DriverMismatch, DriverState
from brakedist.model import Observation, build_design, json_list, json_number
from brakedist.numerics import spd_solve


def henderson_oracle(state, model):
    """Independent prediction of the driver offsets via the mixed-model
    normal equations.

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


def trust_step_oracle(g, H, radius):
    """Minimizer of g's + s'Hs / 2 over |s| <= radius and its predicted
    gain, with the boundary found by 60 bisections on mu = shift +
    lambda_min in H's eigenbasis.

    Where g has no part along the eigenvector of a negative lambda_min (the
    hard case), or the bisection ends with |s| off the radius, that
    eigenvector's part of s is set to put s on the boundary.
    """
    curv, basis = np.linalg.eigh(H)
    coef = basis.T @ g

    def shifted(mu):  # s in the eigenbasis; a part of g that is 0 stays 0
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(coef == 0.0, 0.0, -coef / (curv - curv[0] + mu))

    z = shifted(curv[0])  # the Newton step, if H is positive definite and it fits
    if curv[0] <= 0 or np.linalg.norm(z) > radius:
        lo = max(curv[0], 0.0)
        hi = lo + np.linalg.norm(g) / radius  # |s| <= |g| / mu <= radius
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.linalg.norm(shifted(mid)) > radius else (lo, mid)
        z = shifted(hi)
        if curv[0] < 0 and abs(np.linalg.norm(z) - radius) > 1e-13 * radius:
            z[0] = -math.copysign(math.sqrt(max(radius**2 - z[1:] @ z[1:], 0.0)), coef[0])
    return basis @ z, -(coef @ z + 0.5 * curv @ z**2)


def state_columns_oracle(doc, registry):
    """A state file document's driver id, window and newest-window columns
    (stimulus ids, headways, responses), read one record at a time as an
    ``Observation``: the first bad record raises the error it raises there,
    with the record's name, ``observations[i]``, in front of it.
    """
    driver_id = doc["driver_id"]
    if not isinstance(driver_id, str):
        raise ValueError(f"driver_id must be a string, got {driver_id!r}")
    max_history = DEFAULT_MAX_HISTORY
    if "max_history" in doc:
        max_history = json_number(doc, "max_history", integral=True)
    DriverState(driver_id=driver_id, max_history=max_history)  # checks the window
    rows = []
    for i, rec in enumerate(json_list(doc, "observations") if "observations" in doc else []):
        where = f"observations[{i}]"
        if not isinstance(rec, dict):
            raise TypeError(f"{where} must be an object, got {rec!r}")
        for key in ("driver_id", "stimulus"):
            if key not in rec:
                raise KeyError(f"{where}.{key}")
        try:
            stimulus = registry.id_of(rec["stimulus"])
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"{where}: {exc}") from None
        numbers = []
        for key in ("headway_s", "brt_s"):
            if key not in rec:
                raise KeyError(f"{where}.{key}")
            numbers.append(json_number(doc, "observations", i, key))  # names the field itself
        try:
            obs = Observation(rec["driver_id"], stimulus, *numbers)
            if obs.driver_id != driver_id:
                raise DriverMismatch(f"observation for {obs.driver_id!r} added to state of {driver_id!r}")
        except ValueError as exc:
            raise type(exc)(f"{where}: {exc}") from None
        rows.append(obs)
    rows = rows[len(rows) - min(len(rows), max_history):]
    return (driver_id, max_history, np.array([o.stimulus for o in rows], dtype=np.intp),
            np.array([o.headway_s for o in rows], dtype=float),
            np.array([o.brt_s for o in rows], dtype=float))
