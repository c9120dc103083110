"""Independent reference computations for the test suite.

Kept out of the package: nothing in ``brakedist`` calls them. (Not named
``oracles``: the benchmark's ``perfbench/oracles.py`` is imported by that
name in the same test session.)
"""

import math

import numpy as np

from brakedist.driver import DEFAULT_MAX_HISTORY, DriverState
from brakedist.model import (MAX_BRT_S, TrainingSet, UnknownStimulus, build_design, check_brt, check_headway, design,
                             json_number)
from brakedist.numerics import spd_solve
from brakedist.simgen import REDRAW_ROUNDS, _driver_rng, _psd_sqrt


def grouped(spec, stimuli, drivers):
    """The training set of ``drivers``, a dict of each driver's observation list."""
    events = [o for obs in drivers.values() for o in obs]
    keys = ("driver_id", "stimulus", "headway_s", "brt_s")
    return TrainingSet.from_rows(spec, stimuli, *([getattr(o, key) for o in events] for key in keys))


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
    (stimulus ids, headways, responses), read one entry at a time.

    The document holds the ``stimulus``, ``headway_s`` and ``brt_s`` lists
    (all absent: no events). Checks run in the documented order: the
    header; no ``observations`` key (the older record layout, refused as
    the wrong shape); the shape (each column a list, the lengths equal);
    every stimulus name; then every headway's type, then every headway's
    domain, then the same for every response. A refusal names its entry,
    e.g. ``headway_s[1]``.
    """
    driver_id = doc["driver_id"]
    if not isinstance(driver_id, str):
        raise ValueError(f"driver_id must be a string, got {driver_id!r}")
    max_history = DEFAULT_MAX_HISTORY
    if "max_history" in doc:
        max_history = json_number(doc, "max_history", integral=True)
    DriverState(driver_id=driver_id, max_history=max_history)  # checks the window
    if "observations" in doc:
        raise TypeError("observations: records are no longer read; a state file holds stimulus, headway_s and brt_s")
    keys = ("stimulus", "headway_s", "brt_s")
    lengths, has_columns = [], any(key in doc for key in keys)
    for key in keys:
        if has_columns:
            if key not in doc:
                raise KeyError(key)
            if not isinstance(doc[key], list):
                raise TypeError(f"{key} must be a list, got {doc[key]!r}")
            lengths.append(len(doc[key]))
        else:
            lengths.append(0)
    if min(lengths) != max(lengths):
        raise ValueError(f"stimulus, headway_s and brt_s must have equal lengths, got {lengths}")
    n = lengths[0]

    rows = []
    for i in range(n):
        stimulus = doc["stimulus"][i]
        if not isinstance(stimulus, str):
            raise ValueError(f"stimulus[{i}] must be a string, got {stimulus!r}")
        if stimulus not in registry.names:
            raise UnknownStimulus(f"stimulus[{i}]: unknown stimulus name {stimulus!r}")
        rows.append([registry.names.index(stimulus)])
    for key, check in (("headway_s", check_headway), ("brt_s", check_brt)):
        values = [json_number(doc, key, i) for i in range(n)]  # names the entry itself
        for i, value in enumerate(values):
            rows[i].append(check(value, f"{key}[{i}]"))
    rows = rows[len(rows) - min(len(rows), max_history):]
    return (driver_id, max_history, np.array([r[0] for r in rows], dtype=np.intp),
            np.array([r[1] for r in rows], dtype=float), np.array([r[2] for r in rows], dtype=float))


def _standard_normals(rng, count):
    """Box-Muller transform of uniform pairs; deterministic given rng state."""
    pairs = (count + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # in (0, 1]: keeps the log finite
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(2.0 * np.pi * u2)
    z[1::2] = radius * np.sin(2.0 * np.pi * u2)
    return z[:count]


def first_draws(config, d):
    """Driver ``d``'s stream and its draws before any redraw, one call on the
    stream per part in the stream's order (headways, gamma's normals, the
    noise's normals): (rng, stimulus, headway, gamma, mean_log, brt)."""
    rng = _driver_rng(config.seed, d)
    stimulus = np.repeat(np.arange(config.spec.num_stimuli), config.obs_per_driver)
    lo, hi = config.headway_range
    headway = lo + (hi - lo) * rng.random(stimulus.size)
    gamma = _psd_sqrt(config.sigma_gamma_true) @ _standard_normals(rng, config.spec.p)
    mean_log = design(config.spec, stimulus, headway) @ (config.beta_true + gamma)
    brt = np.exp(mean_log + math.sqrt(config.sigma2_true) * _standard_normals(rng, stimulus.size))
    return rng, stimulus, headway, gamma, mean_log, brt


def generate_oracle(config):
    """``simgen.generate`` one driver at a time: each driver's draws, then its
    redraws, before the next driver's; the same (training_set, truth) and the
    same refusal."""
    sigma = math.sqrt(config.sigma2_true)
    width = len(str(max(config.num_drivers - 1, 1)))
    headways, brts, truth = [], [], {}
    for d in range(config.num_drivers):
        rng, stimulus, headway, gamma, mean_log, brt = first_draws(config, d)
        driver_id = f"driver_{d:0{width}d}"
        for redraw in range(REDRAW_ROUNDS + 1):
            over = (brt > MAX_BRT_S).nonzero()[0]
            if not over.size:
                break
            if redraw == REDRAW_ROUNDS:
                name = config.stimuli.names[stimulus[over[0]]]
                raise ValueError(f"driver {driver_id!r}, stimulus {name!r}: response still exceeds "
                                 f"{MAX_BRT_S} s after {REDRAW_ROUNDS} redraws of its noise")
            brt[over] = np.exp(mean_log[over] + sigma * _standard_normals(rng, over.size))
        headways.append(headway)
        brts.append(brt)
        truth[driver_id] = gamma
    ts = TrainingSet(config.spec, config.stimuli, tuple(truth), np.full(config.num_drivers, stimulus.size),
                     np.tile(stimulus, config.num_drivers), np.concatenate(headways), np.concatenate(brts))
    return ts, truth
