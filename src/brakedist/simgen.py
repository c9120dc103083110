"""Synthetic training-study generator.

Stands in for a driving-simulator data collection: draws per-driver
coefficient offsets from a population covariance, samples headways
uniformly per stimulus type, and emits observed response times
``brt = exp(X beta + X gamma_d + eps)``. Each driver draws one block of
uniforms from a counter-based PRNG (Philox) keyed by (seed, driver index):
[headways | Box-Muller pairs for gamma_d | pairs for the noise], u1 = 1 - U,
with any redraw after all of them. So any driver can be regenerated alone,
many drivers' blocks are transformed at once without changing a bit, and
the whole dataset is bit-reproducible for a given config.

The committed default config is the canonical fixture for the test
suite; its parameter values were tuned once so that the generated data
look like published headway/response-time scatter (right-skewed,
increasing with headway) while keeping every population parameter
recoverable from a D=200 study.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .model import (MAX_BRT_S, MAX_HEADWAY_S, ModelSpec, StimulusRegistry, TrainingSet, _integers,
                    atomic_write_text, check_covariance, design, json_array, json_list, json_number, read_json)
from .numerics import is_psd  # the benchmark's tracer wraps it

DEFAULT_STIMULI = ("traffic_signal", "lead_car_brake", "pedestrian_crossing")
REDRAW_ROUNDS = 100  # of a response's noise, while the response exceeds MAX_BRT_S
_BLOCK_EVENTS = 1 << 10  # events transformed at once; at p = 9 a block's design stays under malloc's mmap threshold


@dataclass(eq=False)
class SimConfig:
    """Generating parameters for a synthetic training study."""

    spec: ModelSpec
    stimuli: StimulusRegistry
    beta_true: np.ndarray
    sigma2_true: float
    sigma_gamma_true: np.ndarray
    num_drivers: int
    obs_per_driver: tuple
    headway_range: tuple
    seed: int

    def __post_init__(self):
        for name in ("beta_true", "sigma2_true", "headway_range"):
            if not np.all(np.isfinite(np.asarray(getattr(self, name), dtype=float))):
                raise ValueError(f"{name} must be finite")
        self.beta_true = np.asarray(self.beta_true, dtype=float)
        p = self.spec.p
        if len(self.stimuli) != self.spec.num_stimuli:
            raise ValueError("registry size does not match spec.num_stimuli")
        if self.beta_true.shape != (p,):
            raise ValueError(f"beta_true must have shape ({p},)")
        self.sigma_gamma_true = check_covariance("sigma_gamma_true", self.sigma_gamma_true, p, 1e-10)
        # Zero noise is allowed here (degenerate but useful for exactness
        # checks); training is what requires a strictly positive sigma2.
        if self.sigma2_true < 0:
            raise ValueError("sigma2_true must be nonnegative")
        self.num_drivers = int(_integers(self.num_drivers, "num_drivers"))
        if self.num_drivers < 1:
            raise ValueError("num_drivers must be >= 1")
        self.obs_per_driver = tuple(_integers(self.obs_per_driver, "obs_per_driver").tolist())
        if len(self.obs_per_driver) != self.spec.num_stimuli:
            raise ValueError("obs_per_driver needs one count per stimulus")
        if any(c < 0 for c in self.obs_per_driver):
            raise ValueError("observation counts must be >= 0")
        if not any(self.obs_per_driver):
            raise ValueError("obs_per_driver needs at least one positive count")
        if len(self.headway_range) != 2:
            raise ValueError("headway_range must be [min, max]")
        lo, hi = self.headway_range
        if not 0 < lo < hi <= MAX_HEADWAY_S:
            raise ValueError(f"headway_range must satisfy 0 < min < max <= {MAX_HEADWAY_S}")
        self.headway_range = (float(lo), float(hi))
        self.seed = int(self.seed if isinstance(self.seed, (int, np.integer)) else _integers(self.seed, "seed"))


# Committed default study parameters. Drivers differ mostly in level
# (intercept s.d. 0.14 on the log scale) with correlated levels across
# stimulus types, smaller slope offsets, and a slight curvature offset
# that partially cancels the slope at long headways. The mean response
# rises from ~0.5 s at minimal headway to ~0.7 s at 1.5 s and keeps
# rising through 6 s. Values are the canonical test fixture; the
# recovery tolerances in the acceptance suite were validated against
# exactly this configuration.
_VAR_INTERCEPT = 0.02
_VAR_SLOPE = 0.005
_VAR_CURV = 1.65e-4
_CORR_CROSS_INTERCEPT = 0.3   # same-driver levels move together across stimuli
_CORR_INT_SLOPE = 0.07
_CORR_SLOPE_CURV = -0.29      # fast risers flatten out sooner
_CORR_INT_CURV = 0.26
_MEAN_BRT_AT_REF = (0.705, 0.705, 0.71)   # seconds at a 1.5 s headway
_BETA_CURV = (-0.035, -0.038, -0.038)
_SLOPE_MARGIN = (0.013, 0.013, 0.021)     # keeps d(mean)/dt > 0 through 6 s


def default_config():
    """Committed default study: S=3 stimulus types, quadratic headway model,
    200 drivers with 10 observations per stimulus type."""
    spec = ModelSpec(num_stimuli=3, degree=2)
    sg = np.zeros((9, 9))
    sd_i, sd_s, sd_c = math.sqrt(_VAR_INTERCEPT), math.sqrt(_VAR_SLOPE), math.sqrt(_VAR_CURV)
    for s in range(3):
        b = 3 * s
        sg[b, b] = _VAR_INTERCEPT
        sg[b + 1, b + 1] = _VAR_SLOPE
        sg[b + 2, b + 2] = _VAR_CURV
        sg[b, b + 1] = sg[b + 1, b] = _CORR_INT_SLOPE * sd_i * sd_s
        sg[b + 1, b + 2] = sg[b + 2, b + 1] = _CORR_SLOPE_CURV * sd_s * sd_c
        sg[b, b + 2] = sg[b + 2, b] = _CORR_INT_CURV * sd_i * sd_c
    for s1 in range(3):
        for s2 in range(3):
            if s1 != s2:
                sg[3 * s1, 3 * s2] = _CORR_CROSS_INTERCEPT * _VAR_INTERCEPT
    sigma2 = 0.04
    beta = np.zeros(9)
    w15 = np.array([1.0, 1.5, 2.25])
    for s in range(3):
        b2 = _BETA_CURV[s]
        b1 = -12.0 * b2 + _SLOPE_MARGIN[s]  # positive derivative up to t = 6
        blk = sg[3 * s : 3 * s + 3, 3 * s : 3 * s + 3]
        var15 = float(w15 @ blk @ w15) + sigma2
        mu15 = math.log(_MEAN_BRT_AT_REF[s]) - 0.5 * var15
        beta[3 * s : 3 * s + 3] = (mu15 - 1.5 * b1 - 2.25 * b2, b1, b2)
    return SimConfig(
        spec=spec,
        stimuli=StimulusRegistry(DEFAULT_STIMULI),
        beta_true=beta,
        sigma2_true=sigma2,
        sigma_gamma_true=sg,
        num_drivers=200,
        obs_per_driver=(10, 10, 10),
        headway_range=(0.31, 8.1),
        seed=42,
    )


def _psd_sqrt(sg):
    """Lower-triangular square root; eigendecomposition when singular."""
    try:
        return np.linalg.cholesky(sg)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(sg)
        return eigvecs * np.sqrt(np.maximum(eigvals, 0.0))


def _driver_rng(seed, driver_index):
    ss = np.random.SeedSequence((seed % (1 << 64), driver_index))
    return np.random.Generator(np.random.Philox(ss))


def _box_muller(u1, u2):
    """Normals from uniform pairs, u1 in (0, 1] and u2 in [0, 1), each pair's two interleaved on the last axis."""
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(u1.shape[:-1] + (2 * u1.shape[-1],))
    z[..., 0::2] = radius * np.cos(2.0 * np.pi * u2)
    z[..., 1::2] = radius * np.sin(2.0 * np.pi * u2)
    return z


def _standard_normals(rng, count):
    """Box-Muller transform of ``rng``'s next uniforms: every pair's u1 = 1 - U, then every pair's u2."""
    u = rng.random(2 * ((count + 1) // 2))
    return _box_muller(1.0 - u[: u.size // 2], u[u.size // 2 :])[:count]


def generate(config):
    """Draw a full synthetic training set plus its ground truth.

    Driver d takes its uniforms, laid out as above, in one call on its stream
    ``_driver_rng(seed, d)``; each run of pairs holds every u1, then every u2.
    ``gamma_d`` is the PSD square root of the population covariance times the
    first p normals; ``brt = exp(x'(beta + gamma_d) + eps)``, ``eps ~ N(0, sigma2)``,
    and the noise of a response above MAX_BRT_S is drawn again, after all else.
    ``_BLOCK_EVENTS`` events are transformed at once; block ends change no value.

    Returns:
        (training_set, truth): the training set's columns are the drivers'
        draws end to end, driver by driver, with no per-event object
        built; truth maps driver_id to its drawn gamma vector.

    Raises:
        ValueError: naming the driver and stimulus, if a response is still above
            MAX_BRT_S after REDRAW_ROUNDS redraws (the config is unphysical).
    """
    spec, num_drivers = config.spec, config.num_drivers
    root, sigma = _psd_sqrt(config.sigma_gamma_true), math.sqrt(config.sigma2_true)
    lo, hi = config.headway_range
    width = len(str(max(num_drivers - 1, 1)))
    ids = [f"driver_{d:0{width}d}" for d in range(num_drivers)]
    stimulus = np.repeat(np.arange(spec.num_stimuli), config.obs_per_driver)
    n, g, e = stimulus.size, (spec.p + 1) // 2, (stimulus.size + 1) // 2  # events, gamma's pairs, the noise's
    u1_at = np.r_[n : n + g, n + 2 * g : n + 2 * g + e]  # gamma's u1s, then the noise's, in a driver's block
    per_block = max(1, _BLOCK_EVENTS // n)
    headway_s, brt_s, truth = np.empty((num_drivers, n)), np.empty((num_drivers, n)), {}
    for first in range(0, num_drivers, per_block):
        headway, brt = headway_s[first : first + per_block], brt_s[first : first + per_block]  # views, filled in place
        rngs = [_driver_rng(config.seed, d) for d in range(first, first + len(brt))]
        u = np.array([rng.random(n + 2 * g + 2 * e) for rng in rngs])
        z = _box_muller(1.0 - u[:, u1_at], u[:, u1_at + np.repeat((g, e), (g, e))])
        headway[:] = lo + (hi - lo) * u[:, :n]
        X = design(spec, np.tile(stimulus, len(rngs)), headway.ravel()).reshape(len(rngs), n, spec.p)
        gammas = [root @ z_d for z_d in z[:, : spec.p]]  # per driver: batched products change the last bits
        truth.update(zip(ids[first : first + len(rngs)], gammas))
        mean_log = np.array([X_d @ (config.beta_true + gamma) for X_d, gamma in zip(X, gammas)])
        np.exp(mean_log + sigma * z[:, 2 * g : 2 * g + n], out=brt)
        for i in np.flatnonzero((brt > MAX_BRT_S).any(axis=1)):  # from the driver's stream, after all else
            for redraw in range(REDRAW_ROUNDS + 1):
                over = (brt[i] > MAX_BRT_S).nonzero()[0]
                if not over.size:
                    break
                if redraw == REDRAW_ROUNDS:
                    name = config.stimuli.names[stimulus[over[0]]]
                    raise ValueError(f"driver {ids[first + i]!r}, stimulus {name!r}: response still exceeds "
                                     f"{MAX_BRT_S} s after {REDRAW_ROUNDS} redraws of its noise")
                brt[i, over] = np.exp(mean_log[i, over] + sigma * _standard_normals(rngs[i], over.size))
    ts = TrainingSet(spec, config.stimuli, tuple(ids), np.full(num_drivers, n), np.tile(stimulus, num_drivers),
                     headway_s.ravel(), brt_s.ravel())
    return ts, truth


def config_to_dict(config):
    return {
        "num_stimuli": config.spec.num_stimuli,
        "degree": config.spec.degree,
        "stimuli": list(config.stimuli.names),
        "beta_true": config.beta_true.tolist(),
        "sigma2_true": float(config.sigma2_true),
        "sigma_gamma_true": config.sigma_gamma_true.tolist(),
        "num_drivers": int(config.num_drivers),
        "obs_per_driver": list(config.obs_per_driver),
        "headway_range": list(config.headway_range),
        "seed": int(config.seed),
    }


def config_from_dict(doc):
    spec = ModelSpec(num_stimuli=json_number(doc, "num_stimuli", integral=True),
                     degree=json_number(doc, "degree", integral=True))
    counts = doc["obs_per_driver"]
    if isinstance(counts, list):
        counts = [json_number(doc, "obs_per_driver", i, integral=True) for i in range(len(counts))]
    else:
        counts = [json_number(doc, "obs_per_driver", integral=True)] * spec.num_stimuli
    bounds = json_list(doc, "headway_range")
    return SimConfig(
        spec=spec,
        stimuli=StimulusRegistry(json_list(doc, "stimuli")),
        beta_true=json_array(doc, "beta_true", shape=(spec.p,)),
        sigma2_true=json_number(doc, "sigma2_true"),
        sigma_gamma_true=json_array(doc, "sigma_gamma_true", shape=(spec.p, spec.p)),
        num_drivers=json_number(doc, "num_drivers", integral=True),
        obs_per_driver=counts,
        headway_range=tuple(json_number(doc, "headway_range", i) for i in range(len(bounds))),
        seed=json_number(doc, "seed", integral=True),
    )


def load_config(path):
    return read_json(path, config_from_dict, "config file")


def write_ground_truth(truth, path):
    """Sidecar JSON mapping driver_id to its generating gamma vector."""
    atomic_write_text(path, json.dumps({k: v.tolist() for k, v in truth.items()}, indent=2) + "\n")
