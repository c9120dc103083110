"""Lognormal potential-brake-response-time distribution at a reference
headway.

The reference headway ``t_star`` (default 1.5 s) is chosen small enough
that an intentional braking delay is implausible, so evaluating the
fitted mean there reads off the response time the driver could achieve.
The log response at ``t_star`` is Gaussian with mean
``w' (beta + gamma_hat)`` where ``w`` is the feature row of the queried
stimulus at ``t_star``. Two variances are offered: the naive residual
variance sigma2, and a conservative one that adds the quadratic form of
the prediction-error covariance at ``w`` to account for uncertainty in
the coefficient estimates.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

from .model import feature_row

SQRT2PI = math.sqrt(2.0 * math.pi)
_STANDARD_NORMAL = NormalDist()


class InvalidQuantile(ValueError):
    """Raised when a quantile level is outside the open interval (0, 1)."""


@dataclass(frozen=True)
class PbrtEstimate:
    """Lognormal parameters of the PBRT distribution at one headway."""

    mu: float
    var_naive: float
    var_conservative: float
    t_star: float
    stimulus: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu, self.var_naive, self.var_conservative))):
            raise ValueError(f"PBRT mean and variances at headway {self.t_star} must be finite, "
                             f"got mu={self.mu}, var_conservative={self.var_conservative}")
        if not self.var_naive > 0:
            raise ValueError("var_naive must be positive")
        if self.var_conservative < self.var_naive - 1e-10:
            raise ValueError("var_conservative may not fall below var_naive")


def estimate_pbrt(model, blup, stimulus, t_star=None):
    """PBRT distribution parameters for one driver and stimulus.

    Args:
        model: trained population model.
        blup: the driver's BlupResult (the zero-data result yields the
            population-level estimate exactly).
        stimulus: stimulus id to evaluate.
        t_star: reference headway; defaults to the model's.

    Raises:
        UnknownStimulus: for an id outside the registry.
        ValueError: if the mean or a variance is not finite (numpy warns
            first where its arithmetic overflowed).
    """
    if t_star is None:
        t_star = model.t_star
    w = feature_row(model.spec, stimulus, t_star)
    mu = float(w @ (model.beta + blup.gamma_hat))
    quad = float(w @ blup.pred_err_cov @ w)
    return PbrtEstimate(
        mu=mu,
        var_naive=float(model.sigma2),
        var_conservative=max(quad, 0.0) + float(model.sigma2),
        t_star=float(t_star),
        stimulus=int(stimulus),
    )


def norm_quantile(q):
    """Standard normal quantile (Wichura's AS 241, from ``NormalDist``).

    The range check is explicit because ``inv_cdf`` returns nan for nan.
    """
    if not 0.0 < q < 1.0:
        raise InvalidQuantile(f"quantile level must be in (0, 1), got {q}")
    return _STANDARD_NORMAL.inv_cdf(q)


def percentile(est, q, conservative=True):
    """Lognormal percentile in seconds.

    Returns ``exp(mu + z_q * sqrt(var))`` with the variance chosen by
    the flag.

    Raises:
        InvalidQuantile: unless 0 < q < 1.
        ValueError: if the percentile is too large for a float.
    """
    var = est.var_conservative if conservative else est.var_naive
    try:  # the argument is finite, as PbrtEstimate's fields are
        return math.exp(est.mu + norm_quantile(q) * math.sqrt(var))
    except OverflowError:
        raise ValueError(f"percentile at level {q:g} is too large for a float") from None


def lognormal_pdf(t, mu, var):
    sd = math.sqrt(var)
    z = (math.log(t) - mu) / sd
    return math.exp(-0.5 * z * z) / (t * sd * SQRT2PI)


def density_curve(est, conservative, grid):
    """Lognormal density sampled on a grid of positive times.

    Returns a list of (t, pdf) pairs in grid order.
    """
    var = est.var_conservative if conservative else est.var_naive
    points = []
    for t in grid:
        if not t > 0:
            raise ValueError(f"grid points must be positive, got {t}")
        points.append((float(t), lognormal_pdf(float(t), est.mu, var)))
    return points
