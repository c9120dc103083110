"""Reference computations the benchmark checks brakedist's outputs against.

Everything here is written against numpy and the standard library
only, on paths that differ from the package's own: designs are built
column by column, the population fixed effects come from a dense GLS
solve per driver, and driver offsets from Henderson's mixed-model
equations, which never form the n x n marginal covariance.
"""

import math
from statistics import NormalDist

import numpy as np

Z90 = NormalDist().inv_cdf(0.9)

# -loglik reached by the train workload's fit at the commit that introduced
# this benchmark: the default study with FitOptions(block_diagonal=True),
# and the smoke size's 10-driver study with its shorter search. A later
# fit may end lower, never higher than this plus NEG_LOGLIK_SLACK.
RECORDED_NEG_LOGLIK = {"full": 397.21544677218117, "smoke": 20.590147745476486}
NEG_LOGLIK_SLACK = 1e-6

HENDERSON_RTOL = 1e-8


def design(spec, stimuli, headways):
    """(n, p) design: block ``s`` of row i holds headway_i ** k, k = 0..degree."""
    stimuli = np.asarray(stimuli, dtype=int)
    headways = np.asarray(headways, dtype=float)
    width = spec.degree + 1
    X = np.zeros((stimuli.size, spec.p))
    for k in range(width):
        X[np.arange(stimuli.size), stimuli * width + k] = headways**k
    return X


def design_of(spec, observations):
    X = design(spec, [o.stimulus for o in observations], [o.headway_s for o in observations])
    y = np.log(np.array([o.brt_s for o in observations], dtype=float))
    return X, y


def dense_gls(spec, drivers, sigma2, sigma_gamma):
    """GLS fixed effects and their covariance under known variance
    parameters, one dense V_d = X_d Sg X_d' + s2 I solve per driver."""
    p = spec.p
    info = np.zeros((p, p))
    score = np.zeros(p)
    for observations in drivers.values():
        X, y = design_of(spec, observations)
        V = X @ sigma_gamma @ X.T + sigma2 * np.eye(X.shape[0])
        W = np.linalg.solve(V, np.column_stack([X, y]))
        info += X.T @ W[:, :p]
        score += X.T @ W[:, p]
    info = 0.5 * (info + info.T)
    beta_cov = np.linalg.inv(info)
    beta_cov = 0.5 * (beta_cov + beta_cov.T)
    return beta_cov @ score, beta_cov


def henderson_gamma(model, observations):
    """Driver offsets from Henderson's mixed-model equations,

        (X'X / s2 + Sg^-1) g = X'r / s2,

    rewritten as g = Sg (X'X Sg / s2 + I)^-1 X'r / s2 so that Sg need
    not be inverted."""
    X, y = design_of(model.spec, observations)
    r = y - X @ model.beta
    sg = model.sigma_gamma
    lhs = (X.T @ X) @ sg / model.sigma2 + np.eye(model.spec.p)
    return sg @ np.linalg.solve(lhs, X.T @ r / model.sigma2)


def relative_error(got, want):
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def true_p90_ms(spec, beta, gamma, sigma2, stimulus, t_star):
    """The driver's true 90th-percentile response at ``t_star`` in ms."""
    w = design(spec, [stimulus], [t_star])[0]
    return 1000.0 * math.exp(float(w @ (beta + gamma)) + Z90 * math.sqrt(sigma2))


# Acceptance criterion 3's tolerances on a fit of the default study. The
# criterion also holds the Sg diagonal to 25%, for the full-covariance fit;
# the block-diagonal fit benchmarked here drops the study's cross-stimulus
# covariances and misses that by up to 0.362 at the commit that introduced
# this benchmark, so the diagonal error is reported, not gated.
RECOVERY_TOLERANCE = {"sigma2": 0.10, "beta": 0.05}


def recovery_errors(model, config):
    """Largest relative errors of the fitted sigma2, nonzero betas and Sg
    diagonal against the generating values."""
    nz = config.beta_true != 0
    truth = np.diag(config.sigma_gamma_true)
    return {
        "sigma2": abs(model.sigma2 - config.sigma2_true) / config.sigma2_true,
        "beta": float(np.max(np.abs((model.beta[nz] - config.beta_true[nz]) / config.beta_true[nz]))),
        "sigma_gamma_diag": float(np.max(np.abs(np.diag(model.sigma_gamma) - truth) / truth)),
    }


def pbrt_stdout(percentiles):
    """What ``brakedist pbrt`` prints for the default levels 10,50,90,
    given ``(q, naive, conservative)`` triples."""
    lines = ["q,percentile_naive,percentile_conservative"]
    lines += [f"{q:g},{naive!r},{cons!r}" for q, naive, cons in percentiles]
    return "\n".join(lines) + "\n"
