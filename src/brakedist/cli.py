"""Command-line pipeline: simulate, train, ingest events, query PBRTs.

Exit codes are fixed for scriptability: 0 success, 2 I/O failure,
3 validation failure, 4 training did not converge (the model file is
still written). Data goes to stdout, diagnostics to stderr.
"""

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import driver as driver_mod
from . import pbrt as pbrt_mod
from . import simgen, training
from .model import check_headway, parse_number, read_observations_csv, write_observations_csv
from .model import atomic_write_text as _atomic_write_text

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_NO_CONVERGENCE = 4


def cmd_simulate(args):
    if args.config is not None:
        config = simgen.load_config(args.config)
    else:
        config = simgen.default_config()
    if args.seed is not None:
        config.seed = args.seed
    ts, truth = simgen.generate(config)
    write_observations_csv(args.out, ts)
    simgen.write_ground_truth(truth, Path(args.out).with_suffix(".truth.json"))
    print(f"rows={ts.num_observations}")
    return EXIT_OK


def cmd_train(args):
    ts = read_observations_csv(args.data, args.degree)
    model = training.fit(ts, training.FitOptions(block_diagonal=args.block_diagonal))
    training.save_model(model, args.out)
    info = model.fit_info
    print(f"loglik={info.loglik!r} converged={info.converged}")
    return EXIT_OK if info.converged else EXIT_NO_CONVERGENCE


def _parse(option, field, text, integral=False):
    """``parse_number(text, integral)``, or a ValueError naming ``option``, ``field`` and ``text``."""
    try:
        return parse_number(text, integral)
    except ValueError:
        noun = "an integer" if integral else "a number"
        raise ValueError(f"{option} {field} must be {noun}, got {text!r}") from None


def _option_type(kind):
    """An argparse ``type`` that reads a ``kind`` (float or int) as ``parse_number``
    does; argparse's refusal names ``kind``, as it did for ``type=kind``."""
    read = functools.partial(parse_number, integral=kind is int)
    read.__name__ = kind.__name__
    return read


def _parse_event(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError('--event must be "stimulus,headway,brt"')
    return parts[0].strip(), _parse("--event", "headway", parts[1]), _parse("--event", "brt", parts[2])


def _load(args, fresh_id):
    """The model and the ``--state`` file's state, or a fresh state ``fresh_id`` without one."""
    model = training.load_model(args.model)
    if args.state is not None and Path(args.state).exists():
        return model, driver_mod.load_driver_state(args.state, model.stimuli)
    return model, driver_mod.DriverState(driver_id=fresh_id)


def cmd_update(args):
    model, state = _load(args, Path(args.state).stem)
    name, headway, brt = _parse_event(args.event)
    stim_id = model.stimuli.id_of(name)
    obs = driver_mod.Observation(state.driver_id, stim_id, headway, brt)
    driver_mod.add_observation(state, obs)
    blup = driver_mod.compute_blup(state, model)
    _atomic_write_text(args.state, json.dumps(driver_mod.state_to_dict(state, model.stimuli)) + "\n")
    norm = float(np.linalg.norm(blup.gamma_hat))
    print(f"n={state.n} gamma_norm={norm!r}")
    return EXIT_OK


def _load_estimate(args):
    """PBRT estimate for ``--stimulus``; the population's without a state file."""
    model, state = _load(args, "__no_data__")
    stim_id = model.stimuli.id_of(args.stimulus)
    blup = driver_mod.compute_blup(state, model)
    t_star = None if args.t_star is None else check_headway(args.t_star, "--t-star")
    # An overflow is reported once, as PbrtEstimate's error, without numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        return pbrt_mod.estimate_pbrt(model, blup, stim_id, t_star=t_star)


def cmd_pbrt(args):
    est = _load_estimate(args)
    levels = [_parse("--percentiles", "level", v) for v in args.percentiles.split(",") if v.strip()]
    if not levels or any(not 0.0 < q < 100.0 for q in levels):
        raise ValueError("percentile levels must lie in (0, 100)")
    # Every row is computed before any is printed, so a failure prints nothing.
    lines = ["q,percentile_naive,percentile_conservative" if args.conservative else "q,percentile_naive"]
    for q in levels:
        row = [f"{q:g}", repr(pbrt_mod.percentile(est, q / 100.0, conservative=False))]
        if args.conservative:
            row.append(repr(pbrt_mod.percentile(est, q / 100.0, conservative=True)))
        lines.append(",".join(row))
    print("\n".join(lines))
    return EXIT_OK


def cmd_curve(args):
    est = _load_estimate(args)
    parts = args.grid.split(",")
    if len(parts) != 3:
        raise ValueError('--grid must be "min,max,steps"')
    lo, hi = _parse("--grid", "min", parts[0]), _parse("--grid", "max", parts[1])
    steps = _parse("--grid", "steps", parts[2], integral=True)
    if not 0 < lo < hi < math.inf or steps < 2:
        raise ValueError("grid needs 0 < min < max < inf and steps >= 2")
    grid = np.linspace(lo, hi, steps)
    naive = pbrt_mod.density_curve(est, False, grid)
    cons = pbrt_mod.density_curve(est, True, grid)
    lines = ["t_seconds,pdf_naive,pdf_conservative"]
    for (t, f_n), (_, f_c) in zip(naive, cons):
        lines.append(f"{t!r},{f_n!r},{f_c!r}")
    _atomic_write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


@functools.cache
def build_parser():
    """The argparse tree, built once per process; parsing does not mutate it."""
    parser = argparse.ArgumentParser(
        prog="brakedist",
        description="Estimate per-driver brake response time distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic training study")
    p_sim.add_argument("--out", required=True, help="observation CSV output path")
    p_sim.add_argument("--config", default=None, help="sim config JSON (default: committed config)")
    p_sim.add_argument("--seed", type=_option_type(int), default=None, help="override the config seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_train = sub.add_parser("train", help="fit the population model from a CSV")
    p_train.add_argument("--data", required=True, help="observation CSV input path")
    p_train.add_argument("--out", required=True, help="model JSON output path")
    p_train.add_argument("--block-diagonal", action="store_true",
                         help="restrict the random-effect covariance to per-stimulus blocks")
    p_train.add_argument("--degree", type=_option_type(int), default=2)
    p_train.set_defaults(func=cmd_train)

    p_upd = sub.add_parser("update", help="append one event and refresh the driver state")
    p_upd.add_argument("--model", required=True)
    p_upd.add_argument("--state", required=True,
                       help="driver state JSON; created fresh (driver id = file stem) if absent")
    p_upd.add_argument("--event", required=True, help='"stimulus,headway,brt"')
    p_upd.set_defaults(func=cmd_update)

    p_pbrt = sub.add_parser("pbrt", help="print PBRT percentiles as CSV")
    p_pbrt.add_argument("--model", required=True)
    p_pbrt.add_argument("--state", default=None)
    p_pbrt.add_argument("--stimulus", required=True)
    p_pbrt.add_argument("--t-star", type=_option_type(float), default=None, dest="t_star")
    p_pbrt.add_argument("--percentiles", default="10,50,90")
    p_pbrt.add_argument("--conservative", action=argparse.BooleanOptionalAction, default=True)
    p_pbrt.set_defaults(func=cmd_pbrt)

    p_curve = sub.add_parser("curve", help="write PBRT density curves as CSV")
    p_curve.add_argument("--model", required=True)
    p_curve.add_argument("--state", default=None)
    p_curve.add_argument("--stimulus", required=True)
    p_curve.add_argument("--t-star", type=_option_type(float), default=None, dest="t_star")
    p_curve.add_argument("--grid", required=True, help='"min,max,steps"')
    p_curve.add_argument("--out", required=True)
    p_curve.set_defaults(func=cmd_curve)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
