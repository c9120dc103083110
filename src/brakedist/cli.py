"""Command-line pipeline: simulate, train, ingest events, query PBRTs.

Exit codes are fixed for scriptability: 0 success, 2 I/O failure,
3 validation failure, 4 training did not converge (the model file is
still written). Data goes to stdout, diagnostics to stderr.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import driver as driver_mod
from . import pbrt as pbrt_mod
from . import simgen, training
from .model import ModelSpec, read_observations_csv, write_observations_csv
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
    observations = [o for obs in ts.drivers.values() for o in obs]
    write_observations_csv(args.out, observations, config.stimuli)
    simgen.write_ground_truth(truth, Path(args.out).with_suffix(".truth.json"))
    print(f"rows={len(observations)}")
    return EXIT_OK


def cmd_train(args):
    registry, observations = read_observations_csv(args.data)
    ts = training.TrainingSet.from_observations(
        spec=ModelSpec(num_stimuli=len(registry), degree=args.degree),
        stimuli=registry,
        observations=observations,
    )
    opts = training.FitOptions(
        restarts=args.restarts,
        seed=args.seed,
        block_diagonal=args.block_diagonal,
    )
    model = training.fit(ts, opts)
    training.save_model(model, args.out)
    info = model.fit_info
    print(f"loglik={info.loglik!r} converged={info.converged}")
    return EXIT_OK if info.converged else EXIT_NO_CONVERGENCE


def _parse_event(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError('event must be "stimulus,headway,brt"')
    name = parts[0].strip()
    return name, float(parts[1]), float(parts[2])


def cmd_update(args):
    model = training.load_model(args.model)
    state_path = Path(args.state)
    if state_path.exists():
        state = driver_mod.load_driver_state(state_path, model.stimuli)
    else:
        state = driver_mod.DriverState(driver_id=state_path.stem)
    name, headway, brt = _parse_event(args.event)
    stim_id = model.stimuli.id_of(name)
    obs = driver_mod.Observation(state.driver_id, stim_id, headway, brt)
    driver_mod.add_observation(state, obs)
    blup = driver_mod.compute_blup(state, model)
    doc = driver_mod.state_to_dict(state, model.stimuli)
    _atomic_write_text(state_path, json.dumps(doc, indent=2) + "\n")
    norm = float(np.linalg.norm(blup.gamma_hat))
    print(f"n={state.n} gamma_norm={norm!r}")
    return EXIT_OK


def _load_estimate(args):
    """PBRT estimate for ``--stimulus``; the population's without a state file."""
    model = training.load_model(args.model)
    stim_id = model.stimuli.id_of(args.stimulus)
    if args.state is not None and Path(args.state).exists():
        state = driver_mod.load_driver_state(args.state, model.stimuli)
    else:
        state = driver_mod.DriverState(driver_id="__no_data__")
    blup = driver_mod.compute_blup(state, model)
    return pbrt_mod.estimate_pbrt(model, blup, stim_id, t_star=args.t_star)


def cmd_pbrt(args):
    est = _load_estimate(args)
    levels = [float(v) for v in args.percentiles.split(",") if v.strip()]
    if not levels or any(not 0.0 < q < 100.0 for q in levels):
        raise ValueError("percentile levels must lie in (0, 100)")
    if args.conservative:
        print("q,percentile_naive,percentile_conservative")
    else:
        print("q,percentile_naive")
    for q in levels:
        naive = pbrt_mod.percentile(est, q / 100.0, conservative=False)
        if args.conservative:
            cons = pbrt_mod.percentile(est, q / 100.0, conservative=True)
            print(f"{q:g},{naive!r},{cons!r}")
        else:
            print(f"{q:g},{naive!r}")
    return EXIT_OK


def cmd_curve(args):
    est = _load_estimate(args)
    parts = args.grid.split(",")
    if len(parts) != 3:
        raise ValueError('grid must be "min,max,steps"')
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if not 0 < lo < hi or steps < 2:
        raise ValueError("grid needs 0 < min < max and steps >= 2")
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
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_train = sub.add_parser("train", help="fit the population model from a CSV")
    p_train.add_argument("--data", required=True, help="observation CSV input path")
    p_train.add_argument("--out", required=True, help="model JSON output path")
    p_train.add_argument("--restarts", type=int, default=3)
    p_train.add_argument("--block-diagonal", action="store_true",
                         help="restrict the random-effect covariance to per-stimulus blocks")
    p_train.add_argument("--seed", type=int, default=42)
    p_train.add_argument("--degree", type=int, default=2)
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
    p_pbrt.add_argument("--t-star", type=float, default=None, dest="t_star")
    p_pbrt.add_argument("--percentiles", default="10,50,90")
    p_pbrt.add_argument("--conservative", action=argparse.BooleanOptionalAction, default=True)
    p_pbrt.set_defaults(func=cmd_pbrt)

    p_curve = sub.add_parser("curve", help="write PBRT density curves as CSV")
    p_curve.add_argument("--model", required=True)
    p_curve.add_argument("--state", default=None)
    p_curve.add_argument("--stimulus", required=True)
    p_curve.add_argument("--t-star", type=float, default=None, dest="t_star")
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
    except KeyError as exc:
        # A malformed input document (missing key) is a validation failure.
        print(f"error: missing field {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
