"""Command-line interface.

Commands:
    figure <id|all>       write theory-curve CSVs (and optional gnuplot
                          scripts) to the output directory
    protocol run <file>   run a protocol JSON file, print a result summary
    selfcheck             run the oracle-equivalence grid

Exit codes: 0 success, 1 selfcheck tolerance breach, 2 configuration or
input error (including unreadable input files and unwritable output),
3 numerical/truncation failure.  The JUMPSQUEEZE_OUT
environment variable overrides the configured output directory; --out
overrides both.
"""

import argparse
import cmath
import functools
import json
import os
import sys
import time

from . import fock
from .bogoliubov import ln_u_plus_v, squeeze_params_from_pair
from .config import load_config
from .constants import MAX_FOCK_DIM, TWO_PI
from .errors import SCHEMA_VERSION, ConfigError, TruncationError
from .figures import FIGURE_IDS, build_spec, emit_csv, emit_plot_script, generate
from .protocol import check_amplitudes, load_protocol, run_fock
from .selfcheck import run_selfcheck
from .spectroscopy import sideband_populations

OUTPUT_DIR_ENV = "JUMPSQUEEZE_OUT"


def _output_dir(args, config):
    if args.out:
        return args.out
    return os.environ.get(OUTPUT_DIR_ENV) or config.output_dir


def cmd_figure(args, config):
    figure_ids = FIGURE_IDS if args.figure_id == "all" else (args.figure_id,)
    out_dir = _output_dir(args, config)
    # every table is built before any is written: a refused input writes none
    built = []
    for figure_id in figure_ids:
        started = time.perf_counter()
        table = generate(build_spec(figure_id, config.trap, config.rabi,
                                    config.figure_overrides.get(figure_id)))
        built.append((figure_id, table, time.perf_counter() - started))
    for figure_id, table, build_s in built:
        started = time.perf_counter()
        csv_path = os.path.join(out_dir, f"{figure_id}.csv")
        emit_csv(table, csv_path)
        if args.plot_script:
            emit_plot_script(table, csv_path,
                             os.path.join(out_dir, f"{figure_id}.gp"))
        runtime = build_s + time.perf_counter() - started
        first = next(iter(table.columns))
        diag = ", ".join(
            f"{k}={v:.6g}" for k, v in table.metadata.items()
            if isinstance(v, float) and k.startswith(
                ("envelope_baseline", "oscillation_period")))
        print(f"{figure_id}: {len(table.columns[first])} rows in "
              f"{runtime:.2f} s -> {csv_path}" + (f" ({diag})" if diag else ""))
    return 0


def cmd_protocol_run(args, config):
    protocol = load_protocol(args.protocol_file)
    check_amplitudes(protocol, config.trap)
    dim = config.fock_dim
    while True:
        # grow the basis per the tail-mass advisory, capped at MAX_FOCK_DIM,
        # rather than truncate; give up once a run at the cap has failed
        try:
            result = run_fock(protocol, config.trap,
                              fock.thermal_factor(config.nbar0, dim))
            break
        except TruncationError as exc:
            advised = min(exc.min_dim, MAX_FOCK_DIM)
            if advised <= dim:
                raise
            print(f"note: raising fock_dim {dim} -> {advised} "
                  f"({exc.base_message})", file=sys.stderr)
            dim = advised
    params = squeeze_params_from_pair(result.pair)
    dist = fock.factor_populations(result.final_factor)
    sideband = sideband_populations(dist, config.rabi)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "pair": {"u_re": result.pair.u.real, "u_im": result.pair.u.imag,
                 "v_re": result.pair.v.real, "v_im": result.pair.v.imag},
        "r_eff": params.r,
        "theta_rad": params.theta,
        "ln_u_plus_v": ln_u_plus_v(result.pair),
        "displacement_re": result.displacement.real,
        "displacement_im": result.displacement.imag,
        "displacement_abs": abs(result.displacement),
        "displacement_phase_rad": cmath.phase(result.displacement),
        "elapsed_s": result.elapsed,
        "final_omega_hz": result.final_omega / TWO_PI,
        "R": sideband.R,
        "fock_dim": dim,
        "initial_nbar0": config.nbar0,
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_selfcheck(args, config):
    results, passed = run_selfcheck(config)
    for result in results:
        print(result.line())
    print("selfcheck:", "all checks passed" if passed else "TOLERANCE BREACH")
    return 0 if passed else 1


@functools.lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built once per process: ``parse_args``
    leaves it unchanged and returns a fresh namespace per call."""
    parser = argparse.ArgumentParser(
        prog="jumpsqueeze",
        description="Frequency-jump squeezing simulator and figure toolkit")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON config file (defaults are built in)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides config and "
                             f"${OUTPUT_DIR_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="generate theory-curve CSV tables")
    fig.add_argument("figure_id", metavar="ID",
                     help=f"one of: all, {', '.join(FIGURE_IDS)}")
    fig.add_argument("--plot-script", action="store_true",
                     help="also write a gnuplot script per figure")
    fig.set_defaults(func=cmd_figure)

    proto = sub.add_parser("protocol", help="protocol operations")
    proto_sub = proto.add_subparsers(dest="subcommand", required=True)
    run = proto_sub.add_parser("run", help="run a protocol JSON file")
    run.add_argument("protocol_file", metavar="FILE")
    run.set_defaults(func=cmd_protocol_run)

    check = sub.add_parser("selfcheck",
                           help="run the oracle-equivalence grid")
    check.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:  # truncation, overflow
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
