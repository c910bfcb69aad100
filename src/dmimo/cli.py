"""Command-line interface: dataset generation, calibration, simulation.

    dmimo generate  --config cfg.yaml --out DIR
    dmimo calibrate --dataset DIR --out DIR [--config cfg.yaml]
    dmimo simulate  --config cfg.yaml --out DIR [--trials N] [--seed N]
                    [--workers N]

Exit codes: 0 success, 1 usage/config error (malformed values and invalid
geometry in a config included), 2 data error, 3 numerical failure (a
precoding, placement or run-time geometry error, a floating-point error,
or a ``numpy.linalg.LinAlgError``). All commands are deterministic given
their config (seeds included); repeated runs produce byte-identical
payload files. summary.json's ``config`` re-runs as a simulate config;
its ``noise_var`` is set over all ``config.trials`` trials.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError

from . import calibration, configio, csidata
from .errors import (
    ConfigError,
    DataError,
    GeometryError,
    PlacementError,
    PrecodingError,
)
from .scenarios import ScenarioSummary, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

RESULTS_CSV_HEADER = "trial,user,precoder,sinr_db,nmse"


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dmimo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="write a synthetic CSI dataset")
    gen.add_argument("--config", required=True, help="generation config (YAML)")
    gen.add_argument("--out", required=True, help="output dataset directory")

    cal = sub.add_parser("calibrate", help="estimate and apply phase offsets")
    cal.add_argument("--dataset", required=True, help="input dataset directory")
    cal.add_argument("--out", required=True, help="output directory")
    cal.add_argument(
        "--config",
        default=None,
        help="optional geometry config overriding the dataset manifest",
    )

    sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    sim.add_argument("--config", required=True, help="scenario config (YAML)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--trials", type=int, default=None, help="override trial count")
    sim.add_argument("--seed", type=int, default=None, help="override RNG seed")
    sim.add_argument("--workers", type=int, default=None, help="override worker count")
    return parser


def cmd_generate(config_path: str, out_dir: str) -> int:
    geometry, grid_spec, params, tx_count, offsets_seed = configio.parse_generate_config(
        config_path
    )
    grid, manifest, table = csidata.generate_synthetic_dataset(
        geometry, grid_spec, params, tx_count=tx_count, offsets_seed=offsets_seed
    )
    out = Path(out_dir)
    csidata.write_dataset(grid, manifest, out)
    if table is not None:
        table.to_csv(out / "offsets_true.csv")
        print(f"injected hardware offsets (ground truth in {out / 'offsets_true.csv'})")
    gm, gn = grid.grid_shape
    print(
        f"wrote dataset to {out}: {tx_count} tx x {manifest.rx_count} rx over "
        f"{gm}x{gn} grid positions"
    )
    return EXIT_OK


def cmd_calibrate(dataset_dir: str, out_dir: str, config_path: str | None = None) -> int:
    grid, manifest = csidata.read_dataset(dataset_dir)
    rx_positions = manifest.rx_positions
    wavelength = manifest.wavelength
    if config_path is not None:
        geometry = configio.parse_calibrate_config(config_path)
        if geometry.num_antennas != manifest.rx_count:
            raise ConfigError(
                f"geometry override has {geometry.num_antennas} antennas, "
                f"dataset has {manifest.rx_count}"
            )
        rx_positions = geometry.antenna_positions
        wavelength = geometry.wavelength
    table = calibration.estimate_phase_offsets(grid, rx_positions, wavelength)
    # Nothing else holds the measured grid, so it is calibrated in place:
    # the measured and calibrated CSI never both exist.
    table.rotate(grid.csi, out=grid.csi)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(out / "offsets.csv")
    csidata.write_dataset(grid, manifest, out)
    residual = calibration.mean_phase_residual(grid, rx_positions, wavelength)
    print(f"wrote offset table to {out / 'offsets.csv'} and calibrated dataset to {out}")
    print(f"mean residual phase error vs LoS: {residual:.3e} rad")
    return EXIT_OK


def summary_document(summary: ScenarioSummary) -> dict:
    """Self-describing JSON document for one scenario run."""
    return {
        "schema_version": configio.SCHEMA_VERSION,
        "noise_var": summary.noise_var,
        "mean_user_gain": summary.mean_user_gain,
        "mean_entry_gain": summary.mean_entry_gain,
        "sigma_grid": summary.sigma_grid,
        "config": configio.config_document(summary.config),
        "precoders": [
            {
                "precoder": s.precoder,
                "sigma_e2": s.sigma_e2,
                "mean_nmse": s.mean_nmse,
                "n_trials": s.n_trials,
                "n_failed_trials": s.n_failed_trials,
                "failure_rate": s.failure_rate,
                "n_samples": s.n_samples,
                "median_db": s.median_db,
                "guaranteed_90_db": s.guaranteed_90_db,
                "cdf": None
                if s.cdf_values is None
                else {"sinr_db": s.cdf_values.tolist(), "probability": s.cdf_probs.tolist()},
            }
            for s in summary.stats
        ],
    }


def write_results_csv(summary: ScenarioSummary, path) -> None:
    """Per-trial rows: trial,user,precoder,sinr_db,nmse (failures omitted).

    Rows run by trial, then error-grid point, precoder and user; the
    nmse field is empty under perfect CSI.
    """
    names = [spec.name for spec in summary.config.precoders]
    failed = np.not_equal(summary.failures, None).tolist()
    nmse = summary.nmse.tolist()
    with open(path, "w") as fh:
        fh.write(RESULTS_CSV_HEADER + "\n")
        for t, trial in enumerate(summary.sinr_db.tolist()):
            for s, row in enumerate(trial):
                tail = "" if summary.sigma_grid is None else repr(nmse[t][s])
                for name, sinr, bad in zip(names, row, failed[t][s]):
                    if not bad:
                        fh.write(
                            "".join(
                                f"{t},{user},{name},{value!r},{tail}\n"
                                for user, value in enumerate(sinr)
                            )
                        )


def cmd_simulate(
    config_path: str,
    out_dir: str,
    trials: int | None = None,
    seed: int | None = None,
    workers: int | None = None,
) -> int:
    config = configio.parse_simulate_config(config_path)
    config = configio.override(config, trials=trials, seed=seed, workers=workers)

    summary = run_scenario(config)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv(summary, out / "results.csv")
    with open(out / "summary.json", "w") as fh:
        json.dump(summary_document(summary), fh, indent=1)
        fh.write("\n")

    print(
        f"noise_var = {summary.noise_var:.6e} "
        f"({config.noise_floor_db:+.1f} dB vs mean received power "
        f"over {config.trials} trials)"
    )
    for s in summary.stats:
        sig = "" if s.sigma_e2 is None else f" sigma_e2={s.sigma_e2:.3e}"
        med = "n/a" if s.median_db is None else f"{s.median_db:7.2f} dB"
        p10 = "n/a" if s.guaranteed_90_db is None else f"{s.guaranteed_90_db:7.2f} dB"
        print(
            f"{s.precoder:>12}{sig}: median {med}, 90%-guaranteed {p10}, "
            f"failures {s.failure_rate:.1%}"
        )
    print(f"wrote {out / 'results.csv'} and {out / 'summary.json'}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_CONFIG
    try:
        if args.command == "generate":
            return cmd_generate(args.config, args.out)
        if args.command == "calibrate":
            return cmd_calibrate(args.dataset, args.out, args.config)
        return cmd_simulate(
            args.config, args.out, args.trials, args.seed, args.workers
        )
    except ConfigError as exc:
        print(f"dmimo: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"dmimo: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (
        PrecodingError, PlacementError, GeometryError, FloatingPointError, LinAlgError
    ) as exc:
        print(f"dmimo: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
