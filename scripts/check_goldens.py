#!/usr/bin/env python3
"""Check the six bundled experiments at full size against goldens/.

    python scripts/check_goldens.py [--write]

Runs every bundled simulate config at its own trial count (2000) and
compares the result with ``goldens/<config>.json``: per config the noise
variance (within ``REL_TOL`` relative), per (precoder, sigma) the failed
trial and sample counts (exactly), median and 90%-guaranteed SINR
(within ``SINR_TOL_DB``) and the mean realized NMSE (within ``REL_TOL``
relative). It also asserts what the config headers claim. Each config
runs at its own ``workers``. ``--write`` regenerates the goldens instead
of checking them; a golden is regenerated only for a stated cause,
never to absorb unexplained drift. Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dmimo.configio import parse_simulate_config  # noqa: E402
from dmimo.scenarios import run_scenario  # noqa: E402

CONFIGS = (
    "full_coordination_k5",
    "distributed_k5",
    "distributed_k10",
    "estimation_error_sweep_k5",
    "estimation_error_sweep_k10",
    "clustering_k10",
)
GOLDENS = ROOT / "goldens"

#: Absolute tolerance (dB) on median and 90%-guaranteed SINR.
SINR_TOL_DB = 1e-6
#: Relative tolerance on the noise variance and the mean NMSE.
REL_TOL = 1e-9

STAT_FIELDS = ("n_failed_trials", "n_samples", "median_db", "guaranteed_90_db", "mean_nmse")


def golden(name: str) -> dict:
    config = parse_simulate_config(ROOT / "configs" / f"{name}.yaml")
    summary = run_scenario(config)
    return {
        "config": name,
        "trials": config.trials,
        "seed": config.rng_seed,
        "noise_var": summary.noise_var,
        "stats": [
            {"precoder": s.precoder, "sigma_e2": s.sigma_e2}
            | {f: getattr(s, f) for f in STAT_FIELDS}
            for s in summary.stats
        ],
    }


def _close(got, ref, abs_tol=0.0, rel_tol=0.0) -> bool:
    if got is None or ref is None:
        return got is None and ref is None
    return math.isclose(got, ref, abs_tol=abs_tol, rel_tol=rel_tol)


def compare(got: dict, ref: dict) -> list[str]:
    """Mismatches between a run and its golden."""
    if (got["trials"], got["seed"]) != (ref["trials"], ref["seed"]):
        return [f"trials/seed {got['trials']}/{got['seed']} != golden {ref['trials']}/{ref['seed']}"]
    errors = []
    if not _close(got["noise_var"], ref["noise_var"], rel_tol=REL_TOL):
        errors.append(f"noise_var {got['noise_var']!r} != golden {ref['noise_var']!r}")
    if len(got["stats"]) != len(ref["stats"]):
        return errors + ["(precoder, sigma) rows differ from the golden"]
    for g, r in zip(got["stats"], ref["stats"]):
        label = f"{r['precoder']} sigma={r['sigma_e2']}"
        if g["precoder"] != r["precoder"] or not _close(g["sigma_e2"], r["sigma_e2"], rel_tol=REL_TOL):
            errors.append(f"{label}: row order or sigma differs from the golden")
            continue
        for f in ("n_failed_trials", "n_samples"):
            if g[f] != r[f]:
                errors.append(f"{label}: {f} {g[f]} != golden {r[f]}")
        for f in ("median_db", "guaranteed_90_db"):
            if not _close(g[f], r[f], abs_tol=SINR_TOL_DB):
                errors.append(f"{label}: {f} {g[f]!r} != golden {r[f]!r}")
        if not _close(g["mean_nmse"], r["mean_nmse"], rel_tol=REL_TOL):
            errors.append(f"{label}: mean_nmse {g['mean_nmse']!r} != golden {r['mean_nmse']!r}")
    return errors


def header_claims(results: dict) -> list[str]:
    """What the config headers state about these runs."""
    errors = []
    run = results.get("distributed_k10")
    if run is not None:
        rows = [s for s in run["stats"] if s["precoder"] == "dis_zf"]
        if not rows or any(s["n_failed_trials"] != run["trials"] for s in rows):
            errors.append("distributed_k10: dis_zf does not fail on every trial")
    run = results.get("estimation_error_sweep_k10")
    if run is not None:
        rows = [s for s in run["stats"] if s["precoder"] == "nf_nf"]
        flat = {(s["n_failed_trials"], s["median_db"], s["guaranteed_90_db"]) for s in rows}
        if len(rows) < 2 or len(flat) != 1:
            errors.append("estimation_error_sweep_k10: nf_nf is not flat across sigma")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate the goldens")
    args = parser.parse_args()

    results, errors = {}, []
    for name in CONFIGS:
        results[name] = got = golden(name)
        path = GOLDENS / f"{name}.json"
        if args.write:
            GOLDENS.mkdir(exist_ok=True)
            path.write_text(json.dumps(got, indent=1) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
            continue
        found = compare(got, json.loads(path.read_text()))
        print(f"{name}: {'ok' if not found else f'{len(found)} mismatches'}")
        errors += [f"{name}: {e}" for e in found]
    claims = header_claims(results)
    for e in errors + claims:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errors or claims else 0


if __name__ == "__main__":
    sys.exit(main())
