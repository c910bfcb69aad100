"""Workload definitions and output checks for the dmimo benchmark.

A workload is a fixed sequence of ``dmimo`` CLI commands and the YAML
configs they read. Everything except the seed is fixed here, so the
benchmark does not change when the bundled ``configs/`` are edited. The
seed reaches the program only through the generated YAML and the CLI
``--seed`` option.

The simulated trial counts are part of the workload: the noise variance
is set from the mean channel gain over all configured trials, so the
reference values below hold only for these exact counts.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: One JSON-lines file per workload: its spec, then one line per seed.
REFERENCE_DIR = HERE / "reference"

#: Absolute tolerance (dB) on median and 90%-guaranteed SINR. Loose
#: enough for reordered floating-point arithmetic (~1e-9 dB), tight
#: enough to catch any change of algorithm or input.
SINR_TOL_DB = 1e-6
#: Relative tolerance on the noise variance and the error-grid points.
REL_TOL = 1e-9
#: Calibration must recover the injected offsets to this many radians.
PHASE_TOL_RAD = 1e-9

GEOMETRY = {
    "kind": "perimeter",
    "wavelength_m": 0.115,
    "side_m": 6.0,
    "n_aps": 8,
    "antennas_per_ap": 8,
    "height_m": 1.25,
}

# The simulate configs mirror configs/estimation_error_sweep_k10.yaml,
# configs/clustering_k10.yaml and configs/full_coordination_k5.yaml with
# the trial count (and, for the last, the channel source) changed.
_COMMON = {
    "schema_version": 1,
    "geometry": GEOMETRY,
    "noise_floor_db": -20.0,
    "min_spacing_m": 0.1,
    "amplitude_model": "free-space",
    "workers": 1,
}

SWEEP_K10 = dict(
    _COMMON,
    users=10,
    trials=10,
    precoders=["mrt", "nf_nf", "dis_rzf", "dis_rmrt_nf"],
    nmse_grid={"values": [0.0, 0.01, 0.02, 0.05, 0.1], "relative": True},
)

CLUSTER_K10 = dict(
    _COMMON,
    users=10,
    trials=200,
    precoders=["rzf", "zf_nf", "rzf_nf", "nf_nf"],
    clustering={"pairs": [[0, 1], [2, 3], [4, 5], [6, 7]]},
)

DATASET_K5 = dict(
    _COMMON,
    users=5,
    trials=100,
    precoders=["nf", "mrt", "nf_nf", "mrt_nf", "zf", "rzf"],
    channel={"source": "dataset", "path": "cal"},
)

GENERATE_24 = {
    "schema_version": 1,
    "geometry": GEOMETRY,
    "grid": {
        "nx": 24,
        "ny": 24,
        "x_min": 1.25,
        "x_max": 4.75,
        "y_min": 1.25,
        "y_max": 4.75,
        "z": 0.0,
    },
    "tx_count": 4,
    "amplitude_model": "free-space",
    "reference_gain": 1.0,
}


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json."""

    name: str
    simulate: dict
    pool: bool = False
    dataset: bool = False

    def spec(self) -> dict:
        """Everything but the seed: the reference is valid only for this."""
        doc = {"simulate": self.simulate, "pool": self.pool}
        if self.dataset:
            doc["generate"] = GENERATE_24
        return doc


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dist_sweep_k10", SWEEP_K10),
        Workload("cluster_k10_pool", CLUSTER_K10, pool=True),
        Workload("dataset_pipeline", DATASET_K5, dataset=True),
    )
}


@dataclass(frozen=True)
class Plan:
    """One workload instance: configs written, commands ready to run."""

    workload: Workload
    setup: tuple[str, str]
    commands: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]

    @property
    def trials(self) -> int:
        return int(self.workload.simulate["trials"])

    @property
    def users(self) -> int:
        return int(self.workload.simulate["users"])


def _write_yaml(path: Path, doc: dict) -> None:
    # JSON is valid YAML; no float here needs exponent notation.
    path.write_text(json.dumps(doc, indent=1) + "\n")


def prepare(name: str, seed: int, run_dir: Path, workers: int) -> Plan:
    """Write the workload's configs into ``run_dir`` and return its commands.

    ``workers`` applies only to the pool workload; the others run at 1.
    """
    w = WORKLOADS[name]
    run_dir.mkdir(parents=True, exist_ok=True)
    workers = workers if w.pool else 1
    _write_yaml(run_dir / "sim.yaml", dict(w.simulate, seed=seed))
    simulate = (
        "simulate", "--config", "sim.yaml", "--out", "sim",
        "--seed", str(seed), "--workers", str(workers),
    )
    if not w.dataset:
        return Plan(w, ("simulate", "sim.yaml"), (simulate,), ("sim",))
    _write_yaml(
        run_dir / "gen.yaml", dict(GENERATE_24, hardware_offsets={"seed": seed})
    )
    commands = (
        ("generate", "--config", "gen.yaml", "--out", "gen"),
        ("calibrate", "--dataset", "gen", "--out", "cal"),
        simulate,
    )
    return Plan(w, ("generate", "gen.yaml"), commands, ("gen", "cal", "sim"))


# ---------------------------------------------------------------- checks


def summary_stats(summary: dict) -> list[list]:
    """The checked part of summary.json, one row per (precoder, sigma)."""
    return [
        [
            s["precoder"],
            s["sigma_e2"],
            s["n_failed_trials"],
            s["n_samples"],
            s["median_db"],
            s["guaranteed_90_db"],
        ]
        for s in summary["precoders"]
    ]


def reference_entry(seed: int, summary: dict) -> dict:
    return {"seed": seed, "noise_var": summary["noise_var"], "stats": summary_stats(summary)}


def load_reference(name: str, seed: int) -> dict | None:
    """Reference values for (workload, seed), or None for a non-reference seed.

    Raises ValueError if the stored references were made for other
    workload parameters.
    """
    path = REFERENCE_DIR / f"{name}.jsonl"
    if not path.is_file():
        return None
    header, *entries = (json.loads(line) for line in path.read_text().splitlines())
    if header["spec"] != json.loads(json.dumps(WORKLOADS[name].spec())):
        raise ValueError(f"{path.name} was made for other {name} parameters")
    return next((e for e in entries if e["seed"] == seed), None)


def _close(a, b, abs_tol=0.0, rel_tol=0.0) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def check_simulate(plan: Plan, run_dir: Path, reference: dict | None) -> list[str]:
    """Invariants on summary.json and results.csv, plus the reference if given."""
    try:
        summary = json.loads((run_dir / "sim" / "summary.json").read_text())
        with open(run_dir / "sim" / "results.csv", "rb") as fh:
            csv_rows = fh.read().count(b"\n") - 1
    except (OSError, ValueError) as exc:
        return [f"simulate outputs unreadable: {exc}"]
    errors = []
    sim = plan.workload.simulate
    n_sigma = len(sim["nmse_grid"]["values"]) if "nmse_grid" in sim else 1
    stats = summary_stats(summary)
    if sorted({s[0] for s in stats}) != sorted(sim["precoders"]) or len(stats) != n_sigma * len(
        sim["precoders"]
    ):
        errors.append("summary.json does not list every (precoder, sigma) once")
    noise_var = summary.get("noise_var")
    if not (isinstance(noise_var, float) and math.isfinite(noise_var) and noise_var > 0):
        errors.append(f"noise_var {noise_var!r} is not a positive number")
    for s in summary["precoders"]:
        label = f"{s['precoder']} sigma={s['sigma_e2']}"
        failed, samples = s["n_failed_trials"], s["n_samples"]
        if s["n_trials"] != plan.trials or not 0 <= failed <= plan.trials:
            errors.append(f"{label}: n_trials/n_failed_trials out of range")
        if samples != (plan.trials - failed) * plan.users:
            errors.append(f"{label}: n_samples {samples} != (trials - failed) * users")
        med, g90 = s["median_db"], s["guaranteed_90_db"]
        if samples == 0:
            if med is not None or g90 is not None:
                errors.append(f"{label}: statistics without samples")
        elif not (math.isfinite(med) and math.isfinite(g90) and g90 <= med):
            errors.append(f"{label}: median {med} / 90%-guaranteed {g90} inconsistent")
    if csv_rows != sum(s["n_samples"] for s in summary["precoders"]):
        errors.append(f"results.csv has {csv_rows} rows, summary counts a different number")
    if reference is None or errors:
        return errors
    if not _close(noise_var, reference["noise_var"], rel_tol=REL_TOL):
        errors.append(f"noise_var {noise_var} != reference {reference['noise_var']}")
    if len(stats) != len(reference["stats"]):
        return errors + ["summary.json rows differ from the reference"]
    for got, ref in zip(stats, reference["stats"]):
        label = f"{ref[0]} sigma={ref[1]}"
        if got[0] != ref[0] or not _close(got[1], ref[1], rel_tol=REL_TOL):
            errors.append(f"{label}: row order or sigma differs from the reference")
        elif got[2:4] != ref[2:4]:
            errors.append(f"{label}: failed/samples {got[2:4]} != reference {ref[2:4]}")
        elif not all(_close(g, r, abs_tol=SINR_TOL_DB) for g, r in zip(got[4:], ref[4:])):
            errors.append(f"{label}: SINR {got[4:]} dB != reference {ref[4:]} dB")
    return errors


def _read_offsets(path: Path) -> dict[tuple[int, int], float]:
    lines = path.read_text().splitlines()[1:]
    return {
        (int(t), int(r)): float(v) for t, r, v in (line.split(",") for line in lines if line)
    }


_RESIDUAL = re.compile(r"mean residual phase error vs LoS: (\S+) rad")


def check_calibration(run_dir: Path, stdout: str) -> list[str]:
    """Recovered offsets equal the negated injected ones; residual is ~0."""
    try:
        truth = _read_offsets(run_dir / "gen" / "offsets_true.csv")
        found = _read_offsets(run_dir / "cal" / "offsets.csv")
    except (OSError, ValueError) as exc:
        return [f"offset tables unreadable: {exc}"]
    errors = []
    if not truth or truth.keys() != found.keys():
        errors.append("offsets.csv and offsets_true.csv cover different antenna pairs")
    else:
        worst = max(
            abs(math.remainder(found[k] + truth[k], 2 * math.pi)) for k in truth
        )
        if worst > PHASE_TOL_RAD:
            errors.append(f"recovered offsets miss the negated truth by {worst:.3e} rad")
    match = _RESIDUAL.search(stdout)
    if match is None:
        errors.append("calibrate did not report its residual phase error")
    elif not float(match.group(1)) <= PHASE_TOL_RAD:
        errors.append(f"residual phase error {match.group(1)} rad is not ~0")
    return errors
