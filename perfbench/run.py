"""dmimo benchmark: closed-loop runs of the dmimo CLI, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each iteration starts one fresh Python
process that imports dmimo, parses the first config and runs the
workload's CLI commands one after another (``perfbench/client.py``);
the next iteration starts when the previous one has ended. Iterations
repeat until ``--seconds`` have passed, and every iteration's outputs
are checked (``perfbench/workloads.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics
of BENCHMARK.json as medians over the iterations. With ``--trace 1``
iterations alternate untraced and traced (``perfbench/tracer.py``) and
the line reports the per-layer metrics: span statistics of the traced
iterations, whose counts must repeat exactly, and the tracing overhead
against the untraced ones. Scratch files and a fuller ``result.json``
go to ``.perfbench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
CLIENT = HERE / "client.py"

#: An iteration that runs longer than this is killed and counts as failed.
ITERATION_TIMEOUT_S = 120.0
#: Fewest iterations per run, so medians and the count check have data.
MIN_ITERATIONS = {False: 3, True: 4}
#: Extra set-up-only client starts per iteration, for a steadier setup_s.
SETUP_PROBES = 2

#: One BLAS/OpenMP thread per process keeps workers x threads <= nproc.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Per-layer statistics that must repeat exactly between traced iterations.
EXACT_STATS = ("calls", "calls_per_trial", "rows", "bytes", "ok_ratio", "spans")
#: Per-layer metrics taken from whole iterations rather than from spans.
RUN_METRICS = ("trace_overhead_s", "calibrate_s")

ENV_PROBE = """
import json, platform, numpy, dmimo.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (TypeError, KeyError):
    blas = "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas}))
"""


@dataclass
class Iteration:
    traced: bool
    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    wall_s: float | None = None
    simulate_s: float | None = None
    calibrate_s: float | None = None
    peak_rss_mb: float | None = None
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def client_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({var: "1" for var in THREAD_VARS})
    return env


def git_sha(root: Path) -> str:
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(root: Path, env: dict[str, str], nproc: int) -> dict:
    """Versions as the client sees them; also compiles dmimo's bytecode."""
    probe = subprocess.run(
        [sys.executable, "-c", ENV_PROBE],
        cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    info = json.loads(probe.stdout)
    info.update(nproc=nproc, cpu=cpu_model(), git_sha=git_sha(root))
    return info


def run_client(run_dir: Path, env, job: dict):
    """Start one client process and wait for it; returns (t0, result or None)."""
    (run_dir / "result.json").unlink(missing_ok=True)
    (run_dir / "job.json").write_text(json.dumps(job))
    with open(run_dir / "stderr.log", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CLIENT), "job.json"],
            cwd=run_dir, env=env, stdin=subprocess.DEVNULL, stdout=err, stderr=err,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=ITERATION_TIMEOUT_S)
        finally:
            # Ends anything the client left behind (e.g. pool workers).
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    try:
        return t0, json.loads((run_dir / "result.json").read_text())
    except (OSError, ValueError):
        return t0, None


def run_iteration(plan, run_dir, env, reference, spans_dir, layer_names) -> Iteration:
    """Set-up probes, then one run of the workload's commands, then checks."""
    it = Iteration(traced=spans_dir is not None, attempted=len(plan.commands))
    job = {"setup": plan.setup, "commands": [], "trace": False}
    for _ in range(SETUP_PROBES):
        t0, result = run_client(run_dir, env, job)
        if result is not None:
            it.setup_s.append(result["ready"] - t0)
    for name in plan.outputs:
        shutil.rmtree(run_dir / name, ignore_errors=True)
    job = dict(job, commands=plan.commands, trace=it.traced, spans_dir=str(spans_dir))
    try:
        t0, result = run_client(run_dir, env, job)
    except subprocess.TimeoutExpired:
        it.failed = it.attempted
        it.errors.append(f"iteration exceeded {ITERATION_TIMEOUT_S} s")
        return it
    if result is None:
        it.failed = it.attempted
        it.errors.append(f"client failed, see {run_dir / 'stderr.log'}")
        return it
    cmds = result["commands"]
    it.failed = it.attempted - sum(1 for c in cmds if c["exit"] == 0)
    if not it.ok:
        it.errors.append(f"a command failed, see {run_dir / 'stderr.log'}")
        return it
    timed = {c["argv"][0]: c["end"] - c["start"] for c in cmds}
    it.setup_s.append(result["ready"] - t0)
    it.wall_s = cmds[-1]["end"] - cmds[0]["start"]
    it.simulate_s = timed["simulate"]
    it.calibrate_s = timed.get("calibrate")
    it.peak_rss_mb = result["peak_rss_kb"] / 1024.0

    sim_errors = workloads.check_simulate(plan, run_dir, reference)
    cal_errors = []
    if plan.workload.dataset:
        stdout = (run_dir / "stdout.log").read_text()
        cal_errors = workloads.check_calibration(run_dir, stdout)
    it.failed += bool(sim_errors) + bool(cal_errors)
    it.errors += sim_errors + cal_errors
    if spans_dir is not None:
        stats = tracer.SpanStats(tracer.load_spans(spans_dir))
        it.layers = {
            n: span_metric(n, stats, plan.trials, layer_names)
            for n in layer_names
            if n not in RUN_METRICS
        }
    return it


def span_metric(name: str, st: tracer.SpanStats, trials: int, names) -> float:
    """One per-layer metric from span statistics; the name says which.

    ``layer.<module>.self_s`` is a module's self time; ``<function>.<stat>``
    is a statistic of that function's spans: ``calls``, ``s`` (inclusive
    time), ``self_s``, ``us_p50``/``us_p90``, ``calls_per_trial``,
    ``ok_ratio``, ``failed.<ExceptionClass>`` (``other`` counts classes not
    listed), probe counts (``rows``, ``bytes``) and their rate per
    inclusive second (``rows_per_s``, ``pairs_per_s``).
    """
    if name == "trace.spans":
        return float(st.n_spans)
    if name.startswith("layer.") and name.endswith(".self_s"):
        return st.layer_self_s(name.split(".")[1])
    fn, stat = name.split(".", 1)
    span = next((s for s in st.durations if s.split(".", 1)[1] == fn), None)
    durations = st.durations.get(span, [])
    calls, total = len(durations), sum(durations)
    errors = st.errors.get(span, {})
    extra = st.extra.get(span, {})
    if stat == "calls":
        return float(calls)
    if stat == "s":
        return total
    if stat == "self_s":
        return st.self_s.get(span, 0.0)
    if stat in ("us_p50", "us_p90"):
        return st.percentile_us(span, float(stat[4:]))
    if stat == "calls_per_trial":
        return calls / trials
    if stat == "ok_ratio":
        return (calls - sum(errors.values())) / calls if calls else 0.0
    if stat == "failed.other":
        listed = {n.rsplit(".", 1)[1] for n in names if n.startswith(fn + ".failed.")}
        return float(sum(v for k, v in errors.items() if k not in listed))
    if stat.startswith("failed."):
        return float(errors.get(stat[7:], 0))
    if stat in ("rows", "bytes"):
        return float(extra.get(stat, 0))
    if stat.endswith("_per_s"):
        return extra.get(stat[: -len("_per_s")], 0) / total if total else 0.0
    raise ValueError(f"no rule derives per-layer metric {name!r}")


def median_of(values) -> float:
    return statistics.median(values) if values else 0.0


def samples(its: list[Iteration], trials: int) -> dict[str, list[float]]:
    """Per-iteration values of the run-level metrics, from completed iterations."""
    ok = [i for i in its if i.ok]
    return {
        "trials_per_s": [trials / i.simulate_s for i in ok],
        "wall_s": [i.wall_s for i in ok],
        "setup_s": [s for i in ok for s in i.setup_s],
        "peak_rss_mb": [i.peak_rss_mb for i in ok],
        "calibrate_s": [i.calibrate_s for i in ok if i.calibrate_s is not None],
    }


def per_layer(its: list[Iteration], trials: int, names) -> tuple[dict, list[str]]:
    traced = [i for i in its if i.traced and i.ok]
    untraced = [i for i in its if not i.traced]
    plain = samples(untraced, trials)
    metrics = {}
    for name in names:
        if name == "trace_overhead_s":
            metrics[name] = median_of([i.wall_s for i in traced]) - median_of(plain["wall_s"])
        elif name == "calibrate_s":
            metrics[name] = median_of(plain["calibrate_s"])
        else:
            metrics[name] = median_of([i.layers[name] for i in traced])
    errors = []
    for name in names:
        if name.rsplit(".", 1)[-1] in EXACT_STATS or ".failed." in name:
            seen = {i.layers[name] for i in traced}
            if len(seen) > 1:
                errors.append(f"count {name} differs between traced iterations: {sorted(seen)}")
    if not traced:
        errors.append("no traced iteration completed")
    return metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    root = Path.cwd()
    if not (root / "src" / "dmimo" / "__init__.py").is_file():
        print(f"run.py: no dmimo sources under {root / 'src'}; run from the repo root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    specs = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in specs}
    layer_names = [m["name"] for m in bench["per_layer"]]

    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    run_dir = work / "run"
    nproc = len(os.sched_getaffinity(0))
    env = client_env(root)
    info = environment(root, env, nproc)
    plan = workloads.prepare(args.workload, args.seed, run_dir, nproc)
    reference = workloads.load_reference(args.workload, args.seed)

    its: list[Iteration] = []
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline or len(its) < MIN_ITERATIONS[trace]:
        spans_dir = work / f"spans-{len(its)}" if trace and len(its) % 2 else None
        its.append(run_iteration(plan, run_dir, env, reference, spans_dir, layer_names))

    attempted = sum(i.attempted for i in its)
    failed = sum(i.failed for i in its)
    errors = list(dict.fromkeys(e for i in its for e in i.errors))
    if trace:
        metrics, count_errors = per_layer(its, plan.trials, layer_names)
        errors += count_errors
    else:
        values = samples(its, plan.trials)
        metrics = {name: median_of(v) for name, v in values.items()}
    metrics = {name: metrics[name] for name in units}
    correct = failed == 0 and not errors

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f" reference={'yes' if reference else 'no (invariants only)'}")
    print("# env " + json.dumps(info))
    print(f"# iterations={len(its)} commands={attempted} failed={failed}"
          f" error_frac={failed / attempted:.6g}")
    for e in errors[:20]:
        print(f"# error: {e}")
    if not trace:
        for name, vs in values.items():
            if not vs:
                continue
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else vs * 3
            print(f"# {name:>14} {median_of(vs):12.6g} {units.get(name, 's'):<9} "
                  f"median of {len(vs)}, q1 {q1:.6g}, q3 {q3:.6g}")
    else:
        for name, unit in units.items():
            print(f"# {name:>44} {metrics[name]:14.6g} {unit}")

    (work / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": info, "metrics": metrics, "errors": errors,
        "iterations": [vars(i) for i in its],
    }, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
