"""In-memory span tracer for dmimo's public functions.

``install`` wraps every public function of the traced modules and puts
the wrapper at every ``dmimo`` module attribute that refers to the
function, so each caller's lookup (``dmimo.scenarios.build_precoder``,
``dmimo.cli.csidata.read_dataset``, ...) finds it. A span is
``[name, start, end, parent, error, extra]``: ``parent`` indexes the
enclosing span of the same process (-1 at top level), ``error`` is the
exception class name if the call raised, and ``extra`` holds counts a
probe took after the span ended (rows, bytes, antenna pairs).

Spans stay in memory and are written to ``spans-<pid>.json`` when the
process ends: by ``Tracer.dump`` in the client, and by a
multiprocessing finalizer in forked pool workers. The tracer is meant
for one thread per process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

#: The layers are dmimo's modules.
LAYERS = (
    "configio",
    "geometry",
    "scenarios",
    "precoders",
    "metrics",
    "cli",
    "csidata",
    "calibration",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_counts(path: Path) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    return {"rows": data.count(b"\n") - 1, "bytes": len(data)}


def _probe_results_csv(args, kwargs, result):
    return _file_counts(Path(_arg(args, kwargs, 1, "path")))


def _probe_write_dataset(args, kwargs, result):
    out = Path(_arg(args, kwargs, 2, "path"))
    counts = _file_counts(out / "csi.csv")
    counts["bytes"] += (out / "manifest.json").stat().st_size
    return counts


def _probe_read_dataset(args, kwargs, result):
    return _file_counts(Path(_arg(args, kwargs, 0, "path")) / "csi.csv")


def _probe_offsets(args, kwargs, result):
    return {"pairs": int(result.offsets.size)}


#: Counts taken after a span ends, outside its timing.
PROBES = {
    "cli.write_results_csv": _probe_results_csv,
    "csidata.write_dataset": _probe_write_dataset,
    "csidata.read_dataset": _probe_read_dataset,
    "calibration.estimate_phase_offsets": _probe_offsets,
}


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []

    def _forked(self) -> None:
        """First traced call in a forked child: drop the parent's spans."""
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        # Registered after fork: multiprocessing clears finalizers at
        # child start and runs these at its exit.
        mp_util.Finalize(None, self.dump, exitpriority=100)

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._forked()
            stack = self.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if probe is not None:
                rec[5] = probe(args, kwargs, result)
            return result

        return traced

    def dump(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps({"pid": self.pid, "spans": self.spans}))


def install(out_dir: Path) -> Tracer:
    """Wrap the public functions of every layer module; return the tracer."""
    tracer = Tracer(out_dir)
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"dmimo.{layer}")
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "dmimo" and not mod_name.startswith("dmimo."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return tracer


# -------------------------------------------------------------- analysis


def load_spans(out_dir: Path) -> list[list[list]]:
    """Span lists of every traced process, one list per process."""
    return [
        json.loads(p.read_text())["spans"] for p in sorted(Path(out_dir).glob("spans-*.json"))
    ]


class SpanStats:
    """Per-function totals over all processes; self time excludes children."""

    def __init__(self, processes: list[list[list]]):
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, Counter] = defaultdict(Counter)
        self.extra: dict[str, Counter] = defaultdict(Counter)
        for spans in processes:
            own = [end - start for _, start, end, *_ in spans]
            for _, start, end, parent, _, _ in spans:
                if parent >= 0:
                    own[parent] -= end - start
            for (name, start, end, _, error, extra), self_time in zip(spans, own):
                self.durations[name].append(end - start)
                self.self_s[name] += self_time
                if error is not None:
                    self.errors[name][error] += 1
                self.extra[name].update(extra or {})

    @property
    def n_spans(self) -> int:
        return sum(len(d) for d in self.durations.values())

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def percentile_us(self, name: str, q: float) -> float:
        values = sorted(self.durations.get(name, ()))
        if not values:
            return 0.0
        # Nearest-rank percentile: an observed duration, never interpolated.
        rank = max(1, -(-len(values) * q // 100))
        return values[int(rank) - 1] * 1e6
