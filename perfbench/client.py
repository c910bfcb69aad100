"""Workload process: one client running dmimo CLI commands back to back.

    python client.py JOB.json

The job lists the config to parse during set-up and the CLI argument
vectors to run, in order, through ``dmimo.cli.main``; each command
starts when the previous one has finished and the sequence stops at the
first failure. With ``trace`` the tracer is installed before set-up.
The client writes ``result.json`` beside the job: monotonic timestamps
(comparable with the parent's), exit codes and peak resident memory.
Command output goes to ``stdout.log``.
"""

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    job_path = Path(sys.argv[1])
    job = json.loads(job_path.read_text())

    from dmimo import cli, configio

    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.install(Path(job["spans_dir"]))
    kind, config = job["setup"]
    if kind == "simulate":
        configio.parse_simulate_config(config)
    else:
        configio.parse_generate_config(config)
    ready = time.monotonic()

    commands = []
    with open(job_path.parent / "stdout.log", "w") as log, contextlib.redirect_stdout(log):
        for argv in job["commands"]:
            start = time.monotonic()
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = -1
            commands.append({"argv": argv, "start": start, "end": time.monotonic(), "exit": code})
            if code != 0:
                break
    if tracer is not None:
        tracer.dump()
    # Pool workers have been joined, so RUSAGE_CHILDREN covers them.
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {"ready": ready, "commands": commands, "peak_rss_kb": peak_kb}
    (job_path.parent / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
