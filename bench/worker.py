"""One round of one workload, in a fresh process.

Started by ``run.py`` with the monotonic time at which it spawned this
process. Set-up (imports, config and roster, scenarios) runs first; the
timed part is ``Pipeline.run_stages`` alone. Prints one JSON line with the
round's measurements.

    python3 bench/worker.py --workload W --config CONFIG --spawned T
        [--smoke] [--trace] [--spans PATH]

``--smoke`` takes the workload's smoke sizes from ``inputs.WORKLOADS``
instead of its full sizes; they must match the sizes the config was made with.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))


def read_io() -> dict[str, int]:
    """rchar/wchar of this process: bytes passed to read() and write()."""
    counters = {}
    with open("/proc/self/io") as fh:
        for line in fh:
            key, value = line.split(":")
            counters[key] = int(value)
    return counters


def peak_rss_mb() -> float:
    """VmHWM, the RSS high-water mark of this process's own address space.

    ru_maxrss is not used: exec folds the RSS of the spawning parent's
    address space into it, so it would measure the parent."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    from inputs import STAGES, WORKLOADS
    from parley.agents import ChatModelClient
    from parley.pipeline import Pipeline, load_config

    sizes = WORKLOADS[args.workload]["smoke" if args.smoke else "full"]
    config = load_config(args.config)
    transport = client = None
    if args.workload == "tournament_chat":
        from fake_chat import FakeTransport

        transport = FakeTransport(sizes.latency_s)
        client = ChatModelClient(transport=transport)
    pipeline = Pipeline(config, client=client)
    _ = pipeline.roster, pipeline.scenarios  # parse roster and scenarios in set-up

    tracer = None
    if args.trace:
        from tracer import TRANSPORT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        if client is not None:
            client.transport = tracer.wrap(TRANSPORT_SPAN, transport)

    io0 = read_io()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0, p0 = time.monotonic(), time.perf_counter()
    results = pipeline.run_stages(STAGES[args.workload])
    t1 = time.monotonic()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    io1 = read_io()

    wall_s = t1 - t0
    out = {
        "setup_s": t0 - args.spawned,
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": peak_rss_mb(),
        "write_mb": (io1["wchar"] - io0["wchar"]) / 1e6,
        "read_mb": (io1["rchar"] - io0["rchar"]) / 1e6,
    }
    report = results["run"]
    out["executed"] = report.executed
    out["run_failed"] = report.failed
    if client is not None:
        out["usage"] = dict(client.usage)
        out["transport_calls"] = transport.calls
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(wall_s, config.concurrency_limit, sizes.negotiations)
        if args.spans:
            tracer.write_spans(Path(args.spans), p0)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
