"""parley benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke [--workload NAME] [--trace 0|1]

The inputs are generated from ``--seed`` in this process; every round then
runs in a fresh ``worker.py`` process. Rounds repeat until ``--seconds`` have
passed, every round's data artifacts must agree with the first round's, and
the last round's are checked against the reference computations. The last
line of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the medians over rounds of the end-to-end metrics (``--trace 0``) or of
the per-layer metrics (``--trace 1``, where traced and untraced rounds
alternate and ``trace.overhead_ratio`` compares their wall times).
``--smoke`` runs every workload (or the one named) at tiny sizes, one round
each (two when traced), with all checks.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
WORK_DIR = REPO / ".bench_work"
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(BENCH_DIR))

import parley  # noqa: E402,F401  (fails early when the program is absent)

from checks import CHECKS, Inputs  # noqa: E402
from inputs import WORKLOADS, write_inputs  # noqa: E402

ROUND_TIMEOUT_S = 150
# metric name -> unit, for each metric group that BENCHMARK.json declares
METRICS = {
    group: {m["name"]: m["unit"] for m in entries}
    for group, entries in json.loads((REPO / "BENCHMARK.json").read_text()).items()
    if group in ("end_to_end", "per_layer")
}
ROUND_FIELDS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "write_mb", "read_mb")
# Files whose content carries timing, so rounds may differ in them.
TIMING_ARTIFACTS = {"run_report.txt"}


def artifacts(out: Path) -> dict:
    """The data artifacts of a round, parsed so that rounds can be compared.

    Store lines are sorted, since concurrent workers append them in
    completion order, and hashed; tables and JSON are parsed so that numbers
    compare with a tolerance (mimicry sums over a set whose order follows
    string hashing, so its last bits vary between processes).
    """
    found = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name in TIMING_ARTIFACTS:
            continue
        key = path.relative_to(out).as_posix()
        if path.name == "transcripts.jsonl":
            lines = sorted(path.read_bytes().splitlines())
            found[key] = hashlib.sha256(b"\n".join(lines)).hexdigest()
        elif path.suffix == ".csv":
            with open(path, newline="") as fh:
                found[key] = list(csv.reader(fh))
        elif path.suffix == ".json":
            found[key] = json.loads(path.read_text())
        else:
            # text tables print numbers rounded, so a last-bit difference can
            # show as -0.0000 against 0.0000
            found[key] = path.read_text().split()
    return found


def same(a, b) -> bool:
    """Equal, except that numbers (also numeric strings) agree to 1e-9."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if a == b:
        return True
    try:
        return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)
    except (TypeError, ValueError):
        return False


def run_round(workload: str, config: Path, smoke: bool, traced: bool, spans: Path | None) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--config", str(config)]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    sizes = WORKLOADS[workload]["smoke" if smoke else "full"]
    workdir = WORK_DIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        config = write_inputs(workload, sizes, seed, workdir)
        inputs = Inputs(workdir)
        trace_dir = WORK_DIR / "trace"
        if trace:
            trace_dir.mkdir(parents=True, exist_ok=True)

        rounds, first, differing = [], None, []
        begin = time.monotonic()
        while True:
            started = time.monotonic()
            traced = trace and len(rounds) % 2 == 1
            first_traced = traced and not any(r["traced"] for r in rounds)
            shutil.rmtree(inputs.out, ignore_errors=True)
            spans = trace_dir / f"{workload}.spans.jsonl" if first_traced else None
            rounds.append(run_round(workload, config, smoke, traced, spans))
            print(
                f"{workload} round {len(rounds) - 1}{' traced' if traced else ''}: "
                + " ".join(f"{k}={rounds[-1][k]:.4f}" for k in ROUND_FIELDS),
                file=sys.stderr,
            )
            found = artifacts(inputs.out)
            first = first or found
            differing += [
                f"round {len(rounds) - 1}: {key}"
                for key in sorted(first.keys() | found.keys())
                if not same(first.get(key), found.get(key))
            ]
            enough = len(rounds) >= (2 if trace else 1)
            # stop once another round would end mostly past --seconds
            now = time.monotonic()
            if enough and (smoke or now - begin + (now - started) / 2 >= seconds):
                break

        problems = CHECKS[workload](inputs, sizes, rounds)
        problems += [f"{d} differs from round 0" for d in differing]
        failed = sum(r["run_failed"] for r in rounds)
        for problem in problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)

        plain = [r for r in rounds if not r["traced"]]
        if trace:
            traced_rounds = [r for r in rounds if r["traced"]]
            for r in traced_rounds:
                r["layers"]["trace.overhead_ratio"] = r["wall_s"] / median(p["wall_s"] for p in plain) - 1.0
            metrics = {
                name: {"value": median(r["layers"][name] for r in traced_rounds), "unit": unit}
                for name, unit in METRICS["per_layer"].items()
            }
            (trace_dir / f"{workload}.layers.json").write_text(
                json.dumps({"rounds": len(rounds), "metrics": metrics}, indent=1, sort_keys=True) + "\n"
            )
        else:
            for r in plain:
                r["negotiations_per_s"] = sizes.negotiations / r["wall_s"]
            metrics = {
                name: {"value": median(r[name] for r in plain), "unit": unit}
                for name, unit in METRICS["end_to_end"].items()
            }
        return {
            "correct": not problems,
            "attempted": sizes.negotiations * len(rounds),
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    # turn SIGTERM into SystemExit, so that subprocess.run kills the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.workload is None and not args.smoke:
        parser.error("--workload NAME is required outside --smoke")
    names = list(WORKLOADS) if args.workload is None else [args.workload]
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        except (RuntimeError, subprocess.TimeoutExpired):
            traceback.print_exc()
            return 1
        if len(names) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
