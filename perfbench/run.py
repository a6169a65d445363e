"""Benchmark of the sympcrystal library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads (``verify``, ``crystal``,
``insertion``, ``characters``) are described in ``perfbench/jobs.py``;
``BENCHMARK.json`` lists the first three, and ``characters`` is there to be
run by hand.

Every pass runs in a fresh single-threaded interpreter, because a CLI user
pays import cost and an empty character cache on every call:

* set-up: an interpreter start that imports the library and builds the
  inputs, and nothing else; one untimed warm-up precedes the timed ones;
* the whole run, set-ups included, lasts about ``--seconds``: each pass
  gets an even share of the time left when it starts, and ends with the
  first whole cycle through the jobs after that share is up;
* ``--trace 0``: four untraced passes, every one after three timed
  set-ups, so that set-up is sampled across the whole run.  It reports
  ``wall_s``, ``setup_s`` (the median of the twelve set-ups) and
  ``peak_rss_mb`` (the highest of the passes);
* ``--trace 1``: an untraced pass and a traced pass.  It reports the
  per-layer metrics of ``perfbench/tracer.py`` and ``trace.overhead_s``,
  the traced ``wall_s`` minus the untraced one.  The spans go to
  ``perfbench/out/spans-<workload>.csv``.

``wall_s`` is the wall time of one job, taken as the fastest repetition of
each distinct job and averaged over the distinct jobs: the fastest
repetition is the figure that changes in host speed move least (see
``perfbench/jobs.py``).  The report line keeps every job's wall time.

Every job's output is checked after its clock stops: CLI stdout and exit
code against the digests in ``perfbench/expected.json``, recorded at a
commit whose output is known good; seeded items by exact invariants.  The
second-to-last line of stdout is the full report, with the host
diagnostics; the last line is the summary.  The exit code is 1 if any
check failed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import metric_units  # noqa: E402

WORKLOADS = ("verify", "crystal", "insertion", "characters")
PASSES = 4
SETUPS_PER_PASS = 3
PASS_TIMEOUT_S = 150


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibration_s() -> float:
    """A fixed pure-Python loop; its time shows how fast the host ran."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        times.append(perf_counter() - start)
    return statistics.median(times)


def host_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "calibration_s": calibration_s(),
    }


class PassFailed(Exception):
    pass


def run_pass(config: dict) -> tuple[dict, float]:
    """One worker interpreter; returns its summary and its wall time."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise PassFailed(f"worker exceeded {PASS_TIMEOUT_S} s") from e
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise PassFailed(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def job_wall_s(passes: list[dict]) -> float:
    """The fastest wall time of each distinct job, averaged over the jobs."""
    best: dict[int, float] = {}
    for p in passes:
        for job, wall in zip(p["job_ids"], p["walls"]):
            best[job] = min(wall, best.get(job, wall))
    return statistics.fmean(best.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny runs m=2 sizes, for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sympcrystal" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    base = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds, "traced": False, "setup_only": False}
    setup = dict(base, setup_only=True)
    setups: list[float] = []
    passes: list[dict] = []
    deadline = perf_counter() + args.seconds

    def share(parts_left: int) -> float:
        """An even share of the run's remaining time for the next pass."""
        return max(deadline - perf_counter(), 0.0) / parts_left

    try:
        run_pass(setup)
        if args.trace:
            untraced, _ = run_pass(dict(base, seconds=share(2)))
            traced, _ = run_pass(dict(base, seconds=share(1), traced=True))
            passes = [untraced, traced]
        else:
            for i in range(PASSES):
                setups += [run_pass(setup)[1] for _ in range(SETUPS_PER_PASS)]
                passes.append(run_pass(dict(base, seconds=share(PASSES - i)))[0])
    except PassFailed as e:
        print(f"benchmark pass failed: {e}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        values = dict(traced["layer"])
        values["trace.overhead_s"] = job_wall_s([traced]) - job_wall_s([untraced])
        units = metric_units()
    else:
        values = {
            "wall_s": job_wall_s(passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "host": host_info(),
        "job_walls_s": [p["walls"] for p in passes],
        "setup_samples_s": setups,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted if attempted else 1.0,
        "problems": [q for p in passes for q in p["problems"]],
        "metrics": metrics,
    }
    if args.trace:
        report["timed_samples"] = traced["timed_samples"]
        report["spans"] = traced["spans"]
    correct = attempted > 0 and failed == 0
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
