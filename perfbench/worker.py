"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py '<json config>'

The config holds ``workload``, ``seed``, ``seconds``, ``scale``, ``traced``
and ``setup_only``.  The pass imports the library, builds its inputs from
the seed, then runs jobs one at a time, cycling through the workload's jobs,
and stops at the end of the first whole cycle after ``seconds`` have
passed, so that every job runs equally often.  Each job's outputs are
checked after its clock stops.  A traced pass writes its spans to
``perfbench/out/spans-<workload>.csv``.  The last line of stdout is a JSON
summary; ``job_ids`` gives, for each entry of ``walls``, the index of the job
it timed.
"""

import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import jobs  # noqa: E402
from sympcrystal.characters import weyl_character  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(config: dict) -> dict:
    workload = jobs.make_workload(config["workload"], config["seed"], config["scale"],
                                  jobs.load_expected())
    if config["setup_only"]:
        return {}
    # A CLI user starts with an empty character cache; so does this pass.
    if weyl_character.cache_info().currsize != 0:
        raise RuntimeError("weyl_character cache is not empty before the first job")
    tracer = None
    if config["traced"]:
        tracer = Tracer()
        tracer.install(callers=[jobs])
    walls: list[float] = []
    job_ids: list[int] = []
    attempted = failed = 0
    problems: list[str] = []
    hits = misses = 0
    loop_start = perf_counter()
    k = 0
    while True:
        job_id = k % len(workload.jobs)
        job = workload.jobs[job_id]
        gc.collect()
        if tracer is not None:
            tracer.job = k
        start = perf_counter()
        try:
            result = workload.run(job)
        except Exception:
            walls.append(perf_counter() - start)
            n = workload.items(job)
            outcome = jobs.Outcome(n, n, [traceback.format_exc()])
        else:
            walls.append(perf_counter() - start)
            outcome = workload.check(job, result)
            del result
        attempted += outcome.attempted
        failed += outcome.failed
        hits += outcome.cache_hits
        misses += outcome.cache_misses
        problems += outcome.problems[:5]
        job_ids.append(job_id)
        k += 1
        if k % len(workload.jobs) == 0 and perf_counter() - loop_start >= config["seconds"]:
            break
    summary = {
        "walls": walls,
        "job_ids": job_ids,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layer, samples = tracer.metrics(sum(walls), len(walls))
        layer["characters.weyl_character.cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        summary["layer"] = layer
        summary["timed_samples"] = samples
        summary["spans"] = len(tracer.spans)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{config['workload']}.csv")
    return summary


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
