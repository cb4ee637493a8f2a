"""Body of the fresh process that runs one workload; started by run.py.

``worker.py setup PLAN``  pays the cold cost a CLI user pays before the first
    evaluation (import postgrasp, load the robot and tasks, resample), then
    takes calibration kernel samples; run.py times it from its start until
    the set-up was done.
``worker.py run PLAN``    runs passes of the workload's evaluate calls, one
    per task, for the plan's time, checks every pass against the golden
    record and writes a JSON result where the plan says.

PLAN is a JSON file written by run.py.  Keep the imports at module level to
the standard library: they are part of what ``setup`` measures.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from functools import partial
from pathlib import Path

SETUP_KERNEL_SAMPLES = 9


def _import_program(src: str):
    sys.path.insert(0, src)
    import postgrasp  # noqa: F401
    from postgrasp import cli, fileio, task

    return cli, fileio, task


def setup(plan: dict) -> dict:
    _, fileio, task = _import_program(plan["src"])
    fileio.load_robot(plan["robot"])
    for path in plan["tasks"]:
        spec = fileio.load_task(path)
        task.resample(spec.trajectory, spec.resample_count)
    # perf_counter is CLOCK_MONOTONIC, so run.py can compare it with its own
    done = time.perf_counter()
    import calibrate

    kernel = [calibrate.kernel_seconds() for _ in range(SETUP_KERNEL_SAMPLES)]
    return {"done": done, "kernel_s": statistics.fmean(kernel)}


def _environment() -> dict:
    import numpy as np

    env = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError) as exc:
        env["blas"] = f"unknown ({exc})"
    return env


def _guarded(fn) -> tuple[int | None, str | None]:
    """(exit status, None), or (None, traceback) when the program crashed."""
    try:
        return fn(), None
    except Exception:  # every grasp of the task then counts as failed
        return None, traceback.format_exc()


def _bytes_in(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def run(plan: dict) -> dict:
    cli, fileio, _ = _import_program(plan["src"])
    import calibrate
    import golden
    import spans

    gold = json.loads(Path(plan["golden"]).read_text())
    task_names = [fileio.load_task(p).name for p in plan["tasks"]]
    out = Path(plan["out"])
    deadline = time.perf_counter() + plan["seconds"]
    result = {
        # per pass: seconds per evaluate call, one per task, normalized to
        # the reference machine's speed (calibrate.py) and raw
        "untraced": [],
        "traced": [],
        "untraced_raw": [],
        "traced_raw": [],
        # timed calibration kernel runs during the untraced passes
        "untraced_kernel": [],
        "untraced_reference": [],
        "attempted": 0,
        "failed": 0,
        "failures": [],
        "unobservable": [],  # tasks whose reachability flags were not compared
        "bytes_written": [],
        "environment": _environment(),
    }
    tracer = spans.Tracer() if plan["trace"] else None

    def one_pass(traced: bool) -> None:
        if out.exists():
            shutil.rmtree(out)
        times, raw_times = [], []
        first_sample = len(calibrator.samples)
        observed = {}
        for call, (path, name) in enumerate(zip(plan["tasks"], task_names)):
            argv = ["evaluate", "--robot", plan["robot"], "--task", path, "--out", str(out)]
            argv += plan["cli_args"]
            if traced:
                evaluate = partial(tracer.root, partial(cli.main, argv), f"{len(result['traced'])}:{call}")
            else:
                evaluate = partial(cli.main, argv)
            (status, error), raw, normalized = calibrator.measure(partial(_guarded, evaluate))
            times.append(normalized)
            raw_times.append(raw)
            observed[name] = {"status": status, "error": error, "reach": observer.take()}
        report = golden.check(gold, out, observed)
        result["attempted"] += report.attempted
        result["failed"] += report.failed
        result["failures"] += report.messages[: max(0, 20 - len(result["failures"]))]
        result["unobservable"] += [t for t in report.unobservable if t not in result["unobservable"]]
        result["bytes_written"].append(_bytes_in(out))
        kind = "traced" if traced else "untraced"
        result[kind].append(times)
        result[kind + "_raw"].append(raw_times)
        if traced:
            result["traced_reach"] = [obs["reach"] for obs in observed.values()]
        else:
            result["untraced_kernel"] += calibrator.samples[first_sample:]
            result["untraced_reference"] += calibrator.reference[first_sample:]

    with spans.ReachObserver() as observer, calibrate.Calibrator() as calibrator:
        one_pass(False)
        if tracer is not None:
            with tracer:
                one_pass(True)
        # another pass while it would end before the deadline plus half a pass
        while True:
            passes = result["untraced_raw"] + result["traced_raw"]
            pass_s = sum(map(sum, passes)) / len(passes)
            if time.perf_counter() + pass_s / 2 > deadline:
                break
            if tracer is not None and len(result["traced"]) < len(result["untraced"]):
                with tracer:
                    one_pass(True)
            else:
                one_pass(False)

    if tracer is not None:
        tracer.write_jsonl(plan["spans"])
        result["spans"] = spans.summarize(tracer.spans)
        result["counts"] = [[name, stage, n] for (name, stage), n in tracer.counts.items()]
        result["absent"] = tracer.absent
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def main(argv: list[str]) -> int:
    mode, plan_path = argv
    plan = json.loads(Path(plan_path).read_text())
    if mode == "setup":
        print(json.dumps(setup(plan)))
        return 0
    result = run(plan)
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
