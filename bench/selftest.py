"""Fast self-test of the benchmark itself, on the 2-grasp x 5-waypoint ``tiny``
workload.  Run from the repository root (about 15 s):

    python3 bench/selftest.py

It checks that both kinds of run emit every metric BENCHMARK.json declares,
with its unit, that the golden check catches a perturbed scalar and a
perturbed flag but tolerates drift below its tolerance, that it still
compares everything but the flags when ``postgrasp.ik.track_trajectory`` is
gone, that a run is refused when the calibration kernel's shift exceeds its
bound, and that run.py fails without printing a result when the program's
source is missing.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import golden
import run
import spans
import workloads

SCRATCH = run.WORK / "selftest"
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tiny", "--seconds", "2", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def check_emitted() -> None:
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = bench(workloads.ROOT, "--trace", trace)
        expect(proc.returncode == 0, f"--trace {trace} exits 0")
        if proc.returncode:
            print(proc.stderr[-2000:])
        last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
        expect(
            sorted(last) == ["attempted", "correct", "failed", "metrics"],
            f"--trace {trace} last line has exactly correct, attempted, failed, metrics",
        )
        expect(last.get("correct") is True and last.get("failed") == 0, f"--trace {trace} outputs match the golden")
        emitted = {name: m["unit"] for name, m in last.get("metrics", {}).items()}
        wanted = {m["name"]: m["unit"] for m in workloads.CONTRACT[key]}
        expect(emitted == wanted, f"--trace {trace} emits every {key} metric with its unit")


def check_golden_check() -> None:
    """Run tiny once in-process and compare against perturbed goldens."""
    sys.path.insert(0, str(workloads.SRC))
    from postgrasp import cli, ik

    tiny = workloads.TINY
    if SCRATCH.exists():
        shutil.rmtree(SCRATCH)
    (path, _), = workloads.write_tasks(tiny, 0, SCRATCH / "tasks")
    out = SCRATCH / "out"

    def evaluate() -> dict:
        with spans.ReachObserver() as observer:
            argv = ["evaluate", "--robot", str(workloads.ROBOT), "--task", str(path), "--out", str(out)]
            status = cli.main(argv + list(tiny.cli_args))
            return {"tiny": {"status": status, "error": None, "reach": observer.take()}}

    observed = evaluate()
    gold = json.loads(tiny.golden_path(0).read_text())

    def failed_with(mutate, observed=observed) -> int:
        g = copy.deepcopy(gold)
        mutate(g["tasks"][0]["grasps"][0])
        return golden.check(g, out, observed).failed

    def scale(factor):
        def mutate(grasp):
            grasp["h_tme"] = format(float(grasp["h_tme"]) * factor, ".17g")

        return mutate

    expect(failed_with(lambda g: None) == 0, "unperturbed golden: 0 failed")
    expect(failed_with(scale(1 + 1e-6)) == 1, "h_tme perturbed by 1e-6 relative: 1 grasp failed")
    expect(failed_with(scale(1 + 1e-12)) == 0, "h_tme perturbed by 1e-12 relative: within tolerance")
    expect(failed_with(lambda g: g.update(reach="11110")) == 1, "perturbed reachability flag: 1 grasp failed")

    # a refactor that removes the per-grasp tracking function (other modules
    # keep their own binding here, so the program still runs)
    track = ik.track_trajectory
    del ik.track_trajectory
    try:
        blind = evaluate()
    finally:
        ik.track_trajectory = track
    report = golden.check(gold, out, blind)
    expect(
        report.failed == 0 and report.unobservable == ["tiny"],
        "ik.track_trajectory deleted: flags reported unobservable, 0 failed",
    )
    expect(failed_with(scale(1 + 1e-6), blind) == 1, "ik.track_trajectory deleted: perturbed h_tme still caught")


def check_kernel_shift() -> None:
    def refused(shift: float) -> bool:
        try:
            run.check_kernel_shift(shift, [])
        except run.BenchError:
            return True
        return False

    bound = run.KERNEL_SHIFT_BOUND
    expect(not refused(1.0) and not refused(1 + bound / 2), "kernel shift within the bound: run accepted")
    expect(refused(1 + 1.5 * bound) and refused(1 - 1.5 * bound), "kernel shift beyond the bound: run refused")


def check_without_program() -> None:
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(workloads.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "without src/: nonzero exit, no result printed")


def main() -> int:
    check_emitted()
    check_golden_check()
    check_kernel_shift()
    check_without_program()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
