"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import postgrasp
from postgrasp import (
    ChainModel,
    GraspCandidate,
    JointSpec,
    LinkSpec,
    Pose,
    Rotation,
    TaskTrajectory,
    directional_manipulability,
    evaluate_grasp,
    evaluate_task,
    inverse_dynamics,
    link_inertias,
    load_task,
    mass_matrix,
    build_report,
    reference_robot_path,
    reference_task_path,
)
from postgrasp.chain import link_frames_axes
from postgrasp.cli import main
from postgrasp.metrics import GraspScorecard
from postgrasp.task import path_parameter, resample

from oracles import (
    TwoRParams,
    brute_force_pareto,
    coriolis_matrix,
    directional_effective_mass,
    effective_mass,
    gravity_vector,
    operational_mass_inverse,
    two_r_closed_form,
)
from conftest import make_two_r


def report(criterion: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {description}")
    assert not failures, f"criterion {criterion} failed: {failures[:5]}"


def rel_err(got, want, floor=1e-9):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.abs(got - want).max() / max(np.abs(want).max(), floor))


def test_criterion_1_dynamics_cross_validation():
    failures = []
    start = time.time()
    params = TwoRParams(l1=1.1, l2=0.8, m1=1.4, m2=0.9)
    model = make_two_r(params)
    gravity = np.array([params.gx, params.gy, 0.0])
    rng = np.random.default_rng(101)
    worst = {"M": 0.0, "C": 0.0, "N": 0.0, "tau": 0.0}
    for _ in range(1000):
        q = rng.uniform(-np.pi, np.pi, 2)
        qd = rng.uniform(-1.0, 1.0, 2)
        qdd = rng.uniform(-1.0, 1.0, 2)
        oracle = two_r_closed_form(params, q, qd, qdd)
        kin = link_frames_axes(model, q)
        inertias = link_inertias(model, kin)
        worst["M"] = max(worst["M"], rel_err(mass_matrix(kin, inertias), oracle["M"]))
        worst["C"] = max(worst["C"], rel_err(coriolis_matrix(model, q, qd), oracle["C"]))
        worst["N"] = max(worst["N"], rel_err(gravity_vector(model, q, gravity), oracle["N"]))
        worst["tau"] = max(
            worst["tau"], rel_err(inverse_dynamics(kin, inertias, qd, qdd, gravity=gravity), oracle["tau"])
        )
    elapsed = time.time() - start
    if worst["M"] >= 1e-8:
        failures.append(f"M rel err {worst['M']:.2e}")
    if worst["N"] >= 1e-8:
        failures.append(f"N rel err {worst['N']:.2e}")
    if worst["tau"] >= 1e-8:
        failures.append(f"tau rel err {worst['tau']:.2e}")
    if worst["C"] >= 1e-5:
        failures.append(f"C rel err {worst['C']:.2e}")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s")
    report(1, f"2R dynamics vs closed form over 1000 states ({elapsed:.1f}s)", failures)


def test_criterion_2_structural_properties_7dof(arm7):
    failures = []
    start = time.time()
    rng = np.random.default_rng(202)
    dt = 1e-6
    for _ in range(200):
        q = rng.uniform(-1.8, 1.8, 7)
        qd = rng.uniform(-1.0, 1.0, 7)
        kin = link_frames_axes(arm7, q)
        inertias = link_inertias(arm7, kin)
        m = mass_matrix(kin, inertias)
        if np.abs(m - m.T).max() > 1e-10:
            failures.append("asymmetric M")
            break
        if np.linalg.eigvalsh(m)[0] <= 0.0:
            failures.append("non-SPD M")
            break
        plus, minus = link_frames_axes(arm7, q + qd * dt), link_frames_axes(arm7, q - qd * dt)
        mdot = (
            mass_matrix(plus, link_inertias(arm7, plus))
            - mass_matrix(minus, link_inertias(arm7, minus))
        ) / (2 * dt)
        skew = mdot - 2.0 * coriolis_matrix(arm7, q, qd)
        if np.abs(skew + skew.T).max() > 1e-6:
            failures.append(f"Mdot-2C not skew ({np.abs(skew + skew.T).max():.2e})")
            break
        n_vec = gravity_vector(arm7, q)
        cols = np.column_stack(
            [inverse_dynamics(kin, inertias, np.zeros(7), e) - n_vec for e in np.eye(7)]
        )
        if rel_err(cols, m) > 1e-9:
            failures.append(f"CRBA vs RNEA columns rel err {rel_err(cols, m):.2e}")
            break
    elapsed = time.time() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s")
    report(2, f"7-DOF structural dynamics over 200 configurations ({elapsed:.1f}s)", failures)


def test_criterion_3_tov_correctness():
    failures = []
    rng = np.random.default_rng(303)

    def eig_oracle(jac, u):
        eigs, vecs = np.linalg.eigh(jac @ jac.T)
        coords = vecs.T @ u
        return float(1.0 / np.sum(coords**2 / eigs))

    for _ in range(1000):
        jac = rng.normal(size=(6, int(rng.integers(6, 10))))
        u = rng.normal(size=6)
        u /= np.linalg.norm(u)
        gram = jac @ jac.T
        if np.linalg.eigvalsh(gram)[0] < 1e-9:
            continue
        a2, _ = directional_manipulability(jac, u)
        if abs(a2 - eig_oracle(jac, u)) > 1e-10 * max(1.0, a2):
            failures.append(f"mismatch vs eigendecomposition oracle: {a2}")
            break
        if abs(a2 * (u @ np.linalg.inv(gram) @ u) - 1.0) > 1e-9:
            failures.append("defining identity violated")
            break
    report(3, "directional manipulability vs eigendecomposition, 1000 Jacobians", failures)


def test_criterion_4_effective_mass_anchors():
    failures = []
    prism = ChainModel(
        joints=(JointSpec(kind="prismatic", axis=(0, 0, 1)),),
        links=(LinkSpec(mass=2.0, com=np.zeros(3), inertia=np.zeros((3, 3))),),
    )
    obj = LinkSpec(mass=0.4, com=np.zeros(3), inertia=np.eye(3) * 1e-9)
    m_e = effective_mass(
        prism, [0.25], GraspCandidate("g", Pose.identity()), obj, np.array([0, 0, 1.0, 0, 0, 0])
    )
    if abs(m_e - 2.4) > 1e-12:
        failures.append(f"prismatic m_e {m_e!r} != 2.4")

    length, mass = 0.75, 1.3
    pend = ChainModel(
        joints=(JointSpec(kind="revolute", axis=(0, 0, 1)),),
        links=(LinkSpec(mass=mass, com=(length, 0, 0), inertia=np.zeros((3, 3))),),
        tool_transform=Pose(Rotation.identity(), (length, 0, 0)),
    )
    q = 0.6
    tangent = np.array([-np.sin(q), np.cos(q), 0, 0, 0, 0])
    kin = link_frames_axes(pend, [q])
    value, flagged = directional_effective_mass(
        operational_mass_inverse(kin, link_inertias(pend, kin)), tangent
    )
    if abs(value - mass) > 1e-10 or flagged:
        failures.append(f"pendulum tangential m_e {value!r}")

    straight = make_two_r(TwoRParams())
    kin = link_frames_axes(straight, np.zeros(2))
    value, flagged = directional_effective_mass(
        operational_mass_inverse(kin, link_inertias(straight, kin)),
        np.array([1.0, 0, 0, 0, 0, 0]),
    )
    if value != 1e9 or not flagged:
        failures.append(f"singular capping: value={value!r} flagged={flagged}")
    report(4, "effective-mass anchors (prismatic 2.4 kg, pendulum, capping)", failures)


def _load_reference(name):
    spec = load_task(reference_task_path(name))
    task = resample(spec.trajectory, spec.resample_count)
    return spec, task


@pytest.fixture(scope="module")
def reference_scorecards(arm7):
    out = {}
    for name in ("task1", "task2", "task3"):
        spec, task = _load_reference(name)
        out[name] = (spec, task, evaluate_task(arm7, spec))
    return out


def test_criterion_5_reparametrization(arm7, reference_scorecards):
    failures = []
    for name, (spec, task, cards) in reference_scorecards.items():
        warped_times = 2.0 * task.total_time * (task.times / task.total_time) ** 1.3
        warped = TaskTrajectory(task.quaternions, task.translations, warped_times)
        for idx in (0, 4, 9):
            base = cards[idx]
            retimed = evaluate_grasp(
                arm7,
                warped,
                spec.grasps[idx],
                spec.obj,
                path_parameter(warped),
                ik_seed=spec.ik_seed,
                gravity=spec.gravity,
            )
            d_tov = abs(retimed.h_tov - base.h_tov) / abs(base.h_tov)
            d_tem = abs(retimed.h_tem - base.h_tem) / abs(base.h_tem)
            d_tme = abs(retimed.h_tme - base.h_tme) / abs(base.h_tme)
            if d_tov >= 1e-9:
                failures.append(f"{name} grasp {idx}: H_TOV moved {d_tov:.2e}")
            if d_tem >= 1e-9:
                failures.append(f"{name} grasp {idx}: H_TEM moved {d_tem:.2e}")
            if d_tme <= 0.01:
                failures.append(f"{name} grasp {idx}: H_TME moved only {d_tme:.2%}")
    report(5, "re-timing leaves TOV/TEM fixed, moves TME by > 1%", failures)


def test_criterion_6_protocol_structural_reproduction(reference_scorecards):
    failures = []
    start = time.time()
    singleton = []
    conflicted = []
    for name, (spec, task, cards) in reference_scorecards.items():
        offsets = np.array([g.transform.translation[1] for g in spec.grasps])
        if len(spec.grasps) != 10 or np.abs(offsets - np.linspace(-0.22, 0.22, 10)).max() > 1e-9:
            failures.append(f"{name}: grasp sweep is not -0.22..0.22 x 10")
        if abs(spec.obj.mass - 0.4) > 1e-12:
            failures.append(f"{name}: object mass {spec.obj.mass}")
        infeasible = [c.grasp_id for c in cards if not c.feasible]
        if infeasible:
            failures.append(f"{name}: infeasible grasps {infeasible}")
            continue
        front = build_report(cards).pareto
        argbests = {
            "tov": max(cards, key=lambda c: c.h_tov).grasp_id,
            "tme": min(cards, key=lambda c: c.h_tme).grasp_id,
            "tem": min(cards, key=lambda c: c.h_tem).grasp_id,
        }
        conflict = len(set(argbests.values())) > 1
        if len(front) == 1:
            singleton.append(name)
        if conflict and len(front) >= 2:
            conflicted.append(name)
    if not singleton:
        failures.append("no task with a singleton Pareto front")
    if not conflicted:
        failures.append("no task with conflict and front size >= 2")
    elapsed = time.time() - start
    report(
        6,
        f"protocol regimes: agreement on {singleton or '-'}, conflict on {conflicted or '-'} "
        f"({elapsed:.1f}s on cached evaluations)",
        failures,
    )


REFERENCE_GOLDEN = Path(__file__).resolve().parents[1] / "bench/goldens/reference-v00.json"


def test_criterion_6_golden_record(reference_scorecards):
    # the committed golden record of the paper protocol: scalars within
    # 1e-9 relative, feasibility, reachability, Pareto set, argbest and
    # conflict exact
    failures = []
    gold = {task["name"]: task for task in json.loads(REFERENCE_GOLDEN.read_text())["tasks"]}
    for name, (spec, task, cards) in reference_scorecards.items():
        want = gold[name]
        if [c.grasp_id for c in cards] != [g["id"] for g in want["grasps"]]:
            failures.append(f"{name}: grasp ids differ from golden")
            continue
        for card, g in zip(cards, want["grasps"]):
            if card.feasible != g["feasible"]:
                failures.append(f"{name}/{card.grasp_id}: feasible={card.feasible}")
                continue
            reach = "".join("0" if u else "1" for u in card.flags["unreachable"])
            if reach != g["reach"]:
                failures.append(f"{name}/{card.grasp_id}: reachability {reach}")
            for key in ("h_tov", "h_tme", "h_tem"):
                drift = rel_err(getattr(card, key), float(g[key]))
                if drift > 1e-9:
                    failures.append(f"{name}/{card.grasp_id}: {key} drifted {drift:.2e}")
        ranking = build_report(cards, weights=(0.4, 0.3, 0.3))
        if list(ranking.pareto) != want["pareto"]:
            failures.append(f"{name}: pareto {list(ranking.pareto)} != {want['pareto']}")
        if ranking.argbest != want["argbest"]:
            failures.append(f"{name}: argbest {ranking.argbest} != {want['argbest']}")
        if ranking.conflict != want["conflict"]:
            failures.append(f"{name}: conflict {ranking.conflict} != {want['conflict']}")
    report(6, f"protocol reproduces {REFERENCE_GOLDEN.name}", failures)


def test_criterion_6_runtime_budget(arm7):
    # the protocol itself (fresh, no caching) must finish within 2 minutes
    start = time.time()
    for name in ("task1", "task2", "task3"):
        evaluate_task(arm7, load_task(reference_task_path(name)))
    elapsed = time.time() - start
    failures = [] if elapsed < 120.0 else [f"runtime {elapsed:.1f}s"]
    report(6, f"full 3-task x 10-grasp protocol runtime {elapsed:.1f}s < 120s", failures)


def test_criterion_7_heatmap_structure(tmp_path):
    failures = []
    argv = ["evaluate", "--robot", str(reference_robot_path("arm7")), "--out", str(tmp_path)]
    for name in ("task1", "task2", "task3"):
        argv += ["--task", str(reference_task_path(name))]
    status = main(argv)
    if status != 0:
        failures.append(f"evaluate exited {status}")
    conflict_task = None
    for name in ("task1", "task2", "task3"):
        with open(tmp_path / name / "report.json") as fh:
            if json.load(fh)["conflict"]:
                conflict_task = name
                break
    if conflict_task is None:
        failures.append("no conflict task found")
    else:
        rows = (tmp_path / conflict_task / "profile_tem.csv").read_text().splitlines()
        matrix = np.array([[float(x) for x in row.split(",")[1:]] for row in rows[1:]])
        if matrix.shape != (10, 50):
            failures.append(f"heatmap shape {matrix.shape} != (10, 50)")
        elif matrix.var(axis=1).min() <= 0.0 or matrix.var(axis=0).min() <= 0.0:
            failures.append("heatmap constant along an axis")
    report(
        7,
        f"effective-mass heatmap of {conflict_task} is grasps x waypoints and varies both ways",
        failures,
    )


def test_criterion_8_ranking_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(808)
    for trial in range(1000):
        points = np.column_stack(
            [rng.uniform(0.1, 2.0, 10), rng.uniform(1.0, 50.0, 10), rng.uniform(0.5, 5.0, 10)]
        )
        cards = [
            GraspScorecard(f"g{i:02d}", True, h_tov=p[0], h_tme=p[1], h_tem=p[2])
            for i, p in enumerate(points)
        ]
        got = {int(gid[1:]) for gid in build_report(cards).pareto}
        expected = brute_force_pareto(points, ("max", "min", "min"))
        if got != expected:
            failures.append(f"trial {trial}: {got} != {expected}")
            break
    report(8, "the Pareto front equals brute-force dominance on 1000 instances", failures)


def test_criterion_9_determinism(tmp_path):
    failures = []
    names = [
        "scorecards.csv",
        "profile_tov.csv",
        "profile_tme.csv",
        "profile_tem.csv",
        "scalars_long.csv",
        "report.json",
    ]
    robot, task = reference_robot_path("arm7"), reference_task_path("task3")

    def argv(tag):
        return ["evaluate", "--robot", str(robot), "--task", str(task), "--out", str(tmp_path / tag)]

    def outputs(tag, status):
        if status != 0:
            failures.append(f"{tag}: exit {status}")
        return {name: (tmp_path / tag / "task3" / name).read_bytes() for name in names}

    def fresh_interpreter(tag, hash_seed):
        env = dict(os.environ, PYTHONPATH=str(Path(postgrasp.__file__).parents[1]), PYTHONHASHSEED=hash_seed)
        run = subprocess.run([sys.executable, "-m", "postgrasp", *argv(tag)], capture_output=True, env=env, timeout=300)
        return outputs(tag, run.returncode)

    # two fresh interpreters under different string hash seeds: no output
    # may depend on the order in which a set or dict of strings is walked
    runs = {tag: outputs(tag, main(argv(tag))) for tag in ("first", "second")}
    runs.update((f"seed{seed}", fresh_interpreter(f"seed{seed}", seed)) for seed in ("1", "2"))
    for tag, files in runs.items():
        for name in names:
            if files[name] != runs["first"][name]:
                failures.append(f"{name}: the {tag} run writes other bytes than the first in-process run")
    report(9, "byte-identical outputs across two in-process runs and two hash seeds", failures)
