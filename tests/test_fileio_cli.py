import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import postgrasp
from postgrasp import (
    GraspScorecard,
    Pose,
    Rotation,
    SchemaError,
    build_report,
    evaluate_task,
    forward_kinematics,
    generate_grasp_sweep,
    link_frames_axes,
    load_robot,
    load_task,
    reference_robot_path,
    reference_task_path,
)
from postgrasp.cli import main
from postgrasp.fileio import (
    MAX_COUNT,
    REPORT_SCHEMA_VERSION,
    read_scorecards_csv,
    report_to_dict,
    write_scorecards_csv,
)
from postgrasp.metrics import FLAGS

ARM7_SEED = [1.1714, -0.5996, -1.3336, 1.6372, -2.1718, -1.3377, -0.3196]


def synthetic_task_dict(grasps=None):
    if grasps is None:
        grasps = [
            {"id": "g_a", "translation": [0.0, -0.05, 0.1], "quaternion": [0.0, 1.0, 0.0, 0.0]},
            {"id": "g_b", "translation": [0.0, 0.05, 0.1], "quaternion": [0.0, 1.0, 0.0, 0.0]},
        ]
    return {
        "schema_version": 1,
        "name": "synthetic",
        "total_time_s": 1.0,
        "gravity": [0.0, 0.0, -9.81],
        "object": {
            "mass": 0.4,
            "inertia": [0.002, 0.0097, 0.0091, 0.0, 0.0, 0.0],
            "extents": [0.5, 0.15, 0.2],
        },
        "object_waypoints": [
            {"t": 0.0, "translation": [0.62, 0.10, 0.12], "quaternion": [1.0, 0.0, 0.0, 0.0]},
            {"t": 1.0, "translation": [0.62, -0.08, 0.12], "quaternion": [1.0, 0.0, 0.0, 0.0]},
        ],
        "grasps": grasps,
        "resample_count": 10,
        "ik_seed": ARM7_SEED,
    }


def tip_mass_3r_dict():
    """Planar 3R arm with unit links whose only mass is a point at the tip."""
    identity = {"translation": [0.0, 0.0, 0.0], "quaternion": [1.0, 0.0, 0.0, 0.0]}
    link_end = {"translation": [1.0, 0.0, 0.0], "quaternion": [1.0, 0.0, 0.0, 0.0]}
    joint = {"kind": "revolute", "axis": [0.0, 0.0, 1.0], "limits": [-3.1, 3.1], "velocity_limit": 3.0}
    massless = {"mass": 0.0, "com": [0.0, 0.0, 0.0], "inertia": [0.0] * 6}
    return {
        "schema_version": 1,
        "name": "tip_mass_3r",
        "base_pose": identity,
        "joints": [dict(joint, origin=o) for o in (identity, link_end, link_end)],
        "links": [massless, massless, {"mass": 1.0, "com": [1.0, 0.0, 0.0], "inertia": [0.0] * 6}],
        "tool_transform": link_end,
    }


def planar_task_dict():
    """A point object carried along a line in the plane of the 3R arm."""
    return {
        "schema_version": 1,
        "name": "planar",
        "total_time_s": 1.0,
        "gravity": [0.0, -9.81, 0.0],
        "object": {"mass": 0.5, "inertia": [0.0] * 6},
        "object_waypoints": [
            {"t": 0.0, "translation": [1.5, 0.3, 0.0], "quaternion": [1.0, 0.0, 0.0, 0.0]},
            {"t": 1.0, "translation": [1.5, -0.3, 0.0], "quaternion": [1.0, 0.0, 0.0, 0.0]},
        ],
        "grasps": [{"id": "g", "translation": [0.0, 0.0, 0.0], "quaternion": [1.0, 0.0, 0.0, 0.0]}],
        "resample_count": 5,
        "ik_seed": [0.5, -1.0, 0.5],
    }


def evaluate_argv(task, out, *options) -> list[str]:
    """``evaluate`` on ``arm7`` and one task file."""
    return ["evaluate", "--robot", str(reference_robot_path("arm7")), "--task", str(task), "--out", str(out), *options]


@pytest.fixture
def synthetic_task_path(tmp_path):
    path = tmp_path / "synthetic.json"
    path.write_text(json.dumps(synthetic_task_dict()))
    return path


class TestLoadRobot:
    def test_planar_rr_sanity(self, planar_rr):
        assert planar_rr.n == 2
        pose = forward_kinematics(link_frames_axes(planar_rr, [0.0, 0.0]))
        assert np.abs(np.array(pose[4:]) - np.array([2.0, 0.0, 0.0])).max() <= 1e-12

    def test_arm7_matches_file_numbers(self, arm7):
        data = json.loads(reference_robot_path("arm7").read_text())
        assert arm7.n == len(data["joints"]) == 7
        for joint, jobj in zip(arm7.joints, data["joints"]):
            assert joint.kind == jobj["kind"]
            assert np.abs(joint.axis - np.array(jobj["axis"])).max() <= 1e-12
            assert joint.limits == tuple(jobj["limits"])
        for link, lobj in zip(arm7.links, data["links"]):
            assert link.mass == lobj["mass"]

    def test_negative_mass_names_link(self, tmp_path):
        data = json.loads(reference_robot_path("planar_rr").read_text())
        data["links"][1]["mass"] = -1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match=r"links\[1\]\.mass"):
            load_robot(bad)

    def test_unknown_field_rejected(self, tmp_path):
        data = json.loads(reference_robot_path("planar_rr").read_text())
        data["surprise"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="surprise"):
            load_robot(bad)

    def test_missing_field_rejected(self, tmp_path):
        data = json.loads(reference_robot_path("planar_rr").read_text())
        del data["tool_transform"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="tool_transform"):
            load_robot(bad)

    def test_first_listed_missing_field_named_under_every_hash_seed(self, tmp_path):
        # a file missing two fields is refused for the one the schema lists
        # first, whatever order the string hash gives a set of field names
        data = json.loads(reference_robot_path("planar_rr").read_text())
        del data["name"], data["links"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        errors = set()
        for seed in ("1", "2", "3", "4", "5", "6"):
            env = dict(os.environ, PYTHONPATH=str(Path(postgrasp.__file__).parents[1]), PYTHONHASHSEED=seed)
            run = subprocess.run(
                [sys.executable, "-m", "postgrasp", "inspect-model", "--robot", str(bad)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert run.returncode == 2
            errors.add(run.stderr)
        assert errors == {f"error: {bad}.name: missing field\n"}

    def test_bad_quaternion_rejected(self, tmp_path):
        data = json.loads(reference_robot_path("planar_rr").read_text())
        data["base_pose"]["quaternion"] = [1.0, 1.0, 0.0, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="quaternion"):
            load_robot(bad)

    def test_wrong_schema_version_rejected(self, tmp_path):
        data = json.loads(reference_robot_path("planar_rr").read_text())
        data["schema_version"] = 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="schema_version"):
            load_robot(bad)

    def test_invalid_json_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        with pytest.raises(SchemaError, match=r"bad\.json:2"):
            load_robot(bad)

    @pytest.mark.parametrize("value", [0.0, -2.0])
    def test_non_positive_velocity_limit_names_its_field(self, tmp_path, value):
        # the limit is documentation only, yet the file must state a sane one
        data = json.loads(reference_robot_path("planar_rr").read_text())
        data["joints"][1]["velocity_limit"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match=r"joints\[1\]\.velocity_limit: must be positive"):
            load_robot(bad)


class TestLoadTask:
    def test_reference_tasks_load(self):
        for name in ("task1", "task2", "task3"):
            spec = load_task(reference_task_path(name))
            assert spec.name == name
            assert len(spec.grasps) == 10
            assert spec.resample_count == 50
            assert spec.ik_seed is not None

    def test_sweep_expansion(self, tmp_path):
        data = synthetic_task_dict()
        del data["grasps"]
        data["sweep"] = {
            "start": {"translation": [0.0, -0.22, 0.1], "quaternion": [0.0, 1.0, 0.0, 0.0]},
            "end": {"translation": [0.0, 0.22, 0.1], "quaternion": [0.0, 1.0, 0.0, 0.0]},
            "count": 10,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(data))
        spec = load_task(path)
        assert [g.id for g in spec.grasps] == [f"g{i:02d}" for i in range(1, 11)]
        assert abs(spec.grasps[0].transform.translation[1] + 0.22) <= 1e-15

    @pytest.mark.parametrize(
        "end, refused",
        [
            ([0.0, -1.0, 0.0, 0.0], False),  # -q is the start's rotation
            ([0.0, math.cos(2e-7), math.sin(2e-7), 0.0], False),  # 4e-7 rad off
            ([0.0, math.cos(1e-6), math.sin(1e-6), 0.0], True),  # 2e-6 rad off
            ([1.0, 0.0, 0.0, 0.0], True),
        ],
    )
    def test_sweep_end_keeps_the_start_rotation(self, tmp_path, end, refused):
        # every grasp of a sweep takes start's orientation, so an end
        # rotation that differs from it would be read and then ignored
        data = _sweep_task_dict(3)
        data["sweep"]["end"]["quaternion"] = end
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(data))
        if not refused:
            assert len(load_task(path).grasps) == 3
            return
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}.sweep.end.quaternion: rotation differs"):
            load_task(path)

    def test_grasps_and_sweep_exclusive(self, tmp_path):
        data = synthetic_task_dict()
        data["sweep"] = {
            "start": {"translation": [0, 0, 0], "quaternion": [1.0, 0, 0, 0]},
            "end": {"translation": [0, 1, 0], "quaternion": [1.0, 0, 0, 0]},
            "count": 2,
        }
        path = tmp_path / "both.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="exactly one"):
            load_task(path)
        del data["sweep"]
        del data["grasps"]
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="exactly one"):
            load_task(path)

    def test_duplicate_grasp_id_rejected(self, tmp_path):
        grasps = [
            {"id": "same", "translation": [0, 0, 0.1], "quaternion": [0.0, 1.0, 0.0, 0.0]},
            {"id": "same", "translation": [0, 0.1, 0.1], "quaternion": [0.0, 1.0, 0.0, 0.0]},
        ]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(synthetic_task_dict(grasps)))
        with pytest.raises(SchemaError, match="duplicate"):
            load_task(path)

    @pytest.mark.parametrize("t0, accepted", [(5e-10, True), (1e-6, False)])
    def test_one_start_time_tolerance(self, tmp_path, capsys, t0, accepted):
        # a start time the loader accepts is accepted by the evaluation too;
        # a rejected one names its field
        data = synthetic_task_dict()
        data["object_waypoints"][0]["t"] = t0
        path = tmp_path / "start.json"
        path.write_text(json.dumps(data))
        argv = ["evaluate", "--robot", str(reference_robot_path("arm7")), "--task", str(path)]
        rc = main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if accepted:
            assert rc == 0, err
        else:
            assert rc == 2
            assert "object_waypoints[0].t: trajectory must start at t = 0" in err

    def test_keyframes_stored_as_rotation_normalises_them(self, tmp_path, rng):
        # keyframe quaternions with w < 0 and norms up to the accepted 1e-6
        # off 1: each is stored flipped and normalised, bit for bit as a
        # Rotation of the parsed floats holds it
        units = rng.normal(size=(6, 4))
        units /= np.linalg.norm(units, axis=1)[:, None]
        units[:, 0] = -np.abs(units[:, 0])
        scales = [1.0 + 9.9e-7, 1.0 - 9.9e-7, 1.0 + 5e-7, 1.0 - 3e-7, 1.0 + 1e-9, 1.0]
        raw = [(scale * q).tolist() for scale, q in zip(scales, units)]
        data = synthetic_task_dict()
        data["object_waypoints"] = [
            {"t": t, "translation": [0.62, 0.1 - 0.03 * i, 0.12], "quaternion": q}
            for i, (t, q) in enumerate(zip(np.linspace(0.0, 1.0, 6).tolist(), raw))
        ]
        path = tmp_path / "keyframes.json"
        path.write_text(json.dumps(data))
        stored = load_task(path).trajectory.quaternions
        for got, q in zip(stored, raw):
            assert got.tobytes() == Rotation(*np.array(q)).quat.tobytes()
            assert got[0] > 0.0 and abs(np.linalg.norm(got) - 1.0) <= 4e-16

    def test_positive_mass_required(self, tmp_path):
        path = tmp_path / "object.json"
        for mass in (0.0, -1.0):
            data = synthetic_task_dict()
            data["object"]["mass"] = mass
            path.write_text(json.dumps(data))
            with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}.object.mass: must be positive"):
                load_task(path)

    def test_triangle_inequality_enforced(self, tmp_path):
        data = synthetic_task_dict()
        data["object"]["inertia"] = [0.1, 0.1, 0.30001, 0.0, 0.0, 0.0]
        path = tmp_path / "object.json"
        path.write_text(json.dumps(data))
        message = "inertia tensor violates the principal-moment triangle inequality"
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}.object: {message}$"):
            load_task(path)

    def test_bad_final_time_rejected(self, tmp_path):
        data = synthetic_task_dict()
        data["object_waypoints"][-1]["t"] = 0.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="total_time_s"):
            load_task(path)


class TestCsvPrecision:
    def test_scorecards_round_trip_exact_floats(self, tmp_path):
        cards = [
            GraspScorecard("g01", True, h_tov=math.pi, h_tme=1e-17 + 2.0, h_tem=math.e * 1e5),
            GraspScorecard("g02", False),
        ]
        path = tmp_path / "scorecards.csv"
        write_scorecards_csv(path, cards, None)
        back = read_scorecards_csv(path)
        assert back[0].h_tov == math.pi
        assert back[0].h_tme == 1e-17 + 2.0
        assert back[0].h_tem == math.e * 1e5
        assert back[1].feasible is False


def flagged_card(gid, h_tov, h_tme, h_tem, **flagged):
    """A feasible card on three waypoints; ``flagged`` maps a flag name to
    the indices of its flagged waypoints."""
    flags = {name: np.isin(np.arange(3), flagged.get(name, [])) for name in FLAGS}
    return GraspScorecard(gid, True, h_tov=h_tov, h_tme=h_tme, h_tem=h_tem, flags=flags)


COUNTS = ",n_near_singular,n_unachievable,n_unreachable"


class TestFlagOutputs:
    # a capped grasp (unreachable waypoints) sets the tme and tem maxima
    CARDS = [
        flagged_card("a", 2.0, 1.0, 1.0),
        flagged_card("capped", 1.0, 5.0, 7.0, unreachable=[1, 2]),
        GraspScorecard("off", False),
        flagged_card("b", 0.5, 2.0, 3.0, near_singular=[0], unachievable=[2]),
    ]

    def test_report_names_a_flagged_normalization_maximum(self):
        payload = report_to_dict(build_report(self.CARDS), "t", "r", self.CARDS)
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION == 2
        assert payload["normalization"] == {
            "tov": {"grasp_id": "a", "max": 2.0, "flagged": False},
            "tme": {"grasp_id": "capped", "max": 5.0, "flagged": True},
            "tem": {"grasp_id": "capped", "max": 7.0, "flagged": True},
        }
        assert payload["diagnostics"]["off"] is None
        assert payload["diagnostics"]["capped"] == {
            "flag_counts": {"near_singular": 0, "unachievable": 0, "unreachable": 2},
            "flag_waypoints": {"near_singular": [], "unachievable": [], "unreachable": [1, 2]},
        }
        assert payload["diagnostics"]["b"]["flag_waypoints"] == {
            "near_singular": [0],
            "unachievable": [2],
            "unreachable": [],
        }

    def test_counts_round_trip_and_pareto_reports_counts_only(self, tmp_path, capsys):
        path = tmp_path / "scorecards.csv"
        write_scorecards_csv(path, self.CARDS, None)
        header, *rows = path.read_text().splitlines()
        assert header.endswith(",pareto,n_near_singular,n_unachievable,n_unreachable")
        assert [row.split(",")[-3:] for row in rows] == [
            ["0", "0", "0"],
            ["0", "0", "2"],
            ["", "", ""],
            ["1", "1", "0"],
        ]
        back = {sc.grasp_id: sc for sc in read_scorecards_csv(path)}
        assert back["capped"].counts() == {"near_singular": 0, "unachievable": 0, "unreachable": 2}
        assert back["off"].counts() is None
        assert main(["pareto", "--scorecards", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"]["b"] == {
            "flag_counts": {"near_singular": 1, "unachievable": 1, "unreachable": 0},
            "flag_waypoints": None,
        }
        assert payload["normalization"]["tem"] == {"grasp_id": "capped", "max": 7.0, "flagged": True}

    def test_file_without_count_columns_has_no_counts(self, tmp_path, capsys):
        path = tmp_path / "cards.csv"
        path.write_text("grasp_id,feasible,h_tov,h_tme,h_tem\na,true,2.0,1,1.0\nb,true,1.0,2,2.0\n")
        assert main(["pareto", "--scorecards", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"]["a"] == {"flag_counts": None, "flag_waypoints": None}
        assert payload["normalization"]["tov"] == {"grasp_id": "a", "max": 2.0, "flagged": None}

    @pytest.mark.parametrize(
        "columns, row, message",
        [
            (COUNTS, ",x,0,0", "row 2, column n_near_singular: expected a non-negative integer, got 'x'"),
            (COUNTS, ",1,,0", "row 2, column n_unachievable: expected a non-negative integer, got ''"),
            (COUNTS, ",-1,0,0", "row 2, column n_near_singular: expected a non-negative integer, got '-1'"),
            (",n_near_singular", ",0", "missing column(s) n_unachievable, n_unreachable"),
        ],
        ids=["text", "partly-empty", "negative", "missing-column"],
    )
    def test_bad_count_cells_named(self, tmp_path, capsys, columns, row, message):
        path = tmp_path / "cards.csv"
        path.write_text(f"grasp_id,feasible,h_tov,h_tme,h_tem{columns}\na,true,2.0,1,1.0{row}\n")
        assert main(["pareto", "--scorecards", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_evaluate_writes_the_scorecards_flags(self, tmp_path, arm7):
        # the report's waypoint lists and the CSV's counts are the
        # scorecards' flags, on a sweep whose far grasps are capped
        task = load_task(reference_task_path("task3"))
        grasps = generate_grasp_sweep(
            Pose(Rotation(0.0, 1.0, 0.0, 0.0), np.array([0.0, -0.6, 0.1])),
            Pose(Rotation(0.0, 1.0, 0.0, 0.0), np.array([0.0, 0.6, 0.1])),
            6,
        )
        cards = evaluate_task(arm7, replace(task, grasps=tuple(grasps), resample_count=8))
        override = [
            {"id": g.id, "translation": g.transform.translation.tolist(), "quaternion": g.transform.rotation.quat.tolist()}
            for g in grasps
        ]
        options = ["--resample", "8", "--allow-infeasible", "--grasps-override", json.dumps(override)]
        assert main(evaluate_argv(reference_task_path("task3"), tmp_path, *options)) == 0
        outdir = tmp_path / task.name
        payload = json.loads((outdir / "report.json").read_text())
        back = {sc.grasp_id: sc for sc in read_scorecards_csv(outdir / "scorecards.csv")}
        assert any(sc.feasible and sc.flags["unreachable"].any() for sc in cards)
        for sc in cards:
            if not sc.feasible:
                assert payload["diagnostics"][sc.grasp_id] is None and back[sc.grasp_id].counts() is None
                continue
            want = {name: np.flatnonzero(sc.flags[name]).tolist() for name in FLAGS}
            assert payload["diagnostics"][sc.grasp_id]["flag_waypoints"] == want
            assert back[sc.grasp_id].counts() == {name: len(want[name]) for name in FLAGS}


class TestRunEvaluation:
    def test_outputs_and_determinism(self, tmp_path, synthetic_task_path):
        def run(outdir):
            assert main(evaluate_argv(synthetic_task_path, outdir)) == 0
            return outdir / "synthetic"

        out1 = run(tmp_path / "a")
        names = [
            "scorecards.csv",
            "profile_tov.csv",
            "profile_tme.csv",
            "profile_tem.csv",
            "scalars_long.csv",
            "report.json",
        ]
        for name in names:
            assert (out1 / name).exists()

        report = json.loads((out1 / "report.json").read_text())
        assert report["n_feasible"] == 2
        assert set(report["argbest"]) == {"tov", "tme", "tem"}

        cards = read_scorecards_csv(out1 / "scorecards.csv")
        assert [c.grasp_id for c in cards] == ["g_a", "g_b"]

        # normalized columns peak at exactly 1
        rows = (out1 / "scorecards.csv").read_text().splitlines()
        header = rows[0].split(",")
        for col in ("h_tov_norm", "h_tme_norm", "h_tem_norm"):
            idx = header.index(col)
            vals = [float(r.split(",")[idx]) for r in rows[1:]]
            assert max(vals) == 1.0

        # heatmap dims: grasps x waypoints (+ header row, + id column)
        profile_rows = (out1 / "profile_tem.csv").read_text().splitlines()
        assert len(profile_rows) == 3
        assert len(profile_rows[1].split(",")) == 11

        # 2 grasps x 3 metrics = 6 long-format rows
        long_rows = (out1 / "scalars_long.csv").read_text().splitlines()
        assert len(long_rows) == 7

        out2 = run(tmp_path / "b")
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_grasps_override_single(self, tmp_path, synthetic_task_path):
        solo = '[{"id": "solo", "translation": [0.0, 0.0, 0.1], "quaternion": [0.0, 1.0, 0.0, 0.0]}]'
        assert main(evaluate_argv(synthetic_task_path, tmp_path / "o", "--grasps-override", solo)) == 0
        rows = (tmp_path / "o" / "synthetic" / "scorecards.csv").read_text().splitlines()
        header = rows[0].split(",")
        vals = rows[1].split(",")
        for col in ("h_tov_norm", "h_tme_norm", "h_tem_norm"):
            assert float(vals[header.index(col)]) == 1.0
        assert vals[header.index("pareto")] == "true"

    def test_infeasible_exit_codes(self, tmp_path):
        grasps = [
            {"id": "ok", "translation": [0.0, 0.0, 0.1], "quaternion": [0.0, 1.0, 0.0, 0.0]},
            {"id": "far", "translation": [0.0, 0.0, 3.0], "quaternion": [0.0, 1.0, 0.0, 0.0]},
        ]
        task = tmp_path / "task.json"
        task.write_text(json.dumps(synthetic_task_dict(grasps)))
        assert main(evaluate_argv(task, tmp_path / "strict")) == 2
        assert main(evaluate_argv(task, tmp_path / "relaxed", "--allow-infeasible")) == 0
        cards = read_scorecards_csv(tmp_path / "relaxed" / "synthetic" / "scorecards.csv")
        assert [c.feasible for c in cards] == [True, False]

    def test_rerun_without_feasible_grasps_leaves_only_its_scorecards(self, tmp_path, synthetic_task_path, capsys):
        # a rerun into the same directory whose every grasp is infeasible
        # writes the scorecards alone; no report, profile or scalars file of
        # the first run's grasps is left beside them
        argv = ["evaluate", "--robot", str(reference_robot_path("arm7")), "--task", str(synthetic_task_path)]
        argv += ["--out", str(tmp_path)]
        assert main(argv) == 0
        outdir = tmp_path / "synthetic"
        assert len(list(outdir.iterdir())) == 6
        far = '[{"id":"far","translation":[0,3,0.1],"quaternion":[0,1,0,0]}]'
        assert main(argv + ["--grasps-override", far]) == 2
        assert [p.name for p in outdir.iterdir()] == ["scorecards.csv"]
        assert [c.grasp_id for c in read_scorecards_csv(outdir / "scorecards.csv")] == ["far"]
        assert capsys.readouterr().err.endswith("synthetic: no feasible grasps\n")


class TestCliCommands:
    def test_inspect_model(self, capsys):
        rc = main(
            ["inspect-model", "--robot", str(reference_robot_path("planar_rr")), "--config", "0,0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "planar_rr" in out
        assert "tool position: 2," in out

    def test_inspect_model_rejects_non_finite_config(self, capsys):
        rc = main(
            [
                "inspect-model",
                "--robot",
                str(reference_robot_path("arm7")),
                "--config",
                "nan,0,0,0,0,0,0",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "--config: values must be finite" in captured.err
        assert captured.out == ""

    def test_metrics_at(self, capsys, synthetic_task_path):
        rc = main(
            [
                "metrics-at",
                "--robot",
                str(reference_robot_path("arm7")),
                "--task",
                str(synthetic_task_path),
                "--grasp",
                "g_a",
                "--waypoint",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tov a^2" in out
        assert "m_e" in out
        # a 7-joint arm can move its gripper in any direction
        assert "  unachievable = False\n" in out

    def test_metrics_at_prints_the_unachievable_direction_flag(self, tmp_path, capsys, planar_rr):
        # the planar arm holds its first waypoint, but the path then lifts
        # out of the arm's plane: at waypoint 0 tov's direction is
        # unachievable and tem's is near-singular
        pose = forward_kinematics(link_frames_axes(planar_rr, [0.3, 0.9]))
        start = {"translation": list(pose[4:]), "quaternion": list(pose[:4])}
        lifted = dict(start, translation=(np.array(pose[4:]) + [0.0, 0.0, 0.1]).tolist())
        task = {
            "schema_version": 1,
            "name": "lift",
            "total_time_s": 1.0,
            "gravity": [0.0, -9.81, 0.0],
            "object": {"mass": 0.5, "inertia": [0.0] * 6},
            "object_waypoints": [dict(start, t=0.0), dict(lifted, t=1.0)],
            "grasps": [{"id": "g", "translation": [0.0, 0.0, 0.0], "quaternion": [1.0, 0.0, 0.0, 0.0]}],
            "resample_count": 5,
            "ik_seed": [0.3, 0.9],
        }
        path = tmp_path / "lift.json"
        path.write_text(json.dumps(task))
        argv = ["metrics-at", "--robot", str(reference_robot_path("planar_rr")), "--task", str(path)]
        assert main(argv + ["--grasp", "g", "--waypoint", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == ["  s            = 0", "  tov a^2      = 0"]
        assert lines[5:8] == ["  near_singular= True", "  unachievable = True", "  unreachable  = False"]

    def test_pareto_verb(self, tmp_path, capsys):
        cards = [
            GraspScorecard("a", True, h_tov=2.0, h_tme=1.0, h_tem=1.0),
            GraspScorecard("b", True, h_tov=1.0, h_tme=2.0, h_tem=2.0),
        ]
        path = tmp_path / "cards.csv"
        write_scorecards_csv(path, cards, None)
        rc = main(["pareto", "--scorecards", str(path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pareto_front"] == ["a"]
        assert payload["conflict"] is False

    def test_evaluate_cli_smoke(self, tmp_path, synthetic_task_path):
        rc = main(
            [
                "evaluate",
                "--robot",
                str(reference_robot_path("arm7")),
                "--task",
                str(synthetic_task_path),
                "--out",
                str(tmp_path / "cli_out"),
                "--resample",
                "8",
                "--weights",
                "0.4,0.3,0.3",
                "--index-quadrature",
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "cli_out" / "synthetic" / "report.json").read_text())
        assert report["weights"] == [0.4, 0.3, 0.3]
        assert report["scalarized_order"] is not None
        # index quadrature: the profile header carries the uniform grid
        header = (
            (tmp_path / "cli_out" / "synthetic" / "profile_tov.csv").read_text().splitlines()[0]
        )
        s_values = [float(x) for x in header.split(",")[1:]]
        assert np.abs(np.array(s_values) - np.linspace(0, 1, 8)).max() <= 1e-15

    def test_non_finite_weights_rejected(self, tmp_path, synthetic_task_path, capsys):
        rc = main(
            [
                "evaluate",
                "--robot",
                str(reference_robot_path("arm7")),
                "--task",
                str(synthetic_task_path),
                "--out",
                str(tmp_path / "cli_out"),
                "--resample",
                "4",
                "--weights",
                "nan,0.5,0.5",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "weights" in err and "nan" in err
        assert not (tmp_path / "cli_out" / "synthetic" / "report.json").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, tmp_path, synthetic_task_path, capsys, jobs):
        # the program is single-threaded: --jobs is no option at all, so any
        # value of it is refused before --out is made
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "evaluate",
                    "--robot",
                    str(reference_robot_path("arm7")),
                    "--task",
                    str(synthetic_task_path),
                    "--out",
                    str(tmp_path / "cli_out"),
                    "--jobs",
                    jobs,
                ]
            )
        assert exc.value.code == 2
        assert f"unrecognized arguments: --jobs {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "cli_out").exists()

    @pytest.mark.parametrize("count", ["0", "1"])
    def test_resample_below_two_rejected(self, tmp_path, synthetic_task_path, capsys, count):
        rc = main(
            [
                "evaluate",
                "--robot",
                str(reference_robot_path("arm7")),
                "--task",
                str(synthetic_task_path),
                "--out",
                str(tmp_path / "cli_out"),
                "--resample",
                count,
            ]
        )
        assert rc == 2
        assert "--resample must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "cli_out").exists()

    @pytest.mark.parametrize("count", ["0", "1"])
    def test_metrics_at_resample_below_two_rejected(self, synthetic_task_path, capsys, count):
        rc = main(
            [
                "metrics-at",
                "--robot",
                str(reference_robot_path("arm7")),
                "--task",
                str(synthetic_task_path),
                "--grasp",
                "g_a",
                "--waypoint",
                "0",
                "--resample",
                count,
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "--resample must be >= 2" in captured.err
        assert "tov a^2" not in captured.out

    @pytest.mark.parametrize(
        "extra, bound",
        [(["--waypoint", "999", "--resample", "400"], 399), (["--waypoint", "10"], 9), (["--waypoint", "-1"], 9)],
    )
    def test_metrics_at_waypoint_checked_before_evaluation(
        self, synthetic_task_path, capsys, monkeypatch, extra, bound
    ):
        # the range comes from --resample, else the file's resample_count (10)
        calls = []
        monkeypatch.setattr("postgrasp.cli.evaluate_task", lambda *a, **k: calls.append(1))
        argv = ["metrics-at", "--robot", str(reference_robot_path("arm7")), "--task", str(synthetic_task_path)]
        assert main(argv + ["--grasp", "g_a", *extra]) == 2
        assert f"error: --waypoint must be in [0, {bound}]" in capsys.readouterr().err
        assert calls == []

    def test_weights_checked_before_evaluation(self, tmp_path, capsys):
        out = tmp_path / "cli_out"
        rc = main(
            [
                "evaluate",
                "--robot",
                str(reference_robot_path("arm7")),
                "--task",
                str(reference_task_path("task2")),
                "--out",
                str(out),
                "--weights",
                "nan,0.5,0.5",
            ]
        )
        assert rc == 2
        assert "weights must be finite" in capsys.readouterr().err
        assert not (out / "task2").exists()

    def test_pareto_missing_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing.csv"
        rc = main(["pareto", "--scorecards", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: cannot read file")
        assert captured.out == ""

    def test_pareto_missing_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cards.csv"
        path.write_text("grasp_id,feasible,h_tov,h_tem\na,true,2.0,1.0\n")
        rc = main(["pareto", "--scorecards", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: missing column(s) h_tme\n"
        assert captured.out == ""

    def test_pareto_without_feasible_rows_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "cards.csv"
        write_scorecards_csv(path, [GraspScorecard("a", False), GraspScorecard("b", False)], None)
        rc = main(["pareto", "--scorecards", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: no feasible grasps\n"
        assert captured.out == ""

    @pytest.mark.parametrize("verb", ["pareto", "inspect-model"])
    def test_closed_stdout_pipe_exits_without_traceback(self, tmp_path, verb):
        cards = tmp_path / "cards.csv"
        write_scorecards_csv(
            cards,
            [
                GraspScorecard("a", True, h_tov=2.0, h_tme=1.0, h_tem=1.0),
                GraspScorecard("b", True, h_tov=1.0, h_tme=2.0, h_tem=2.0),
            ],
            None,
        )
        args = {"pareto": ["--scorecards", str(cards)], "inspect-model": ["--robot", str(reference_robot_path("arm7"))]}
        env = dict(os.environ, PYTHONPATH=str(Path(postgrasp.__file__).parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            run = subprocess.run(
                [sys.executable, "-m", "postgrasp", verb, *args[verb]],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert run.returncode == 1
        assert b"Traceback" not in run.stderr and b"Exception ignored" not in run.stderr, run.stderr

    def test_pareto_rejects_non_finite_weights(self, tmp_path, capsys):
        cards = [
            GraspScorecard("a", True, h_tov=2.0, h_tme=1.0, h_tem=1.0),
            GraspScorecard("b", True, h_tov=1.0, h_tme=2.0, h_tem=2.0),
        ]
        path = tmp_path / "cards.csv"
        write_scorecards_csv(path, cards, None)
        rc = main(["pareto", "--scorecards", str(path), "--weights", "nan,0.5,0.5"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "weights must be finite" in captured.err
        assert captured.out == ""

    def test_wrong_length_ik_seed_rejected(self, tmp_path, capsys):
        data = synthetic_task_dict()
        data["ik_seed"] = ARM7_SEED[:6]
        task = tmp_path / "short_seed.json"
        task.write_text(json.dumps(data))
        out = tmp_path / "cli_out"
        argv = ["evaluate", "--robot", str(reference_robot_path("arm7")), "--task", str(task)]
        rc = main(argv + ["--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: task 'synthetic': ik_seed has length 6, robot has 7 joints" in err
        assert not (out / "synthetic").exists()

    def test_singular_mass_matrix_exits_2(self, tmp_path, capsys):
        # all the mass of a planar 3R arm sits at its tip (the object is a
        # point there too), so M has rank 2: tem must refuse, not return
        # a number
        robot = tmp_path / "tip_mass_3r.json"
        robot.write_text(json.dumps(tip_mass_3r_dict()))
        task = tmp_path / "planar.json"
        task.write_text(json.dumps(planar_task_dict()))
        rc = main(["evaluate", "--robot", str(robot), "--task", str(task), "--out", str(tmp_path)])
        assert rc == 2
        assert "numerically singular" in capsys.readouterr().err

    def test_duplicate_override_ids_rejected(self, tmp_path, capsys):
        # the override gets the checks a task file's grasps get, before any
        # output directory is made
        grasp = {"id": "g06", "translation": [0.0, 0.0, 0.1], "quaternion": [0.0, 1.0, 0.0, 0.0]}
        out = tmp_path / "cli_out"
        rc = main(
            [
                "evaluate",
                "--robot",
                str(reference_robot_path("arm7")),
                "--task",
                str(reference_task_path("task2")),
                "--out",
                str(out),
                "--grasps-override",
                json.dumps([grasp, grasp]),
            ]
        )
        assert rc == 2
        assert "--grasps-override: grasps[1].id: duplicate grasp id 'g06'" in capsys.readouterr().err
        assert not (out / "task2").exists()

    def test_unreadable_override_file_rejected(self, tmp_path, capsys):
        out = tmp_path / "cli_out"
        rc = main(
            [
                "evaluate",
                "--robot",
                str(reference_robot_path("arm7")),
                "--task",
                str(reference_task_path("task2")),
                "--out",
                str(out),
                "--grasps-override",
                str(tmp_path / "missing.json"),
            ]
        )
        assert rc == 2
        assert "--grasps-override: cannot read file" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_grasp_id_errors(self, synthetic_task_path, capsys):
        rc = main(
            [
                "metrics-at",
                "--robot",
                str(reference_robot_path("arm7")),
                "--task",
                str(synthetic_task_path),
                "--grasp",
                "nope",
                "--waypoint",
                "0",
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestTaskFileDocumentationFields:
    def test_extents_and_notes_checked(self, tmp_path):
        for key, value, field in (
            ("object", {"mass": 0.4, "inertia": [0.002, 0.0097, 0.0091, 0, 0, 0], "extents": [0.5, 0.15]},
             r"object\.extents"),
            ("notes", 5, r"\.notes"),
        ):
            data = synthetic_task_dict()
            data[key] = value
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(data))
            with pytest.raises(SchemaError, match=field):
                load_task(path)


def _evaluate(robot, tasks, out, *extra):
    argv = ["evaluate", "--robot", str(robot), "--out", str(out), *extra]
    for task in tasks:
        argv += ["--task", str(task)]
    return main(argv)


def _named_task(tmp_path, filename, name):
    data = synthetic_task_dict()
    data["name"] = name
    path = tmp_path / filename
    path.write_text(json.dumps(data))
    return path


class TestOutputDirectories:
    def test_dot_dot_name_stays_inside_out(self, tmp_path):
        task = _named_task(tmp_path, "up.json", "..")
        out = tmp_path / "runs" / "out"
        assert _evaluate(reference_robot_path("arm7"), [task], out) == 0
        assert sorted(p.name for p in out.parent.iterdir()) == ["out"]
        assert (out / "task" / "report.json").exists()

    def test_dot_name_gets_its_own_directory(self, tmp_path):
        task = _named_task(tmp_path, "here.json", ".")
        out = tmp_path / "out"
        assert _evaluate(reference_robot_path("arm7"), [task], out) == 0
        assert sorted(p.name for p in out.iterdir()) == ["task"]

    def test_tasks_sharing_a_directory_rejected(self, tmp_path, capsys):
        first = _named_task(tmp_path, "first.json", "a b")
        second = _named_task(tmp_path, "second.json", "a_b")
        out = tmp_path / "out"
        assert _evaluate(reference_robot_path("arm7"), [first, second], out) == 2
        err = capsys.readouterr().err
        assert f"tasks {first} and {second} both write to {out / 'a_b'}" in err
        assert not out.exists()


class TestStrictScorecardsInput:
    HEADER = "grasp_id,feasible,h_tov,h_tme,h_tem\n"

    def _pareto(self, tmp_path, rows):
        path = tmp_path / "cards.csv"
        path.write_text(self.HEADER + rows)
        return path, main(["pareto", "--scorecards", str(path)])

    def test_unknown_feasible_cell_rejected(self, tmp_path, capsys):
        path, rc = self._pareto(tmp_path, "a,yes,2.0,1,1.0\nb,true,1.0,2,2.0\n")
        assert rc == 2
        captured = capsys.readouterr()
        assert f"error: {path}: row 2, column feasible: expected true or false, got 'yes'" in captured.err
        assert captured.out == ""

    def test_empty_scalar_of_feasible_row_named(self, tmp_path, capsys):
        path, rc = self._pareto(tmp_path, "b,true,1.0,2,2.0\na,true,,1,1.0\n")
        assert rc == 2
        assert f"error: {path}: row 3, column h_tov: expected a number, got ''" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("a,true,2.0,1,1.0\na,true,1.0,2,2.0\n", "row 3, column grasp_id: duplicate grasp id 'a'"),
            ("a,true,2.0,1,1.0\n,true,1.0,2,2.0\n", "row 3, column grasp_id: must be non-empty"),
            ("a,true,2.0,1,1.0\na,false,,,\n", "row 3, column grasp_id: duplicate grasp id 'a'"),
        ],
        ids=["duplicate", "empty", "duplicate-infeasible"],
    )
    def test_bad_grasp_id_rejected(self, tmp_path, capsys, rows, message):
        path, rc = self._pareto(tmp_path, rows)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n"
        assert captured.out == ""

    def test_repeated_column_rejected(self, tmp_path, capsys):
        # csv.DictReader would keep the second h_tov and rank on it
        path = tmp_path / "cards.csv"
        path.write_text(self.HEADER[:-1] + ",h_tov\na,true,2.0,1,1.0,5.0\nb,true,3.0,2,2.0,1.0\n")
        assert main(["pareto", "--scorecards", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: row 1: repeated column(s) 'h_tov'\n"
        assert captured.out == ""

    def test_row_longer_than_the_header_rejected(self, tmp_path, capsys):
        # csv.DictReader would file the extra cells under None and drop them
        path, rc = self._pareto(tmp_path, "a,true,2.0,1,1.0\nb,true,3.0,2,2.0,9\n")
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: row 3: 6 cells, the header has 5\n"
        assert captured.out == ""


class TestEmptyOptionValues:
    # an option given with an empty value (``--weights=``) is refused and
    # named, not taken as absent

    @pytest.mark.parametrize(
        "option, message",
        [("--weights", "--weights: could not convert"), ("--grasps-override", "--grasps-override: invalid JSON")],
    )
    def test_evaluate_refuses_before_out_is_made(
        self, tmp_path, synthetic_task_path, capsys, monkeypatch, option, message
    ):
        calls = []
        monkeypatch.setattr("postgrasp.cli.evaluate_task", lambda *a, **k: calls.append(1))
        out = tmp_path / "cli_out"
        assert _evaluate(reference_robot_path("arm7"), [synthetic_task_path], out, f"{option}=") == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert calls == []
        assert not out.exists()

    def test_pareto_refuses_empty_weights(self, tmp_path, capsys):
        path = tmp_path / "cards.csv"
        path.write_text("grasp_id,feasible,h_tov,h_tme,h_tem\na,true,2.0,1,1.0\nb,true,1.0,2,2.0\n")
        assert main(["pareto", "--scorecards", str(path), "--weights="]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --weights: could not convert")
        assert captured.out == ""

    def test_inspect_model_refuses_empty_config(self, capsys):
        assert main(["inspect-model", "--robot", str(reference_robot_path("arm7")), "--config="]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --config: could not convert")
        assert captured.out == ""


NAN, INF = float("nan"), float("inf")

# (command, input edited, where in it, new value, message naming the field):
# Python's json reads NaN, Infinity and -Infinity, and an integer literal
# past the float range, so each must be refused where it is parsed
NON_FINITE_INPUTS = [
    ("evaluate", "robot", ("links", 2, "mass"), NAN, "links[2].mass: expected a finite number"),
    ("inspect-model", "robot", ("links", 0, "mass"), NAN, "links[0].mass: expected a finite number"),
    ("evaluate", "task", ("object_waypoints", 1, "quaternion"), [NAN, 0.0, 0.0, 0.0],
     "object_waypoints[1].quaternion: expected 4 finite numbers"),
    ("evaluate", "task", ("object_waypoints", 0, "translation"), [0.62, NAN, 0.12],
     "object_waypoints[0].translation: expected 3 finite numbers"),
    ("evaluate", "task", ("ik_seed",), [NAN] * 7, "ik_seed: expected a list of finite numbers"),
    ("evaluate", "task", ("gravity",), [0.0, 0.0, NAN], "gravity: expected 3 finite numbers"),
    ("evaluate", "task", ("grasps", 0, "translation"), [INF, -0.05, 0.1],
     "grasps[0].translation: expected 3 finite numbers"),
    ("evaluate", "task", ("total_time_s",), 10**400, "total_time_s: expected a finite number"),
    ("evaluate", "override", (1, "translation"), [0.0, -INF, 0.1],
     "--grasps-override: grasps[1].translation: expected 3 finite numbers"),
    ("pareto", "scorecards", (1, 3), "nan", "row 3, column h_tme: expected a finite number, got 'nan'"),
]


@pytest.mark.parametrize(
    "command, target, where, value, message",
    NON_FINITE_INPUTS,
    ids=[f"{c}-{t}-{'.'.join(map(str, w))}" for c, t, w, *_ in NON_FINITE_INPUTS],
)
def test_non_finite_input_rejected_with_its_field(tmp_path, capsys, command, target, where, value, message):
    inputs = {
        "robot": json.loads(reference_robot_path("arm7").read_text()),
        "task": synthetic_task_dict(),
        "override": synthetic_task_dict()["grasps"],
        "scorecards": [["a", "true", "2.0", "1", "1.0"], ["b", "true", "1.0", "2", "2.0"]],
    }
    edited = inputs[target]
    for key in where[:-1]:
        edited = edited[key]
    edited[where[-1]] = value
    robot, task, cards = tmp_path / "robot.json", tmp_path / "task.json", tmp_path / "cards.csv"
    robot.write_text(json.dumps(inputs["robot"]))
    task.write_text(json.dumps(inputs["task"]))
    rows = ["grasp_id,feasible,h_tov,h_tme,h_tem"] + [",".join(r) for r in inputs["scorecards"]]
    cards.write_text("\n".join(rows) + "\n")
    out = tmp_path / "cli_out"
    argv = {
        "evaluate": ["evaluate", "--robot", str(robot), "--task", str(task), "--out", str(out)],
        "inspect-model": ["inspect-model", "--robot", str(robot)],
        "pareto": ["pareto", "--scorecards", str(cards)],
    }[command]
    if target == "override":
        argv += ["--grasps-override", json.dumps(inputs["override"])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_metrics_at_prints_the_scalars_evaluate_writes(tmp_path, synthetic_task_path, capsys):
    robot = reference_robot_path("arm7")
    assert _evaluate(robot, [synthetic_task_path], tmp_path, "--resample", "8") == 0
    card = {c.grasp_id: c for c in read_scorecards_csv(tmp_path / "synthetic" / "scorecards.csv")}["g_b"]
    capsys.readouterr()
    argv = ["metrics-at", "--robot", str(robot), "--task", str(synthetic_task_path), "--grasp", "g_b"]
    assert main(argv + ["--waypoint", "3", "--resample", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "grasp g_b, waypoint 3/7:"
    assert lines[-1] == f"scalars: H_tov={card.h_tov:.6g} H_tme={card.h_tme:.6g} H_tem={card.h_tem:.6g}"


def _sweep_task_dict(count):
    data = synthetic_task_dict()
    del data["grasps"]
    data["sweep"] = {
        "start": {"translation": [0.0, -0.05, 0.1], "quaternion": [0.0, 1.0, 0.0, 0.0]},
        "end": {"translation": [0.0, 0.05, 0.1], "quaternion": [0.0, 1.0, 0.0, 0.0]},
        "count": count,
    }
    return data


@pytest.mark.parametrize("count", [MAX_COUNT + 1, 10**400])
@pytest.mark.parametrize("field", ["resample_count", "sweep.count"])
def test_count_above_the_bound_rejected_with_its_field(tmp_path, capsys, field, count):
    # json.dumps writes 10**400 as a bare integer literal; before the bound
    # it reached numpy as "Maximum allowed size exceeded", naming no field
    data = synthetic_task_dict() if field == "resample_count" else _sweep_task_dict(2)
    if field == "resample_count":
        data["resample_count"] = count
    else:
        data["sweep"]["count"] = count
    task = tmp_path / "task.json"
    task.write_text(json.dumps(data))
    message = f"{task}.{field}: must be <= {MAX_COUNT}"
    with pytest.raises(SchemaError) as excinfo:
        load_task(task)
    assert str(excinfo.value) == message
    out = tmp_path / "cli_out"
    argv = ["evaluate", "--robot", str(reference_robot_path("arm7")), "--task", str(task), "--out", str(out)]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_count_at_the_bound_accepted(tmp_path):
    data = _sweep_task_dict(MAX_COUNT)
    data["resample_count"] = MAX_COUNT
    task = tmp_path / "task.json"
    task.write_text(json.dumps(data))
    spec = load_task(task)
    assert spec.resample_count == MAX_COUNT
    assert len(spec.grasps) == MAX_COUNT


@pytest.mark.parametrize("verb", ["evaluate", "metrics-at"])
@pytest.mark.parametrize("count", [MAX_COUNT + 1, 10**400])
def test_resample_above_the_bound_rejected(tmp_path, synthetic_task_path, capsys, monkeypatch, verb, count):
    calls = []
    monkeypatch.setattr("postgrasp.cli.evaluate_task", lambda *a, **k: calls.append(1))
    out = tmp_path / "cli_out"
    argv = [verb, "--robot", str(reference_robot_path("arm7")), "--task", str(synthetic_task_path)]
    argv += ["--out", str(out)] if verb == "evaluate" else ["--grasp", "g_a", "--waypoint", "0"]
    assert main(argv + ["--resample", str(count)]) == 2
    assert f"error: --resample must be <= {MAX_COUNT}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_out_that_cannot_be_created_fails_before_scoring(tmp_path, synthetic_task_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("postgrasp.cli.evaluate_task", lambda *a, **k: calls.append(1))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert _evaluate(reference_robot_path("arm7"), [synthetic_task_path], blocker / "x") == 2
    assert capsys.readouterr().err.startswith("error: --out: cannot create directory (")
    assert calls == []


def test_write_error_names_the_file(tmp_path, synthetic_task_path, capsys):
    blocked = tmp_path / "out" / "synthetic" / "scorecards.csv"
    blocked.mkdir(parents=True)
    assert _evaluate(reference_robot_path("arm7"), [synthetic_task_path], tmp_path / "out", "--resample", "5") == 2
    assert f"error: {blocked}: cannot write (" in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["robot", "task", "override", "scorecards"])
def test_non_utf8_input_names_its_file(tmp_path, capsys, reader):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe[]")
    robot, task, out = reference_robot_path("arm7"), reference_task_path("task1"), tmp_path / "out"
    evaluate = ["evaluate", "--out", str(out)]
    argv = {
        "robot": evaluate + ["--robot", str(bad), "--task", str(task)],
        "task": evaluate + ["--robot", str(robot), "--task", str(bad)],
        "override": evaluate + ["--robot", str(robot), "--task", str(task), "--grasps-override", str(bad)],
        "scorecards": ["pareto", "--scorecards", str(bad)],
    }[reader]
    assert main(argv) == 2
    assert f"{bad}: cannot decode as UTF-8 (" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["evaluate", "metrics-at"])
def test_scoring_error_names_the_task_file(tmp_path, synthetic_task_path, capsys, verb):
    # every waypoint of the second task holds one pose: the path direction
    # is undefined, which only scoring finds out
    data = dict(synthetic_task_dict(), name="still")
    for wp in data["object_waypoints"]:
        wp["translation"] = [0.62, 0.0, 0.12]
    still = tmp_path / "still.json"
    still.write_text(json.dumps(data))
    robot = reference_robot_path("arm7")
    if verb == "evaluate":
        rc = _evaluate(robot, [synthetic_task_path, still], tmp_path / "out", "--resample", "5")
    else:
        rc = main(["metrics-at", "--robot", str(robot), "--task", str(still), "--grasp", "g_a", "--waypoint", "0"])
    assert rc == 2
    assert f"error: {still}: trajectory has no motion; path direction undefined" in capsys.readouterr().err


def test_outputs_do_not_depend_on_the_locale(tmp_path):
    # an ASCII locale with UTF-8 mode and locale coercion off: names that
    # ASCII cannot hold are still written as UTF-8, and escaped on stdout
    data = synthetic_task_dict()
    data["name"] = "t\u00e2che"
    data["grasps"][0]["id"] = "g\u00e901"
    task = tmp_path / "task.json"
    task.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(PYTHONPATH=str(Path(postgrasp.__file__).parents[1]), LC_ALL="C", PYTHONCOERCECLOCALE="0")
    trees, stdout = {}, {}
    for utf8_mode in ("0", "1"):
        out = tmp_path / f"utf8-{utf8_mode}"
        argv = ["evaluate", "--robot", str(reference_robot_path("arm7")), "--task", str(task), "--out", str(out)]
        run = subprocess.run(
            [sys.executable, "-m", "postgrasp", *argv],
            env=dict(env, PYTHONUTF8=utf8_mode),
            capture_output=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr.decode(errors="replace")
        trees[utf8_mode] = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        stdout[utf8_mode] = run.stdout
    assert stdout["0"].startswith(b"t\\xe2che: feasible 2/2")
    assert stdout["1"].startswith("t\u00e2che: feasible 2/2".encode())
    assert trees["0"] == trees["1"]
    assert "t_che/report.json" in trees["0"]
    scorecards = tmp_path / "utf8-0" / "t_che" / "scorecards.csv"
    assert [sc.grasp_id for sc in read_scorecards_csv(scorecards)] == ["g\u00e901", "g_b"]
    assert main(["pareto", "--scorecards", str(scorecards)]) == 0
