"""The program names the benchmark's tracer (bench/spans.py) wraps.

A renamed or removed function would drop the per-layer metrics derived from
it, and a DLS that stopped calling forward kinematics or the Jacobian by
their ``postgrasp.ik`` names would leave ``ik.fk_per_iteration`` and
``ik.jacobians_per_waypoint`` with nothing to count, and one that reached
the kinematic pass other than by ``postgrasp.chain.link_frames_axes``
would leave ``chain.ik_passes_per_pair`` at 0.  The golden check
reads the reachability flags through ``postgrasp.ik.track_trajectory``,
called once per grasp.  spans.py is loaded from its file and only read.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from postgrasp import (
    evaluate_task,
    forward_kinematics,
    link_frames_axes,
    load_task,
    reference_task_path,
    track_trajectory,
)
from postgrasp import chain, ik

from oracles import pose_of, trajectory_of

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(spans):
    names = [(module, attribute) for _, module, attribute in spans.SPANNED] + list(spans.COUNTED)
    missing = [f"{module}.{attribute}" for module, attribute in names if spans._resolve(module, attribute) is None]
    assert missing == []


def test_tracking_calls_pose_and_jacobian_by_their_ik_names(arm7, monkeypatch):
    calls = {"forward_kinematics": 0, "geometric_jacobian": 0}

    def counting(name):
        original = getattr(ik, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(ik, name, counting(name))
    qs = np.linspace([0.1, 0.5, -0.2, -1.2, 0.3, 0.8, 0.0], [0.2, 0.6, -0.1, -1.1, 0.4, 0.9, 0.1], 4)
    poses = [pose_of(forward_kinematics(link_frames_axes(arm7, q))) for q in qs]
    result = track_trajectory(arm7, trajectory_of(poses, np.linspace(0.0, 1.0, 4)), qs[0])
    assert calls["forward_kinematics"] > 0
    assert calls["geometric_jacobian"] > 0
    assert result.reachable.shape == (4,)


def test_tracking_reaches_the_pass_through_its_module_binding(arm7, spans, monkeypatch):
    # chain.ik_passes_per_pair counts postgrasp.chain.link_frames_axes as
    # the tracer rebinds it: DLS must reach the pass by a postgrasp binding
    # of that function, once per distinct iterate it tries
    asked = []
    original = ik.link_frames_axes

    def recorded(model, q):
        asked.append(q.tobytes())
        return original(model, q)

    qs = np.linspace([0.1, 0.5, -0.2, -1.2, 0.3, 0.8, 0.0], [0.4, 0.8, 0.1, -0.9, 0.6, 1.1, 0.3], 4)
    poses = [pose_of(forward_kinematics(link_frames_axes(arm7, q))) for q in qs]
    # the recorder is the function the tracer finds in chain, so it wraps
    # every binding that holds the recorder, ik's among them
    monkeypatch.setattr(chain, "link_frames_axes", recorded)
    monkeypatch.setattr(ik, "link_frames_axes", recorded)
    with spans.Tracer() as tracer:
        result = ik.track_trajectory(arm7, trajectory_of(poses, np.linspace(0.0, 1.0, 4)), qs[0])
    assert tracer.absent == []
    assert result.reachable.all()
    assert tracer.counts["chain.link_frames_axes", "ik"] == len(asked) == len(set(asked)) > len(qs)


def test_evaluate_task_tracks_each_grasp_once(arm7, spans):
    # the golden check's own observer sees one reachability string of the
    # waypoint count per grasp
    spec = load_task(reference_task_path("task1"))
    with spans.ReachObserver() as observer:
        cards = evaluate_task(arm7, spec, resample_count=6)
    flags = observer.take()
    assert observer.present
    assert flags is not None and len(flags) == len(cards) == len(spec.grasps)
    assert all(f is not None and len(f) == 6 for f in flags)
