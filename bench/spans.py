"""Spans and counts recorded around calls into postgrasp's public functions.

Nothing under ``src/`` changes: the tracer rebinds each wrapped function in
every ``postgrasp`` module namespace that binds it (``from .chain import
forward_kinematics`` makes a second binding in ``postgrasp.ik``), and
restores the original bindings on exit.  A name that a refactor removed is
recorded as absent; the metrics derived from it are then left out.

Spans are kept in memory as ``[id, parent, name, start_ns, end_ns, call]``
and written as JSON lines once the run is over.  A span's self time is its
duration minus the part its child spans cover; the program is
single-threaded, so children never overlap and their coverage is the sum of
their durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (layer, module, attribute): calls timed as spans
SPANNED = (
    ("fileio", "postgrasp.fileio", "load_robot"),
    ("fileio", "postgrasp.fileio", "load_task"),
    ("fileio", "postgrasp.fileio", "write_scorecards_csv"),
    ("fileio", "postgrasp.fileio", "write_profile_csv"),
    ("fileio", "postgrasp.fileio", "write_scalars_long_csv"),
    ("fileio", "postgrasp.fileio", "write_report_json"),
    ("fileio", "postgrasp.fileio", "report_to_dict"),
    ("task", "postgrasp.task", "resample"),
    ("task", "postgrasp.task", "gripper_trajectory"),
    ("task", "postgrasp.task", "path_parameter"),
    ("ik", "postgrasp.ik", "track_trajectory"),
    ("metrics", "postgrasp.metrics", "evaluate_grasp"),
    ("metrics", "postgrasp.metrics", "tov"),
    ("metrics", "postgrasp.metrics", "torque_effort"),
    ("metrics", "postgrasp.metrics", "tem"),
    ("dynamics", "postgrasp.dynamics", "mass_matrix"),
    ("dynamics", "postgrasp.dynamics", "inverse_dynamics"),
    ("dynamics", "postgrasp.dynamics", "augmented_mass_matrix"),
    ("chain", "postgrasp.chain", "forward_kinematics"),
    ("chain", "postgrasp.chain", "geometric_jacobian"),
    ("ranking", "postgrasp.ranking", "normalize"),
    ("ranking", "postgrasp.ranking", "build_report"),
)
# (module, attribute): calls too frequent and too cheap for spans; counted
# separately inside IK tracking ("ik") and outside it ("outside_ik")
COUNTED = (
    ("postgrasp.chain", "link_frames_axes"),
    ("postgrasp.geometry", "Pose.compose"),
    ("postgrasp.geometry", "Rotation.from_axis_angle"),
)
ROOT_SPAN = "cli.main"


def span_name(module: str, attribute: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attribute}"


def _resolve(module: str, attribute: str):
    """(owner, attribute name, raw object) or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(leaf)
    else:
        raw = getattr(owner, leaf, None)
    if raw is None:
        return None
    return owner, leaf, raw


class Rebinder:
    """Replaces a function in every postgrasp namespace that binds it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module: str, attribute: str, make_wrapper) -> bool:
        found = _resolve(module, attribute)
        if found is None:
            return False
        owner, leaf, raw = found
        if isinstance(owner, type):
            # a method or classmethod lives only in its class namespace
            if isinstance(raw, classmethod):
                new = classmethod(make_wrapper(raw.__func__))
            else:
                new = make_wrapper(raw)
            self._undo.append((owner, leaf, raw))
            setattr(owner, leaf, new)
            return True
        new = make_wrapper(raw)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "postgrasp" or name.startswith("postgrasp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is raw:
                    self._undo.append((mod, attr, raw))
                    setattr(mod, attr, new)
        return True

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()


class ReachObserver:
    """Records the per-waypoint reachability flags of every IK tracking call.

    Installed in untraced runs too: the golden check needs the flags and no
    output file carries them.  Each call appends the ``reachable`` array as a
    "1"/"0" string, or None when the grasp was infeasible (the call raised).
    The observer never raises into the program: when the function is gone
    or its result has no readable ``reachable``, the flags are unobservable.
    """

    NAME = ("postgrasp.ik", "track_trajectory")

    def __init__(self):
        self.calls: list[str | None] = []
        self._rebinder = Rebinder()
        self.present = False
        self.unreadable = False

    def _flags(self, result) -> str | None:
        try:
            return "".join("1" if ok else "0" for ok in result.reachable)
        except (AttributeError, TypeError):
            self.unreadable = True
            return None

    def __enter__(self):
        def make(fn):
            @functools.wraps(fn)
            def observed(*args, **kwargs):
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self.calls.append(None)
                    raise
                self.calls.append(self._flags(result))
                return result

            return observed

        self.present = self._rebinder.wrap(*self.NAME, make)
        return self

    def __exit__(self, *exc):
        self._rebinder.restore()

    def take(self) -> list[str | None] | None:
        """Flags recorded since the last take; None if they cannot be observed."""
        calls, self.calls = self.calls, []
        unreadable, self.unreadable = self.unreadable, False
        return calls if self.present and not unreadable else None


class Tracer:
    """Span and count recorder for traced passes."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.absent: list[str] = []
        self.call = ""
        self._stack: list[int] = []
        self._stages: list[str] = ["outside_ik"]
        self._rebinder = Rebinder()

    def _spanned(self, name: str, stage: str | None):
        spans, stack, stages, clock = self.spans, self._stack, self._stages, time.perf_counter_ns

        def make(fn):
            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                rec = [len(spans), stack[-1] if stack else None, name, clock(), 0, self.call]
                spans.append(rec)
                stack.append(rec[0])
                if stage:
                    stages.append(stage)
                try:
                    return fn(*args, **kwargs)
                finally:
                    if stage:
                        stages.pop()
                    stack.pop()
                    rec[4] = clock()

            return spanned

        return make

    def _counted(self, name: str):
        counts, stages = self.counts, self._stages

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name, stages[-1]] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def __enter__(self):
        self.absent = []
        for layer, module, attribute in SPANNED:
            name = span_name(module, attribute)
            stage = "ik" if layer == "ik" else None
            if not self._rebinder.wrap(module, attribute, self._spanned(name, stage)):
                self.absent.append(name)
        for module, attribute in COUNTED:
            name = span_name(module, attribute)
            if not self._rebinder.wrap(module, attribute, self._counted(name)):
                self.absent.append(name)
        return self

    def __exit__(self, *exc):
        self._rebinder.restore()

    def root(self, fn, call: str):
        """Run ``fn()`` inside the root span of one evaluate call."""
        self.call = call
        return self._spanned(ROOT_SPAN, None)(fn)()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, call in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "call": call}
                    )
                    + "\n"
                )


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive ns, self ns, and calls made under IK."""
    child_ns = defaultdict(int)
    for sid, parent, name, start, end, call in spans:
        if parent is not None:
            child_ns[parent] += end - start
    by_id = {s[0]: s for s in spans}
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0, "ik_calls": 0})
    for sid, parent, name, start, end, call in spans:
        row = out[name]
        row["calls"] += 1
        row["incl_ns"] += end - start
        row["self_ns"] += end - start - child_ns[sid]
        p = parent
        while p is not None:
            if by_id[p][2] == "ik.track_trajectory":
                row["ik_calls"] += 1
                break
            p = by_id[p][1]
    return dict(out)


LAYER_OF = {span_name(m, a): layer for layer, m, a in SPANNED}
LAYER_OF[ROOT_SPAN] = "cli"
