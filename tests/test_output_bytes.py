"""The ranking layer and the writers, pinned byte for byte.

Hand-built scorecards go through ``postgrasp evaluate`` (which runs
``build_report`` and every writer) in place of an evaluation.  They include
one infeasible grasp, one dominated grasp, an argbest tie and an objective
(``tov``) whose feasible scalars are all 0.0, so its normalized column takes
the all-ones branch.  Three grasps carry flagged waypoints, among them the
one that sets the ``tme`` and ``tem`` maxima.  The expected text was recorded
from the writers as they stood before the objective table replaced the
hand-listed columns, and re-recorded when the flag counts, the diagnostics
and the normalization blocks (report schema 2) were added.
"""

import math

import numpy as np

import postgrasp.cli as cli
from postgrasp import GraspScorecard, reference_robot_path, reference_task_path
from postgrasp.metrics import FLAGS

S = np.array((0.0, 0.5, 1.0))


def card(gid, h_tov, h_tme, h_tem, **flagged):
    """A feasible card on S; ``flagged`` maps a flag name to the indices of
    its flagged waypoints."""
    flags = {name: np.isin(np.arange(S.shape[0]), flagged.get(name, [])) for name in FLAGS}
    return GraspScorecard(
        gid,
        True,
        h_tov=h_tov,
        h_tme=h_tme,
        h_tem=h_tem,
        s=S,
        profiles={
            "tov": np.array((0.0, 0.0, 0.0)),
            "tme": np.array((h_tme, 2 * h_tme, h_tme)),
            "tem": np.array((h_tem, h_tem / 3, h_tem)),
        },
        flags=flags,
    )


CARDS = [
    card("g1", 0.0, 2.5, 1.25, near_singular=[1]),
    card("g2", 0.0, 1.0, 3.0),
    GraspScorecard("g3", False),
    card("g4", 0.0, math.pi, 1 / 3, unachievable=[0, 2]),
    card("g5", 0.0, 5.0, 4.0, unreachable=[1, 2]),
]

EXPECTED = {
    "scorecards.csv": """\
grasp_id,feasible,h_tov,h_tme,h_tem,h_tov_norm,h_tme_norm,h_tem_norm,pareto,n_near_singular,n_unachievable,n_unreachable
g1,true,0,2.5,1.25,1,0.5,0.3125,true,1,0,0
g2,true,0,1,3,1,0.20000000000000001,0.75,true,0,0,0
g3,false,,,,,,,false,,,
g4,true,0,3.1415926535897931,0.33333333333333331,1,0.62831853071795862,0.083333333333333329,true,0,2,0
g5,true,0,5,4,1,1,1,false,0,0,2
""",
    "scalars_long.csv": """\
grasp_id,metric,value_normalized
g1,tov,1
g1,tme,0.5
g1,tem,0.3125
g2,tov,1
g2,tme,0.20000000000000001
g2,tem,0.75
g4,tov,1
g4,tme,0.62831853071795862
g4,tem,0.083333333333333329
g5,tov,1
g5,tme,1
g5,tem,1
""",
    "profile_tov.csv": """\
grasp_id,0,0.5,1
g1,0,0,0
g2,0,0,0
g4,0,0,0
g5,0,0,0
""",
    "profile_tme.csv": """\
grasp_id,0,0.5,1
g1,2.5,5,2.5
g2,1,2,1
g4,3.1415926535897931,6.2831853071795862,3.1415926535897931
g5,5,10,5
""",
    "profile_tem.csv": """\
grasp_id,0,0.5,1
g1,1.25,0.41666666666666669,1.25
g2,3,1,3
g4,0.33333333333333331,0.1111111111111111,0.33333333333333331
g5,4,1.3333333333333333,4
""",
    "report.json": """\
{
  "argbest": {
    "tem": "g4",
    "tme": "g2",
    "tov": "g1"
  },
  "conflict": true,
  "diagnostics": {
    "g1": {
      "flag_counts": {
        "near_singular": 1,
        "unachievable": 0,
        "unreachable": 0
      },
      "flag_waypoints": {
        "near_singular": [
          1
        ],
        "unachievable": [],
        "unreachable": []
      }
    },
    "g2": {
      "flag_counts": {
        "near_singular": 0,
        "unachievable": 0,
        "unreachable": 0
      },
      "flag_waypoints": {
        "near_singular": [],
        "unachievable": [],
        "unreachable": []
      }
    },
    "g3": null,
    "g4": {
      "flag_counts": {
        "near_singular": 0,
        "unachievable": 2,
        "unreachable": 0
      },
      "flag_waypoints": {
        "near_singular": [],
        "unachievable": [
          0,
          2
        ],
        "unreachable": []
      }
    },
    "g5": {
      "flag_counts": {
        "near_singular": 0,
        "unachievable": 0,
        "unreachable": 2
      },
      "flag_waypoints": {
        "near_singular": [],
        "unachievable": [],
        "unreachable": [
          1,
          2
        ]
      }
    }
  },
  "infeasible": [
    "g3"
  ],
  "n_feasible": 4,
  "n_grasps": 5,
  "normalization": {
    "tem": {
      "flagged": true,
      "grasp_id": "g5",
      "max": 4.0
    },
    "tme": {
      "flagged": true,
      "grasp_id": "g5",
      "max": 5.0
    },
    "tov": {
      "flagged": true,
      "grasp_id": "g1",
      "max": 0.0
    }
  },
  "pareto_front": [
    "g1",
    "g2",
    "g4"
  ],
  "robot": "arm7",
  "scalarized_order": [
    [
      "g4",
      0.21349555921538757
    ],
    [
      "g1",
      0.24375
    ],
    [
      "g2",
      0.285
    ],
    [
      "g5",
      0.6
    ]
  ],
  "schema_version": 2,
  "task": "task1",
  "weights": [
    0.4,
    0.3,
    0.3
  ]
}
""",
}


def test_ranking_and_writers_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "evaluate_task", lambda *args: CARDS)
    argv = ["evaluate", "--robot", str(reference_robot_path("arm7")), "--task", str(reference_task_path("task1"))]
    argv += ["--out", str(tmp_path), "--weights", "0.4,0.3,0.3", "--allow-infeasible"]
    assert cli.main(argv) == 0
    outdir = tmp_path / "task1"
    assert capsys.readouterr().out == (
        f"task1: feasible 4/5, conflict=true, pareto=[g1, g2, g4] -> {outdir}\n"
    )
    assert sorted(p.name for p in outdir.iterdir()) == sorted(EXPECTED)
    for name, text in EXPECTED.items():
        assert (outdir / name).read_text() == text, name
