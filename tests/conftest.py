from __future__ import annotations

from pathlib import Path

import pytest

from streamcc import PetriNet

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def make_seq_abc() -> PetriNet:
    """Three-step sequence net: A moves s->q1, B moves q1->q2, C moves q2->f."""
    return PetriNet.build(
        places=["s", "q1", "q2", "f"],
        transitions={"A": "A", "B": "B", "C": "C"},
        arcs=[("s", "A"), ("A", "q1"), ("q1", "B"), ("B", "q2"), ("q2", "C"), ("C", "f")],
        initial={"s": 1},
        final={"f": 1},
        name="seq-abc",
    )


def make_branching_net() -> PetriNet:
    """Entry A, then a choice: sequence B-C-D, or E followed by parallel F,G and join H."""
    return PetriNet.build(
        places=["pi", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "po"],
        transitions={
            "t1": "A",
            "t2": "B",
            "t3": "C",
            "t4": "D",
            "t5": "E",
            "t6": "F",
            "t7": "G",
            "t8": "H",
        },
        arcs=[
            ("pi", "t1"),
            ("t1", "p1"),
            ("p1", "t2"),
            ("t2", "p2"),
            ("p2", "t3"),
            ("t3", "p3"),
            ("p3", "t4"),
            ("t4", "po"),
            ("p1", "t5"),
            ("t5", "p4"),
            ("t5", "p5"),
            ("p4", "t6"),
            ("t6", "p6"),
            ("p5", "t7"),
            ("t7", "p7"),
            ("p6", "t8"),
            ("p7", "t8"),
            ("t8", "po"),
        ],
        initial={"pi": 1},
        final={"po": 1},
        name="branching",
    )


def make_parallel_net(branches: int, depth: int) -> PetriNet:
    """``branches`` labeled sequences of ``depth`` steps between a silent split and a silent join.

    Transition ``b<k>_<d>`` carries label ``B<k><d>``; the net reaches
    (depth + 1) ** branches markings between the split and the join.
    """
    places = ["i", "o"]
    transitions: dict[str, str | None] = {"split": None, "join": None}
    arcs = [("i", "split"), ("join", "o")]
    for k in range(1, branches + 1):
        places += [f"p{k}_{d}" for d in range(depth + 1)]
        arcs += [("split", f"p{k}_0"), (f"p{k}_{depth}", "join")]
        for d in range(1, depth + 1):
            transitions[f"b{k}_{d}"] = f"B{k}{d}"
            arcs += [(f"p{k}_{d - 1}", f"b{k}_{d}"), (f"b{k}_{d}", f"p{k}_{d}")]
    return PetriNet.build(places, transitions, arcs, initial={"i": 1}, final={"o": 1}, name="parallel")


@pytest.fixture
def seq_abc() -> PetriNet:
    return make_seq_abc()


@pytest.fixture
def branching_net() -> PetriNet:
    return make_branching_net()


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR
