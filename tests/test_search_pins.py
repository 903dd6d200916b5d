"""Trajectory pins: every search strategy's fixed-seed run, frozen across commits.

``test_fixed_seed_runs_are_identical`` compares two runs of the same code;
these pins compare a run against the one recorded when the pins were
written, so a refactor that silently moves a trajectory fails here.  Each
pin is the sha256 of the evaluated labels (in evaluation order) plus the
pruning counters, for one strategy with pruning off and on, on the
``uniform`` workload × ``compact`` space at budget 48 and seed 1 — the
same run as::

    dmexplore explore --workload uniform --space compact --seed 1 \\
        --strategy STRATEGY --budget 48 [--prune]

A change that is *meant* to move a trajectory regenerates the table with
``PYTHONPATH=src python tests/test_search_pins.py`` and names the moved pins
(and why) in its change notes.
"""

import hashlib

import pytest

from repro.api.experiment import run_experiment
from repro.api.spec import ExperimentSpec

STRATEGIES = ("random", "hillclimb", "evolutionary", "nsga2", "tpe", "surrogate")

#: (strategy, prune) -> (sha256 of the label sequence, prune_skipped,
#: prune_predicted, surrogate_skips)
PINS = {
    ("random", False): (
        "0220e3afb33f1f4e92b87fb8ff3143f4f32aad50a192967b9a302961883b6af2",
        0, 0, 0,
    ),
    ("random", True): (
        "3c55ef132729f1d8591c84e597f736e4149ed49f90ca1cc3888fe85e521c7dd6",
        8, 48, 8,
    ),
    ("hillclimb", False): (
        "93ffab33e5cd607faa906ca7d38aed10c4bb8b08a17e72e45ae5a9f323e2c51d",
        0, 0, 0,
    ),
    ("hillclimb", True): (
        "e7dc19df3ae65be10081116622d85c8edd224bb9976c68621cc44cf3e0765e09",
        5, 45, 5,
    ),
    ("evolutionary", False): (
        "6116ea9fbd7a6d665c880317f298186e72c0d8a6b3e66f152454cdbe99125890",
        0, 0, 0,
    ),
    ("evolutionary", True): (
        "d35ba9fb64ede57c50ae7fab7555f263286ef41027b8cdae9ab52034f6107d31",
        4, 47, 4,
    ),
    ("nsga2", False): (
        "b2476e96cb88ca4b12cf8a028bd72692f32907ba8305b38964da0079998ad5e8",
        0, 0, 0,
    ),
    ("nsga2", True): (
        "06c190b171e9c99e05da7973293950bec9c2b4a190ad04e6dff33233e0233aa9",
        8, 57, 8,
    ),
    ("tpe", False): (
        "7ff0c10de311cae0d6baf8bd981d9af6f7b9ebc928da97802408ca89b49454ef",
        0, 0, 0,
    ),
    ("tpe", True): (
        "319253a2c2e41335773c6040c980a814e91a231074980250c2cfb56c7b3f552b",
        9, 58, 9,
    ),
    ("surrogate", False): (
        "992e3347fc2f1ace9db73c2d4e3b83dfea54bc68a2044717aea0e39c8490b624",
        0, 0, 95,
    ),
    ("surrogate", True): (
        "992e3347fc2f1ace9db73c2d4e3b83dfea54bc68a2044717aea0e39c8490b624",
        24, 128, 110,
    ),
}


def trajectory(strategy: str, prune: bool) -> tuple[str, int, int, int]:
    spec = ExperimentSpec.from_dict(
        {
            "spec_version": 1,
            "workload": {"name": "uniform"},
            "space": {"name": "compact"},
            "strategy": {"name": strategy, "params": {"budget": 48}},
            "seed": 1,
            "prune": prune,
        }
    )
    database = run_experiment(spec).database
    labels = "\n".join(record.configuration_id for record in database.records)
    return (
        hashlib.sha256(labels.encode()).hexdigest(),
        database.prune_skipped,
        database.prune_predicted,
        database.surrogate_skips,
    )


@pytest.mark.parametrize("prune", [False, True], ids=["plain", "prune"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_trajectory_matches_pin(strategy, prune):
    assert trajectory(strategy, prune) == PINS[strategy, prune]


if __name__ == "__main__":
    print("PINS = {")
    for name in STRATEGIES:
        for flag in (False, True):
            digest, *counters = trajectory(name, flag)
            print(f'    ("{name}", {flag}): (\n        "{digest}",')
            print(f"        {', '.join(map(str, counters))},\n    ),")
    print("}")
