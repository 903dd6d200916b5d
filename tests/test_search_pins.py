"""Trajectory pins: every search strategy's fixed-seed run, frozen across commits.

``test_fixed_seed_runs_are_identical`` compares two runs of the same code;
these pins compare a run against the one recorded when the pins were
written, so a refactor that silently moves a trajectory fails here.  Each
pin is the sha256 of the evaluated labels (in evaluation order) for one
strategy on the ``uniform`` workload × ``compact`` space at budget 48 and
seed 1 — the same run as::

    dmexplore explore --workload uniform --space compact --seed 1 \\
        --strategy STRATEGY --budget 48

A change that is *meant* to move a trajectory regenerates the table with
``PYTHONPATH=src python tests/test_search_pins.py`` and names the moved pins
(and why) in its change notes.
"""

import hashlib

import pytest

from repro.api.experiment import run_experiment
from repro.api.spec import ExperimentSpec

STRATEGIES = ("random", "evolutionary", "nsga2", "tpe")

#: strategy -> sha256 of the label sequence
PINS = {
    "random": "0220e3afb33f1f4e92b87fb8ff3143f4f32aad50a192967b9a302961883b6af2",
    "evolutionary": "6116ea9fbd7a6d665c880317f298186e72c0d8a6b3e66f152454cdbe99125890",
    "nsga2": "b2476e96cb88ca4b12cf8a028bd72692f32907ba8305b38964da0079998ad5e8",
    "tpe": "7ff0c10de311cae0d6baf8bd981d9af6f7b9ebc928da97802408ca89b49454ef",
}


def trajectory(strategy: str) -> str:
    spec = ExperimentSpec.from_dict(
        {
            "spec_version": 1,
            "workload": {"name": "uniform"},
            "space": {"name": "compact"},
            "strategy": {"name": strategy, "params": {"budget": 48}},
            "seed": 1,
        }
    )
    database = run_experiment(spec).database
    labels = "\n".join(record.configuration_id for record in database.records)
    return hashlib.sha256(labels.encode()).hexdigest()


# The "-plain" ids name the unpruned runs these pins have always held.
@pytest.mark.parametrize(
    "strategy", STRATEGIES, ids=[f"{name}-plain" for name in STRATEGIES]
)
def test_trajectory_matches_pin(strategy):
    assert trajectory(strategy) == PINS[strategy]


if __name__ == "__main__":
    print("PINS = {")
    for name in STRATEGIES:
        print(f'    "{name}": "{trajectory(name)}",')
    print("}")
