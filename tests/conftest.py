"""Shared fixtures: bundled configs and the expensive batch runs.

The 10^5-trial batches are session scoped so the acceptance criteria and
any statistics tests share one run per config. The Hypothesis profile is
derandomized, so each property test draws the same examples on every run;
each test keeps its own ``max_examples`` and deadline.
"""

from importlib import resources

import pytest
from hypothesis import settings

from pulsecollapse import load_config
from pulsecollapse.scenarios import (
    run_interaction,
    run_turn_off,
    run_unresolvable_observation,
)

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def bundled_config(name):
    ref = resources.files("pulsecollapse").joinpath("configs", name)
    with resources.as_file(ref) as path:
        return load_config(str(path))


@pytest.fixture(scope="session")
def interaction_cfg():
    return bundled_config("interaction.yaml")


@pytest.fixture(scope="session")
def interaction_halted_cfg():
    return bundled_config("interaction_halted.yaml")


@pytest.fixture(scope="session")
def observation_overlap_cfg():
    return bundled_config("observation_overlap.yaml")


@pytest.fixture(scope="session")
def observation_disjoint_cfg():
    return bundled_config("observation_disjoint.yaml")


@pytest.fixture(scope="session")
def observation_single_cfg():
    return bundled_config("observation_single.yaml")


@pytest.fixture(scope="session")
def turn_off_overlap_cfg():
    return bundled_config("turn_off_overlap.yaml")


@pytest.fixture(scope="session")
def turn_off_disjoint_cfg():
    return bundled_config("turn_off_disjoint.yaml")


@pytest.fixture(scope="session")
def interaction_result(interaction_cfg):
    return run_interaction(interaction_cfg)


@pytest.fixture(scope="session")
def observation_overlap_result(observation_overlap_cfg):
    return run_unresolvable_observation(observation_overlap_cfg)


@pytest.fixture(scope="session")
def observation_disjoint_result(observation_disjoint_cfg):
    return run_unresolvable_observation(observation_disjoint_cfg)


@pytest.fixture(scope="session")
def observation_single_result(observation_single_cfg):
    return run_unresolvable_observation(observation_single_cfg)


@pytest.fixture(scope="session")
def turn_off_overlap_result(turn_off_overlap_cfg):
    return run_turn_off(turn_off_overlap_cfg)


@pytest.fixture(scope="session")
def turn_off_disjoint_result(turn_off_disjoint_cfg):
    return run_turn_off(turn_off_disjoint_cfg)
