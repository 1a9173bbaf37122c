"""The package namespace: every exported name resolves, removed names stay gone."""

import pytest

import endorse_dyn

# Public names deleted with the plug-in generality no caller used: custom
# feature maps, the score registry, the rate matrix helper, the log-space
# choice probabilities.
REMOVED = (
    "FeatureMap",
    "PRESTIGE",
    "PROXIMITY",
    "CANONICAL_FEATURES",
    "log_choice_probabilities",
    "SCORE_FUNCTIONS",
    "rate_matrix",
)


@pytest.mark.parametrize("name", endorse_dyn.__all__)
def test_exported_name_resolves(name):
    assert hasattr(endorse_dyn, name)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_absent(name):
    assert name not in endorse_dyn.__all__
    assert not hasattr(endorse_dyn, name)
    for module in (endorse_dyn.choice, endorse_dyn.core, endorse_dyn.scores):
        assert not hasattr(module, name)


def test_trajectory_fields():
    fields = endorse_dyn.Trajectory.__dataclass_fields__
    assert list(fields) == ["gamma_t", "a_final", "params"]
