"""The package namespace: every exported name resolves, removed names stay gone,
and every function the benchmark traces by name still exists."""

import importlib
import importlib.util
from pathlib import Path

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
    "Branch",
)


@pytest.mark.parametrize("name", endorse_dyn.__all__)
def test_exported_name_resolves(name):
    assert hasattr(endorse_dyn, name)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_absent(name):
    assert name not in endorse_dyn.__all__
    assert not hasattr(endorse_dyn, name)
    for module in (endorse_dyn.choice, endorse_dyn.core, endorse_dyn.scores,
                   endorse_dyn.stability):
        assert not hasattr(module, name)


def test_trajectory_fields():
    fields = endorse_dyn.Trajectory.__dataclass_fields__
    assert list(fields) == ["gamma_t", "a_final", "params"]



def test_every_traced_function_exists():
    """The benchmark traces functions by module and name (perfbench/spans.py,
    read here, never edited), and a name that is gone reads as an absent
    layer there; renaming one needs a benchmark change."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    if not path.exists():
        pytest.skip("no perfbench/ next to the tests")
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    absent = [
        f"{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"endorse_dyn.{layer}"), name, None))
    ]
    assert absent == []
