"""The package's export table: each public name is declared once and
resolves from its home module on first use."""

import importlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import soct

PUBLIC = [
    "ClassRegistry", "ColoredGraph", "CompressedLeaf", "CompressedTree", "CompressionWeights",
    "ExhaustiveResult", "InfoIncrement", "InfoReport", "NodeKey", "PlanQuery", "PlanResult",
    "SemanticOctree", "TruncatedSemanticDistribution", "UNKNOWN_CLASS", "WorldConfig",
    "bernoulli_js", "build_and_compress", "class_ordered_astar", "compress_tree",
    "count_candidate_trees", "exhaustive_search", "expand_truncated", "expansion_gain",
    "full_tree", "fuse_observation", "graph_from_tree", "halton_graph", "information_report",
    "per_class_information", "refresh_all", "refresh_upward", "split_increments",
    "truncate_full", "weighted_gain",
]


def test_all_holds_the_public_names_each_declared_once():
    assert soct.__all__ == PUBLIC
    source = Path(soct.__file__).read_text(encoding="utf-8")
    assert {name: len(re.findall(rf"\b{name}\b", source)) for name in PUBLIC} == dict.fromkeys(
        PUBLIC, 1)


def test_each_name_is_its_home_modules_object():
    for name in PUBLIC:
        home = importlib.import_module(f"soct.{soct._HOME[name]}")
        assert getattr(soct, name) is getattr(home, name)
        assert vars(soct)[name] is getattr(home, name)  # stored on first use
        if name != "UNKNOWN_CLASS":  # defined where the table says it lives
            assert getattr(home, name).__module__ == home.__name__
    assert soct.UNKNOWN_CLASS == -1


def test_dir_and_star_import_follow_all():
    assert set(PUBLIC) <= set(dir(soct))
    assert "__version__" in dir(soct)
    namespace = {}
    exec("from soct import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "dominant_class", "leaf_classes"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(soct, name)
    assert not hasattr(soct, "BlockIndex")


def test_reading_a_name_loads_only_its_home_modules():
    code = ("import sys, soct\n"
            "before = [m for m in sys.modules if m.startswith('soct.')]\n"
            "soct.UNKNOWN_CLASS, soct.WorldConfig\n"
            "print(before, 'soct.planning' in sys.modules, 'soct.compression' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(soct.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.split() == ["[]", "False", "False"]


def test_a_deprecation_warning_from_a_soct_module_is_an_error():
    """The suite's ``filterwarnings`` turns a DeprecationWarning attributed
    to a soct module into an error; its pattern names no other package, so
    a third-party deprecation stays a warning."""
    with pytest.raises(DeprecationWarning, match="old"):
        warnings.warn_explicit("old", DeprecationWarning, "planning.py", 1,
                               module="soct.planning")
    scoped = [f[3] for f in warnings.filters
              if f[0] == "error" and f[2] is DeprecationWarning and f[3] is not None]
    assert scoped and all(p.match("soct.octree") and not p.match("numpy.linalg")
                          for p in scoped)
