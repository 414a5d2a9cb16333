"""Config module tests: its place below the pipeline, the names the runner
reads from it, and the refusal of malformed config input."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from catebounds import config, runner
from catebounds.config import config_from_dict

SRC = Path(config.__file__).parent.parent


def test_import_loads_no_pipeline_module():
    # the config names the pipeline's settings; it runs none of its stages
    code = ("import sys, catebounds.config; "
            "print(sorted(m for m in sys.modules if m in ("
            "'catebounds.runner', 'catebounds.bounds', "
            "'catebounds.evaluation', 'catebounds.cli')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]", f"import catebounds.config loaded {out.strip()}"


@pytest.mark.parametrize("name", [
    "DatasetSpec", "ExperimentConfig", "Stage0Params", "PropensityParams",
    "FlowParams", "config_to_dict", "config_from_dict", "config_hash"])
def test_runner_reads_the_config_objects(name):
    # callers that reach the config through the runner get the same objects
    assert getattr(runner, name) is getattr(config, name)


@pytest.mark.parametrize("raw, message", [
    (5, "config must be a JSON object, got 5"),
    ({"stage0": 5}, "stage0: section must be a JSON object, got 5"),
    ({"stage0": ["n_iter"]},
     "stage0: section must be a JSON object, got ['n_iter']"),
    ({"dataset": None}, "dataset: section must be a JSON object, got None"),
    ({"deltas": 0.5}, "deltas must be a list, got 0.5"),
    ({"deltas": "0.5"}, "deltas must be a list, got '0.5'"),
    ({"seeds": 3}, "seeds must be a list, got 3"),
])
def test_malformed_input_refused_naming_the_key(raw, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        config_from_dict(raw)
