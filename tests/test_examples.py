"""The examples that run no simulation, run as a user would."""

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_print_machine_config_prints_the_charged_depths(capsys):
    load_example("print_machine_config").main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Simulated machine (paper Section 3.1 defaults)"
    (pipeline,) = [line for line in lines if line.startswith("pipeline")]
    assert pipeline.endswith(
        ": 3 fetch + 1 decode before rename, 2 regread + execute + "
        "1 writeback; retire 2 cycles after rename at the earliest")
    assert any(line.startswith("integration table") for line in lines)
