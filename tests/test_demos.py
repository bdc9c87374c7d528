"""The fast demo scripts must stay runnable."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script",
    [
        "01_containers.py",
        "02_permutation_search.py",
        "03_annealed_quantization.py",
        "04_bit_accounting.py",
        "05_permutation_groups.py",
        "06_finetune_recovery.py",
    ],
)
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} printed nothing"
