"""Every demo script runs to completion and writes the files it names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

# script -> the files it writes into its working directory
DEMOS = {
    "filtered_single_line.py": ["filtered_spectrum.csv", "filtered_wavepacket.csv"],
    "linewidth_tuning.py": ["linewidth_sweep.csv"],
    "montecarlo_roundtrip.py": ["roundtrip_histogram.csv",
                                "roundtrip_histogram.csv.meta.json"],
    "pulse_shaping.py": ["carved_pulses.csv", "pulse_train.csv"],
    "wavepacket_gallery.py": [f"wavepacket_dc{dc}.csv"
                              for dc in ("0", "16.7", "28.3", "45")],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (REPO / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, str(REPO / "demos" / script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    for name in DEMOS[script]:
        assert (tmp_path / name).is_file(), name
