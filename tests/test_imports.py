"""Import hygiene: the package and the CLI start without scipy.

Each check runs in a fresh interpreter, since a module imported once
stays in sys.modules for the rest of a test session.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_runs_load_no_scipy(tmp_path):
    out = str(tmp_path)
    seen = _run(f"""
import json, sys
scipy = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import biphoton.cli
seen = {{"import": scipy()}}
for sub in ("dressed", "sweep"):
    assert biphoton.cli.main([sub, "--delta-c", "28.3", "--out", {out!r}]) == 0
    seen[sub] = scipy()
print(json.dumps(seen))
""")
    assert seen == {"import": [], "dressed": [], "sweep": []}


def test_filtered_cli_runs_load_no_scipy(tmp_path):
    # filtered models are transformed by the residue sum, not psi_numeric
    config = tmp_path / "run.yaml"
    config.write_text("system:\n  delta_c: 28.3\nfilter:\n  - center_gamma13: narrow\n"
                      "detection:\n  measurement_time: 10.0\n"
                      "mask:\n  start_offset_ns: auto\n")
    out = str(tmp_path)
    seen = _run(f"""
import json, sys
scipy = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import biphoton.cli
seen = {{}}
for sub in ("filter", "montecarlo", "modulate"):
    assert biphoton.cli.main([sub, "--config", {str(config)!r}, "--out", {out!r}]) == 0
    seen[sub] = scipy()
print(json.dumps(seen))
""")
    assert seen == {"filter": [], "montecarlo": [], "modulate": []}


def test_transform_loads_special_not_signal():
    seen = _run("""
import json, sys
from biphoton import SystemParams, chi3_full, default_frequency_grid, psi_numeric
p = SystemParams(delta_c=28.3)
psi_numeric(chi3_full(p, default_frequency_grid(p)), p=p)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
""")
    assert "scipy.special" in seen
    assert not any(m.startswith("scipy.signal") for m in seen)


def test_source_never_names_scipy_signal():
    named = [str(f) for f in SRC.rglob("*.py") if "scipy.signal" in f.read_text()]
    assert named == []
