"""Import hygiene: the package, its transforms and the CLI run without scipy.

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
for sub, flags in (("dressed", ["--delta-c", "28.3"]), ("sweep", []),
                   ("wavepacket", ["--delta-c", "28.3"])):
    assert biphoton.cli.main([sub, *flags, "--out", {out!r}]) == 0
    seen[sub] = scipy()
print(json.dumps(seen))
""")
    assert seen == {"import": [], "dressed": [], "sweep": [], "wavepacket": []}


def test_only_a_worker_pool_loads_concurrent_futures(tmp_path):
    # the pool is imported where a run starts one, so the CLI's import and
    # its single-threaded runs skip concurrent.futures and logging
    config = tmp_path / "run.yaml"
    config.write_text("detection:\n  measurement_time: 1.0\n")
    out = str(tmp_path)
    seen = _run(f"""
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "concurrent")
import biphoton.cli
seen = {{"import": loaded()}}
for sub, flags in (("dressed", ["--delta-c", "28.3"]), ("sweep", []),
                   ("wavepacket", ["--delta-c", "28.3"]),
                   ("montecarlo", ["--config", {str(config)!r}, "--shards", "2",
                                   "--workers", "2"])):
    assert biphoton.cli.main([sub, *flags, "--out", {out!r}]) == 0
    seen[sub] = loaded()
print(json.dumps(seen))
""")
    assert seen.pop("montecarlo")[:2] == ["concurrent", "concurrent.futures"]
    assert seen == {"import": [], "dressed": [], "sweep": [], "wavepacket": []}


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


def test_montecarlo_then_fit_loads_no_scipy(tmp_path):
    # the fit is a numpy solver; scipy.optimize is not imported
    config = tmp_path / "run.yaml"
    config.write_text("system:\n  delta_c: 28.3\nfilter:\n  - center_gamma13: narrow\n"
                      "detection:\n  measurement_time: 10.0\n  rng_seed: 7\n")
    out = str(tmp_path)
    data = str(tmp_path / "histogram.csv")
    seen = _run(f"""
import json, sys
scipy = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import biphoton.cli
seen = {{}}
assert biphoton.cli.main(["montecarlo", "--config", {str(config)!r}, "--out", {out!r}]) == 0
seen["montecarlo"] = scipy()
assert biphoton.cli.main(["fit", "--data", {data!r}, "--out", {out!r}]) == 0
seen["fit"] = scipy()
# np.median would import numpy.ma, about 10 ms of a cold fit
seen["numpy.ma"] = "numpy.ma" in sys.modules
print(json.dumps(seen))
""")
    assert seen == {"montecarlo": [], "fit": [], "numpy.ma": False}
    assert "converged: True" in (tmp_path / "fit_result.txt").read_text()


def test_numeric_transform_loads_no_scipy():
    # the truncated tails are a fitted rational function with a closed-form
    # transform, so no special-function library is needed
    seen = _run("""
import json, sys
from biphoton import SystemParams, chi3_full, default_frequency_grid, psi_numeric
p = SystemParams(delta_c=28.3)
psi_numeric(chi3_full(p, default_frequency_grid(p)), p=p)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
""")
    assert seen == []


def test_source_never_names_scipy_signal():
    named = [str(f) for f in SRC.rglob("*.py") if "scipy.signal" in f.read_text()]
    assert named == []


def test_source_never_names_scipy_optimize():
    named = [str(f) for f in SRC.rglob("*.py") if "scipy.optimize" in f.read_text()]
    assert named == []


def test_source_never_names_scipy():
    named = [str(f) for f in SRC.rglob("*.py") if "scipy" in f.read_text().lower()]
    assert named == []
