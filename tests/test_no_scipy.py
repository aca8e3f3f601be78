"""levyrisk needs numpy only: a fresh interpreter that refuses scipy runs it end to end."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused: levyrisk must not import scipy")
        return None

sys.meta_path.insert(0, RefuseScipy())

import levyrisk
from levyrisk import SimulationConfig, cli, validation_report

validation_report(SimulationConfig(seed=1, n_paths=2000))
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["--config", "configs/brownian_common_sigma.cfg", "--command", "allocate"])
assert code == 0, code
assert "scipy" not in sys.modules
"""


def test_runs_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
