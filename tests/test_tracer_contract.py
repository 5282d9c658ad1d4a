"""The benchmark's layer tracer installs on the current sources.

``perfbench/tracing.py`` wraps class methods by name (its ``CLASS_ENTRIES``)
and looks up every layer module as already imported by ``floeralg.cli``.
Deleting a listed method, or loading a layer lazily, would otherwise break
only traced benchmark runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import floeralg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls_in_a_fresh_interpreter():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "from tracing import Tracer\n"
        "import floeralg.cli\n"
        "from floeralg import f2linalg, spectral\n"
        "before = (f2linalg.rank, spectral.run_to_collapse,"
        " vars(f2linalg.F2Matrix)['__matmul__'])\n"
        "uninstall = Tracer().install()\n"
        "assert f2linalg.rank is not before[0]\n"
        "uninstall()\n"
        "after = (f2linalg.rank, spectral.run_to_collapse,"
        " vars(f2linalg.F2Matrix)['__matmul__'])\n"
        "assert after == before\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(floeralg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
