"""The benchmark's tracer must find every entry point it wraps.

``perfbench/tracing.py`` rebinds kfree functions and methods by name, so a
rename in the library makes ``Tracer.install`` raise and every traced
benchmark pass die.  This runs the install in a fresh interpreter, with
``src`` and ``perfbench`` on ``sys.path`` as the benchmark's worker has them.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_entry_point():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "import tracing; tracing.Tracer().install()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
