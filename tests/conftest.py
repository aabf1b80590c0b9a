import os
import subprocess
import sys
from pathlib import Path

import pytest

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture()
def fresh_python(tmp_path):
    """Run code in a fresh interpreter, in tmp_path, importing kamlab from
    where this one does; returns the finished process, its output as text."""
    import kamlab
    src = str(Path(kamlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(code, check=True):
        return subprocess.run([sys.executable, "-c", code], env=env, check=check,
                              timeout=120, capture_output=True, text=True, cwd=tmp_path)
    return run
