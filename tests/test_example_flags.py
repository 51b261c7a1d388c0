"""Example scripts reject the removed ``--num-workers`` flag.

Every backend is serial, so the flag has nothing to configure; an
example that still accepted it would silently ignore the request.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The examples that used to size the parallel backends' worker pool.
FORMER_WORKER_EXAMPLES = (
    "channel_flow.py",
    "functional_cosim.py",
    "profile_breakdown.py",
    "quickstart.py",
    "taylor_green_validation.py",
)


@pytest.mark.parametrize("script", FORMER_WORKER_EXAMPLES)
def test_num_workers_flag_is_rejected(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / script),
         "--num-workers", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "unrecognized arguments: --num-workers" in proc.stderr
