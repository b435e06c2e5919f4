"""What ``import subcat.cli`` pulls in: every CLI command pays for it at start-up.

The import runs in a fresh interpreter started with ``-S``, so no site
``.pth`` hook can import these modules first and hide a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# dataclasses brings inspect, ast, dis and tokenize; json is only needed for
# JSON input and output.
AVOIDED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json")


def test_cli_import_avoids_heavy_modules():
    probe = ("import subcat.cli, sys; "
             f"print(' '.join(m for m in {AVOIDED!r} if m in sys.modules))")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
