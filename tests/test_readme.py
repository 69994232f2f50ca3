"""The README's Python snippets and CLI examples run as documented."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_python_blocks_run_in_order():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_readme_cli_examples_run_in_order(tmp_path):
    # each line of the sh block under "Examples:" runs in one directory, with
    # qkdeff bound to `python -m qkdeff` on this checkout's src/
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^Examples:\n\n```sh\n(.*?)^```$", text, flags=re.M | re.S)
    lines = [line for line in block.splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    assert len(lines) >= 6
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), *sys.path]),
               PYTHONWARNINGS="error::RuntimeWarning,error::DeprecationWarning,"
                              "error::FutureWarning")
    prelude = f'set -o pipefail; qkdeff() {{ "{sys.executable}" -m qkdeff "$@"; }}\n'
    for line in lines:
        proc = subprocess.run(["bash", "-c", prelude + line], cwd=tmp_path, env=env,
                              capture_output=True)
        assert proc.returncode == 0, (line, proc.stderr)
        if "squeeze-decode" in line:
            assert proc.stdout == b"0000100000\n"
