"""README's code runs as written, and its file formats are the ones the code writes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kdcn.model import MODEL_MAGIC, MODEL_VERSION
from kdcn.pretrain import CHECKPOINT_MAGIC, CHECKPOINT_VERSION

ROOT = Path(__file__).resolve().parent.parent


def readme_section(heading: str) -> str:
    """The text of the README section with this heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def readme_block(heading: str) -> str:
    """The first python code block under the README section with this heading."""
    section = readme_section(heading)
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, f"no python block under '## {heading}'"
    return match.group(1)


def test_library_use_runs(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", readme_block("Library use")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("EpochStats("), proc.stdout


@pytest.mark.parametrize(
    "name, magic, version",
    [("ckge.bin", CHECKPOINT_MAGIC, CHECKPOINT_VERSION), ("kdcn.bin", MODEL_MAGIC, MODEL_VERSION)],
)
def test_file_formats_state_magic_and_version(name, magic, version):
    entry = readme_section("File formats").split(f"\n* **{name}** — ", 1)[1].split("\n* ", 1)[0]
    assert entry.startswith(f"magic `{magic.decode()}`, version u32 LE (={version}),"), entry
