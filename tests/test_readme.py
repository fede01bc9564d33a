"""README's Python examples run as written against the package in src/."""

import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def test_readme_examples_run_in_one_namespace():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert len(blocks) == 2  # the quickstart, then the tune example that reuses its X
    ns = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), ns)
    assert Path(ns["sp"].__file__).resolve().parent == ROOT / "src" / "sosrep"
    assert np.all(np.isfinite(ns["dens"])) and np.all(ns["dens"] >= 0)
    assert np.all(np.isfinite(ns["s"]))
    assert ns["a_star"] in {e.a for e in ns["profile"].entries}
