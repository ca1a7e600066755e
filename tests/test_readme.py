"""The README's library quick start runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # the block prints the cat's negativity volume, then propagates it
    assert float(capsys.readouterr().out) > 0.0
    assert abs(namespace["traj"].trace[-1] - 1.0) < 1e-8
