"""README's python snippets run as written, so an API change cannot
silently break the quickstart."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run_in_order(capsys):
    # later snippets continue from earlier ones, so all share one namespace
    assert BLOCKS
    namespace = {"__name__": "readme"}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, "README.md python block %d" % (i + 1), "exec"), namespace)
    assert capsys.readouterr().out
