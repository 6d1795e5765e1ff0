"""README's python snippets run as written, so an API change cannot
silently break the quickstart, and the names it cites still exist."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
#: where a name the README cites must live; test-side references are cited
#: by their path, which this check skips
SOURCES = ("src/qdtree", "perfbench", "demos")


def test_readme_python_blocks_run_in_order(capsys):
    # later snippets continue from earlier ones, so all share one namespace
    assert BLOCKS
    namespace = {"__name__": "readme"}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, "README.md python block %d" % (i + 1), "exec"), namespace)
    assert capsys.readouterr().out


def test_readme_cites_only_names_the_code_has():
    # a backticked identifier with an underscore or an inner capital is a
    # code name, not an English word, so a rename or deletion must reach it
    cited = {
        name
        for name in re.findall(r"`([A-Za-z_]\w*)`", TEXT)
        if "_" in name or re.search(r".[A-Z]", name)
    }
    assert cited
    code = "\n".join(
        path.read_text(encoding="utf-8")
        for source in SOURCES
        for path in sorted((ROOT / source).rglob("*.py"))
    )
    words = set(re.findall(r"\w+", code))
    assert sorted(cited - words) == []
