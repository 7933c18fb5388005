"""The README's `python` blocks run as written, and every `print` line that
ends in a `# values` comment prints exactly those values."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_python_blocks_print_stated_values():
    assert len(BLOCKS) >= 2
    for block in BLOCKS:
        # one entry per print line, in order: its stated output or None
        stated = [
            m.group(1).strip() if (m := re.search(r"#\s*(.+)$", line)) else None
            for line in block.splitlines()
            if line.lstrip().startswith("print(")
        ]
        printed: list[str] = []
        scope = {"print": lambda *args: printed.append(" ".join(map(str, args)))}
        exec(compile(block, str(README), "exec"), scope)
        assert len(printed) == len(stated), block
        checked = [(s, p) for s, p in zip(stated, printed) if s is not None]
        assert checked, block
        for expected, got in checked:
            assert got == expected, block
