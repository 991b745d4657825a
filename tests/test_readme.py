"""The README's Python example runs as written and prints what its comment says."""

import contextlib
import io
import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs_and_matches_its_comment():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    code = blocks[0]
    # the printing line's comment states the printed magnitude, "~1e-15"
    claim = re.search(r"^print\(.*# ~(1e-\d+)", code, re.M)
    assert claim is not None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = float(out.getvalue())
    # "~1e-15" reads as the same power of ten, within a factor of 10
    assert abs(math.log10(printed) - math.log10(float(claim.group(1)))) < 1
