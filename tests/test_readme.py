import os
import re


def test_library_sketch_runs(capsys):
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    words = capsys.readouterr().out.split()
    assert words[1] == "<=" and words[-1] == "True"
    assert float(words[0]) <= float(words[2])
