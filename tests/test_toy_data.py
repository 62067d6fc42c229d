import subprocess
import sys

from conftest import DATA

TOOL = DATA.parent.parent / "tools" / "gen_toy_data.py"


def test_generator_reproduces_committed_toy_data(tmp_path):
    subprocess.run([sys.executable, str(TOOL), "--out", str(tmp_path)],
                   check=True, capture_output=True)
    generated = sorted(p.name for p in tmp_path.iterdir())
    assert generated == sorted(p.name for p in DATA.iterdir())
    for name in generated:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
