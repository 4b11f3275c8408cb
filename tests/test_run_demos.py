"""scripts/run_demos.py runs its nine pipelines end to end with the expected exit codes."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_demos.py"


def test_demos_exit_with_the_expected_codes(capsys):
    spec = importlib.util.spec_from_file_location("run_demos", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert "Traceback" not in out
    # the D4 quartic has no obstruction (exit 2); every other pipeline certifies
    assert [int(code) for code in re.findall(r"^\[exit (\d+),", out, re.M)] == [0, 0, 0, 0, 0, 2, 0, 0, 0]
