"""scripts/build_catalogs.py re-derives the bundled catalogs (degrees 4 and 6 here)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "build_catalogs.py"
DATA = ROOT / "src" / "ratsos" / "data"


def _load_script():
    spec = importlib.util.spec_from_file_location("build_catalogs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("degree", [4, 6])
def test_regenerated_catalog_is_byte_identical(tmp_path, degree):
    build = _load_script()
    build.build_catalog(degree, tmp_path, log=lambda *a: None)
    assert (tmp_path / f"degree{degree}.cat").read_bytes() == (DATA / f"degree{degree}.cat").read_bytes()


@pytest.mark.parametrize(
    "corrupt, call, message",
    [
        ("build.EXPECTED_COUNTS[4] = 6", "build.build_catalog(4, out, log=quiet)",
         "expected 6 transitive groups of degree 4, got 5"),
        ("build.EXPECTED_ROWS[6] = (6, 11, 2, 2, 1)", "build.check_table_rows(data, log=quiet)",
         "degree 6: row (6, 11, 2, 2, 0) != (6, 11, 2, 2, 1)"),
    ],
    ids=["class-count", "table-row"],
)
def test_a_wrong_certificate_stops_the_script_under_optimize(tmp_path, corrupt, call, message):
    code = "\n".join([
        "import importlib.util",
        f"spec = importlib.util.spec_from_file_location('build_catalogs', {str(SCRIPT)!r})",
        "build = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(build)",
        f"out, data = build.Path({str(tmp_path)!r}), build.Path({str(DATA)!r})",
        "quiet = lambda *a: None",
        corrupt,
        call,
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip() == message
    assert not (tmp_path / "degree4.cat").exists()
