"""Set-up time of a fresh process: import ratsos and its CLI, load the catalogs.

Run from the repository root; prints the elapsed seconds as JSON.  With
the argument ``reference`` it times instead the import of a fixed set of
standard-library modules that ratsos does not import, the yardstick of
host speed for set-up (see ``calibration.py``).
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = perf_counter()
if sys.argv[1:] == ["reference"]:
    import asyncio  # noqa: E402,F401
    import configparser  # noqa: E402,F401
    import csv  # noqa: E402,F401
    import email.parser  # noqa: E402,F401
    import http.client  # noqa: E402,F401
    import logging  # noqa: E402,F401
    import unittest  # noqa: E402,F401
    import xml.etree.ElementTree  # noqa: E402,F401
else:
    import ratsos  # noqa: E402,F401
    import ratsos.cli  # noqa: E402,F401
    from ratsos.permgroup import load_bundled_catalog  # noqa: E402

    for degree in (4, 6, 8):
        load_bundled_catalog(degree)
print(json.dumps({"setup_s": perf_counter() - start}))
