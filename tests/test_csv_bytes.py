"""The CSV byte contract as a gate: fixed runs against committed sha256 digests.

``tools/csv_digests.py --gate`` names the runs (every benchmark workload
and fixed sweep at one seed, and the ``evaluate`` digest lines) and
wrote ``tests/fixtures/csv_digests.json``; this test recomputes them in
process.  A change that moves the bytes on purpose rewrites the fixture
with that command, so the move shows in its diff.  The bytes also rest
on numpy's random stream and on the SIMD loops numpy picks for this CPU,
so a mismatch names any difference in those beside the runs: a numpy
version other than the fixture's, or a dispatch list that is none of the
fixture's lists, each a CPU on which the digests were seen to hold.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import csv_digests  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "csv_digests.json"


def test_csv_and_evaluate_bytes_match_the_committed_digests():
    want, got = json.loads(FIXTURE.read_text()), csv_digests.gate()
    moved = [f"{part} {name}" for part in ("csv", "evaluate")
             for name in want[part].keys() | got[part].keys()
             if got[part].get(name) != want[part].get(name)]
    (dispatch,) = got["cpu_dispatch"]
    platform = ([f"numpy {got['numpy']} here, {want['numpy']} in the fixture"]
                if got["numpy"] != want["numpy"] else [])
    if dispatch not in want["cpu_dispatch"]:  # the lists the digests are known to hold on
        platform.append(f"cpu_dispatch {dispatch} here, none of {want['cpu_dispatch']} "
                        f"in the fixture")
    assert not moved, (f"bytes moved: {', '.join(sorted(moved))}"
                       + (f"; platform differs: {'; '.join(platform)}" if platform else ""))
