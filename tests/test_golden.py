"""The bit contract: the benchmark's runs write the bytes of ``golden.json``.

Every refactor of the round is meant to keep a run bit for bit. These six
runs (three workloads at their ``--minimal`` sizes, workload seeds 0 and 7)
must give the recorded sha256 of their metrics, final parameters and
privacy report. The digests hold for one numpy, BLAS and scipy build and
one set of CPU features numpy dispatches to; under another the test fails
and names both, since it cannot tell a changed bit from a different library. ``tests/make_golden.py`` rewrites the
file for a change that moves bits on purpose.
"""

import json

from make_golden import GOLDEN, provenance, run_digests


def test_runs_write_the_golden_bytes(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    assert provenance() == golden["provenance"], (
        f"digests recorded under {golden['provenance']!r}, this is "
        f"{provenance()!r}: rerun tests/make_golden.py on a known-good tree")
    got = run_digests(tmp_path)
    capsys.readouterr()
    moved = [f"{run} {artifact}" for run, files in golden["runs"].items()
             for artifact, digest in files.items()
             if got[run][artifact] != digest]
    assert got.keys() == golden["runs"].keys()
    assert not moved, f"bits moved: {moved}"
