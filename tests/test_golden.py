"""The bit contract: the benchmark's runs write the bytes of ``golden.json``.

Every refactor of the round is meant to keep a run bit for bit. These six
runs (three workloads at their ``--minimal`` sizes, workload seeds 0 and 7)
must give the recorded sha256 of their metrics, final parameters and
privacy report, and the accountant's RDP arrays at a fixed set of (z, q)
points and order grids the recorded sha256 of their bytes. The digests
hold for one numpy, BLAS and scipy build and one set of CPU features numpy
dispatches to; under another the test fails and names both, since it
cannot tell a changed bit from a different library. ``tests/make_golden.py``
rewrites the file for a change that moves bits on purpose.
"""

import json

import numpy as np

from make_golden import (GOLDEN, accountant_arrays, accountant_digest,
                         accountant_points, order_grid, provenance, run_digests)


def _golden() -> dict:
    golden = json.loads(GOLDEN.read_text())
    assert provenance() == golden["provenance"], (
        f"digests recorded under {golden['provenance']!r}, this is "
        f"{provenance()!r}: rerun tests/make_golden.py on a known-good tree")
    return golden


def test_runs_write_the_golden_bytes(tmp_path, capsys):
    golden = _golden()
    got = run_digests(tmp_path)
    capsys.readouterr()
    moved = [f"{run} {artifact}" for run, files in golden["runs"].items()
             for artifact, digest in files.items()
             if got[run][artifact] != digest]
    assert got.keys() == golden["runs"].keys()
    assert not moved, f"bits moved: {moved}"


def test_accountant_gives_the_golden_bytes():
    recorded = _golden()["accountant"]
    points = accountant_points()
    assert [tuple(p[:3]) for p in recorded["points"]] == points
    arrays = accountant_arrays(points)
    if accountant_digest(arrays) == recorded["sha256"]:
        return
    for (z, q, grid), rdp, point in zip(points, arrays, recorded["points"]):
        want = np.frombuffer(bytes.fromhex(point[3]), dtype=np.float64)
        for order, a, b in zip(order_grid(grid), want, rdp):
            assert a.tobytes() == b.tobytes(), (
                f"rdp_sampled_gaussian(z={z!r}, q={q!r}) at order {order} "
                f"moved: {a!r} -> {b!r}")
    raise AssertionError("accountant digest moved, every recorded value matches: "
                         "rerun tests/make_golden.py")
