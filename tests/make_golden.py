"""Write ``tests/golden.json``: the digests of the bit-contract runs.

    PYTHONPATH=src python tests/make_golden.py

The runs are the benchmark's three simulation workloads (``demo``,
``paper_round``, ``attention_epochs``) at their ``--minimal`` sizes and
workload seeds 0 and 7, each built by ``bench/workloads.sim_mapping`` and
run through ``fldp simulate``. The file holds the sha256 of each run's
``metrics.jsonl``, ``final_params.json`` and ``privacy_report.json``; the
accountant's ``rdp_sampled_gaussian`` arrays over a fixed set of (z, q)
points and order grids, with their sha256; and the provenance key the bits
hold for: the numpy version, the BLAS library's name and version, the
scipy version and the CPU features numpy dispatches to. Bits differ across
BLAS builds and across numpy's dispatch (its float64 ``exp`` and ``log``
round differently without AVX-512), so a digest is only comparable under
the same key. Rerun this only for a change that moves bits on purpose, and
list each digest that moved and why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy
import yaml

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORKLOADS = ("demo", "paper_round", "attention_epochs")
SEEDS = (0, 7)
ARTIFACTS = ("metrics.jsonl", "final_params.json", "privacy_report.json")
# Order grids of the accountant entry: the default grid, a reordered one
# that holds 3.25 (an order off every other grid), and a one-order grid.
ACCOUNTANT_GRIDS = ("default", "mixed", "single")
# Seeded (z, q) points spread log-uniformly over z in [0.2, 300] and
# q in [1e-6, 1), besides the criterion-1 and workload points.
SPREAD_POINTS, SPREAD_SEED = 24, 2023


def provenance() -> str:
    """numpy's version, the BLAS it was built against, scipy's version and
    the CPU features numpy found and dispatches to.

    The bits hold for these; the privacy report's digests depend on scipy's
    ``gammaln`` and ``log_ndtr``. ``NPY_DISABLE_CPU_FEATURES`` removes
    features from the list, so a run with AVX-512 switched off names
    another key.
    """
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = " ".join(config["SIMD Extensions"]["found"])
    return (f"numpy {np.__version__}; {blas['name']} {blas['version']}; "
            f"scipy {scipy.__version__}; cpu {simd}")


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_digests(workdir: Path) -> dict[str, dict[str, str]]:
    """sha256 of each run's artifacts, keyed by "<workload> s<seed>" then file."""
    from fldp.cli import main

    workloads = _bench_workloads()
    digests = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            key = f"{name} s{seed}"
            raw = workloads.sim_mapping(name, ROOT, seed, minimal=True)
            config = workdir / f"{name}-{seed}.yaml"
            config.write_text(yaml.safe_dump(raw))
            out = workdir / f"{name}-{seed}"
            if main(["simulate", "--config", str(config), "--out", str(out)]) != 0:
                raise RuntimeError(f"fldp simulate failed on {key}")
            digests[key] = {
                artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
                for artifact in ARTIFACTS
            }
    return digests


def order_grid(name: str) -> tuple[float, ...]:
    from fldp.accountant import DEFAULT_ORDERS

    return {"default": DEFAULT_ORDERS, "mixed": DEFAULT_ORDERS[::-3] + (3.25,),
            "single": (1.5,)}[name]


def accountant_points() -> list[tuple[float, float, str]]:
    """(z, q, grid name) of the accountant entry.

    The six criterion-1 points and the demo and attention_epochs workloads'
    points on every grid, then the seeded spread on the default grid.
    """
    from fldp.config import parse_config_mapping
    from fldp.dp import noise_multiplier

    workloads = _bench_workloads()
    pairs = [(z, q) for z, q, *_ in workloads.CRITERION_1]
    for name in ("demo", "attention_epochs"):
        raw = workloads.sim_mapping(name, ROOT, 0, minimal=False)
        privacy = parse_config_mapping(raw, ROOT / "configs").federation.privacy
        pairs.append((noise_multiplier(privacy), privacy.sampling_rate))
    points = [(z, q, grid) for grid in ACCOUNTANT_GRIDS for z, q in pairs]
    rng = np.random.default_rng(SPREAD_SEED)
    log_z = rng.uniform(math.log(0.2), math.log(300.0), SPREAD_POINTS)
    log_q = rng.uniform(math.log(1e-6), 0.0, SPREAD_POINTS)
    points += [(z, q, "default") for z, q in zip(np.exp(log_z).tolist(),
                                                 np.exp(log_q).tolist())]
    return points


def accountant_arrays(points) -> list[np.ndarray]:
    """rdp_sampled_gaussian at each (z, q, grid name) point, in order."""
    from fldp.accountant import rdp_sampled_gaussian

    return [rdp_sampled_gaussian(z, q, order_grid(grid)) for z, q, grid in points]


def accountant_digest(arrays: list[np.ndarray]) -> str:
    digest = hashlib.sha256()
    for rdp in arrays:
        digest.update(rdp.tobytes())
    return digest.hexdigest()


def accountant_entry() -> dict:
    """The sha256 of the accountant's arrays, and each array's bytes in hex
    beside its point, so a mismatch can name the (z, q, order) that moved."""
    points = accountant_points()
    arrays = accountant_arrays(points)
    return {"sha256": accountant_digest(arrays),
            "points": [[z, q, grid, rdp.tobytes().hex()]
                       for (z, q, grid), rdp in zip(points, arrays)]}


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        golden = {"provenance": provenance(), "runs": run_digests(Path(workdir)),
                  "accountant": accountant_entry()}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
