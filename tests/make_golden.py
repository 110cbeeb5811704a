"""Write ``tests/golden.json``: the digests of the bit-contract runs.

    PYTHONPATH=src python tests/make_golden.py

The runs are the benchmark's three simulation workloads (``demo``,
``paper_round``, ``attention_epochs``) at their ``--minimal`` sizes and
workload seeds 0 and 7, each built by ``bench/workloads.sim_mapping`` and
run through ``fldp simulate``. The file holds the sha256 of each run's
``metrics.jsonl``, ``final_params.json`` and ``privacy_report.json``, and
the provenance key the bits hold for: the numpy version, the BLAS
library's name and version, the scipy version and the CPU features numpy
dispatches to. Bits differ across BLAS builds and across numpy's dispatch
(its float64 ``exp`` and ``log`` round differently without AVX-512), so a
digest is only comparable under the same key. Rerun this only for a
change that moves bits on purpose, and list each digest that moved and
why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
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


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        golden = {"provenance": provenance(), "runs": run_digests(Path(workdir))}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
