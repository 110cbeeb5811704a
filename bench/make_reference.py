"""Store the default-seed results that ``check.max_rel_drift`` compares to.

    python3 bench/make_reference.py

Writes ``bench/reference/<workload>.json`` and, for the simulation
workloads, ``<workload>-minimal.json``: the numeric per-round metrics of one
simulation (or, for ``accountant``, the answers to its queries and the
calibrated z) at the default seed. Rerun it only when a change to the
program's results is intended and reviewed.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run


def main() -> None:
    run._import_program()
    import workloads as w

    build = run.ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="fldp-reference-", dir=build))
    try:
        for minimal in (False, True):
            for name in run.SETUPS:
                if name == "accountant" and minimal:
                    continue  # --minimal does not change the accountant workload
                if name == "accountant":
                    queries = w.accountant_setup(run.ROOT, w.DEFAULT_SEED)
                    rows = [run.accountant_answers(queries, w.CALIBRATE_TARGET)]
                else:
                    raw = w.sim_mapping(name, run.ROOT, w.DEFAULT_SEED, minimal)
                    rc, population = w.sim_setup(raw)
                    w.simulate(rc, population, out_dir)
                    rows = w.flatten_records(out_dir)
                path = run.reference_path(name, minimal)
                path.parent.mkdir(exist_ok=True)
                path.write_text(json.dumps(
                    {"seed": w.DEFAULT_SEED, "minimal": minimal, "rows": rows}, indent=1
                ) + "\n")
                print(f"wrote {path.relative_to(run.ROOT)}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
