#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the current sources.

    python3 perfbench/make_reference.py

The reference holds a digest of every CSV line each workload writes at the
default seed, plus the k_emp table lines of the workloads that compute one.
sweep_cli_jobs2 is checked against phase_n500's digests, since its CSV must
not depend on --jobs. Regenerate only when a change to the sources is meant
to change the output bytes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads as wl  # noqa: E402

from run import REFERENCE_SEED  # noqa: E402


def main() -> int:
    reference: dict = {"seed": REFERENCE_SEED, "kemp": {}}
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = str(Path(tmp) / "out.csv")
        for name, workload in wl.WORKLOADS.items():
            output = workload.run(REFERENCE_SEED, csv_path)
            digests = wl.line_digests(Path(csv_path).read_bytes())
            key = workload.reference
            if key in reference and reference[key] != digests:
                print(f"error: {name} CSV differs from {key}'s", file=sys.stderr)
                return 1
            reference[key] = digests
            if output.kemp is not None:
                reference["kemp"][name] = output.kemp
    with open(BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
