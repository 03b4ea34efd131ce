"""The recorded answer-set hashes of the end-to-end benchmark's PRQ workloads.

A change that claims a speed gain must leave every answer as it was.
This script replays every query of a recorded ``(workload, seed)`` case
once, in order, exactly as the timed loop of ``benchmarks/e2e`` issues
it, and hashes the answers:

- ``inputs = WORKLOADS[w].build_inputs(points, seed, 10)`` and
  ``state, _ = WORKLOADS[w].setup(store, inputs)``;
- for each chunk ``i`` of ``inputs``, one SHA-256 is updated with
  ``repr(state.engine.run_batch(chunk, workers=1, base_seed=i).ids).encode()``.

The digests below hold on both kernel backends (``REPRO_NO_JIT`` unset
or ``=1``).  Exits non-zero when any case's digest differs.

    python benchmarks/answer_hashes.py [--case NAME ...]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

#: ``case name -> (workload, seed, SHA-256 of its answers)``.
RECORDED = {
    "cascade_2d_seed0": (
        "prq_cascade_2d",
        0,
        "9ffaaac4434eebff98754f8ad14cbeb65eae7cdb2e414b26463d3e926833db08",
    ),
    "cascade_2d_seed7": (
        "prq_cascade_2d",
        7,
        "8598ebc4b57b8769be0e4de06fbdf3f632bc85dbbcb8efb7a6ce58fa02834aef",
    ),
    "cascade_9d_seed0": (
        "prq_cascade_9d",
        0,
        "eccb0cb237d7e0e7119d330e2411a8f68e8ae7edd71f2b9d98941e887a82e507",
    ),
}

#: The window length handed to ``build_inputs`` (the closed-loop PRQ
#: workloads build the same query list whatever the window).
SECONDS = 10


def answer_digest(workload_name: str, seed: int) -> str:
    """SHA-256 over the ``repr`` of every chunk's answer ids, in order."""
    from benchmarks.e2e import datasets
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    points, store_path, _ = datasets.materialise(workload.dataset)
    inputs = workload.build_inputs(points, seed, SECONDS)
    state, _ = workload.setup(store_path, inputs)
    try:
        digest = hashlib.sha256()
        for i, chunk in enumerate(inputs):
            batch = state.engine.run_batch(chunk, workers=1, base_seed=i)
            digest.update(repr(batch.ids).encode())
        return digest.hexdigest()
    finally:
        workload.teardown(state)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--case",
        action="append",
        choices=sorted(RECORDED),
        help="check only this case (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    # Build the compiled kernels where the benchmark builds them.
    os.environ.setdefault(
        "REPRO_KERNEL_CACHE", str(ROOT / "benchmarks" / "e2e" / ".build")
    )
    failed = 0
    for name in args.case or sorted(RECORDED):
        workload, seed, expected = RECORDED[name]
        start = time.perf_counter()
        got = answer_digest(workload, seed)
        ok = got == expected
        failed += not ok
        print(
            f"{name}: {'ok' if ok else 'MISMATCH'} {got}"
            + ("" if ok else f" (recorded {expected})")
            + f" [{time.perf_counter() - start:.1f} s]"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
