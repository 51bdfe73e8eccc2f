#!/usr/bin/env python3
"""Write ``verify_counts.json``: the per-check instance counts that every
verify operation of the benchmark must report.

The counts are recorded by running swk's own suites once, so a later
change that silently drops or adds instances shows as a failed
operation.  For every suite but ``bounds`` the counts depend only on the
size flags, which this script confirms on two more seeds; ``bounds``
counts depend on the seed, so they are recorded for each seed in
``workloads.BOUNDS_SEEDS``.  Run from the repository root:

    python3 perfbench/record_counts.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from inputs import graph6_text, named_graph  # noqa: E402
from workloads import CORPORA, corpus_key, pooled, verify_count_keys  # noqa: E402

from swk.cli import main  # noqa: E402


def counts(argv) -> dict[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return {c["name"]: int(c["instances"]) for c in json.loads(out.getvalue())["checks"]}


def record() -> None:
    recorded = {}
    for key, argv in verify_count_keys().items():
        recorded[key] = counts(argv)
        if "--seed" not in argv:
            for seed in ("7", "123456789"):
                if counts((*argv, "--seed", seed)) != recorded[key]:
                    raise SystemExit(f"{key}: counts depend on the seed")
    with tempfile.TemporaryDirectory() as tmp:
        for name, members in CORPORA.items():
            path = Path(tmp) / f"{name}.g6"
            keys = [f"{m}/0" if pooled(m) else m for m in members]
            path.write_text("".join(graph6_text(named_graph(k)) for k in keys))
            recorded[corpus_key(name)] = counts(
                ("verify", "modular-bound", "--corpus", str(path), "--json"))
    (HERE / "verify_counts.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} verify operations", file=sys.stderr)


if __name__ == "__main__":
    record()
