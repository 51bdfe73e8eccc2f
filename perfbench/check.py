"""Output checking, outside the timed region.

An operation fails when it exits with a code other than 0, prints values
that differ from ``golden.json``, or reports verify checks whose instance
counts differ from ``verify_counts.json``.  A check with zero instances
is a vacuous pass and also fails.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _exact(value: int | Fraction) -> str:
    """swk's exact JSON rendering: an integer, or "p/q" in lowest terms."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Checker:
    def __init__(self):
        self.graphs = json.loads((HERE / "golden.json").read_text())["graphs"]
        self.counts = json.loads((HERE / "verify_counts.json").read_text())

    def expected_results(self, op) -> dict:
        g = self.graphs[op.ref]
        n = g["n"]
        if op.kind == "index":
            k = op.k
            wiener, swk = g["sw"]["2"], g["sw"][str(k)]
            return {
                "wiener": _exact(wiener),
                f"steiner_wiener_k{k}": _exact(swk),
                "mean_distance": _exact(Fraction(wiener, comb(n, 2))),
                f"mean_steiner_k{k}": _exact(Fraction(swk, comb(n, k))),
            }
        modular = g["nonmodular"] == 0
        out = {
            "modular": modular,
            "median": modular and g["median_unique"],
            "triples": _exact(comb(n, 3)),
            "nonmodular_triples": _exact(g["nonmodular"]),
            "blocks": _exact(g["blocks"]),
            "cut_vertices": _exact(g["cut_vertices"]),
            "block_graph": g["block_graph"],
        }
        if g["block_graph"]:
            out["nonmodular_triples_blockwise"] = _exact(g["nonmodular"])
            out["sw3_block_formula"] = _exact(g["sw"]["3"])
        return out

    def check(self, op, code, stdout: str) -> tuple[str | None, int]:
        """(failure reason or None, verify instances reported)."""
        if code != 0:
            return f"exit code {code}", 0
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return "output is not JSON", 0
        if op.kind == "verify":
            seen = {c["name"]: int(c["instances"]) for c in report["checks"]}
            instances = sum(seen.values())
            if seen != self.counts[op.ref]:
                return f"instance counts {seen} != recorded {self.counts[op.ref]}", instances
            if not all(c["holds"] for c in report["checks"] if c["required"]):
                return "a required check failed", instances
            if 0 in seen.values():
                return "vacuous check with 0 instances", instances
            return None, instances
        g = self.graphs[op.ref]
        graph = {"n": str(g["n"]), "m": str(g["m"]), "connected": True}
        if report["graph"] != graph:
            return f"graph {report['graph']} != {graph}", 0
        got = {r["name"]: r["exact"] for r in report["results"]}
        want = self.expected_results(op)
        if got != want:
            return f"results {got} != {want}", 0
        return None, 0
