"""The four workloads: which swk commands run, on which inputs, and what
each must print.

A workload is a cycle of operations.  Every operation is one call of
``swk.cli.main(argv)``; each cycle runs the whole mix in a seeded random
order, and a run measures whole cycles so that every run times the same
mix.  The seed decides everything random: pool entries, vertex labels,
the order within a cycle and the ``--seed`` of each randomized suite.

Why each workload exists:

* ``cubes-large``: ``swk index -k 2`` and the cube suites on cubes with
  up to ~600 vertices.  All-pairs distances do nearly all the work and
  the triple and subset layers none, so an APSP change shows here and
  nowhere else.
* ``triples-mid``: ``swk index -k 3``, ``swk structure`` and corpus runs
  of the modular-bound suite on 55-150 vertex graphs.  The SW_3 scan and
  the triple classification dominate.  Median graphs (every triple
  modular) and dense random graphs (most triples not) load that layer
  differently.
* ``verify-small``: seeded batches of five verify suites on graphs with
  at most 12 vertices.  No kernel dominates; per-call overhead, the
  small-n paths, interval masks, generators, blocks and the suites' own
  scans do.
* ``subsets``: ``swk index -k 4|5`` on 9-12 vertex graphs and batches of
  the bounds suite.  One Dreyfus-Wagner run per k-subset does almost all
  the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from inputs import POOL_SIZE, edgelist_text, graph6_text, named_graph, relabel

WORKLOADS = ("cubes-large", "triples-mid", "verify-small", "subsets")

# Seeds of the bounds suite whose per-check instance counts are recorded
# (the counts depend on the seed there; for the other suites they do not).
_SEEDS = random.Random("bounds-seeds")
BOUNDS_SEEDS = tuple(_SEEDS.randrange(1 << 31) for _ in range(24))


@dataclass(frozen=True)
class Op:
    """One CLI call and the reference it is checked against.

    ``kind`` is "index", "structure" or "verify".  For index and
    structure ``ref`` is a golden graph key; for verify it is the key of
    the recorded instance counts.
    """

    argv: tuple[str, ...]
    kind: str
    ref: str
    k: int = 0


def _verify(args: list[str], seed: int | None = None, ref: str | None = None) -> Op:
    argv = ["verify", *args]
    key = ref if ref is not None else " ".join(argv)
    if seed is not None:
        argv += ["--seed", str(seed)]
    return Op(tuple(argv + ["--json"]), "verify", key)


def verify_count_keys() -> dict[str, tuple[str, ...]]:
    """Recorded-count key -> argv, for every verify operation but the
    corpus runs (whose argv names a file written at set-up)."""
    ops = [_verify(list(args)) for args in CUBE_SUITES + SMALL_SUITES]
    ops += [_bounds(seed) for seed in BOUNDS_SEEDS]
    return {op.ref: op.argv for op in ops}


# -- cubes-large -------------------------------------------------------------

CUBE_GRAPHS = (
    ("fibonacci", "fib", (10, 11, 12, 13)),
    ("lucas", "lucas", (10, 11, 12, 13)),
    ("hypercube", "cube", (7, 8, 9)),
)
CUBE_SUITES = (
    ("fibonacci", "--max-n", "8", "--wiener-max-n", "12"),
    ("lucas", "--max-n", "8", "--wiener-max-n", "12"),
)

# -- triples-mid -------------------------------------------------------------

TRIPLE_GRAPHS = ("fib8", "fib10", "lucas10", "cube7", "grid10x12", "rand60", "rand100", "rand150")
CORPORA = {"median": ("fib9", "cube6"), "random": ("rand60", "rand100")}

# -- verify-small ------------------------------------------------------------

SMALL_SUITES = (
    ("trees", "--count", "20", "--max-n", "12"),
    ("modular-bound", "--count", "40", "--max-n", "9"),
    ("block-graphs", "--count", "8", "--max-n", "12"),
    ("block-graphs", "--count", "8", "--max-n", "12"),
    ("steiner-oracle", "--count", "4", "--max-n", "9"),
    ("products", "--max-size", "10"),
)

# -- subsets -----------------------------------------------------------------

SUBSET_CASES = (("small9", 4), ("small10", 4), ("small11", 4), ("small12", 4),
                ("small9", 5), ("small10", 5))
BOUNDS_PER_CYCLE = 2


def _bounds(seed: int) -> Op:
    return _verify(["bounds", "--count", "3", "--max-n", "10"], seed,
                   ref=f"verify bounds --count 3 --max-n 10 --seed {seed}")


def corpus_key(name: str) -> str:
    return f"verify modular-bound --corpus {name}"


def pooled(name: str) -> bool:
    """Whether a graph name is a random slot with POOL_SIZE entries."""
    return name.startswith(("rand", "small"))


def _resolve(name: str, rng: random.Random) -> str:
    """Golden key for a graph name; random slots draw a pool entry."""
    return f"{name}/{rng.randrange(POOL_SIZE)}" if pooled(name) else name


class Plan:
    """Inputs written for one run and the operations that use them."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.workdir = workdir
        self.rng = random.Random(f"{workload}/{seed}")
        self.fixed: list[Op] = []
        # Ops that take turns, one per cycle (triples-mid's random slots).
        self.rotating: list[list[list[Op]]] = []
        self.cycles = 0
        self.files = 0
        getattr(self, "_setup_" + workload.replace("-", "_"))()

    def _write(self, key: str, fmt: str) -> str:
        graph = relabel(named_graph(key), self.rng)
        text = graph6_text(graph) if fmt == "g6" else edgelist_text(graph)
        path = self.workdir / f"{key.replace('/', '-')}-{self.files}.{fmt}"
        self.files += 1
        path.write_text(text)
        return str(path)

    def _graph_op(self, cmd: str, key: str, fmt: str, k: int = 0) -> Op:
        argv = [cmd, "--input", self._write(key, fmt)]
        if cmd == "index":
            argv += ["-k", str(k)]
        return Op(tuple(argv + ["--json"]), cmd, key, k)

    def _setup_cubes_large(self) -> None:
        for family, prefix, orders in CUBE_GRAPHS:
            for order in orders:
                key = f"{prefix}{order}"
                argv = ("index", "--family", family, "-n", str(order), "-k", "2", "--json")
                self.fixed.append(Op(argv, "index", key, 2))
                self.fixed.append(self._graph_op("index", key, "el", 2))
                self.fixed.append(self._graph_op("index", key, "g6", 2))
        self.fixed += [_verify(list(args)) for args in CUBE_SUITES]
        self.warmup = self._graph_op("index", "fib8", "el", 2)

    def _setup_triples_mid(self) -> None:
        # A random slot writes every pool entry and each cycle takes the
        # next one, from a seeded start, so that every run times the whole
        # pool: a seed's draw of cheap or costly entries would otherwise
        # shift a run's latencies.
        for i, name in enumerate(TRIPLE_GRAPHS):
            index_fmt, structure_fmt = ("g6", "el") if i % 2 else ("el", "g6")
            keys = [f"{name}/{j}" for j in range(POOL_SIZE)] if pooled(name) else [name]
            self.rng.shuffle(keys)
            turns = [[self._graph_op("index", key, index_fmt, 3),
                      self._graph_op("structure", key, structure_fmt)] for key in keys]
            if len(turns) == 1:
                self.fixed += turns[0]
            else:
                self.rotating.append(turns)
        for name, members in CORPORA.items():
            keys = [_resolve(m, self.rng) for m in members]
            path = self.workdir / f"corpus-{name}.g6"
            path.write_text("".join(graph6_text(relabel(named_graph(k), self.rng)) for k in keys))
            self.fixed.append(Op(("verify", "modular-bound", "--corpus", str(path), "--json"),
                                 "verify", corpus_key(name)))
        self.warmup = self._graph_op("index", _resolve("rand60", self.rng), "el", 3)

    def _setup_verify_small(self) -> None:
        self.warmup = _verify(list(SMALL_SUITES[0]), self.rng.randrange(1 << 31))

    def _setup_subsets(self) -> None:
        for name, k in SUBSET_CASES:
            key = _resolve(name, self.rng)
            self.fixed.append(self._graph_op("index", key, "el" if k == 4 else "g6", k))
        self.warmup = self._graph_op("index", _resolve("small9", self.rng), "el", 4)
        # Each run walks all recorded bounds seeds in a seeded order, so
        # runs differ in order, not in which seeds they sample.
        self.bounds_seeds = list(BOUNDS_SEEDS)
        self.rng.shuffle(self.bounds_seeds)

    def cycle(self) -> list[Op]:
        """The next cycle: the whole mix, fresh suite seeds, shuffled."""
        ops = list(self.fixed)
        for turns in self.rotating:
            ops += turns[self.cycles % len(turns)]
        self.cycles += 1
        if self.workload == "verify-small":
            ops += [_verify(list(args), self.rng.randrange(1 << 31)) for args in SMALL_SUITES]
        elif self.workload == "subsets":
            for _ in range(BOUNDS_PER_CYCLE):
                seed = self.bounds_seeds.pop(0)
                self.bounds_seeds.append(seed)
                ops.append(_bounds(seed))
        self.rng.shuffle(ops)
        return ops
