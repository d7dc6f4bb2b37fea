"""The four workloads: seeded inputs, the timed operation, and its checks.

A workload's inputs come in blocks; every block holds the same number of
instances of each input cell (family and size), in a seeded order, so a
run that measures whole blocks always measures the same mix.  Instances are drawn by the
workload seed from a fixed pool per cell whose expected outputs were
recorded by ``record.py`` (``expected.json``), which is what lets a check
compare against a recorded digest or verdict for any seed.

Each workload provides

* ``setup()``: untimed preparation, returning the blocks;
* ``run(item)``: one timed operation;
* ``observe(item, result)``: the part of a result that was recorded;
* ``check(item, result)``: ``None`` when the result is right, else why not.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import paritychain as pc

import families as F

BENCH_DIR = Path(__file__).resolve().parent
STRATA = 4  # size strata per input cell


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def lasso_text(w: pc.LassoWord, alphabet: pc.Alphabet) -> str:
    """The CLI's prefix:period syntax, letters comma-separated."""
    return ":".join(",".join(alphabet.letters[x] for x in part) for part in (w.prefix, w.period))


def remove_if_empty(folder: Path) -> None:
    if folder.is_dir() and not any(folder.iterdir()):
        folder.rmdir()


def stratified(rng: random.Random, cell: tuple, pool: int, groups: int) -> list[int]:
    """A seeded order of the cell's pool in which every ``groups``
    consecutive entries take one instance from each size stratum, so any
    prefix sees small and large instances alike."""
    sizes = [F.build(cell + (i,)).state_count for i in range(pool)]
    order = sorted(range(pool), key=lambda i: (sizes[i], i))
    strata = [order[k * pool // groups:(k + 1) * pool // groups] for k in range(groups)]
    for stratum in strata:
        rng.shuffle(stratum)
    rng.shuffle(strata)
    return [s[r] for r in range(max(map(len, strata))) for s in strata if r < len(s)]


def plan(rng: random.Random, cells, pool: int, blocks: int, per_block: int = 1) -> list[list[tuple]]:
    """``blocks`` blocks of descriptors, ``per_block`` per cell, each cell
    walking a stratified seeded order of its pool."""
    orders = [stratified(rng, cell, pool, STRATA) for cell in cells]
    out = []
    for b in range(blocks):
        block = [cell + (order[(b * per_block + j) % pool],)
                 for cell, order in zip(cells, orders) for j in range(per_block)]
        rng.shuffle(block)
        out.append(block)
    return out


def canonical_form(a: pc.ParityAutomaton) -> pc.ParityAutomaton:
    return pc.streamline(pc.structure_dpa_with_map(a)[0])


def canonical_parts(a: pc.ParityAutomaton):
    """structure -> streamline -> partition -> chain, as the README pipeline."""
    streamlined = canonical_form(a)
    partition = pc.state_equivalence(streamlined)
    return streamlined, partition, pc.extract_chain(streamlined, partition)


class Workload:
    name = ""
    setup_blocks = 1  # blocks prepared in set-up; the timed loop cycles them
    children_rss = False  # peak memory is that of child processes
    repeatable = True  # running an operation twice does the same work twice
    traced = False  # set by the worker; only CLI processes read it

    def __init__(self, seed: int, expected: dict, tmp: Path | None = None):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.expected = expected.get(self.name, {})
        self.tmp = tmp
        self.instances: list[str] = []

    def pool_items(self):
        """Every operation over the whole pool, for ``record.py``."""
        return []

    def key(self, item) -> str:
        return item[0]

    def observe(self, item, result):
        return None

    def recorded(self, item):
        return self.expected.get(self.key(item))

    def label(self, item):
        return None


class CanonMix(Workload):
    """parse -> structure -> streamline -> partition -> chain -> emit."""

    name = "canon-mix"
    CELLS = (
        ("random", 32, 6, 2), ("random", 48, 6, 3), ("random", 64, 5, 4),
        ("random", 72, 8, 2),
        ("staircase", 12, 6, 2, 4), ("staircase", 20, 5, 3, 3), ("staircase", 28, 8, 2, 4),
        ("blowup", 16, 6, 2, 3), ("blowup", 24, 6, 2, 3), ("blowup", 20, 4, 3, 4),
    )
    POOL = 32
    # More than 64 distinct automata per cycle, so the timed loop never
    # reuses an entry of state_equivalence's LRU cache (maxsize 64); for
    # the same reason an operation cannot be repeated in one process.
    setup_blocks = 24
    repeatable = False

    def pool_items(self):
        return [self.item(cell + (i,)) for cell in self.CELLS for i in range(self.POOL)]

    def item(self, desc):
        a = F.build(desc)
        lassos = [F.random_lasso(self.rng, len(a.alphabet), 8, 8) for _ in range(4)]
        return F.name(desc), pc.emit_native(a), lassos

    def setup(self):
        blocks = [[self.item(d) for d in block]
                  for block in plan(self.rng, self.CELLS, self.POOL, self.setup_blocks)]
        self.instances = [item[0] for block in blocks for item in block]
        return blocks

    @staticmethod
    def run(item):
        a = pc.parse_native(item[1])
        streamlined, _, chain = canonical_parts(a)
        text = pc.emit_native(streamlined) + "".join(pc.emit_native(lv) for lv in chain.levels)
        return a, streamlined, text

    def observe(self, item, result):
        return digest(result[2])

    def check(self, item, result):
        name, _, lassos = item
        a, streamlined, _ = result
        if self.observe(item, result) != self.recorded(item):
            return f"{name}: emitted text differs from the recorded digest"
        for w in lassos:
            if pc.dpa_lasso_run(a, w).accepted != pc.dpa_lasso_run(streamlined, w).accepted:
                return f"{name}: streamlining changed membership of {w}"
        return None


class ColorQueries(Workload):
    """One lasso answered by co-runs, by the chain, and by the resolver."""

    name = "color-queries"
    CELLS = (("blowup", 24, 6, 2, 4), ("blowup", 32, 8, 2, 3),
             ("random", 64, 8, 3), ("random", 48, 6, 2))
    POOL = 32
    PER_CELL = 3
    LASSOS_PER_AUTOMATON = 2
    setup_blocks = 256

    def setup(self):
        automata = []
        for cell in self.CELLS:
            for i in stratified(self.rng, cell, self.POOL, self.PER_CELL)[:self.PER_CELL]:
                desc = cell + (i,)
                a = F.build(desc)
                automata.append((F.name(desc), a, *canonical_parts(a)))
        self.instances = [entry[0] for entry in automata]
        return [
            [(entry, F.random_lasso(self.rng, len(entry[1].alphabet), 12, 12))
             for entry in automata for _ in range(self.LASSOS_PER_AUTOMATON)]
            for _ in range(self.setup_blocks)
        ]

    @staticmethod
    def run(item):
        (_, _, streamlined, partition, chain), w = item
        color = pc.corun_color(streamlined, partition, w)
        via_chain = pc.natural_color_via_chain(chain, w)
        at_color = pc.resolve_run(chain.levels[color], w)[0]
        above = (pc.resolve_run(chain.levels[color + 1], w)[0]
                 if color + 1 < len(chain.levels) else None)
        return color, via_chain, at_color, above

    def check(self, item, result):
        (name, a, *_), w = item
        color, via_chain, at_color, above = result
        if color != via_chain:
            return f"{name} {w}: co-run color {color} != chain color {via_chain}"
        if (color % 2 == 0) != pc.dpa_lasso_run(a, w).accepted:
            return f"{name} {w}: parity of color {color} disagrees with membership"
        if not at_color or above:
            return f"{name} {w}: resolver does not accept at {color} and reject above"
        return None


class EquivPairs(Workload):
    """dpa_language_equiv(A, B) for B equal or nearly equal to A."""

    name = "equiv-pairs"
    CELLS = (("random", 40, 8, 3), ("random", 48, 5, 4), ("random", 64, 8, 2),
             ("staircase", 14, 8, 3, 3), ("blowup", 14, 8, 3, 3))
    VARIANTS = ("canon", "flip", "blowup")
    # The line family is deterministic; line 300 gives a 90k-node product.
    LINES = ((("line", 300), "flip"), (("line", 160), "canon"))
    POOL = 16
    PER_BLOCK = 5
    setup_blocks = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._partners: dict = {}

    def pairs(self, desc):
        a = F.build(desc)
        variants = [v for d, v in self.LINES if d == desc] or self.VARIANTS
        return [self.pair(desc, a, v) for v in variants]

    def pair(self, desc, a, variant):
        key = f"{F.name(desc)}~{variant}"
        if key not in self._partners:
            if variant == "canon":
                b = canonical_form(a)
            elif variant == "flip":
                b = F.flip(a, F.name(desc))
            else:
                b = F.blowup(F.base(desc), 2, F.name(desc))
            self._partners[key] = b
        return key, a, self._partners[key]

    def pool_items(self):
        descs = [cell + (i,) for cell in self.CELLS for i in range(self.POOL)]
        return [p for desc in descs + [d for d, _ in self.LINES] for p in self.pairs(desc)]

    def setup(self):
        blocks = []
        for block in plan(self.rng, self.CELLS, self.POOL, self.setup_blocks, self.PER_BLOCK):
            items = [p for desc in block + [d for d, _ in self.LINES] for p in self.pairs(desc)]
            self.rng.shuffle(items)
            blocks.append(items)
        self.instances = sorted({item[0] for block in blocks for item in block})
        return blocks

    @staticmethod
    def run(item):
        return pc.dpa_language_equiv(item[1], item[2])

    def observe(self, item, result):
        return result[0]

    def check(self, item, result):
        name, a, b = item
        equal, witness = result
        if equal != self.recorded(item):
            return f"{name}: verdict {equal} differs from the recorded one"
        if not equal:
            if witness is None:
                return f"{name}: inequivalent without a witness"
            if pc.dpa_lasso_run(a, witness).accepted == pc.dpa_lasso_run(b, witness).accepted:
                return f"{name}: witness {witness} does not separate the automata"
        return None


class CliPipeline(Workload):
    """One ``python -m paritychain.cli`` process per operation."""

    name = "cli-pipeline"
    CELLS = (("random", 80, 6, 2), ("random", 48, 5, 4),
             ("staircase", 16, 6, 2, 3), ("blowup", 20, 6, 2, 3))
    HOA_CELLS = (("random", 48, 5, 4), ("staircase", 16, 6, 2, 3))  # read as HOA
    POOL = 16
    setup_blocks = 8
    children_rss = True
    STEPS = ("validate", "stats", "structure", "streamline", "chain", "color",
             "member", "equiv", "equiv-flip")
    OUTPUTS = {"structure": ("s.aut",), "streamline": ("st.aut",), "chain": ("chain",)}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        src = Path(pc.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.layers: dict = {}

    def pool_items(self):
        return [op for cell in self.CELLS for i in range(self.POOL)
                for op in self.instance(cell + (i,))]

    def instance(self, desc):
        """Write the instance's input files; return its operations in order."""
        name = F.name(desc)
        self.instances.append(name)
        a = F.build(desc)
        fmt = "hoa" if desc[:-1] in self.HOA_CELLS else "aut"
        if fmt == "hoa":
            a = pc.parse_hoa(pc.emit_hoa(a))
        folder = self.tmp / name.replace("/", "_")
        folder.mkdir(parents=True, exist_ok=True)
        source = f"in.{fmt}"
        (folder / source).write_text(
            pc.emit_hoa(a) if fmt == "hoa" else pc.emit_native(a), encoding="utf-8")
        (folder / "flip.aut").write_text(pc.emit_native(F.flip(a, name)), encoding="utf-8")
        w = F.random_lasso(random.Random(f"lasso/{name}"), len(a.alphabet), 4, 4)
        lasso = lasso_text(w, a.alphabet)
        argvs = {
            "validate": ["validate", source],
            "stats": ["stats", source],
            "structure": ["structure", source, "--out", "s.aut"],
            "streamline": ["streamline", "s.aut", "--out", "st.aut"],
            "chain": ["chain", "st.aut", "--out", "chain"],
            "color": ["color", "st.aut", "--lasso", lasso],
            "member": ["member", source, "--lasso", lasso],
            "equiv": ["equiv", source, "st.aut"],
            "equiv-flip": ["equiv", source, "flip.aut"],
        }
        return [(name, step, folder, argvs[step] + ["--json"]) for step in self.STEPS]

    def setup(self):
        return [[op for desc in block for op in self.instance(desc)]
                for block in plan(self.rng, self.CELLS, self.POOL, self.setup_blocks)]

    def key(self, item) -> str:
        return f"{item[0]}#{item[1]}"

    def label(self, item):
        return item[3][0]

    def _cli(self, folder, argv):
        return subprocess.run(
            [sys.executable, "-m", "paritychain.cli", *argv], cwd=folder, env=self.env,
            capture_output=True, text=True, timeout=120)

    def run(self, item):
        _, _, folder, argv = item
        if not self.traced:
            proc = self._cli(folder, argv)
            return proc.returncode, proc.stdout
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "tracer.py"), *argv], cwd=folder, env=self.env,
            capture_output=True, text=True, timeout=120)
        out = json.loads(proc.stdout)
        for key, value in out["layers"].items():
            self.layers[key] = self.layers.get(key, 0) + value
        return out["rc"], out["stdout"]

    def observe(self, item, result):
        _, step, folder, _ = item
        rc, stdout = result
        record = json.loads(stdout) if stdout.strip() else None
        if step == "equiv-flip" and record:
            # The witness text depends on a tie-break; it is checked by
            # membership instead of being recorded.
            record.pop("witness", None)
        files = None
        if step in self.OUTPUTS:
            paths = []
            for out in self.OUTPUTS[step]:
                p = folder / out
                paths += sorted(p.iterdir()) if p.is_dir() else [p]
            files = digest("".join(f"{q.name}\n{q.read_text(encoding='utf-8')}" for q in paths))
        return {"rc": rc, "record": record, "files": files}

    def check(self, item, result):
        name, step, folder, argv = item
        if self.observe(item, result) != self.recorded(item):
            return f"{name} {step}: exit code, JSON record or output differs from the recorded one"
        if step == "equiv-flip" and result[0] == 1:
            witness = json.loads(result[1]).get("witness")
            if witness is None:
                return f"{name}: inequivalent without a witness"
            rcs = {self._cli(folder, ["member", side, "--lasso", witness]).returncode
                   for side in (argv[1], argv[2])}
            if rcs != {0, 1}:
                return f"{name}: witness {witness} is not accepted by exactly one side"
        return None


WORKLOADS = {w.name: w for w in (CanonMix, ColorQueries, EquivPairs, CliPipeline)}


def load_expected() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))
