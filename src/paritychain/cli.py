"""Command-line front end for the pipeline."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .canonical import (
    chain_stats,
    extract_chain,
    is_streamlined,
    is_structured,
    random_dpa,
    streamline,
    structure_dpa_with_map,
)
from .colors import corun_color
from .core import (
    Alphabet,
    AutomatonError,
    LassoWord,
    ParityAutomaton,
    PreconditionError,
    _clip,
    validate_dpa,
)
from .formats import (
    _MAX_APS, FormatError, emit_native, letter_names, parse_hoa, parse_native,
)
from .graphs import (
    dpa_language_equiv,
    dpa_lasso_run,
    gca_lasso_member,
    scc_decompose,
    state_equivalence,
)


# -- lasso words on the command line ------------------------------------------

def parse_lasso_text(text: str, alphabet: Alphabet) -> LassoWord:
    """Read the u:v syntax: letters comma-separated by name, or juxtaposed
    when all involved names are single characters."""
    if ":" not in text:
        raise FormatError(f"lasso {_clip(text)!r} must be written as prefix:period, e.g. :ab")
    prefix_text, _, period_text = text.partition(":")
    prefix = _segment_letters(prefix_text, alphabet)
    period = _segment_letters(period_text, alphabet)
    if not period:
        raise FormatError(f"lasso {_clip(text)!r} has an empty period")
    return LassoWord(prefix, period)


def _segment_letters(segment: str, alphabet: Alphabet) -> tuple[int, ...]:
    if segment == "":
        return ()
    if "," in segment:
        names = segment.split(",")
    elif segment in alphabet._index:
        names = [segment]
    elif all(ch in alphabet._index for ch in segment):
        names = list(segment)
    else:
        raise FormatError(
            f"cannot read {_clip(segment)!r} over alphabet {_clip(str(list(alphabet.letters)))}"
        )
    return tuple(alphabet.index(name) for name in names)


def format_lasso(w: LassoWord, alphabet: Alphabet) -> str:
    juxtapose = all(len(name) == 1 for name in alphabet.letters)

    def segment(indices):
        names = [alphabet.letters[i] for i in indices]
        return "".join(names) if juxtapose else ",".join(names)

    return f"{segment(w.prefix)}:{segment(w.period)}"


# -- command implementations ---------------------------------------------------

def _load(path: str, *, validate: bool = True):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: not UTF-8 text at byte {err.start}") from None
    if text.lstrip().startswith("HOA:"):
        return parse_hoa(text, allow_incomplete=not validate)
    return parse_native(text, validate=validate)


def _load_dpa(path: str) -> ParityAutomaton:
    aut = _load(path)
    if not isinstance(aut, ParityAutomaton):
        raise FormatError(f"{path}: expected a deterministic parity automaton")
    return aut


def _emit_result(args, lines: list[str], record: dict) -> None:
    if args.json:
        print(json.dumps(record))
    else:
        for line in lines:
            print(line)


def _write_automaton(args, automaton, extra_record: dict | None = None) -> None:
    text = emit_native(automaton)
    if args.out is None:
        sys.stdout.write(text)
        return
    Path(args.out).write_text(text, encoding="utf-8")
    record = {"out": args.out, "states": automaton.state_count}
    record.update(extra_record or {})
    lines = [f"wrote {args.out} ({automaton.state_count} states)"]
    if extra_record:
        lines += [f"{key}: {value}" for key, value in extra_record.items()]
    _emit_result(args, lines, record)


def cmd_validate(args) -> int:
    aut = _load(args.file, validate=False)
    if isinstance(aut, ParityAutomaton):
        report = validate_dpa(aut)
        ok, violations = report.ok, list(report.violations)
    else:
        ok, violations = True, []
    lines = ["ok"] if ok else ["invalid:"] + ["  " + v for v in violations]
    _emit_result(args, lines, {"ok": ok, "violations": violations})
    return 0 if ok else 1


def cmd_structure(args) -> int:
    a = _load_dpa(args.file)
    structured, id_map = structure_dpa_with_map(a)
    extra = {}
    if structured.state_count != a.state_count:
        extra["id_map"] = {str(old): new for old, new in sorted(id_map.items())}
    _write_automaton(args, structured, extra)
    return 0


def cmd_streamline(args) -> int:
    a = _load_dpa(args.file)
    _write_automaton(args, streamline(a))
    return 0


def cmd_chain(args) -> int:
    a = _load_dpa(args.file)
    chain = extract_chain(a, state_equivalence(a))
    built = chain.levels  # checks the row limit before the directory is made
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    levels = []
    for stats, automaton in zip(chain_stats(chain), built):
        filename = f"A_{stats.level}.aut"
        (outdir / filename).write_text(emit_native(automaton), encoding="utf-8")
        levels.append({"level": stats.level, "file": filename, **stats._asdict()})
    manifest = {"source_color_max": chain.source.max_color, "levels": levels}
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    lines = [f"wrote {len(levels)} chain levels to {args.out}"] + [
        f"  A_{item['level']}: {item['accepting_transitions']} accepting, "
        f"{item['jump_transitions']} jumps"
        for item in levels
    ]
    _emit_result(args, lines, manifest)
    return 0


def cmd_color(args) -> int:
    a = _load_dpa(args.file)
    w = parse_lasso_text(args.lasso, a.alphabet)
    color = corun_color(a, state_equivalence(a), w)
    _emit_result(
        args,
        [f"natural color: {color}"],
        {"lasso": format_lasso(w, a.alphabet), "natural_color": color},
    )
    return 0


def cmd_member(args) -> int:
    aut = _load(args.file)
    w = parse_lasso_text(args.lasso, aut.alphabet)
    if isinstance(aut, ParityAutomaton):
        run = dpa_lasso_run(aut, w)
        accepted, extra = run.accepted, {"dominating_color": run.dominating_color}
    else:
        accepted, extra = gca_lasso_member(aut, w), {}
    verdict = "accept" if accepted else "reject"
    shown = "".join(f" (dominating color {color})" for color in extra.values())
    _emit_result(
        args,
        [verdict + shown],
        {"lasso": format_lasso(w, aut.alphabet), "verdict": verdict, **extra},
    )
    return 0 if accepted else 1


def cmd_equiv(args) -> int:
    a = _load_dpa(args.file_a)
    b = _load_dpa(args.file_b)
    equal, witness = dpa_language_equiv(a, b)
    if equal:
        _emit_result(args, ["equal"], {"equal": True})
        return 0
    text = format_lasso(witness, a.alphabet)
    _emit_result(args, [f"inequivalent, witness {text}"], {"equal": False, "witness": text})
    return 1


def cmd_stats(args) -> int:
    aut = _load(args.file)
    scc = scc_decompose(aut)
    record: dict = {
        "kind": "dpa" if isinstance(aut, ParityAutomaton) else "ncw",
        "states": aut.state_count,
        "distinct_colors": len({t.color for t in aut.transitions}),
        "scc_count": len(scc.sccs),
    }
    if isinstance(aut, ParityAutomaton):
        structured, _ = is_structured(aut)
        record["structured"] = structured
        record["streamlined"] = is_streamlined(aut) if structured else None
    lines = [f"{key}: {value}" for key, value in record.items()]
    _emit_result(args, lines, record)
    return 0


def cmd_random(args) -> int:
    # checked before the 2^aps letter names are built; ``random_dpa`` checks
    # the other sizes before it draws a row
    if args.aps is not None and not 0 <= args.aps <= _MAX_APS:
        raise AutomatonError(f"--aps must be between 0 and {_MAX_APS}")
    count = 2 ** args.aps if args.aps is not None else args.letters
    names = None
    if args.aps is not None:
        names = letter_names([f"p{j}" for j in range(args.aps)])
    _write_automaton(args, random_dpa(args.states, args.colors, count, args.seed, names))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paritychain",
        description="Canonicalize deterministic parity automata and query "
        "natural colors of ultimately periodic words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, files=("file",), out=None, lasso=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for file in files:
            p.add_argument(file)
        if out == "file":
            p.add_argument("--out", help="output file (default: stdout)")
        elif out == "directory":
            p.add_argument("--out", required=True, help="output directory")
        if lasso:
            p.add_argument("--lasso", required=True, help="word as prefix:period, e.g. :ca")
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "check automaton invariants")
    command("structure", cmd_structure, "make the automaton structured", out="file")
    command("streamline", cmd_streamline, "minimize colors of a structured DPA", out="file")
    command("chain", cmd_chain, "write the co-Buchi chain of a streamlined DPA", out="directory")
    command("color", cmd_color, "natural color of a lasso word (streamlined DPA)", lasso=True)
    command("member", cmd_member, "membership of a lasso word", lasso=True)
    command("equiv", cmd_equiv, "language equivalence of two DPAs", files=("file_a", "file_b"))
    command("stats", cmd_stats, "basic figures for an automaton file")

    p = command("random", cmd_random, "generate a seeded random complete DPA", files=())
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--letters", type=int, help="alphabet size, letters a, b, ...")
    group.add_argument("--aps", type=int, help="use 2^n letters named by AP valuations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (default: stdout)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except PreconditionError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (FormatError, AutomatonError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
