import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paritychain

from conftest import flower_automaton, mutated, random_lasso
from paritychain import (
    LassoWord,
    corun_color,
    emit_native,
    parse_native,
    random_dpa,
    state_equivalence,
    streamline,
    structure_dpa,
)
from paritychain.cli import format_lasso, main, parse_lasso_text


@pytest.fixture
def flower_file(tmp_path):
    path = tmp_path / "flower.aut"
    path.write_text(emit_native(flower_automaton()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMember:
    def test_reject_ca(self, capsys, flower_file):
        code, out, _ = run(capsys, "member", flower_file, "--lasso", ":ca")
        assert code == 1
        assert "reject" in out and "5" in out

    def test_accept_cabb(self, capsys, flower_file):
        code, out, _ = run(capsys, "member", flower_file, "--lasso", ":cabb")
        assert code == 0
        assert "accept" in out and "4" in out

    def test_reject_aa(self, capsys, flower_file):
        code, out, _ = run(capsys, "member", flower_file, "--lasso", ":aa")
        assert code == 1
        assert "1" in out

    def test_empty_period_is_usage_error(self, capsys, flower_file):
        code, _, err = run(capsys, "member", flower_file, "--lasso", "ca:")
        assert code == 2
        assert "period" in err

    def test_json_output(self, capsys, flower_file):
        code, out, _ = run(capsys, "member", flower_file, "--json", "--lasso", ":cabb")
        assert code == 0
        record = json.loads(out)
        assert record == {"lasso": ":cabb", "verdict": "accept", "dominating_color": 4}

    def test_comma_separated_letters(self, capsys, flower_file):
        code, out, _ = run(capsys, "member", flower_file, "--lasso", ":c,a")
        assert code == 1

    def test_ncw_member(self, capsys, tmp_path, flower_file):
        chain_dir = tmp_path / "chain"
        sl = tmp_path / "sl.aut"
        assert main(["streamline", flower_file, "--out", str(sl)]) == 0
        assert main(["chain", str(sl), "--out", str(chain_dir)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "member", str(chain_dir / "A_5.aut"), "--lasso", ":ca")
        assert code == 0 and "accept" in out
        code, out, _ = run(capsys, "member", str(chain_dir / "A_6.aut"), "--lasso", ":ca")
        assert code == 1 and "reject" in out


class TestValidate:
    def test_ok(self, capsys, flower_file):
        code, out, _ = run(capsys, "validate", flower_file)
        assert code == 0 and "ok" in out

    def test_invalid_reports(self, capsys, tmp_path):
        flower = flower_automaton()
        from paritychain import ParityAutomaton

        partial = ParityAutomaton(
            flower.alphabet, flower.state_count, flower.initial, flower.transitions[:-1]
        )
        path = tmp_path / "partial.aut"
        path.write_text(emit_native(partial))
        code, out, _ = run(capsys, "validate", str(path), "--json")
        assert code == 1
        record = json.loads(out)
        assert record["ok"] is False
        assert any("no transition" in v for v in record["violations"])

    def test_garbage_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.aut"
        path.write_text("ceci n'est pas un automate")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/x.aut")
        assert code == 2

    def test_module_entry_point_runs_without_warning(self):
        # the package must not import its own CLI, or ``-m`` warns
        fig1 = resources.files("paritychain") / "data" / "fig1.aut"
        src = str(Path(paritychain.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        for module in ("paritychain.cli", "paritychain"):
            proc = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
                 "validate", str(fig1)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, module
            assert proc.stderr == "", module

    def test_library_does_not_import_cli(self):
        src = str(Path(paritychain.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, paritychain; print('paritychain.cli' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_cli_does_not_import_dataclasses(self):
        # importing ``dataclasses`` (and the ``inspect`` it pulls in) is a large
        # share of every CLI process's start-up; -S keeps ``site`` from
        # importing modules first
        src = str(Path(paritychain.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys, paritychain.cli; print('dataclasses' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_deep_label_is_format_error(self, capsys, tmp_path):
        deep = "(" * 3000 + "t" + ")" * 3000
        path = tmp_path / "deep.hoa"
        path.write_text(
            "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"p\"\nacc-name: parity min even 1\n"
            f"Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n[{deep}] 0 {{0}}\n--END--\n"
        )
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert "nested deeper than" in err and len(err) < 200

    @pytest.mark.parametrize("name, text", [
        ("aps.hoa", "HOA: v1\nStates: 1\nStart: 0\nAP: 64 " + " ".join(f'"p{j}"' for j in range(64))
         + "\nacc-name: parity min even 1\nAcceptance: 1 Inf(0)\n--BODY--\nState: 0\n"
         "[t] 0 {0}\n--END--\n"),
        ("states.aut", json.dumps({"kind": "dpa", "alphabet": ["a"], "states": 10**9,
                                   "initial": 0, "transitions": []})),
        # 2^19 + 1 states x 2 letters, one row past the limit
        ("rows.hoa", "HOA: v1\nStates: 524289\nStart: 0\nAP: 1 \"p\"\n"
         "acc-name: parity min even 1\nAcceptance: 1 Inf(0)\n--BODY--\nState: 0\n"
         "[t] 0 {0}\n--END--\n"),
        ("rows.aut", json.dumps({"kind": "dpa", "alphabet": ["a", "b"], "states": 2**19 + 1,
                                 "initial": 0, "transitions": []})),
    ])
    def test_input_limits_are_format_errors(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert "exceed" in err and "limit" in err and len(err) < 200

    @pytest.mark.parametrize("name, text", [
        ("long.hoa", "HOA: v1\nStates: " + "1" * 5000 + "\nStart: 0\nAP: 1 \"p\"\n"
         "acc-name: parity min even 1\nAcceptance: 1 Inf(0)\n--BODY--\nState: 0\n"
         "[t] 0 {0}\n--END--\n"),
        ("long.aut", '{"kind": "dpa", "alphabet": ["a"], "states": ' + "1" * 5000
         + ', "initial": 0, "transitions": []}'),
    ], ids=["hoa", "native"])
    def test_long_integer_is_format_error(self, capsys, tmp_path, name, text):
        # 5000 digits pass Python's int-string conversion limit
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert "integer literal" in err and "too long" in err and len(err) < 200

    def test_long_token_is_short_format_error(self, capsys, tmp_path):
        path = tmp_path / "long.hoa"
        path.write_text(
            "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"p\"\nacc-name: parity min even \""
            + "x" * 10**6 + "\"\nAcceptance: 1 Inf(0)\n--BODY--\nState: 0\n[t] 0 {0}\n--END--\n"
        )
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert "expected an integer" in err and len(err.encode()) < 200

    def test_long_ap_name_is_short_format_error(self, capsys, tmp_path):
        path = tmp_path / "long-ap.hoa"
        path.write_text(
            "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"" + "x" * 10**6 + "\"\n"
            "acc-name: parity min even 1\nAcceptance: 1 Inf(0)\n--BODY--\n"
            "State: 0\n[t] 0 {0}\n[0] 0 {0}\n--END--\n"
        )
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert "nondeterministic" in err and len(err.encode()) < 200

    def test_violation_list_is_capped(self, capsys, tmp_path):
        path = tmp_path / "empty.aut"
        path.write_text(json.dumps({"kind": "dpa", "alphabet": ["a"], "states": 100_000,
                                    "initial": 0, "transitions": []}))
        code, out, _ = run(capsys, "validate", str(path), "--json")
        assert code == 1 and len(out) < 2048
        assert json.loads(out)["violations"][-1] == "... and 99990 more"


class TestPipeline:
    def test_structure_streamline_chain(self, capsys, tmp_path, flower_file):
        st = tmp_path / "st.aut"
        sl = tmp_path / "sl.aut"
        chain_dir = tmp_path / "chain"
        assert main(["structure", flower_file, "--out", str(st)]) == 0
        assert main(["streamline", str(st), "--out", str(sl)]) == 0
        assert main(["chain", str(sl), "--out", str(chain_dir)]) == 0
        capsys.readouterr()

        manifest = json.loads((chain_dir / "manifest.json").read_text())
        assert manifest["source_color_max"] == 5
        assert [lvl["file"] for lvl in manifest["levels"]] == [
            f"A_{i}.aut" for i in range(7)
        ]
        accepting = [lvl["accepting_transitions"] for lvl in manifest["levels"]]
        assert accepting == [12, 12, 11, 8, 6, 4, 0]
        for lvl in manifest["levels"]:
            loaded = parse_native((chain_dir / lvl["file"]).read_text())
            assert loaded.gfg_claimed

    def test_chain_with_jumps_matches_golden(self, capsys, tmp_path):
        # a streamlined mod-3 blow-up of random_dpa(4, 4, 2, 14): a singleton
        # class and two classes of three mates, 26 jumps on every level
        golden = Path(__file__).parent / "golden" / "blowup14_chain"
        out = tmp_path / "chain"
        assert main(["chain", str(golden.parent / "blowup14.aut"), "--out", str(out)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in golden.iterdir())
        assert names == ["A_0.aut", "A_1.aut", "A_2.aut", "A_3.aut", "manifest.json"]
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name

    def test_streamline_requires_structured(self, capsys, tmp_path):
        from test_canonical import redirect_instance

        path = tmp_path / "loose.aut"
        path.write_text(emit_native(redirect_instance()))
        code, _, err = run(capsys, "streamline", str(path))
        assert code == 1
        assert "structured" in err

    def test_color_requires_streamlined(self, capsys, flower_file):
        code, _, err = run(capsys, "color", flower_file, "--lasso", ":ca")
        assert code == 1

    def test_color_values(self, capsys, tmp_path, flower_file):
        sl = tmp_path / "sl.aut"
        assert main(["streamline", flower_file, "--out", str(sl)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "color", str(sl), "--json", "--lasso", ":ca")
        assert code == 0
        assert json.loads(out)["natural_color"] == 5
        code, out, _ = run(capsys, "color", str(sl), "--lasso", ":cabb")
        assert "natural color: 4" in out

    def test_structure_emits_id_map_when_states_drop(self, capsys, tmp_path):
        from test_canonical import redirect_instance

        src = tmp_path / "loose.aut"
        out = tmp_path / "structured.aut"
        src.write_text(emit_native(redirect_instance()))
        code, stdout, _ = run(capsys, "structure", str(src), "--json", "--out", str(out))
        assert code == 0
        record = json.loads(stdout)
        assert record["states"] == 2
        assert record["id_map"] == {"0": 0, "2": 1}

    def test_composition_matches_library(self, capsys, tmp_path):
        rng = random.Random(9)
        pairs = 0
        for seed in range(20):
            a = random_dpa(
                rng.randrange(1, 6), rng.randrange(1, 5), rng.randrange(1, 4), seed
            )
            raw = tmp_path / f"raw{seed}.aut"
            st = tmp_path / f"st{seed}.aut"
            sl = tmp_path / f"sl{seed}.aut"
            raw.write_text(emit_native(a))
            assert main(["structure", str(raw), "--out", str(st)]) == 0
            assert main(["streamline", str(st), "--out", str(sl)]) == 0
            capsys.readouterr()
            streamlined = streamline(structure_dpa(a))
            equiv = state_equivalence(streamlined)
            for _ in range(5):
                w = random_lasso(rng, len(a.alphabet))
                text = format_lasso(w, a.alphabet)
                code, out, _ = run(capsys, "color", str(sl), "--json", "--lasso", text)
                assert code == 0
                assert json.loads(out)["natural_color"] == corun_color(
                    streamlined, equiv, w
                )
                pairs += 1
        assert pairs == 100


class TestEquiv:
    def test_equal(self, capsys, tmp_path, flower_file):
        sl = tmp_path / "sl.aut"
        assert main(["streamline", flower_file, "--out", str(sl)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "equiv", flower_file, str(sl))
        assert code == 0 and "equal" in out

    def test_inequal_witness_parses(self, capsys, tmp_path, flower_file):
        flower = flower_automaton()
        from paritychain import ParityAutomaton, Transition, dpa_lasso_run

        flipped = ParityAutomaton(
            flower.alphabet,
            flower.state_count,
            flower.initial,
            tuple(
                Transition(t.src, t.sym, t.dst, 2)
                if (t.src, t.sym) == (1, 0)
                else t
                for t in flower.transitions
            ),
        )
        other = tmp_path / "flipped.aut"
        other.write_text(emit_native(flipped))
        code, out, _ = run(capsys, "equiv", flower_file, str(other), "--json")
        assert code == 1
        record = json.loads(out)
        assert record["equal"] is False
        witness = parse_lasso_text(record["witness"], flower.alphabet)
        assert (
            dpa_lasso_run(flower, witness).accepted
            != dpa_lasso_run(flipped, witness).accepted
        )


class TestStats:
    def test_flower_stats(self, capsys, flower_file):
        code, out, _ = run(capsys, "stats", flower_file, "--json")
        assert code == 0
        record = json.loads(out)
        assert record == {
            "kind": "dpa",
            "states": 4,
            "distinct_colors": 5,
            "scc_count": 1,
            "structured": True,
            "streamlined": False,
        }


class TestRandom:
    def test_seeded_generation_is_byte_identical(self, capsys, tmp_path):
        one = tmp_path / "one.aut"
        two = tmp_path / "two.aut"
        args = ["random", "--states", "4", "--colors", "3", "--letters", "2", "--seed", "7"]
        assert main(args + ["--out", str(one)]) == 0
        assert main(args + ["--out", str(two)]) == 0
        capsys.readouterr()
        assert one.read_bytes() == two.read_bytes()
        assert parse_native(one.read_text()).state_count <= 4

    def test_aps_names_are_hoa_compatible(self, capsys, tmp_path):
        out = tmp_path / "r.aut"
        assert main(
            ["random", "--states", "3", "--colors", "2", "--aps", "2", "--seed", "1",
             "--out", str(out)]
        ) == 0
        capsys.readouterr()
        a = parse_native(out.read_text())
        assert a.alphabet.letters == ("!p0&!p1", "p0&!p1", "!p0&p1", "p0&p1")
        from paritychain import emit_hoa

        assert 'AP: 2 "p0" "p1"' in emit_hoa(a)

    def test_bad_arguments(self, capsys):
        code, _, err = run(capsys, "random", "--states", "0", "--colors", "1",
                           "--letters", "1")
        assert code == 2

    @pytest.mark.parametrize("size, message", [
        (["--aps", "-1"], "--aps must be between 0 and 16"),
        (["--aps", "17"], "--aps must be between 0 and 16"),
        (["--letters", "1", "--states", "1000001"], "--states must be at most 1000000"),
        (["--letters", "524289"], "--states x letters must be at most 1048576"),
    ], ids=["aps-negative", "aps-above-limit", "states-above-limit", "rows-above-limit"])
    def test_sizes_rejected_before_generation(self, capsys, size, message):
        code, out, err = run(capsys, "random", "--states", "2", "--colors", "1", *size)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_letters_and_aps_exclusive(self, capsys):
        code, _, _ = run(capsys, "random", "--states", "2", "--colors", "1",
                         "--letters", "2", "--aps", "1")
        assert code == 2


class TestLassoSyntax:
    def test_round_trip(self, flower):
        rng = random.Random(1)
        for _ in range(25):
            w = random_lasso(rng, 3)
            assert parse_lasso_text(format_lasso(w, flower.alphabet), flower.alphabet) == w

    def test_multi_char_names_need_commas(self):
        from paritychain import Alphabet

        alphabet = Alphabet(("left", "right"))
        w = parse_lasso_text("left:right,left", alphabet)
        assert w == LassoWord((0,), (1, 0))
        assert format_lasso(w, alphabet) == "left:right,left"

    def test_unreadable_lasso_over_large_alphabet_is_short_error(self, capsys, tmp_path):
        # the alphabet of 10 APs has 1024 letters, which the message used to list
        names = " ".join(f'"p{j}"' for j in range(10))
        path = tmp_path / "aps.hoa"
        path.write_text(
            f"HOA: v1\nStates: 1\nStart: 0\nAP: 10 {names}\nacc-name: parity min even 1\n"
            "Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n[t] 0 {0}\n--END--\n"
        )
        code, out, err = run(capsys, "member", str(path), "--lasso", "zz:zz")
        assert code == 2 and out == ""
        assert "cannot read 'zz' over alphabet" in err and len(err) < 200

    def test_missing_colon(self, capsys, flower_file):
        code, _, err = run(capsys, "member", flower_file, "--lasso", "ca")
        assert code == 2


_GOLDEN = Path(__file__).parent / "golden"
_DOCUMENTS = [
    (_GOLDEN / name).read_text()
    for name in ("flower_streamlined.aut", "flower_chain_A5.aut", "universal2.hoa")
] + [(resources.files("paritychain") / "data" / "fig1.aut").read_text()]
_DOCUMENT = st.sampled_from(_DOCUMENTS) | st.sampled_from(_DOCUMENTS).flatmap(mutated)
# FILE, OTHER, MISSING and OUT stand for paths in a fresh directory; the
# numbers keep ``random`` small
_TEMPLATES = [
    ["validate", "FILE"], ["structure", "FILE", "--out", "OUT"], ["streamline", "FILE"],
    ["chain", "FILE", "--out", "OUT"], ["color", "FILE", "--lasso", ":ca"],
    ["member", "FILE", "--json", "--lasso", "a:b"], ["equiv", "FILE", "OTHER"], ["stats", "FILE"],
    ["random", "--states", "3", "--colors", "2", "--letters", "2"],
    ["random", "--states", "3", "--colors", "2", "--aps", "1", "--out", "OUT"],
]
_ARG = st.sampled_from([
    "validate", "color", "random", "bogus", "--json", "--out", "--lasso", "--states",
    "--colors", "--letters", "--aps", "--seed", "-h", "FILE", "OTHER", "MISSING", "OUT",
    "-1", "0", "1", "2", "5", "17",
]) | st.text(st.sampled_from("abc,:!&p0 "), max_size=8)


@st.composite
def _argv(draw):
    """A pipeline command line with up to three tokens deleted, inserted or replaced."""
    argv = list(draw(st.sampled_from(_TEMPLATES)))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(argv)))
        kind = draw(st.sampled_from(["delete", "insert", "replace"]))
        if kind == "insert" or pos == len(argv):
            argv.insert(pos, draw(_ARG))
        elif kind == "delete":
            del argv[pos]
        else:
            argv[pos] = draw(_ARG)
    return argv


class TestCliFuzz:
    """``main`` on mutated argv and files returns 0, 1 or 2, raises
    nothing and writes less than 1 KB to stderr."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_argv(), _DOCUMENT, _DOCUMENT)
    def test_mutated_argv_and_files(self, args, doc, other):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: os.path.join(tmp, name) for name in ("FILE", "OTHER", "MISSING", "OUT")}
            Path(paths["FILE"]).write_text(doc)
            Path(paths["OTHER"]).write_text(other)
            argv = [paths.get(arg, arg) for arg in args]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2), argv
        assert len(err.getvalue().encode()) < 1024, argv
