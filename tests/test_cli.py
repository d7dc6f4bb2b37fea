import contextlib
import importlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paritychain

from conftest import flower_automaton, mutated, random_lasso
from paritychain import (
    Alphabet,
    CoBuchiAutomaton,
    LassoWord,
    ParityAutomaton,
    Transition,
    chain_stats,
    corun_color,
    emit_hoa,
    emit_native,
    extract_chain,
    natural_color_via_chain,
    parse_native,
    random_dpa,
    state_equivalence,
    streamline,
    structure_dpa,
)
from paritychain.cli import format_lasso, main, parse_lasso_text
from paritychain.core import _MAX_ROWS


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

    @pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is a Linux /proc field")
    def test_long_lasso_costs_no_memory(self, capsys, tmp_path):
        # a 167-state DPA and its chain level A_1, each asked in a child
        # process about a lasso with a prefix of 100,000 letters (Linux caps
        # one argument string at 128 KiB) and about one with a 4-letter
        # prefix: the peak RSS may differ by under 10 MB.  The child reads
        # its peak as VmHWM, not ru_maxrss, which keeps the peak of the
        # process it was forked from across exec
        dpa = tmp_path / "dpa.aut"
        dpa.write_text(emit_native(streamline(structure_dpa(random_dpa(200, 4, 2, 5)))))
        assert main(["chain", str(dpa), "--out", str(tmp_path / "chain")]) == 0
        capsys.readouterr()
        src = str(Path(paritychain.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        probe = ("import sys\n"
                 "from paritychain.cli import main\n"
                 "main(sys.argv[1:])\n"
                 "with open('/proc/self/status') as f:\n"
                 "    print(next(line for line in f if line.startswith('VmHWM:')))")
        rng = random.Random(5)
        prefix = "".join(rng.choice("ab") for _ in range(100_000))
        for path in (dpa, tmp_path / "chain" / "A_1.aut"):
            peaks = []
            for lasso in (prefix[:4] + ":abb", prefix + ":abb"):
                proc = subprocess.run(
                    [sys.executable, "-c", probe, "member", str(path), "--lasso", lasso],
                    capture_output=True, text=True, env=env, timeout=120,
                )
                assert proc.returncode in (0, 1), proc.stderr
                peaks.append(int(proc.stdout.split()[-2]))  # kB
            assert peaks[1] - peaks[0] < 10 * 1024, (path.name, peaks)

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

    def test_ncw_is_ok(self, capsys, tmp_path):
        # a co-Buchi automaton is checked when it is parsed: nothing is left to report
        level = CoBuchiAutomaton(Alphabet(("a",)), 1, 0, (Transition(0, 0, 0, 1),))
        path = tmp_path / "level.aut"
        path.write_text(emit_native(level))
        code, out, _ = run(capsys, "validate", str(path), "--json")
        assert code == 0
        assert json.loads(out) == {"ok": True, "violations": []}

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
        # a doubled row is listed, as a native file's is; a body that goes
        # on past more rows than the automaton has is not read to its end
        # and is refused.  Either way the AP name is clipped
        path = tmp_path / "long-ap.hoa"
        text = (
            "HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"" + "x" * 10**6 + "\"\n"
            "acc-name: parity min even 1\nAcceptance: 1 Inf(0)\n--BODY--\n"
            "State: 0\n[t] 0 {0}\n[0] 0 {0}\n--END--\n"
        )
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1 and err == ""
        assert "has 2 transitions" in out and len(out.encode()) < 200
        path.write_text(text.replace("--END--", "[0] 0 {0}\n--END--"))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert "nondeterministic" in err and len(err.encode()) < 200

    def test_doubled_row_listed_in_both_formats(self, capsys, tmp_path):
        # one automaton with one row doubled, written as a native file and
        # as a HOA file: both are listed with exit 1 (the HOA file was
        # refused with exit 2), and the commands that need a DPA refuse both
        rows = (Transition(0, 0, 1, 0), Transition(0, 1, 0, 1), Transition(1, 0, 1, 1),
                Transition(1, 1, 0, 0), Transition(0, 1, 1, 1))
        a = ParityAutomaton(Alphabet(("!go", "go")), 2, 0, rows)
        doubled = "(state 0, letter 'go') has 2 transitions"
        for name, text in (("doubled.aut", emit_native(a)), ("doubled.hoa", emit_hoa(a))):
            path = tmp_path / name
            path.write_text(text)
            code, out, err = run(capsys, "validate", str(path))
            assert (code, out, err) == (1, f"invalid:\n  {doubled}\n", "")
            code, out, _ = run(capsys, "validate", str(path), "--json")
            assert code == 1 and json.loads(out) == {"ok": False, "violations": [doubled]}
            code, out, err = run(capsys, "stats", str(path))
            assert code == 2 and out == "" and doubled in err

    def test_violation_list_is_capped(self, capsys, tmp_path):
        path = tmp_path / "empty.aut"
        path.write_text(json.dumps({"kind": "dpa", "alphabet": ["a"], "states": 100_000,
                                    "initial": 0, "transitions": []}))
        code, out, _ = run(capsys, "validate", str(path), "--json")
        assert code == 1 and len(out) < 2048
        assert json.loads(out)["violations"][-1] == "... and 99990 more"

    @pytest.mark.parametrize("command", [
        ["validate"], ["stats"], ["structure"], ["streamline"], ["chain", "--out", "chain"],
        ["color", "--lasso", ":a"], ["member", "--lasso", ":a"], ["equiv", "FLOWER"],
        ["equiv", "FLOWER", "BAD"],
    ], ids=lambda argv: "-".join(x for x in argv if x.isalpha()))
    @pytest.mark.parametrize("name, data, offset", [
        ("bad.aut", b'{"kind": \xff\xfe\x00}', 9),
        ("bad.hoa", b"HOA: v1\nStates: 1\n\xc3(\n", 18),
    ], ids=["native", "hoa"])
    def test_non_utf8_file_is_format_error(self, capsys, tmp_path, flower_file,
                                           command, name, data, offset):
        # a byte that is not UTF-8 ended in a UnicodeDecodeError traceback
        path = tmp_path / name
        path.write_bytes(data)
        names = {"FLOWER": flower_file, "BAD": str(path), "chain": str(tmp_path / "chain")}
        argv = [command[0]] + [names.get(x, x) for x in command[1:]]
        if "BAD" not in command:
            argv.insert(1, str(path))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not UTF-8 text at byte {offset}\n"


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

    def test_chain_over_the_row_limit_stops_at_once(self, capsys, tmp_path):
        # a one-color two-letter cycle of 3000 states is one class, so every
        # level would hold 6000 x 3000 rows: ``chain`` used to end in a
        # MemoryError traceback after 47 s under a 2 GB cap
        n = 3000
        a = ParityAutomaton(Alphabet(("a", "b")), n, 0, tuple(
            Transition(q, y, (q + 1) % n, 0) for q in range(n) for y in (0, 1)))
        path, out = tmp_path / "cycle.aut", tmp_path / "chain"
        path.write_text(emit_native(a))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            code, _, err = run(capsys, "chain", str(path), "--out", str(out))
            times.append(time.perf_counter() - start)
            assert code == 2
            assert err == (f"error: {2 * n * n} rows per chain level exceed the limit of "
                           f"{_MAX_ROWS}\n")
            assert not out.exists()
        assert min(times) < 1, times
        chain = extract_chain(a, state_equivalence(a))  # the view still answers
        assert chain_stats(chain)[0].jump_transitions == 2 * n * (n - 1)
        assert natural_color_via_chain(chain, LassoWord((), (0, 1))) == 0

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

    def test_one_scc_pass(self, capsys, monkeypatch):
        # ``scc_count`` and ``is_structured`` read one SCC pass, and each
        # pass builds the adjacency once
        adjacency, calls = paritychain.graphs._adjacency, []
        monkeypatch.setattr(paritychain.graphs, "_adjacency", lambda a: calls.append(a) or adjacency(a))
        fig1 = resources.files("paritychain") / "data" / "fig1.aut"
        code, out, _ = run(capsys, "stats", str(fig1), "--json")
        assert code == 0 and json.loads(out)["structured"] and len(calls) == 1


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
        (["--letters", "1", "--states", "1000001"],
         "1000001 states exceed the limit of 1000000"),
        (["--letters", "524289"], "2 states x 524289 letters exceed the limit of 1048576 rows"),
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

    def test_lookup_is_one_probe_per_letter(self):
        # 2000 letters over 2^18 names, comma-separated, and over 2^16
        # one-character names, juxtaposed: a scan of the names per letter
        # takes seconds, one dict probe per letter a few milliseconds
        from paritychain import Alphabet

        wide = Alphabet(tuple(f"l{i}" for i in range(2**18)))
        single = Alphabet(tuple(chr(0x10000 + i) for i in range(2**16)))
        rng = random.Random(5)
        picks = [rng.randrange(2**16) for _ in range(2000)]
        start = time.perf_counter()
        w = parse_lasso_text(":" + ",".join(wide.letters[-1 - i] for i in picks), wide)
        v = parse_lasso_text(":" + "".join(single.letters[-1 - i] for i in picks), single)
        elapsed = time.perf_counter() - start
        assert w.period == tuple(2**18 - 1 - i for i in picks)
        assert v.period == tuple(2**16 - 1 - i for i in picks)
        assert elapsed < 2.0

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


def test_bench_traced_names_resolve():
    # bench/tracer.py wraps these library functions by name; a removed or
    # renamed one would break the traced benchmark runs
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"paritychain.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"paritychain.{layer}.{name}"
