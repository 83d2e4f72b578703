import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

import blockgraph
from blockgraph.cli import run
from blockgraph.corpus import corpus_path


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGraphCommand:
    def test_a5_json(self, capsys):
        code, out, _ = invoke(capsys, "graph", str(corpus_path("A5")), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["vertices"] == [2, 3, 5]
        assert doc["complete"] is True

    def test_corpus_name_resolution(self, capsys):
        code, out, _ = invoke(capsys, "graph", "A5", "--json")
        assert code == 0 and json.loads(out)["complete"] is True

    def test_dot_output(self, capsys):
        code, out, _ = invoke(capsys, "graph", "A5", "--dot")
        assert code == 0 and out.startswith("graph block_graph {") and out.count("--") == 3

    def test_text_summary(self, capsys):
        code, out, _ = invoke(capsys, "graph", "C6")
        assert code == 0 and "incomplete" in out

    def test_determinism(self, capsys):
        first = invoke(capsys, "graph", "L2_7", "--json")
        second = invoke(capsys, "graph", "L2_7", "--json")
        assert first == second


class TestBlocksCommand:
    def test_a5_p5(self, capsys):
        code, out, _ = invoke(capsys, "blocks", "A5", "-p", "5")
        assert code == 0
        doc = json.loads(out)
        principal = next(b for b in doc["blocks"] if b["principal"])
        assert sorted(principal["degrees"]) == [1, 3, 3, 4]
        assert doc["prime"] == 5

    @pytest.mark.parametrize("p", ["1", "0", "-5", "4"])
    def test_not_a_prime_exit_3(self, capsys, p):
        code, out, err = invoke(capsys, "blocks", "A5", "-p", p)
        assert code == 3 and out == "" and "not prime" in err


class TestSolvabilityCommands:
    def test_psolv_s4(self, capsys):
        code, out, _ = invoke(capsys, "psolv", "S4", "-p", "2")
        assert code == 0 and "no triangle containing 2" in out

    def test_psolv_json(self, capsys):
        code, out, _ = invoke(capsys, "psolv", "A5", "-p", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["triangles"] == [[2, 3, 5]] and doc["p_solvable_certified"] is False

    def test_solvable_a5(self, capsys):
        code, out, _ = invoke(capsys, "solvable", "A5")
        assert code == 0 and "not certified" in out

    def test_solvable_s4(self, capsys):
        code, out, _ = invoke(capsys, "solvable", "S4", "--json")
        assert code == 0 and json.loads(out)["certified_solvable"] is True


class TestValidateCommand:
    def test_valid(self, capsys):
        code, out, _ = invoke(capsys, "validate", "S3")
        assert code == 0 and json.loads(out)["valid"] is True

    def test_invalid_table_exit_2(self, capsys, tmp_path):
        data = json.loads(corpus_path("S3").read_text())
        data["irr"][2][1] = 7
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, _ = invoke(capsys, "validate", str(bad))
        assert code == 2
        assert json.loads(out)["valid"] is False

    def test_parse_error_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{ nope")
        code, _, err = invoke(capsys, "validate", str(bad))
        assert code == 3 and err

    @pytest.mark.parametrize("command", ["validate", "graph", "blocks"])
    @pytest.mark.parametrize("document", [
        {"name": "C1", "order": True, "classes": [{"size": True, "order": True}], "irr": [[1]]},
        {"name": "C1", "order": 1, "classes": [{"size": 1, "order": 1, "label": ["1a"]}],
         "irr": [[1]]},
        {"name": "C1", "order": 1, "classes": [{"size": 1, "order": 1}], "irr": [[1]],
         "provenance": {"source": "x"}},
    ])
    def test_malformed_field_exit_3(self, capsys, tmp_path, command, document):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        argv = [command, str(bad)] + (["-p", "2"] if command == "blocks" else [])
        code, out, err = invoke(capsys, *argv)
        assert code == 3 and out == "" and err

    def test_missing_file_exit_3(self, capsys):
        code, _, err = invoke(capsys, "graph", "no-such-table")
        assert code == 3 and "neither" in err


class TestLieTypeCommands:
    def test_steinberg(self, capsys):
        code, out, _ = invoke(
            capsys, "steinberg", "--family", "A", "--rank", "4", "--q", "2", "--ell", "7"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["in_principal_block"] is False and doc["e"] == 3
        assert "not a regular" in doc["explanation"]

    def test_regnum(self, capsys):
        code, out, _ = invoke(capsys, "regnum", "--family", "E8", "--rank", "8", "--e", "30")
        assert code == 0 and json.loads(out)["regular"] is True
        assert out == (
            '{\n "family": "E8",\n "rank": 8,\n "e": 30,\n "regular": true,\n'
            ' "explanation": "30 is a regular number of E8 at rank 8"\n}\n'
        )

    @pytest.mark.parametrize(
        "family,rank,e,message",
        [("2D", "0", "3", "2D_n needs n >= 4"), ("A", "-2", "3", "A_n needs n >= 1"),
         ("E8", "7", "30", "E8 has rank 8, not 7")],
    )
    def test_regnum_rejects_a_rank_the_family_lacks(self, capsys, family, rank, e, message):
        code, out, err = invoke(capsys, "regnum", "--family", family, "--rank", rank, "--e", e)
        assert code == 3 and out == "" and message in err

    def test_zsigmondy(self, capsys):
        code, out, _ = invoke(capsys, "zsigmondy", "-t", "2", "-n", "6")
        assert code == 0 and json.loads(out)["prime"] is None

    def test_order(self, capsys):
        code, out, _ = invoke(capsys, "order", "--family", "2B2", "--rank", "2", "--q", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 29120 and doc["factorization"] == {"2": 6, "5": 1, "7": 1, "13": 1}

    def test_steinberg_large_order_is_fast(self):
        # |A20(65537)| has over 2000 digits; the verdict needs only |G| mod ell
        src = str(Path(blockgraph.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "blockgraph", "steinberg", "--family", "A",
             "--rank", "20", "--q", "65537", "--ell", "3"],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["ell"] == 3

    @pytest.mark.parametrize("family,rank", [("F4", 4), ("E7", 7)])
    def test_order_at_large_q_is_fast(self, family, rank):
        # each Phi_e(65537) is factored on its own, never the whole product
        src = str(Path(blockgraph.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "blockgraph", "order", "--family", family,
             "--rank", str(rank), "--q", "65537"],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout)
        factors = {int(r): k for r, k in doc["factorization"].items()}
        assert math.prod(r**k for r, k in factors.items()) == doc["order"]
        assert all(sympy.isprime(r) for r in factors)

    def test_order_past_the_factoring_budget_exits_3(self):
        # a 64-digit cofactor of Phi_17(65537) has no factor rho finds in
        # its budget of steps; the call fails fast instead of running on
        src = str(Path(blockgraph.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "blockgraph", "order", "--family", "A",
             "--rank", "20", "--q", "65537"],
            capture_output=True, text=True, env=env, timeout=15,
        )
        assert done.returncode == 3 and done.stdout == ""
        assert "rho steps" in done.stderr

    def test_descriptor_error_exit_3(self, capsys):
        code, _, err = invoke(capsys, "order", "--family", "A", "--rank", "1", "--q", "2")
        assert code == 3 and err


class TestImportPath:
    def test_numpy_loads_only_with_tablegen(self):
        # every command but dixon runs without numpy; tablegen brings it in
        src = str(Path(blockgraph.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = """
import contextlib, io, sys
import blockgraph, blockgraph.cli
for argv in (["graph", "S4", "--json"], ["blocks", "A5", "-p", "2"], ["validate", "C6"],
             ["order", "--family", "A", "--rank", "1", "--q", "4"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert blockgraph.cli.run(argv) == 0, argv
assert "numpy" not in sys.modules
assert blockgraph.dixon_table is blockgraph.tablegen.dixon_table
assert "numpy" in sys.modules
"""
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0, done.stderr


class TestDixonCommand:
    def test_s3(self, capsys, tmp_path):
        doc = tmp_path / "s3.json"
        doc.write_text(json.dumps({"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]}))
        code, out, _ = invoke(capsys, "dixon", str(doc))
        assert code == 0
        from blockgraph.chartab import parse_table

        table = parse_table(out)
        assert sorted(table.degrees()) == [1, 1, 2]

    def test_bad_document_exit_3(self, capsys, tmp_path):
        doc = tmp_path / "bad.json"
        doc.write_text(json.dumps({"degree": 3}))
        code, _, err = invoke(capsys, "dixon", str(doc))
        assert code == 3 and err

    @pytest.mark.parametrize("document", [
        {"generators": 5},
        {"generators": [[0, "a"]]},
        {"generators": [[1, 0]], "name": 7},
    ])
    def test_malformed_document_exit_3(self, capsys, tmp_path, document):
        doc = tmp_path / "bad.json"
        doc.write_text(json.dumps(document))
        code, out, err = invoke(capsys, "dixon", str(doc))
        assert code == 3 and out == "" and err


class TestCorpusOverride:
    def test_env_var(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "MyGroup.json").write_text(corpus_path("S3").read_text())
        monkeypatch.setenv("BLOCKGRAPH_CORPUS", str(tmp_path))
        code, out, _ = invoke(capsys, "graph", "MyGroup", "--json")
        assert code == 0 and json.loads(out)["vertices"] == [2, 3]
        code, _, _ = invoke(capsys, "graph", "A5", "--json")
        assert code == 3  # bundled names are hidden behind the override
