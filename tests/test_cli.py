import csv
import json
import os
from importlib.resources import files
from pathlib import Path

import pytest

from rpdaglearn import cli
from rpdaglearn.cli import main
from rpdaglearn.graph import GraphError, PartialDag

COLLIDER = str(files("rpdaglearn") / "nets" / "collider3.json")
GOLD8 = str(files("rpdaglearn") / "nets" / "gold8.json")

REPORT_KEYS = {"BDeu", "BIC", "KL", "Edg", "Iter", "BIter", "Ind",
               "EstEv", "TEst", "NVars", "Time"}


@pytest.fixture
def sampled_csv(tmp_path):
    out = tmp_path / "data.csv"
    rc = main(["sample", "--net", COLLIDER, "--n", "2000",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    return str(out)


@pytest.fixture(scope="module")
def gold8_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("gold8") / "data.csv"
    assert main(["sample", "--net", GOLD8, "--n", "3000", "--seed", "4",
                 "--out", str(out)]) == 0
    return str(out)


@pytest.fixture(scope="module")
def reversed_gold8(tmp_path_factory):
    """gold8 with its variables listed in reverse order."""
    doc = json.loads(Path(GOLD8).read_text(encoding="utf-8"))
    doc["variables"].reverse()
    doc.pop("cpts")
    path = tmp_path_factory.mktemp("rev") / "gold8_reversed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def last_row(capsys):
    return capsys.readouterr().out.splitlines()[-1].split()


class TestSample:
    def test_writes_expected_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sample", "--net", COLLIDER, "--n", "50",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 51
        assert lines[0] == "x,y,z"

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["sample", "--net", COLLIDER, "--n", "100",
                         "--seed", "9", "--out", str(path)]) == 0
        assert a.read_text() == b.read_text()

    # 10**15 rows of gold8's 8 one-byte cells is 8e15 bytes, past a 47-bit
    # address space, so the allocation fails at once and touches no
    # memory; 10**20 rows is a shape past intp.
    @pytest.mark.parametrize("n", [10**15, 10**20])
    def test_sample_size_too_large(self, tmp_path, capsys, n):
        out = tmp_path / "x.csv"
        assert main(["sample", "--net", GOLD8, "--n", str(n),
                     "--out", str(out)]) == 1
        assert f"sample size {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sample", "--net", COLLIDER, "--n", "5", "--seed", "-1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: seed must be non-negative, not -1\n")
        assert not out.exists()

    def test_missing_network_file(self, tmp_path):
        rc = main(["sample", "--net", str(tmp_path / "no.json"),
                   "--n", "5", "--seed", "0",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2


class TestLearn:
    def test_greedy_with_report_and_gold(self, tmp_path, sampled_csv):
        out = tmp_path / "learned.json"
        report = tmp_path / "report.json"
        rc = main(["learn", "--data", sampled_csv, "--out", str(out),
                   "--report", str(report), "--gold", COLLIDER])
        assert rc == 0
        record = json.loads(report.read_text())
        assert set(record) == REPORT_KEYS | {"H", "A", "D", "I"}
        assert record["EstEv"] <= record["TEst"]
        doc = json.loads(out.read_text())
        assert {v["name"] for v in doc["variables"]} == {"x", "y", "z"}

    def test_dag_space_tabu(self, tmp_path, sampled_csv):
        out = tmp_path / "learned.json"
        rc = main(["learn", "--data", sampled_csv, "--out", str(out),
                   "--space", "dag", "--strategy", "tabu",
                   "--score", "bic"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["edges"]["links"] == []

    def test_missing_output_dir_fails_before_work(self, tmp_path,
                                                  sampled_csv):
        out = tmp_path / "nodir" / "learned.json"
        rc = main(["learn", "--data", sampled_csv, "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_missing_data_file(self, tmp_path):
        rc = main(["learn", "--data", str(tmp_path / "no.csv"),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 2

    def test_start_structure(self, tmp_path, sampled_csv):
        first = tmp_path / "first.json"
        assert main(["learn", "--data", sampled_csv,
                     "--out", str(first)]) == 0
        rc = main(["learn", "--data", sampled_csv,
                   "--out", str(tmp_path / "second.json"),
                   "--start", str(first)])
        assert rc == 0


    def test_gold_in_another_variable_order(self, tmp_path, gold8_csv,
                                           reversed_gold8):
        report = tmp_path / "report.json"
        argv = ["learn", "--data", gold8_csv, "--out",
                str(tmp_path / "learned.json"), "--report", str(report)]
        assert main([*argv, "--gold", GOLD8]) == 0
        assert json.loads(report.read_text())["H"] == 0
        assert main([*argv, "--gold", reversed_gold8]) == 2

    def test_start_of_another_size(self, tmp_path, gold8_csv):
        rc = main(["learn", "--data", gold8_csv,
                   "--out", str(tmp_path / "learned.json"),
                   "--start", COLLIDER])
        assert rc == 2

    @pytest.mark.parametrize("space, edges, check", [
        ("dag", {"arcs": [["a", "c"]], "links": [["d", "e"]]}, "has links"),
        ("dag", {"arcs": [["a", "b"], ["b", "c"], ["c", "a"]]},
         "directed cycle"),
        ("rpdag", {"arcs": [["a", "c"]]}, "condition 4"),
        ("rpdag", {"arcs": [["a", "c"], ["b", "c"]], "links": [["c", "d"]]},
         "condition 1"),
    ])
    def test_start_invalid_for_space(self, tmp_path, gold8_csv, capsys,
                                     space, edges, check):
        doc = json.loads(Path(GOLD8).read_text(encoding="utf-8"))
        doc["edges"] = {"arcs": [], "links": [], **edges}
        doc.pop("cpts")
        start = tmp_path / "start.json"
        start.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["learn", "--data", gold8_csv, "--space", space,
                   "--out", str(tmp_path / "learned.json"),
                   "--start", str(start)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error: start structure invalid")
        assert check in err
        assert not (tmp_path / "learned.json").exists()

    @pytest.mark.parametrize("space", ["rpdag", "dag"])
    def test_tabu_options_pass_through(self, tmp_path, gold8_csv, space):
        report = tmp_path / "report.json"
        argv = ["learn", "--data", gold8_csv, "--space", space,
                "--strategy", "tabu", "--out", str(tmp_path / "l.json"),
                "--report", str(report)]
        assert main([*argv, "--tabu-iters", "5"]) == 0
        assert json.loads(report.read_text())["Iter"] == 5
        assert main([*argv, "--tabu-iters", "5", "--tabu-len", "0"]) == 0

    def test_tabu_length_beyond_iterations(self, tmp_path, gold8_csv):
        # The list never holds more than --tabu-iters moves, so any longer
        # length, even one past a C ssize_t, gives the same run.
        outs = [tmp_path / "short.json", tmp_path / "long.json"]
        for out, tll in zip(outs, ["3", "100000000000000000000"]):
            assert main(["learn", "--data", gold8_csv, "--strategy", "tabu",
                         "--tabu-len", tll, "--tabu-iters", "3",
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("space", ["rpdag", "dag"])
    def test_tabu_defaults_on_one_variable(self, tmp_path, capsys, space):
        # At n = 1 the default --tabu-iters, n(n - 1), is 0: tabu makes no
        # move and writes what greedy writes.  A given 0 is still refused.
        data = tmp_path / "one.csv"
        data.write_text("a\n0\n1\n1\n", encoding="utf-8")
        argv = ["learn", "--data", str(data), "--space", space]
        for strategy in ("greedy", "tabu"):
            assert main([*argv, "--strategy", strategy,
                         "--out", str(tmp_path / f"{strategy}.json"),
                         "--report", str(tmp_path / "report.json")]) == 0
            record = json.loads((tmp_path / "report.json").read_text())
            assert (record["Iter"], record["BIter"], record["Edg"]) == (
                0, 0, 0)
        assert ((tmp_path / "tabu.json").read_bytes()
                == (tmp_path / "greedy.json").read_bytes())
        capsys.readouterr()
        for bad in (["--tabu-iters", "0"], ["--tabu-len", "-1"]):
            assert main([*argv, "--strategy", "tabu", *bad,
                         "--out", str(tmp_path / "bad.json")]) == 1
            assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "bad.json").exists()

    @pytest.mark.parametrize("space", ["rpdag", "dag"])
    def test_report_scores_match_score_command(self, tmp_path, gold8_csv,
                                               capsys, space):
        out, report = tmp_path / "learned.json", tmp_path / "report.json"
        assert main(["learn", "--data", gold8_csv, "--out", str(out),
                     "--report", str(report), "--space", space,
                     "--ess", "2"]) == 0
        record = json.loads(report.read_text())
        capsys.readouterr()
        assert main(["score", "--net", str(out), "--data", gold8_csv,
                     "--ess", "2"]) == 0
        row = last_row(capsys)
        assert row == [f"{record['BDeu']:.5f}", f"{record['BIC']:.5f}",
                       f"{record['KL']:.5f}", str(record["Edg"])]


class TestScore:
    def test_scores_gold_network(self, sampled_csv, capsys):
        rc = main(["score", "--net", COLLIDER, "--data", sampled_csv])
        assert rc == 0
        header = capsys.readouterr().out.splitlines()[0]
        for field in ("BDeu", "BIC", "KL", "Edg"):
            assert field in header

    def test_variable_mismatch(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("p,q\n0,1\n")
        rc = main(["score", "--net", COLLIDER, "--data", str(bad)])
        assert rc == 2

    @pytest.mark.parametrize("n", [42, 66])
    def test_family_too_wide_to_count(self, tmp_path, capsys, n):
        names = [f"v{i}" for i in range(n)]
        net = tmp_path / "wide.json"
        net.write_text(json.dumps({
            "variables": [{"name": v, "states": ["0", "1"]} for v in names],
            "edges": {"arcs": [[v, "v0"] for v in names[1:]]}}),
            encoding="utf-8")
        data = tmp_path / "wide.csv"
        data.write_text("\n".join([",".join(names), ",".join("0" * n),
                                   ",".join("1" * n)]) + "\n",
                        encoding="utf-8")
        rc = main(["score", "--net", str(net), "--data", str(data)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"family of v0 is too wide to count: q * r = {2 ** n} " in err


class TestCompare:
    def test_identical_networks(self, capsys):
        rc = main(["compare", "--net", COLLIDER, "--gold", COLLIDER])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].split() == ["0", "0", "0", "0"]

    def test_learned_vs_gold(self, tmp_path, sampled_csv, capsys):
        out = tmp_path / "learned.json"
        assert main(["learn", "--data", sampled_csv,
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["compare", "--net", str(out), "--gold", COLLIDER])
        assert rc == 0


    def test_networks_in_different_variable_orders(self, reversed_gold8):
        assert main(["compare", "--net", GOLD8,
                     "--gold", reversed_gold8]) == 2


def gold8_with_edges(path, arcs=(), links=()):
    """gold8's variables with the given edges and no tables."""
    doc = json.loads(Path(GOLD8).read_text(encoding="utf-8"))
    doc["edges"] = {"arcs": list(arcs), "links": list(links)}
    doc.pop("cpts")
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestNetworkShape:
    """A gold network must be a DAG, and a structure to score or compare
    a DAG or a restricted PDAG; anything else is a data error (exit 2)
    whose message names the failed check."""

    SHAPES = {
        "link cycle": ({"links": [["a", "b"], ["b", "c"], ["c", "a"]]},
                       "it has links, and restricted-PDAG condition 3"),
        "arc cycle": ({"arcs": [["a", "b"], ["b", "c"], ["c", "a"]]},
                      "it has a directed cycle, and restricted-PDAG "
                      "condition 2"),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("command", ["score", "compare"])
    def test_net_neither_dag_nor_rpdag(self, tmp_path, gold8_csv, capsys,
                                       command, shape):
        edges, check = self.SHAPES[shape]
        net = gold8_with_edges(tmp_path / "net.json", **edges)
        other = (["--data", gold8_csv] if command == "score"
                 else ["--gold", GOLD8])
        assert main([command, "--net", net, *other]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {net}: structure is not a DAG")
        assert check in err

    def test_rpdag_net_accepted(self, tmp_path, gold8_csv):
        net = gold8_with_edges(tmp_path / "net.json", links=[["a", "b"]])
        assert main(["score", "--net", net, "--data", gold8_csv]) == 0
        assert main(["compare", "--net", net, "--gold", GOLD8]) == 0

    @pytest.mark.parametrize("edges, check", [
        ({"links": [["a", "b"]]}, "it has links"),
        ({"arcs": [["a", "b"], ["b", "c"], ["c", "a"]]},
         "it has a directed cycle"),
    ])
    @pytest.mark.parametrize("command", ["compare", "learn"])
    def test_gold_not_a_dag(self, tmp_path, gold8_csv, capsys, command,
                            edges, check):
        gold = gold8_with_edges(tmp_path / "gold.json", **edges)
        out = tmp_path / "learned.json"
        argv = (["compare", "--net", GOLD8] if command == "compare"
                else ["learn", "--data", gold8_csv, "--out", str(out)])
        assert main([*argv, "--gold", gold]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {gold}: gold network is not a "
                              f"DAG: {check}")
        # learn refuses the gold network before it searches or writes.
        assert not out.exists()


def collider_edited(path, edit):
    """collider3 after ``edit`` has changed its parsed document."""
    doc = json.loads(Path(COLLIDER).read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestMalformedNetwork:
    """Every malformed network file is a data error (exit 2) whose message
    names the file and the fault."""

    BAD_ROWS = "rows of table for y must be non-negative and sum to 1"
    BAD_TABLE = ("table for y must be a JSON array of equally long rows of "
                 "numbers")
    CASES = {
        "nan table": (lambda d: d["cpts"].update(y=[[float("nan"), 1.0]]),
                      BAD_ROWS),
        "negative table": (lambda d: d["cpts"].update(y=[[1.5, -0.5]]),
                           BAD_ROWS),
        "repeated states": (
            lambda d: d["variables"][1].update(states=["x", "x"]),
            "variable y needs 2 distinct labels"),
        "three-name arc": (
            lambda d: d["edges"].update(arcs=[["y", "x", "z"]]),
            'edge ["y", "x", "z"] is not a pair of variable names'),
        "edges as a list": (lambda d: d.update(edges=[]),
                            "edges must be a JSON object"),
        "cpts as a list": (lambda d: d.update(cpts=list(d["cpts"].values())),
                           "cpts must be a JSON object"),
        "cpts key naming no variable": (
            lambda d: d["cpts"].update(w=[[0.5, 0.5]]),
            "cpts keys are not the variable names"),
        "missing variables": (lambda d: d.pop("variables"),
                              "missing field 'variables'"),
        "arcs as a number": (lambda d: d["edges"].update(arcs=5),
                             "arcs must be a JSON array"),
        "variable as a string": (lambda d: d.update(variables=["x"]),
                                 "each variable must be a JSON object"),
        "table as an object": (
            lambda d: d["cpts"].update(y={"0": 0.5, "1": 0.5}), BAD_TABLE),
        "boolean table": (lambda d: d["cpts"].update(y=[[True, False]]),
                          BAD_TABLE),
        "numeric state label": (
            lambda d: d["variables"][1].update(states=[0, "0"]),
            "variable y has a state label that is not a string"),
        "link with tables": (
            lambda d: d["edges"].update(links=[["y", "z"]]),
            "parameterized network must be a DAG"),
        "table of wrong shape": (
            lambda d: d["cpts"].update(y=[[0.2, 0.3, 0.5]]),
            "table shape mismatch for variable y: (1, 3)"),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("command", ["sample", "compare"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, command, case):
        edit, fault = self.CASES[case]
        net = collider_edited(tmp_path / "net.json", edit)
        out = tmp_path / "out.csv"
        rest = (["--n", "5", "--out", str(out)] if command == "sample"
                else ["--gold", COLLIDER])
        assert main([command, "--net", net, *rest]) == 2
        assert capsys.readouterr().err == f"data error: {net}: {fault}\n"
        assert not out.exists()


    @pytest.mark.parametrize("command", ["sample", "compare"])
    def test_document_not_an_object(self, tmp_path, capsys, command):
        net = tmp_path / "net.json"
        net.write_text("[]", encoding="utf-8")
        out = tmp_path / "out.csv"
        rest = (["--n", "5", "--out", str(out)] if command == "sample"
                else ["--gold", COLLIDER])
        assert main([command, "--net", str(net), *rest]) == 2
        assert capsys.readouterr().err == (
            f"data error: {net}: the document must be a JSON object\n")
        assert not out.exists()

    def test_sample_without_tables(self, tmp_path, capsys):
        # A network without tables is a valid file; only sampling needs
        # them.
        net = collider_edited(tmp_path / "net.json", lambda d: d.pop("cpts"))
        out = tmp_path / "out.csv"
        assert main(["sample", "--net", net, "--n", "5",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {net}: sampling requires conditional probability "
            f"tables\n")
        assert not out.exists()


class TestOutputNamesAnotherFile:
    """An output path naming an input or the other output is a usage
    error (exit 1), found before any work: nothing is written and every
    input keeps its bytes."""

    @pytest.mark.parametrize("argv, option, other", [
        (["learn", "--data", "d.csv", "--out", "d.csv"], "--out", "--data"),
        (["learn", "--data", "d.csv", "--out", "g.json", "--gold", "g.json"],
         "--out", "--gold"),
        (["learn", "--data", "d.csv", "--out", "r.json", "--report",
          "r.json"], "--out", "--report"),
        (["learn", "--data", "d.csv", "--out", "o.json", "--report",
          "d.csv"], "--report", "--data"),
        (["learn", "--data", "d.csv", "--out", "o.json", "--gold", "g.json",
          "--report", "g.json"], "--report", "--gold"),
        (["learn", "--data", "d.csv", "--out", "o.json", "--start", "s.json",
          "--report", "s.json"], "--report", "--start"),
        (["learn", "--data", "d.csv", "--out", "sub/../d.csv"],
         "--out", "--data"),
        (["learn", "--data", "d.csv", "--out", "link.csv"],
         "--out", "--data"),
        (["learn", "--data", "d.csv", "--out", "hard.csv"],
         "--out", "--data"),
        (["sample", "--net", "g.json", "--n", "5", "--out", "g.json"],
         "--out", "--net"),
    ], ids=["out-data", "out-gold", "out-report", "report-data",
            "report-gold", "report-start", "out-data-respelled",
            "out-symlink-data", "out-hard-link-data", "sample-out-net"])
    def test_refused(self, tmp_path, gold8_csv, capsys, monkeypatch, argv,
                     option, other):
        monkeypatch.chdir(tmp_path)
        Path("sub").mkdir()
        Path("d.csv").write_bytes(Path(gold8_csv).read_bytes())
        Path("g.json").write_bytes(Path(GOLD8).read_bytes())
        Path("s.json").write_bytes(Path(GOLD8).read_bytes())
        Path("link.csv").symlink_to("d.csv")
        os.link("d.csv", "hard.csv")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()
                  if p.is_file()}
        assert main(argv) == 1
        path = argv[argv.index(option) + 1]
        assert capsys.readouterr().err == (
            f"error: {option} {path} names the same file as {other}\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()
                if p.is_file()} == before
        assert not any(Path("sub").iterdir())

    def test_out_may_name_start(self, tmp_path, gold8_csv):
        start = gold8_with_edges(tmp_path / "start.json", links=[["a", "b"]])
        before = Path(start).read_bytes()
        assert main(["learn", "--data", gold8_csv, "--out", start,
                     "--start", start]) == 0
        assert Path(start).read_bytes() != before


class TestDirectoryOutputPath:
    """An output path that is a directory is a usage error (exit 1), found
    before any work, so nothing is written."""

    @pytest.mark.parametrize("option", ["--out", "--report"])
    def test_learn(self, tmp_path, sampled_csv, capsys, option):
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        argv = ["learn", "--data", sampled_csv,
                "--out", str(tmp_path / "learned.json"),
                "--report", str(tmp_path / "report.json")]
        argv[argv.index(option) + 1] = str(outdir)
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: output path is a directory: {outdir}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "data.csv", "outdir"]
        assert not any(outdir.iterdir())

    def test_sample(self, tmp_path, capsys):
        assert main(["sample", "--net", COLLIDER, "--n", "5",
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: output path is a directory: {tmp_path}\n")
        assert not any(tmp_path.iterdir())


class TestInputEdgeCases:
    def test_score_non_finite_ess(self, sampled_csv, capsys):
        assert main(["score", "--data", sampled_csv, "--net", COLLIDER,
                     "--ess", "nan"]) == 1
        assert "ess must be finite" in capsys.readouterr().err

    def test_non_utf8_data_file(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_bytes(b"a,b\n\xff,1\n")
        assert main(["learn", "--data", str(data),
                     "--out", str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {data}: not UTF-8 ('utf-8' codec can't decode "
            f"byte 0xff")

    def test_non_utf8_network_file(self, tmp_path, sampled_csv, capsys):
        net = tmp_path / "n.json"
        net.write_bytes(b'{"variables": ["\xff"]}')
        assert main(["score", "--data", sampled_csv, "--net", str(net)]) == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {net}: not UTF-8 ('utf-8' codec can't decode "
            f"byte 0xff")

    def test_byte_order_mark(self, tmp_path, gold8_csv):
        # A leading UTF-8 byte-order mark, as some spreadsheet programs
        # write, is not part of the first header name or of the JSON.
        bom_csv, bom_gold = tmp_path / "bom.csv", tmp_path / "bom.json"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + Path(gold8_csv).read_bytes())
        bom_gold.write_bytes(b"\xef\xbb\xbf" + Path(GOLD8).read_bytes())
        outs = []
        for i, (data, gold) in enumerate([(gold8_csv, GOLD8),
                                          (bom_csv, bom_gold)]):
            learned, sampled = tmp_path / f"l{i}.json", tmp_path / f"s{i}.csv"
            assert main(["learn", "--data", str(data), "--gold", str(gold),
                         "--out", str(learned)]) == 0
            assert main(["sample", "--net", str(gold), "--n", "20",
                         "--out", str(sampled)]) == 0
            outs.append((learned.read_bytes(), sampled.read_bytes()))
        assert outs[0] == outs[1]

    def test_field_over_csv_limit(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b\n1,2\n3," + "x" * (csv.field_size_limit() + 1)
                        + "\n", encoding="utf-8")
        assert main(["learn", "--data", str(data),
                     "--out", str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err == (
            f"data error: {data}:3: field larger than field limit "
            f"({csv.field_size_limit()})\n")

    def test_header_only_learns_empty_graph(self, tmp_path, capsys):
        data, out = tmp_path / "d.csv", tmp_path / "out.json"
        data.write_text("a,b\n", encoding="utf-8")
        assert main(["learn", "--data", str(data), "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["edges"] == {"arcs": [], "links": []}
        assert main(["score", "--data", str(data), "--net", str(out)]) == 0
        assert last_row(capsys) == ["0.00000", "0.00000", "0.00000", "0"]
        report = tmp_path / "report.json"
        assert main(["learn", "--data", str(data), "--out", str(out),
                     "--report", str(report)]) == 0
        assert type(json.loads(report.read_text())["KL"]) is float

    def test_header_without_fields(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("\n", encoding="utf-8")
        assert main(["learn", "--data", str(data),
                     "--out", str(tmp_path / "out.json")]) == 2
        assert "d.csv: header has no fields" in capsys.readouterr().err


class TestCensus:
    def test_three_nodes(self, capsys):
        rc = main(["census", "--n", "3"])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[0:3] == ["3", "25", "11"]
        assert row[-1] == "yes"

    def test_out_of_range(self):
        assert main(["census", "--n", "9"]) == 1


class TestInternalError:
    """Exit 3 means a broken invariant, which no input should reach; a
    patched failure stands in for one."""

    def test_graph_error_from_learn(self, monkeypatch, tmp_path, sampled_csv,
                                    capsys):
        def broken(*args, **kwargs):
            raise GraphError("cascade left a node with a parent and a link")

        monkeypatch.setattr(cli, "greedy_search", broken)
        assert main(["learn", "--data", sampled_csv,
                     "--out", str(tmp_path / "out.json")]) == 3
        assert capsys.readouterr().err == (
            "internal error: cascade left a node with a parent and a link\n")
        assert not (tmp_path / "out.json").exists()

    def test_census_partition_violated(self, monkeypatch, capsys):
        monkeypatch.setattr(PartialDag, "count_extensions", lambda g: 0)
        assert main(["census", "--n", "3"]) == 3
        out, err = capsys.readouterr()
        assert out.splitlines()[1].split()[-1] == "no"
        assert err == "internal error: partition properties violated\n"


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument(self):
        assert main(["learn", "--data", "x.csv"]) == 1

    @pytest.mark.parametrize("command", [
        ["learn", "--ess", "-1"],
        ["learn", "--ess", "0"],
        ["learn", "--strategy", "tabu", "--tabu-iters", "0"],
        ["learn", "--strategy", "tabu", "--tabu-len", "-1"],
        # Greedy takes no tabu option, in range or not.
        ["learn", "--tabu-iters", "0"],
        ["learn", "--tabu-len", "-5"],
        ["learn", "--tabu-iters", "3"],
        ["learn", "--space", "dag", "--strategy", "greedy", "--tabu-len", "2"],
        # Past a C ssize_t: no run could finish, and deque would overflow.
        ["learn", "--strategy", "tabu", "--tabu-len", "100000000000000000000",
         "--tabu-iters", "100000000000000000000"],
        ["sample", "--n", "-3"],
        # Bounded tabu runs, so a learner that took a NaN ess, or an ess
        # whose BDeu scores are not finite, would finish (greedy would
        # never stop) and fail the test.
        ["learn", "--ess", "nan", "--strategy", "tabu", "--tabu-iters", "1"],
        ["learn", "--ess", "1e308", "--strategy", "tabu", "--tabu-iters", "1"],
        ["learn", "--ess", "1e-320", "--strategy", "tabu",
         "--tabu-iters", "1"],
    ])
    def test_out_of_range_option_values(self, tmp_path, sampled_csv,
                                        capsys, command):
        out = ["--out", str(tmp_path / "out")]
        inputs = (["--data", sampled_csv] if command[0] == "learn"
                  else ["--net", COLLIDER])
        assert main([*command, *inputs, *out]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()
