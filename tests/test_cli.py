import json
from importlib.resources import files

import pytest

from rpdaglearn.cli import main

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
    doc = json.loads(open(GOLD8, encoding="utf-8").read())
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

    @pytest.mark.parametrize("space", ["rpdag", "dag"])
    def test_tabu_options_pass_through(self, tmp_path, gold8_csv, space):
        report = tmp_path / "report.json"
        argv = ["learn", "--data", gold8_csv, "--space", space,
                "--strategy", "tabu", "--out", str(tmp_path / "l.json"),
                "--report", str(report)]
        assert main([*argv, "--tabu-iters", "5"]) == 0
        assert json.loads(report.read_text())["Iter"] == 5
        assert main([*argv, "--tabu-iters", "5", "--tabu-len", "0"]) == 0

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


class TestCensus:
    def test_three_nodes(self, capsys):
        rc = main(["census", "--n", "3"])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[0:3] == ["3", "25", "11"]
        assert row[-1] == "yes"

    def test_out_of_range(self):
        assert main(["census", "--n", "9"]) == 1


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
        ["sample", "--n", "-3"],
    ])
    def test_out_of_range_option_values(self, tmp_path, sampled_csv,
                                        capsys, command):
        out = ["--out", str(tmp_path / "out")]
        inputs = (["--data", sampled_csv] if command[0] == "learn"
                  else ["--net", COLLIDER])
        assert main([*command, *inputs, *out]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()
