import json

import pytest

from knotrank.cli import main
from knotrank.corpus import load_corpus
from knotrank.diagram import format_diagram_file


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    c = load_corpus()
    path = tmp_path_factory.mktemp("cli") / "small.txt"
    path.write_text(format_diagram_file(
        [c["unknot"], c["3_1"], c["6_1"], c["hopf"]]))
    return str(path)


def test_jones_command(small_file, capsys):
    assert main(["jones", small_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].startswith("3_1\t-1*q^-8+1*q^-6+1*q^-2\t3\t-1")
    assert lines[3].split("\t")[3] == "0"    # Hopf: V(i) = 0


def test_alexander_command(small_file, capsys):
    assert main(["alexander", small_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[2].split("\t") == ["6_1", "-2*t^-1+5*t^0+-2*t^1", "9", "-2"]
    assert lines[3] == "hopf\t-\t-\t-"


def test_arf_command(small_file, capsys):
    assert main(["arf", small_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].startswith("3_1\t1\t")
    assert lines[1].endswith("True")


def test_kh_command(small_file, capsys):
    rc = main(["kh", small_file, "--field", "f3"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 2   # the Hopf link cannot be reduced
    assert out[2].split("\t")[1] == "9"
    table = json.loads(out[2].split("\t")[4])
    assert table["0,0"] == 2


def test_kh_unreduced_links(small_file, capsys):
    rc = main(["kh", small_file, "--field", "q", "--unreduced"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out[3].split("\t")[1] == "4"      # Hopf unreduced rank


def test_kh_deformed(small_file, capsys):
    rc = main(["kh", small_file, "--field", "f3", "--deformed"])
    out = capsys.readouterr().out.strip().splitlines()
    assert out[2].split("\t")[5:] == ["1", "1,1,1,1", "1"]


def test_symunion_gen_and_scan(tmp_path, capsys):
    su_path = tmp_path / "su.txt"
    assert main(["symunion", "gen", "--seed", "9", "--count", "2",
                 "--crossings", "5", "--twists", "1", "--out", str(su_path)]) == 0
    report_path = tmp_path / "report.jsonl"
    rc = main(["scan", "--input", str(su_path), "--fields", "f2,f3",
               "--out", str(report_path)])
    assert rc == 0
    lines = report_path.read_text().strip().splitlines()
    assert len(lines) == 3   # two knots + summary
    rec = json.loads(lines[0])
    assert rec["flag_levine"] is True


def test_scan_timeout_exit_code(tmp_path):
    c = load_corpus()
    path = tmp_path / "big.txt"
    path.write_text(format_diagram_file([c["18nh_00159590"]]))
    rc = main(["scan", "--input", str(path), "--fields", "f2",
               "--max-generators", "40", "--out", str(tmp_path / "r.jsonl")])
    assert rc == 2


def test_scan_malformed_line_is_one_error_record(tmp_path):
    # a line that does not parse gets an error record in its place; the
    # knots around it are still reported, identically for any --jobs
    c = load_corpus()
    path = tmp_path / "three.txt"
    path.write_text(f"3_1\t{c['3_1'].pd_text}\nbad\t[[1,2,3]\n"
                    f"6_1\t{c['6_1'].pd_text}\n")
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"r{jobs}.jsonl"
        assert main(["scan", "--input", str(path), "--fields", "f2",
                     "--jobs", jobs, "--out", str(out)]) == 2
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    records = [json.loads(line) for line in outs[0].decode().splitlines()]
    assert [r.get("name") for r in records[:3]] == ["3_1", "bad", "6_1"]
    assert records[1]["error"].startswith("InvalidDiagram: ")
    assert "error" not in records[0] and "error" not in records[2]
    assert records[3]["summary"]["aborted"] == 1


@pytest.mark.parametrize("command", (["jones"], ["alexander"], ["arf"],
                                     ["kh", "--field", "f3"]),
                         ids=lambda c: c[0])
def test_malformed_line_keeps_the_others(tmp_path, capsys, command):
    # a line that does not parse prints its error and a placeholder row in
    # its place; the lines around it print as they do on their own
    c = load_corpus()
    good = tmp_path / "good.txt"
    good.write_text(f"3_1\t{c['3_1'].pd_text}\n4_1\t{c['4_1'].pd_text}\n")
    mixed = tmp_path / "mixed.txt"
    mixed.write_text(f"3_1\t{c['3_1'].pd_text}\nbad\t[[1,2,3]]\n"
                     f"4_1\t{c['4_1'].pd_text}\n")
    assert main([command[0], str(good), *command[1:]]) == 0
    first, last = capsys.readouterr().out.splitlines()
    assert main([command[0], str(mixed), *command[1:]]) == 2
    captured = capsys.readouterr()
    dashes = 4 if command[0] == "kh" else 3
    assert captured.out.splitlines() == [first, "bad" + "\t-" * dashes, last]
    assert captured.err.startswith("bad\terror: ")
