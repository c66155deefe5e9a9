import csv
import json
import time

import pytest

from knotrank import _tangle, cli, parse_report_jsonl
from knotrank.cli import main
from knotrank.corpus import load_corpus
from knotrank.diagram import format_diagram_file
from knotrank.khovanov import KnotScan, ResourceLimit


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


def test_jones_command_contracts_each_knot_once(small_file, capsys, monkeypatch):
    # the determinant column is read from the row's Jones polynomial, so
    # each knot's crossings are attached once: one CrossingStep apiece
    calls = []

    def counted(d, *args):
        calls.append(d.name)
        return step(d, *args)

    step = _tangle.CrossingStep
    monkeypatch.setattr(_tangle, "CrossingStep", counted)
    assert main(["jones", small_file]) == 0
    assert calls == ["3_1"] * 3 + ["6_1"] * 6 + ["hopf"] * 2
    assert capsys.readouterr().out.splitlines()[1].split("\t")[2] == "3"


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


@pytest.mark.parametrize("option, message", (
    (["--twists", "2"], "twist total 2 is even"),
    (["--twists", "1,x"], "invalid literal for int()"),
    (["--twists", ""], "invalid literal for int()"),
    (["--crossings", "2"], "'2' is below 3"),
    (["--count", "-1"], "'-1' is below 0"),
), ids=("even-twist-total", "twist-not-an-int", "no-twists", "crossings-2",
        "negative-count"))
def test_symunion_gen_bad_option_is_a_usage_error(tmp_path, capsys, option,
                                                  message):
    # an even twist total makes every union a link, so the generator would
    # retry forever; a twist spec that is not a list of ints or fewer than
    # 3 crossings ended in a traceback, and a negative count printed nothing
    out = tmp_path / "su.txt"
    with pytest.raises(SystemExit) as exc:
        main(["symunion", "gen", *option, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage:" in captured.err
    assert message in captured.err
    assert not out.exists()


def test_scan_without_fields_is_a_usage_error(small_file, tmp_path, capsys):
    # "--fields ," named no field and wrote records with a vacuous
    # flag_c12_mod4: true
    out = tmp_path / "r.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--input", small_file, "--fields", ",", "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "names no field" in captured.err
    assert not out.exists()


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


def test_scan_nonpositive_label_is_one_error_record(tmp_path):
    # a label that is not positive fails Diagram's own check; the line is
    # one error record and the next line is still reported
    path = tmp_path / "two.txt"
    path.write_text(f"z\t[[0,2,1,1]]\n3_1\t{load_corpus()['3_1'].pd_text}\n")
    out = tmp_path / "r.jsonl"
    assert main(["scan", "--input", str(path), "--fields", "f2",
                 "--out", str(out)]) == 2
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r.get("name") for r in records[:2]] == ["z", "3_1"]
    assert records[0]["error"] == \
        "InvalidDiagram: crossing 0: edge labels must be positive, got 0"
    assert "error" not in records[1] and records[1]["det"] == 3
    assert records[2]["summary"]["aborted"] == 1


@pytest.mark.parametrize("bad", ("[[1,4,2,5],[3,6,4,1],[5,2,6,\u00b2]]".encode(),
                                 b"[[1,4,2,5],[3,6,4,1],[5,2,6," + b"3" * 5000 + b"]]",
                                 b"[[1,\xff]]"),
                         ids=("superscript-digit", "label-past-int-limit",
                              "not-utf-8"))
def test_unconvertible_digits_are_one_error_record(tmp_path, capsys, bad):
    # a character that str.isdigit() accepts but int() does not, a label
    # longer than int() converts, or a byte that is not UTF-8, is an error
    # for its own line only
    c = load_corpus()
    path = tmp_path / "three.txt"
    path.write_bytes(f"3_1\t{c['3_1'].pd_text}\n".encode() + b"bad\t" + bad
                     + f"\n6_1\t{c['6_1'].pd_text}\n".encode())
    out = tmp_path / "r.jsonl"
    assert main(["scan", "--input", str(path), "--fields", "f2",
                 "--out", str(out)]) == 2
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r.get("name") for r in records[:3]] == ["3_1", "bad", "6_1"]
    assert records[1]["error"].startswith("InvalidDiagram: ")
    assert "error" not in records[0] and "error" not in records[2]
    capsys.readouterr()
    assert main(["jones", str(path)]) == 2
    rows = capsys.readouterr().out.splitlines()
    assert [row.split("\t")[0] for row in rows] == ["3_1", "bad", "6_1"]
    assert rows[1] == "bad\t-\t-\t-"


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


def test_engine_error_keeps_the_others(small_file, capsys, monkeypatch):
    # an engine invariant that fails inside one knot's scan prints one error
    # row, and the knots after it still report
    run = KnotScan.run

    def broken(knot_scan):
        if knot_scan.diagram.name == "3_1":
            raise AssertionError("bad component: chi=0 boundary=1")
        return run(knot_scan)

    assert main(["kh", small_file, "--unreduced"]) == 0
    plain = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(KnotScan, "run", broken)
    assert main(["kh", small_file, "--unreduced"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [plain[0], "3_1\t-\t-\t-\t-", *plain[2:]]
    assert captured.err == "3_1\terror: bad component: chi=0 boundary=1\n"


@pytest.mark.parametrize("command", ("jones", "alexander", "arf", "kh"))
def test_virtual_knot_is_an_error_row(tmp_path, capsys, command):
    # the virtual trefoil keeps the label rule but is not planar: validation
    # rejects it, so no command prints it as a knot (it read as the unknot)
    c = load_corpus()
    path = tmp_path / "virtual.txt"
    path.write_text(f"3_1\t{c['3_1'].pd_text}\nvt\t[[1,3,2,4],[2,1,3,4]]\n"
                    f"4_1\t{c['4_1'].pd_text}\n")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    rows = captured.out.splitlines()
    assert [row.split("\t")[0] for row in rows] == ["3_1", "vt", "4_1"]
    assert rows[1] == "vt" + "\t-" * (4 if command == "kh" else 3)
    assert captured.err.startswith("vt\terror: the rotation system has genus 1")


def test_kh_resource_limit_keeps_the_others(small_file, capsys, monkeypatch):
    # a scan over its budget or deadline prints one error row, not a traceback
    ranks = cli.khovanov_ranks

    def limited(knot_scan, *args, **kwargs):
        if knot_scan.diagram.name == "3_1":
            raise ResourceLimit("scan deadline exceeded")
        return ranks(knot_scan, *args, **kwargs)

    assert main(["kh", small_file, "--unreduced"]) == 0
    plain = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(cli, "khovanov_ranks", limited)
    assert main(["kh", small_file, "--unreduced"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [plain[0], "3_1\t-\t-\t-\t-", *plain[2:]]
    assert captured.err == "3_1\terror: scan deadline exceeded\n"


@pytest.mark.parametrize("command", (["kh", "{file}", "--field", "f4"],
                                     ["scan", "--input", "{file}", "--fields", "f4,q",
                                      "--out", "{out}"]),
                         ids=lambda c: c[0])
def test_bad_field_spec_is_a_usage_error(small_file, tmp_path, capsys, command):
    # a field spec that names no field stops the command before any knot
    # is read, with a usage message and exit code 2
    out = tmp_path / "r.jsonl"
    with pytest.raises(SystemExit) as exc:
        main([a.format(file=small_file, out=out) for a in command])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage:" in captured.err
    assert "4 is not prime" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("spec", ("f1111111111111111111", "f" + "9" * 400),
                         ids=("19-digit-prime", "400-digits"))
def test_huge_field_spec_is_a_usage_error(small_file, capsys, spec):
    # a characteristic of 2^31 or more is refused before any arithmetic
    # on it, so neither a primality test nor a float overflow runs
    t0 = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        main(["kh", small_file, "--field", spec])
    assert exc.value.code == 2 and time.monotonic() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == "" and "prime below 2^31" in captured.err


def test_largest_field_spec_is_accepted(small_file, capsys):
    # 2^31 - 1 is prime; these knots have no torsion, so it reads as q
    main(["kh", small_file, "--field", "q"])
    over_q = capsys.readouterr().out
    main(["kh", small_file, "--field", "f2147483647"])
    assert capsys.readouterr().out == over_q


@pytest.mark.parametrize("option", (["--timeout", "0"], ["--timeout", "-1"],
                                    ["--max-generators", "-5"],
                                    ["--max-generators", "0"], ["--jobs", "0"]),
                         ids=" ".join)
def test_scan_limit_must_be_positive(small_file, tmp_path, capsys, option):
    # a limit that is not positive is a usage error, not a deadline or
    # budget that turns every knot into an error record
    out = tmp_path / "r.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--input", small_file, *option, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage:" in captured.err
    assert "is not positive" in captured.err
    assert not out.exists()


def _scan(small_file, tmp_path, fmt, *options) -> str:
    out = tmp_path / f"r.{fmt}"
    main(["scan", "--input", small_file, "--fields", "f3", "--format", fmt,
          *options, "--out", str(out)])
    return out.read_text()


def test_scan_csv_joins_list_columns(small_file, tmp_path):
    # a list value, the deformed torsion orders, is one ';'-joined CSV cell
    records, _ = parse_report_jsonl(_scan(small_file, tmp_path, "jsonl", "--deformed"))
    text = _scan(small_file, tmp_path, "csv", "--deformed")
    rows = list(csv.DictReader(l for l in text.splitlines() if not l.startswith("#")))
    assert [r["name"] for r in rows] == [r["name"] for r in records]
    assert rows[2]["name"] == "6_1" and rows[2]["deformed_f3_torsion"] == "1;1;1;1"
    for row, rec in zip(rows, records):
        joined = ";".join(str(a) for a in rec.get("deformed_f3_torsion", ()))
        assert row["deformed_f3_torsion"] == joined


def test_scan_timings_column(small_file, tmp_path):
    # --timings appends time_ms to every record; without it the report is
    # byte-identical from run to run
    plain = _scan(small_file, tmp_path, "jsonl")
    assert _scan(small_file, tmp_path, "jsonl") == plain
    timed, _ = parse_report_jsonl(_scan(small_file, tmp_path, "jsonl", "--timings"))
    assert all(list(rec)[-1] == "time_ms" and rec.pop("time_ms") >= 0 for rec in timed)
    assert timed == parse_report_jsonl(plain)[0]
    assert "time_ms" in _scan(small_file, tmp_path, "csv", "--timings").splitlines()[0]
    assert "time_ms" not in _scan(small_file, tmp_path, "csv")
