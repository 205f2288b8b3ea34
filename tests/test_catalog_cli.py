"""Catalog serialization, reports, and the command-line front end."""

import json

from modk3 import catalog, cli
from modk3.errors import IncompleteCatalog, ParseError, ValidationError
from modk3.generate import EnumerationConstraints


def tf_records(n):
    return catalog.enumerate_records(
        EnumerationConstraints(index=n, torsion_free=True, genus_filter=0))


def k6_records():
    return catalog.add_lift_fields(catalog.expand_records(tf_records(6)))


def test_ids_and_field_order():
    recs = tf_records(6)
    assert [r.id for r in recs] == ["4,1,1-A", "2,2,2-A"]
    obj = json.loads(catalog.record_to_json(recs[0]))
    assert list(obj) == list(catalog.FIELDS)
    assert obj["assignment"] == {"white": 0, "black": 0}
    assert obj["lift_one_to_one"] is None


def test_letter_suffixes():
    want = {0: "A", 25: "Z", 26: "AA", 51: "AZ", 52: "BA", 701: "ZZ", 702: "AAA"}
    for i, s in want.items():
        assert catalog._letters(i) == s


def test_duplicate_partitions_get_distinct_ids():
    recs = tf_records(18)
    ids = [r.id for r in recs if r.id.startswith("7,7,2,1,1")]
    assert ids == ["7,7,2,1,1-A", "7,7,2,1,1-B"]
    assert len({r.id for r in recs}) == len(recs)


def test_round_trip_byte_identical_tf24(tmp_path):
    recs = tf_records(24)
    first = tmp_path / "tf24.jsonl"
    second = tmp_path / "tf24b.jsonl"
    catalog.write_records(first, recs)
    catalog.write_records(second, catalog.read_records(first))
    assert first.read_bytes() == second.read_bytes()
    assert len(catalog.read_records(second)) == 191


def test_strict_rejects_unknown_field(tmp_path):
    recs = k6_records()
    path = tmp_path / "k6.jsonl"
    obj = json.loads(catalog.record_to_json(recs[0]))
    obj["color"] = "red"
    lines = [catalog.record_to_json(r) for r in recs]
    lines[0] = json.dumps(obj, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        catalog.read_records(path)
        assert False, "strict mode accepted an unknown field"
    except ParseError as exc:
        assert "line 1" in str(exc) and "color" in str(exc)


def test_parse_errors_carry_line_numbers(tmp_path):
    recs = k6_records()
    good = [catalog.record_to_json(r) for r in recs[:3]]

    path = tmp_path / "bad_json.jsonl"
    path.write_text(good[0] + "\n" + good[1] + "\n{oops\n", encoding="utf-8")
    try:
        catalog.read_records(path)
        assert False
    except ParseError as exc:
        assert "line 3" in str(exc)

    obj = json.loads(good[1])
    del obj["aut_order"]
    path = tmp_path / "missing.jsonl"
    path.write_text(good[0] + "\n" + json.dumps(obj) + "\n", encoding="utf-8")
    try:
        catalog.read_records(path)
        assert False
    except ParseError as exc:
        assert "line 2" in str(exc) and "aut_order" in str(exc)

    obj = json.loads(good[0])
    obj["index"] = "six"
    path = tmp_path / "typed.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    try:
        catalog.read_records(path)
        assert False
    except ParseError as exc:
        assert "line 1" in str(exc) and "index" in str(exc)

    path = tmp_path / "not_object.jsonl"
    path.write_text("[1,2,3]\n", encoding="utf-8")
    try:
        catalog.read_records(path)
        assert False
    except ParseError as exc:
        assert "not a JSON object" in str(exc)


def test_validation_failures(tmp_path):
    recs = k6_records()
    tf12 = tf_records(12)

    # index + 3 e2 + 2 e3 must equal the retraction index
    victim = next(r for r in recs if r.index == 4)  # (4;0,2,0,1), tf index 6
    obj = json.loads(catalog.record_to_json(victim))
    obj["tf_code"] = tf12[0].canonical_code
    path = tmp_path / "identity.jsonl"
    path.write_text(json.dumps(obj, separators=(",", ":")) + "\n",
                    encoding="utf-8")
    try:
        catalog.read_records(path)
        assert False, "index identity violation was accepted"
    except ValidationError as exc:
        assert "line 1" in str(exc) and "identity" in str(exc)

    # a denormalized field that disagrees with the code
    obj = json.loads(catalog.record_to_json(recs[-1]))
    obj["aut_order"] += 1
    path.write_text(json.dumps(obj, separators=(",", ":")) + "\n",
                    encoding="utf-8")
    try:
        catalog.read_records(path)
        assert False
    except ValidationError as exc:
        assert "aut_order" in str(exc)

    # assignment counts are tied to (e3, e2)
    obj = json.loads(catalog.record_to_json(recs[0]))
    obj["assignment"] = {"white": obj["assignment"]["white"] + 1,
                         "black": obj["assignment"]["black"]}
    path.write_text(json.dumps(obj, separators=(",", ":")) + "\n",
                    encoding="utf-8")
    try:
        catalog.read_records(path)
        assert False
    except ValidationError as exc:
        assert "assignment" in str(exc)

    # two_to_one is a yes/no count
    obj = json.loads(catalog.record_to_json(recs[0]))
    obj["lift_two_to_one"] = 2
    path.write_text(json.dumps(obj, separators=(",", ":")) + "\n",
                    encoding="utf-8")
    try:
        catalog.read_records(path)
        assert False
    except ValidationError:
        pass


def test_empty_file_is_empty_catalog(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert catalog.read_records(path) == []
    assert cli.main(["verify", "--in", str(path), "--samples", "5"]) == 0
    out = tmp_path / "still_empty.jsonl"
    assert cli.main(["lifts", "--in", str(path), "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_cli_pipeline(tmp_path, capsys):
    tf = tmp_path / "tf6.jsonl"
    k6 = tmp_path / "k6.jsonl"
    k6l = tmp_path / "k6_lifts.jsonl"
    assert cli.main(["enumerate", "--index", "6", "--torsion-free",
                     "--genus", "0", "--out", str(tf)]) == 0
    assert len(tf.read_text().splitlines()) == 2
    assert cli.main(["expand", "--in", str(tf), "--out", str(k6)]) == 0
    assert len(k6.read_text().splitlines()) == 6
    assert cli.main(["lifts", "--in", str(k6), "--out", str(k6l)]) == 0
    capsys.readouterr()
    assert cli.main(["report", "--in", str(k6l), "--table", "k6"]) == 0
    out = capsys.readouterr().out
    assert "classes 6  lifts 14" in out
    # expansion refuses records that still carry torsion
    assert cli.main(["expand", "--in", str(k6l)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError")


def test_cli_enumerate_stdout(capsys):
    assert cli.main(["enumerate", "--index", "6", "--torsion-free",
                     "--genus", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["index"] == 6 for line in lines)


def test_cli_report_totals_on_full_catalog(tmp_path, capsys, full_catalog):
    path = tmp_path / "full.jsonl"
    catalog.write_records(path, full_catalog())
    capsys.readouterr()
    assert cli.main(["report", "--in", str(path), "--table", "totals"]) == 0
    out = capsys.readouterr().out
    assert "3228" in out and "3411" in out


def test_totals_needs_every_stratum(full_catalog):
    recs = [r for r in full_catalog() if bytes.fromhex(r.tf_code)[0] != 6]
    try:
        catalog.report_totals(recs)
        assert False, "totals accepted a catalog missing a stratum"
    except IncompleteCatalog:
        pass


def test_reports_read_the_records(tmp_path, capsys):
    path = tmp_path / "k6.jsonl"
    catalog.write_records(path, k6_records())
    capsys.readouterr()
    assert cli.main(["report", "--in", str(path), "--table", "k6"]) == 0
    before = capsys.readouterr().out
    lines = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[0])
    obj["lift_one_to_one"] += 4
    lines[0] = json.dumps(obj, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["report", "--in", str(path), "--table", "k6"]) == 0
    after = capsys.readouterr().out
    assert before != after


def test_cli_usage_errors(tmp_path):
    for argv in (["enumerate"],
                 ["report", "--in", "x", "--table", "nope"],
                 ["frobnicate"],
                 []):
        try:
            cli.main(argv)
            assert False, f"usage error not raised for {argv}"
        except SystemExit as exc:
            assert exc.code == 2


def test_cli_missing_file(capsys):
    assert cli.main(["verify", "--in", "/no/such/catalog.jsonl"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError")
    assert len(err.strip().splitlines()) == 1


def test_export_dot(tmp_path, capsys):
    path = tmp_path / "k6.jsonl"
    catalog.write_records(path, k6_records())
    dot = tmp_path / "graph.dot"
    assert cli.main(["export-dot", "--in", str(path), "--id", "2,2,2-A",
                     "--out", str(dot)]) == 0
    text = dot.read_text(encoding="utf-8")
    assert text.startswith('graph "2,2,2-A"')
    assert text.count("shape=circle];") == 2          # white vertices
    assert text.count("style=filled") == 3            # black vertices
    assert text.count(" -- ") == 6                    # one per edge
    assert text.count('[label="2"]') == 6             # every face has width 2
    assert cli.main(["export-dot", "--in", str(path), "--id", "9,9-Q"]) == 1
    assert capsys.readouterr().err.startswith("error: ValidationError")


def test_export_dot_loops_label_width_one():
    recs = k6_records()
    dot = catalog.export_dot(recs, "4,1,1-A")
    assert dot.count('[label="1"]') == 2
    assert dot.count('[label="4"]') == 4


def test_enumerate_is_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for path in (a, b):
        assert cli.main(["enumerate", "--index", "12", "--torsion-free",
                         "--genus", "0", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ka = tmp_path / "ka.jsonl"
    kb = tmp_path / "kb.jsonl"
    assert cli.main(["expand", "--in", str(a), "--out", str(ka)]) == 0
    assert cli.main(["expand", "--in", str(b), "--out", str(kb)]) == 0
    assert ka.read_bytes() == kb.read_bytes()


def test_verify_catches_a_lie(tmp_path):
    recs = k6_records()
    recs[0].lift_one_to_one = -1
    try:
        catalog.verify_records(recs, samples=1)
        assert False
    except ValidationError:
        pass


def test_verify_cli_reports_counts(tmp_path, capsys):
    path = tmp_path / "k6.jsonl"
    catalog.write_records(path, k6_records())
    capsys.readouterr()
    assert cli.main(["verify", "--in", str(path), "--samples", "50"]) == 0
    out = capsys.readouterr().out
    assert "6 records" in out and "50 matrix samples" in out


def test_cli_enumerate_rejects_out_of_range_index(capsys):
    for index, err in (("0", "DomainError"), ("-3", "DomainError"),
                       ("256", "ResourceBound")):
        assert cli.main(["enumerate", "--index", index]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {err}: "), lines


def test_verify_cli_rederives_lift_counts(tmp_path, capsys):
    path = tmp_path / "k6.jsonl"
    catalog.write_records(path, k6_records())
    lines = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[0])
    obj["lift_one_to_one"] += 7
    lines[0] = json.dumps(obj, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["verify", "--in", str(path), "--samples", "5"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValidationError: ")
    assert "lift_one_to_one" in err[0]


def test_verify_cli_validates_each_record_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "k6.jsonl"
    catalog.write_records(path, k6_records())
    calls = []
    validate = catalog.validate_record
    monkeypatch.setattr(catalog, "validate_record",
                        lambda rec: calls.append(rec.id) or validate(rec))
    assert cli.main(["verify", "--in", str(path), "--samples", "5"]) == 0
    assert sorted(calls) == sorted(r.id for r in k6_records())
