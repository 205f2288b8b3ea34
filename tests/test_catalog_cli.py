"""Catalog serialization, reports, and the command-line front end."""

import gc
import hashlib
import importlib
import io
import json
import os
import pkgutil
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

import modk3
from modk3 import catalog, cli, hypermap, lifts, reports, torsion
from modk3.errors import IncompleteCatalog, ParseError, ValidationError
from modk3.hypermap import Hypermap, canonical_code, from_code, validate

from helpers import relabel


def tf_records(n):
    return catalog.enumerate_records(n, genus=0, torsion_free=True)


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

    # nesting past the recursion limit, and an integer past the digit limit
    for bad in ("[" * 100000, '{"index":' + "9" * 5000 + "}"):
        path = tmp_path / "unreadable.jsonl"
        path.write_text(good[0] + "\n" + bad + "\n", encoding="utf-8")
        try:
            catalog.read_records(path)
            assert False
        except ParseError as exc:
            assert str(exc).startswith("line 2: invalid JSON ("), exc


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
        assert "line 1" in str(exc) and "tf_code" in str(exc)

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

    # a torsion-free record is its own retraction: another tf class's code
    # in its tf_code is refused although the tf index still fits
    tf = [r for r in recs if r.e2 == r.e3 == 0]
    tf_obj = json.loads(catalog.record_to_json(tf[0]))
    tf_obj["tf_code"] = tf[1].canonical_code
    # a symmetric record claiming another divisor of n as its |Aut|
    sym = next(r for r in recs if r.aut_order > 1)
    sym_obj = json.loads(catalog.record_to_json(sym))
    sym_obj["aut_order"] = next(d for d in range(1, sym.index + 1)
                                if sym.index % d == 0 and d != sym.aut_order)
    for obj, name in ((tf_obj, "tf_code"), (sym_obj, "aut_order")):
        path.write_text(json.dumps(obj, separators=(",", ":")) + "\n",
                        encoding="utf-8")
        try:
            catalog.read_records(path)
            assert False, f"a tampered {name} was accepted"
        except ValidationError as exc:
            assert "line 1" in str(exc) and name in str(exc)

    # stored lift counts must be the ones the lift rules give
    for name, value in (("lift_two_to_one", 2), ("lift_one_to_one", -1)):
        obj = json.loads(catalog.record_to_json(recs[0]))
        obj[name] = value
        path.write_text(json.dumps(obj, separators=(",", ":")) + "\n",
                        encoding="utf-8")
        try:
            catalog.read_records(path)
            assert False, f"{name} = {value} was accepted"
        except ValidationError as exc:
            assert "line 1" in str(exc) and name in str(exc)


def relabelled_code(rec):
    """A code of rec's dessin under another labelling: not canonical."""
    h = from_code(bytes.fromhex(rec.canonical_code))
    for shift in range(1, h.n + 1):
        g = relabel(h, tuple(range(shift, h.n)) + tuple(range(shift)))
        code = bytes([g.n, *g.sigma, *g.alpha]).hex()
        if code != rec.canonical_code:
            return code
    raise AssertionError(f"no relabelling of {rec.id} moves its code")


def test_each_tampered_field_is_named_with_its_line(tmp_path, full_catalog):
    # a torsion-free record, one with e2 > 0 and one with e3 > 0, each with
    # hex letters in its code; every field but id gets a wrong value of the
    # right type, the code also an upper-case and a relabelled copy.  Each
    # is one ValidationError naming the line and that field
    picks = [next(r for r in full_catalog if test(r) and re.search(
                 "[a-f]", r.canonical_code))
             for test in (lambda r: not (r.e2 or r.e3), lambda r: r.e2 > 0,
                          lambda r: r.e2 == 0 and r.e3 > 0)]
    path = tmp_path / "tampered.jsonl"
    for rec in picks:
        first = next(r for r in full_catalog if r.tf_code != rec.tf_code)
        wrong = {
            "canonical_code": [rec.canonical_code.upper(), relabelled_code(rec)],
            "index": [rec.index + 1], "genus": [rec.genus + 1],
            "h": [rec.h + 1], "e2": [rec.e2 + 1], "e3": [rec.e3 + 1],
            "cusp_widths": [[rec.cusp_widths[0] + 1] + rec.cusp_widths[1:]],
            "aut_order": [rec.aut_order + 1],
            "loop_count": [rec.loop_count + 1], "tf_code": [first.tf_code],
            "assignment": [{"white": rec.e3 + 1, "black": rec.e2}],
            "lift_one_to_one": [rec.lift_one_to_one + 1],
            "lift_two_to_one": [rec.lift_two_to_one + 1],
        }
        assert list(wrong) == list(catalog.FIELDS[1:])
        for name, values in wrong.items():
            for value in values:
                obj = json.loads(catalog.record_to_json(rec))
                assert obj[name] != value
                obj[name] = value
                path.write_text(catalog.record_to_json(first) + "\n"
                                + json.dumps(obj) + "\n", encoding="utf-8")
                try:
                    catalog.read_records(path)
                    assert False, f"{rec.id}: {name} = {value!r} was accepted"
                except ValidationError as exc:
                    assert str(exc).startswith(
                        f"line 2: record {rec.id}: {name} is {value!r}, "
                        f"the code gives "), exc


def test_lift_counts_outside_the_k3_range_are_refused(tmp_path):
    # genus-1 classes are never K3 monodromy groups, so no lift count fits
    path = tmp_path / "tf12.jsonl"
    assert cli.main(["enumerate", "--index", "12", "--torsion-free",
                     "--out", str(path)]) == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if json.loads(line)["genus"] == 1)
    obj = json.loads(lines[i])
    obj["lift_one_to_one"], obj["lift_two_to_one"] = 0, 1
    lines[i] = json.dumps(obj, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    status, err = run_cli(["report", "--in", str(path), "--table", "tf-counts"])
    assert status == 1 and ERROR_LINE.fullmatch(err), err
    assert err.startswith(f"error: ValidationError: line {i + 1}: ")


def test_validation_refuses_a_tf_index_past_one_byte():
    # 80 triangles in a chain leave 82 alpha fixed points: the retraction
    # has 240 + 3 * 82 edges, more than a code's index byte can hold
    sigma, alpha = [], list(range(240))
    for t in range(80):
        sigma += [3 * t + 1, 3 * t + 2, 3 * t]
        if t:
            alpha[3 * t - 1], alpha[3 * t] = 3 * t, 3 * t - 1
    code = canonical_code(validate(Hypermap(sigma, alpha))).hex()
    rec = catalog.DessinRecord("chain", code, 240, 0, 1, 82, 0, [240], 1, 0,
                               "00", {"white": 0, "black": 82})
    try:
        catalog.validate_record(rec, {}, {})
        assert False, "a record past the tf index range was accepted"
    except ValidationError as exc:
        assert "does not rebuild a record" in str(exc)


def test_empty_file_is_empty_catalog(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert catalog.read_records(path) == []
    assert cli.main(["verify", "--in", str(path)]) == 0
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
    catalog.write_records(path, full_catalog)
    capsys.readouterr()
    assert cli.main(["report", "--in", str(path), "--table", "totals"]) == 0
    out = capsys.readouterr().out
    assert "3228" in out and "3411" in out


def test_totals_needs_every_stratum(full_catalog):
    recs = [r for r in full_catalog if bytes.fromhex(r.tf_code)[0] != 6]
    try:
        reports.report_totals(recs)
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
    path.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
    assert cli.main(["report", "--in", str(path), "--table", "k6"]) == 0
    assert capsys.readouterr().out != before
    # a stored lift count that the lift rules do not give is refused
    obj = json.loads(lines[0])
    obj["lift_one_to_one"] += 4
    lines[0] = json.dumps(obj, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["report", "--in", str(path), "--table", "k6"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: ValidationError: line 1: ")
    assert "lift_one_to_one" in err[0]


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


def test_export_dot_refuses_a_repeated_id(tmp_path, full_catalog):
    # the concatenated strata repeat some ids; 6-A is at index 12 and 18
    path = tmp_path / "full.jsonl"
    catalog.write_records(path, full_catalog)
    status, err = run_cli(["export-dot", "--in", str(path), "--id", "6-A"])
    assert (status, err) == (1, "error: ValidationError: id 6-A names 2 "
                                "records, so it does not pick one\n")
    assert run_cli(["export-dot", "--in", str(path), "--id", "4,1,1-A"]) == (0, "")


def test_export_dot_escapes_the_id(tmp_path):
    # ids are unchecked, so a quote or a backslash in one must not end the
    # DOT string it is written into
    path = tmp_path / "k6.jsonl"
    hostile = 'x" ; evil [label="y'
    recs = k6_records()
    catalog.write_records(path, [recs[0]._replace(id=hostile),
                                 recs[1]._replace(id="a\\")])
    records = catalog.read_records(path)
    widths = catalog._partition(recs[0])
    dot = catalog.export_dot(records, hostile)
    assert dot.startswith('graph "x\\" ; evil [label=\\"y" {\n'
                          f'  label="x\\" ; evil [label=\\"y  widths=({widths})";\n')
    dot = catalog.export_dot(records, "a\\")
    assert dot.startswith('graph "a\\\\" {\n')


def test_reports_of_lift_counts_need_a_file_that_lifts_wrote(
        tmp_path, full_catalog):
    # the k6, k12 and totals reports read the stored lift counts that the
    # read has proved, and name the command that adds them when there are none
    bare = [r._replace(lift_one_to_one=None, lift_two_to_one=None)
            for r in full_catalog]
    path = tmp_path / "no_lifts.jsonl"
    catalog.write_records(path, bare)
    for table in ("k6", "k12", "totals"):
        status, err = run_cli(["report", "--in", str(path), "--table", table])
        assert status == 1 and len(err.splitlines()) == 1, (table, err)
        assert err.startswith("error: IncompleteCatalog: record "), err
        assert "`modk3 lifts` adds them" in err, err


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


def test_verify_catches_a_lie(tmp_path, capsys):
    recs = k6_records()
    recs[0] = recs[0]._replace(lift_one_to_one=-1)
    path = tmp_path / "k6.jsonl"
    catalog.write_records(path, recs)
    capsys.readouterr()
    assert cli.main(["verify", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: ValidationError: line 1: "), lines
    assert "lift_one_to_one is -1" in lines[0], lines


def test_verify_cli_reports_counts(tmp_path, capsys):
    path = tmp_path / "k6.jsonl"
    catalog.write_records(path, k6_records())
    capsys.readouterr()
    assert cli.main(["verify", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "verified 6 records and 1000 matrix samples\n"


def test_only_star_orbit_lift_rules_call_automorphism_group(
        tmp_path, monkeypatch, full_catalog):
    # aut_order comes from the canonical walk, so the record build calls
    # automorphism_group nowhere and a read only where a lift rule counts
    # star orbits at a budget 4 - k - e3 >= 1: the 2 + 6 + 26 tf records
    # at k < 4 and the torsion records 3,1-A, 2-A and the four with k = 2,
    # e3 = 1; every namespace that binds the unchecked body counts, and
    # the public name (torsion's) calls hypermap's.  A split read calls it
    # in its forked child too, so each call appends a line to a file
    log = tmp_path / "calls.txt"
    group = hypermap._automorphism_group

    def counted(h):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return group(h)

    def calls():
        return len(log.read_text(encoding="utf-8").splitlines())

    for module in (hypermap, reports, lifts):
        monkeypatch.setattr(module, "_automorphism_group", counted)
    path = tmp_path / "k6_lifts.jsonl"
    catalog.write_records(path, k6_records())
    log.write_text("", encoding="utf-8")
    assert len(catalog.read_records(path)) == 6
    assert calls() == 4
    log.write_text("", encoding="utf-8")
    assert len(catalog.enumerate_records(12)) == 80
    assert calls() == 0
    catalog.write_records(path, full_catalog)
    assert len(catalog.read_records(path)) == 3228
    assert calls() == 40


def count_validate_calls(monkeypatch):
    """A list of the dessins validate is called on from now on, collected
    through every modk3 namespace that binds validate."""
    calls = []
    validate = hypermap.validate
    for info in pkgutil.iter_modules(modk3.__path__):
        module = importlib.import_module(f"modk3.{info.name}")
        if getattr(module, "validate", None) is validate:
            monkeypatch.setattr(module, "validate",
                                lambda h: calls.append(h) or validate(h))
    return calls


def test_read_validates_each_dessin_once(tmp_path, monkeypatch):
    # each record's dessin is validated once; its retraction is built from
    # that validated dessin and is not checked again
    path = tmp_path / "k6_lifts.jsonl"
    catalog.write_records(path, k6_records())
    calls = count_validate_calls(monkeypatch)
    assert len(catalog.read_records(path)) == 6
    assert len(calls) == 6


def test_cli_expand_validates_only_the_dessins_it_reads(tmp_path, monkeypatch):
    # expansion and substitution trust the read: the 6 index-12 tf classes
    # are validated once each, and the 28 classes built over them never
    path = tmp_path / "tf12.jsonl"
    catalog.write_records(path, tf_records(12))
    calls = count_validate_calls(monkeypatch)
    out = tmp_path / "k12.jsonl"
    assert run_cli(["expand", "--in", str(path), "--out", str(out)]) == (0, "")
    assert len(calls) == 6
    assert len(out.read_text(encoding="utf-8").splitlines()) == 28


def test_cli_expand_predicts_its_work_before_any_substitution(
        tmp_path, monkeypatch):
    # the two index-6 tf classes have 2 and 0 loops: 3^2 + 3^0 = 10
    # assignments, refused under a bound of 9 before any expansion
    def boom(*args):
        raise AssertionError("the expansion ran")

    path = tmp_path / "tf6.jsonl"
    catalog.write_records(path, tf_records(6))
    monkeypatch.setattr(catalog, "MAX_LEAVES", 9)
    monkeypatch.setattr(catalog, "expand_classes", boom)
    monkeypatch.setattr(torsion, "substitute", boom)
    out = tmp_path / "k6.jsonl"
    status, err = run_cli(["expand", "--in", str(path), "--out", str(out)])
    assert (status, err) == (1, "error: ResourceBound: expanding 2 records "
                                "tries 10 loop assignments, over the bound "
                                "of 9\n")
    assert not out.exists()


def test_cli_verify_refuses_negative_samples(tmp_path, capsys):
    # verify round-trips a fixed reports.SAMPLES matrices, so --samples is
    # no option: any count, negative or not, is a usage error
    path = tmp_path / "k6.jsonl"
    catalog.write_records(path, k6_records())
    for count in ("-5", "5"):
        try:
            cli.main(["verify", "--in", str(path), "--samples", count])
            assert False, f"verify took --samples {count}"
        except SystemExit as exc:
            assert exc.code == 2
        assert "unrecognized arguments: --samples" in capsys.readouterr().err


def test_cli_enumerate_refuses_negative_genus():
    status, err = run_cli(["enumerate", "--index", "6", "--genus", "-1"])
    assert status == 1
    assert re.fullmatch(r"error: DomainError: .*genus.*\n", err), err


def test_cli_enumerate_rejects_out_of_range_index(capsys):
    for index, err in (("0", "DomainError"), ("-3", "DomainError"),
                       ("256", "ResourceBound"), ("40", "ResourceBound"),
                       ("36 --torsion-free", "ResourceBound")):
        assert cli.main(["enumerate", "--index", *index.split()]) == 1
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
    assert cli.main(["verify", "--in", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValidationError: ")
    assert "lift_one_to_one" in err[0]


def k12_lift_records():
    return catalog.add_lift_fields(catalog.expand_records(tf_records(12)))


def non_minimal_tf_code(rec):
    """The least walk code of a candidate root of rec's retraction other
    than its tf code: it passes the isomorphism test, not canonicity."""
    h = torsion.tf_retract(from_code(bytes.fromhex(rec.canonical_code)))
    walks = {hypermap._root_code(h.sigma, h.alpha, root, None).hex()
             for root in hypermap._candidate_roots(h.sigma, h.alpha)}
    code = min(walks - {rec.tf_code})
    assert hypermap._is_walk_code(h, bytes.fromhex(code))
    return code


def watch_read_proofs(monkeypatch):
    """Lists that fill as a read runs: the retractions it makes, the
    (dessin, code) pairs it proves canonical and the dessins it walks."""
    retracts, proved, walked = [], [], []
    retract, ties, form = (catalog.tf_retract, catalog._canonical_ties,
                           catalog.canonical_form)
    monkeypatch.setattr(catalog, "tf_retract",
                        lambda h: retracts.append(retract(h)) or retracts[-1])
    monkeypatch.setattr(catalog, "_canonical_ties",
                        lambda h, code: proved.append((h, code)) or ties(h, code))
    monkeypatch.setattr(catalog, "canonical_form",
                        lambda h: walked.append(h) or form(h))
    return retracts, proved, walked


def read_proves_each_code_once(path, recs, monkeypatch):
    """Read path, the file of recs, and check its proofs: each torsion
    record is retracted once and its retraction only tested against the
    stored tf code; each distinct code, a record's own or a tf code, is
    proved canonical once against its own bytes, of the dessin that code
    decodes to; no canonical walk runs.  Returns the list of walks, which
    goes on filling."""
    retracts, proved, walked = watch_read_proofs(monkeypatch)
    assert len(catalog.read_records(path)) == len(recs)
    torsion_recs = [r for r in recs if r.e2 or r.e3]
    assert len(retracts) == len(torsion_recs)
    assert walked == []
    assert not any(h is r for h, _ in proved for r in retracts)
    assert all(h == from_code(code) for h, code in proved)
    assert sorted(code.hex() for _, code in proved) == sorted(
        {r.canonical_code for r in recs} | {r.tf_code for r in torsion_recs})
    return walked


def test_read_checks_each_tf_code_by_an_isomorphism_test(tmp_path, monkeypatch):
    # in file order the torsion records of a class come before its tf
    # record, so their tf code's proof serves it.  A canonical walk runs
    # only to name the code that a refused record should store
    recs = k12_lift_records()
    path = tmp_path / "k12_lifts.jsonl"
    catalog.write_records(path, recs)
    walked = read_proves_each_code_once(path, recs, monkeypatch)

    tf = next(r for r in recs if not (r.e2 or r.e3))
    h = from_code(bytes.fromhex(tf.canonical_code))
    g = relabel(h, tuple(reversed(range(h.n))))
    stored = bytes([g.n, *g.sigma, *g.alpha]).hex()
    assert stored != tf.canonical_code
    catalog.write_records(path, [tf._replace(canonical_code=stored)])
    try:
        catalog.read_records(path)
        assert False, "a relabelled code was accepted"
    except ValidationError as exc:
        assert str(exc) == (f"line 1: record {tf.id}: canonical_code is "
                            f"{stored!r}, the code gives {tf.canonical_code!r}")
    assert walked == [g]


def test_a_read_in_reversed_line_order_proves_each_code_once(tmp_path,
                                                              monkeypatch):
    # reversed, each tf record comes before the torsion records over it,
    # so its own proof serves their tf code
    recs = k12_lift_records()[::-1]
    path = tmp_path / "k12_reversed.jsonl"
    catalog.write_records(path, recs)
    read_proves_each_code_once(path, recs, monkeypatch)


def test_read_refuses_a_tf_code_that_is_not_canonical(tmp_path):
    # the walk code of a non-minimal root of the right retraction passes
    # the isomorphism test, so only the canonicity check refuses it: when
    # an earlier line of its class stores the canonical code, when a later
    # one does, and when none does.  An upper-case copy of the canonical
    # code is refused too, and so is the canonical tf code of another
    # class that an earlier line has already stored
    recs = k12_lift_records()
    classes = {}
    for i, r in enumerate(recs):
        if r.e2 or r.e3:
            classes.setdefault(r.tf_code, []).append(i)
    rows = max(classes.values(), key=len)
    tf_code = recs[rows[0]].tf_code
    other = non_minimal_tf_code(recs[rows[0]])
    vouched = next(code for code, seen in classes.items() if seen[0] < rows[-1]
                   and code != tf_code)
    path = tmp_path / "k12.jsonl"
    for tampered, stored in (([rows[1]], other), ([rows[0]], other),
                             (rows, other), ([rows[0]], tf_code.upper()),
                             ([rows[-1]], vouched)):
        lines = [catalog.record_to_json(r) for r in recs]
        for i in tampered:
            obj = json.loads(lines[i])
            obj["tf_code"] = stored
            lines[i] = json.dumps(obj, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        i = tampered[0]
        try:
            catalog.read_records(path)
            assert False, f"tf_code {stored} was accepted"
        except ValidationError as exc:
            assert str(exc) == (f"line {i + 1}: record {recs[i].id}: tf_code "
                                f"is {stored!r}, the code gives {tf_code!r}")


def test_verify_cli_validates_each_record_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "k6.jsonl"
    catalog.write_records(path, k6_records())
    calls = []
    validate = catalog.validate_record
    monkeypatch.setattr(catalog, "validate_record",
                        lambda rec, *args: calls.append(rec.id)
                        or validate(rec, *args))
    assert cli.main(["verify", "--in", str(path)]) == 0
    assert sorted(calls) == sorted(r.id for r in k6_records())


def run_cli(argv):
    """(exit status, stderr) of one in-process CLI call; stdout is dropped."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        status = cli.main(argv)
    return status, err.getvalue()


def test_a_refused_lifts_writes_no_file(tmp_path):
    # lifts replaces its list's entries in place and is refused at 6-C,
    # the seventh record; every count is made before --out is opened
    k6, out = tmp_path / "k6.jsonl", tmp_path / "out.jsonl"
    assert cli.main(["enumerate", "--index", "6", "--out", str(k6)]) == 0
    status, err = run_cli(["lifts", "--in", str(k6), "--out", str(out)])
    assert (status, err) == (1, "error: OutOfRange: genus 1 group is never "
                                "a K3 monodromy group\n")
    assert not out.exists()


ERROR_LINE = re.compile(r"error: (ParseError|ValidationError): line \d+: .*\n")


def relabelled_swap(records):
    """Lines of records where one record is replaced by a relabelled copy of
    another class over the same tf class, carrying its own lift counts."""
    lines = [catalog.record_to_json(r) for r in records]
    for i, a in enumerate(records):
        b = next((j for j, r in enumerate(records)
                  if r.tf_code == a.tf_code and r is not a), None)
        h = from_code(bytes.fromhex(a.canonical_code))
        g = relabel(h, tuple(reversed(range(h.n))))
        code = bytes([g.n, *g.sigma, *g.alpha]).hex()
        if b is not None and code != a.canonical_code:
            obj = json.loads(lines[i])
            obj["canonical_code"] = code
            lines[b] = json.dumps(obj, separators=(",", ":"))
            return lines
    raise AssertionError("no record has a non-canonical relabelling")


def test_cli_error_contract_on_tampered_lines(tmp_path, full_catalog):
    path = tmp_path / "tampered.jsonl"
    lines = [catalog.record_to_json(r) for r in full_catalog]
    i = next(i for i, line in enumerate(lines)
             if re.search(r'"canonical_code":"[0-9]*[a-f]', line))
    upper = json.loads(lines[i])
    upper["canonical_code"] = upper["canonical_code"].upper()
    empty = json.loads(lines[0])
    empty["canonical_code"] = "00"
    j = next(j for j, line in enumerate(lines) if '"id":"8-D"' in line)
    lie = json.loads(lines[j])
    lie["lift_one_to_one"] += 3
    cases = [("k6", relabelled_swap(k6_records()), "canonical_code"),
             ("totals", relabelled_swap(full_catalog), "canonical_code"),
             ("k6", [json.dumps(empty)] + lines[1:], "at least one edge"),
             ("totals", lines[:j] + [json.dumps(lie)] + lines[j + 1:],
              f"line {j + 1}: record 8-D: lift_one_to_one"),
             ("k6", lines[:i] + [json.dumps(upper)] + lines[i + 1:],
              "canonical_code")]
    for table, tampered, word in cases:
        path.write_text("\n".join(tampered) + "\n", encoding="utf-8")
        status, err = run_cli(["report", "--in", str(path), "--table", table])
        assert status == 1 and ERROR_LINE.fullmatch(err) and word in err, err
    # the upper-case code is still in the file
    status, err = run_cli(["verify", "--in", str(path)])
    assert status == 1 and len(err.splitlines()) == 1
    assert err.startswith(f"error: ValidationError: line {i + 1}: ")
    assert upper["id"] in err


def json_values(examples):
    """Any JSON value, plus the values that other lines store in the field."""
    leaves = (st.none() | st.booleans() | st.integers(-3, 30) | st.integers()
              | st.floats() | st.text(max_size=12) | st.sampled_from(examples))
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                        max_leaves=6)


def test_cli_error_contract_on_fuzzed_lines(tmp_path):
    path = tmp_path / "k6.jsonl"
    objs = [json.loads(catalog.record_to_json(r)) for r in k6_records()]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, len(objs) - 1), st.sampled_from(catalog.FIELDS),
           st.data())
    def check(i, name, data):
        obj = dict(objs[i])
        obj[name] = data.draw(json_values([o[name] for o in objs]))
        lines = [json.dumps(o) for o in objs]
        lines[i] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        status, err = run_cli(["report", "--in", str(path), "--table", "k6"])
        assert (status, err) == (0, "") or (
            status == 1 and ERROR_LINE.fullmatch(err)), (status, err)

    check()


def test_read_rejects_a_repeated_code(tmp_path):
    path = tmp_path / "twice.jsonl"
    lines = [catalog.record_to_json(r) for r in k6_records()]
    path.write_text("\n".join(lines + lines) + "\n", encoding="utf-8")
    try:
        catalog.read_records(path)
        assert False, "a repeated canonical code was accepted"
    except ParseError as exc:
        assert str(exc) == "line 7: canonical_code repeats line 1"
    for argv in (["verify"], ["report", "--table", "k6"]):
        status, err = run_cli(argv + ["--in", str(path)])
        assert (status, err) == (
            1, "error: ParseError: line 7: canonical_code repeats line 1\n")


def read_error(path):
    """(type name, text) of what read_records raises on path."""
    try:
        catalog.read_records(path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    raise AssertionError(f"{path} was accepted")


def with_a_wrong_lift(line):
    """The JSON line of a record with its 1:1 lift count off by 3."""
    obj = json.loads(line)
    obj["lift_one_to_one"] += 3
    return json.dumps(obj)


def exit_early_in_the_child(monkeypatch):
    """Make a split read's child end with os._exit(3) before it answers;
    returns the list of the sizes of the parts this process validates."""
    parent, part, parts = os.getpid(), catalog._first_failure, []

    def first_failure(records, *args):
        if os.getpid() != parent:
            os._exit(3)
        parts.append(len(records))
        return part(records, *args)

    monkeypatch.setattr(catalog, "_first_failure", first_failure)
    return parts


def test_a_split_read_raises_what_a_one_part_read_raises(
        tmp_path, monkeypatch, full_catalog):
    # a read of SPLIT_MIN records or more validates the second half of the
    # records it parsed in a forked child, and the earliest faulty line
    # still wins: a fault in either half, one in each, and a parse error
    # after or before a refused record, in either half.  The reference is
    # the same file read in one part; a child that ends before it answers
    # changes nothing, since this process then checks its half itself
    lines = [catalog.record_to_json(r) for r in full_catalog]
    assert len(lines) >= catalog.SPLIT_MIN

    def lie(i):
        return with_a_wrong_lift(lines[i])

    def cut(i):
        return lines[i][:-1]

    def repeat(i):
        return lines[0]

    early, late, mid = 500, len(lines) - 200, len(lines) // 2 + 100
    cases = [({early: lie}, "ValidationError", early),
             ({late: lie}, "ValidationError", late),
             ({early: lie, late: lie}, "ValidationError", early),
             ({early: lie, late: cut}, "ValidationError", early),
             ({early: lie, late: repeat}, "ValidationError", early),
             ({mid: lie, late: cut}, "ValidationError", mid),
             ({early: cut, late: lie}, "ParseError", early),
             ({early: repeat, late: lie}, "ParseError", early),
             ({mid: repeat}, "ParseError", mid)]
    splits = []
    forked = catalog._forked_first_failure
    monkeypatch.setattr(catalog, "_forked_first_failure",
                        lambda recs, *args: splits.append(len(recs))
                        or forked(recs, *args))
    path = tmp_path / "tampered.jsonl"
    for faults, kind, i in cases:
        tampered = list(lines)
        for j, fault in faults.items():
            tampered[j] = fault(j)
        path.write_text("\n".join(tampered) + "\n", encoding="utf-8")
        del splits[:]
        got = read_error(path)
        parsed = min((j for j, f in faults.items() if f is not lie),
                     default=len(lines))
        assert splits == [parsed], faults
        assert got[0] == kind and got[1].startswith(f"line {i + 1}: "), got
        with monkeypatch.context() as one_part:
            one_part.setattr(catalog, "SPLIT_MIN", len(lines) + 1)
            assert read_error(path) == got
        assert len(splits) == 1
        with monkeypatch.context() as early_exit:
            exit_early_in_the_child(early_exit)
            assert read_error(path) == got, faults
        assert splits == [parsed, parsed]
        assert_no_child_left()
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    recs = catalog.read_records(path)
    monkeypatch.setattr(catalog, "SPLIT_MIN", len(lines) + 1)
    assert [r._asdict() for r in recs] == [
        r._asdict() for r in catalog.read_records(path)]


def assert_no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a read left a child process")


def test_a_split_read_leaves_no_child_and_checks_what_its_child_did_not_pass(
        tmp_path, monkeypatch, full_catalog):
    # a passing read, one the parent's half refuses (the child is killed)
    # and one the child's half refuses each reap the child, which flushes
    # nothing of the command's output.  A child that ends before it
    # answers costs the read only time: this process validates the second
    # half itself and returns or raises what a one-part read does
    path = tmp_path / "full.jsonl"
    lines = [catalog.record_to_json(r) for r in full_catalog]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert len(catalog.read_records(path)) == len(lines)
    assert_no_child_left()
    for i in (10, len(lines) - 10):
        tampered = list(lines)
        tampered[i] = with_a_wrong_lift(lines[i])
        path.write_text("\n".join(tampered) + "\n", encoding="utf-8")
        kind, text = read_error(path)
        assert kind == "ValidationError" and text.startswith(f"line {i + 1}: ")
        assert_no_child_left()
    catalog.write_records(path, full_catalog)
    table = "".join(line + "\n" for line in reports.REPORTS["totals"](
        full_catalog))
    src = str(Path(modk3.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "modk3.cli", "report", "--in", str(path),
         "--table", "totals"], cwd=src, capture_output=True, text=True,
        timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (0, table, "")

    with monkeypatch.context() as one_part:
        one_part.setattr(catalog, "SPLIT_MIN", len(lines) + 1)
        want = [r._asdict() for r in catalog.read_records(path)]
    parts = exit_early_in_the_child(monkeypatch)
    assert [r._asdict() for r in catalog.read_records(path)] == want
    half = len(lines) // 2
    assert parts == [half, len(lines) - half]
    assert_no_child_left()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(["report", "--in", str(path), "--table", "totals"])
    assert (status, out.getvalue(), err.getvalue()) == (0, table, "")
    assert_no_child_left()
    tampered = list(lines)
    tampered[len(lines) - 10] = with_a_wrong_lift(lines[len(lines) - 10])
    path.write_text("\n".join(tampered) + "\n", encoding="utf-8")
    got = read_error(path)
    assert_no_child_left()
    monkeypatch.setattr(catalog, "SPLIT_MIN", len(lines) + 1)
    assert got == read_error(path)
    assert got[0] == "ValidationError", got


def test_a_split_read_kills_its_child_when_this_process_raises(
        tmp_path, monkeypatch, full_catalog):
    # an error in this process's half stops the wait: the child, which
    # would otherwise validate for a minute, is killed and reaped before
    # the error leaves the read
    path = tmp_path / "full.jsonl"
    catalog.write_records(path, full_catalog)
    parent, statuses = os.getpid(), []
    waitpid = os.waitpid

    def broken_half(*args):
        if os.getpid() != parent:
            time.sleep(60)
            os._exit(0)
        raise RuntimeError("this process's half broke")

    monkeypatch.setattr(catalog, "_first_failure", broken_half)
    monkeypatch.setattr(os, "waitpid", lambda *args: statuses.append(
        waitpid(*args)) or statuses[-1])
    start = time.monotonic()
    try:
        catalog.read_records(path)
        assert False, "a read whose own half raised returned"
    except RuntimeError as exc:
        assert str(exc) == "this process's half broke"
    assert time.monotonic() - start < 30
    assert len(statuses) == 1 and os.WIFSIGNALED(statuses[0][1])
    assert os.WTERMSIG(statuses[0][1]) == signal.SIGKILL
    assert_no_child_left()


def test_a_read_keeps_one_copy_of_each_repeated_value(tmp_path, full_catalog):
    # the census repeats its tf codes, widths and assignments: one read
    # hands out one object per distinct value, a second read its own
    path = tmp_path / "full.jsonl"
    catalog.write_records(path, full_catalog)
    first, second = catalog.read_records(path), catalog.read_records(path)
    for name, distinct in (("tf_code", 225), ("cusp_widths", 736),
                           ("assignment", 21)):
        values = [getattr(r, name) for r in first]
        assert len({json.dumps(v) for v in values}) == distinct
        assert len({id(v) for v in values}) == distinct, name
        assert not {id(v) for v in values} & {
            id(getattr(r, name)) for r in second}, name
    # the build shares within one expand_records call the same way
    k24 = [r for r in full_catalog if lifts.tf_index(r) == 24]
    for name in ("cusp_widths", "assignment"):
        values = [getattr(r, name) for r in k24]
        assert len({id(v) for v in values}) == len(
            {json.dumps(v) for v in values}), name


def test_commands_leave_their_records_unchanged(tmp_path, full_catalog):
    # records of one read share their lists and dicts, so a command that
    # wrote to one record's value would change others: commands only read
    path = tmp_path / "full.jsonl"
    catalog.write_records(path, full_catalog)
    recs = catalog.read_records(path)
    for report in catalog.REPORTS.values():
        report(recs)
    ids = [r.id for r in recs]
    for n in (6, 12, 18, 24):
        rec_id = next(r.id for r in recs
                      if lifts.tf_index(r) == n and ids.count(r.id) == 1)
        catalog.export_dot(recs, rec_id)
    catalog.verify_records(recs)
    lifts.totals(recs)
    catalog.add_lift_fields(recs)
    fresh = catalog.read_records(path)
    assert len(recs) == len(fresh)
    for rec, want in zip(recs, fresh):
        assert rec._asdict() == want._asdict()


def test_a_read_keeps_at_most_600_bytes_a_record(tmp_path, full_catalog):
    # the records of a read share their repeated values; a read that copied
    # them again would keep about 900 bytes a record
    path = tmp_path / "full.jsonl"
    catalog.write_records(path, full_catalog)
    catalog.read_records(path)          # first-call state is not the read's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        recs = catalog.read_records(path)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 600 * len(recs), f"{kept / len(recs):.0f} bytes a record"


def test_expand_peaks_at_most_690_bytes_an_output_record():
    # ids and lift counts replace the entries of the list they are given,
    # so a build holds its records once; a second list of copies beside
    # the first would peak near 780 bytes a record
    tf = tf_records(24)
    catalog.expand_records(tf_records(6))   # first-call state is not the build's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        recs = catalog.expand_records(tf)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 690 * len(recs), f"{peak / len(recs):.0f} bytes a record"
    assert catalog.assign_ids(recs) is recs
    assert catalog.add_lift_fields(recs) is recs


def test_enumerate_records_walks_each_class_once(monkeypatch):
    # the search keeps each class with its code and the roots that tie it,
    # which are |Aut|, so the build walks no class again: canonical_form
    # runs once per torsion class, on its retraction, and never on a tf one
    calls = []
    form = hypermap.canonical_form
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("modk3.")
                and getattr(module, "canonical_form", None) is form):
            monkeypatch.setattr(module, "canonical_form",
                                lambda h: calls.append(h) or form(h))
    recs = catalog.enumerate_records(12)
    assert len(calls) == sum(1 for r in recs if r.e2 or r.e3) == 69
    del calls[:]
    assert len(catalog.enumerate_records(24, genus=0, torsion_free=True)) == 191
    assert calls == []


def test_enumerate_peaks_at_most_750_bytes_a_record():
    # each record is built from its (code, |Aut|) pair while its dessin is
    # decoded, one at a time; a list of the decoded dessins beside the
    # records would peak near 880 bytes a record at index 17
    catalog.enumerate_records(6)       # first-call state is not the build's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        recs = catalog.enumerate_records(17)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(recs) == 1002
    assert peak <= 750 * len(recs), f"{peak / len(recs):.0f} bytes a record"


def test_reports_need_the_tf_record_of_each_class(tmp_path):
    tf = tmp_path / "tf12.jsonl"
    k12 = tmp_path / "k12.jsonl"
    assert cli.main(["enumerate", "--index", "12", "--torsion-free",
                     "--genus", "0", "--out", str(tf)]) == 0
    assert cli.main(["expand", "--in", str(tf), "--out", str(k12)]) == 0
    lines = [line for line in k12.read_text(encoding="utf-8").splitlines()
             if json.loads(line)["id"] != "9,1,1,1-A"]
    k12.write_text("\n".join(lines) + "\n", encoding="utf-8")
    status, err = run_cli(["report", "--in", str(k12), "--table", "k12"])
    assert status == 1 and len(err.splitlines()) == 1
    assert err.startswith("error: IncompleteCatalog: "), err
    k18 = catalog.expand_records(tf_records(18))
    try:
        reports.report_k18([r for r in k18 if r.id != "7,7,2,1,1-A"])
        assert False, "report_k18 accepted a class without its tf record"
    except IncompleteCatalog:
        pass


def test_k24_report_refuses_a_split_bucket(monkeypatch):
    mults = iter(range(1, 1000))
    monkeypatch.setattr(reports, "classes_over",
                        lambda *args: range(next(mults)))
    try:
        reports.report_k24(tf_records(24))
        assert False, "one symmetry bucket took two mult factors"
    except ValidationError as exc:
        assert "mult" in str(exc)


def test_full_catalog_is_the_concatenated_cli_files(tmp_path, full_catalog):
    parts = []
    for n in (6, 12, 18, 24):
        tf, k, kl = (tmp_path / f"{name}{n}.jsonl" for name in ("tf", "k", "kl"))
        assert cli.main(["enumerate", "--index", str(n), "--torsion-free",
                         "--genus", "0", "--out", str(tf)]) == 0
        assert cli.main(["expand", "--in", str(tf), "--out", str(k)]) == 0
        assert cli.main(["lifts", "--in", str(k), "--out", str(kl)]) == 0
        parts.append(kl.read_bytes())
    path = tmp_path / "api.jsonl"
    catalog.write_records(path, full_catalog)
    assert path.read_bytes() == b"".join(parts)


def golden_outputs(path, records, monkeypatch):
    """sha256 of (exit status, stdout, stderr) of each golden CLI case.

    The clean catalog at path is read once for real and the commands on
    it share that read, so the table costs about 1.5 s.  Every tampered
    file is read afresh and fails at its line.
    """
    def digest(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = cli.main(argv + ["--in", str(path)])
        text = json.dumps([status, out.getvalue(), err.getvalue()])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    got = {}
    read = catalog.read_records(path)
    with monkeypatch.context() as patch:
        patch.setattr(catalog, "read_records",
                      lambda _: read)
        for table in sorted(catalog.REPORTS):
            got[f"report {table}"] = digest(["report", "--table", table])
        got["verify"] = digest(["verify"])
        for rec_id in ("4,1,1-A", "10,10,1,1,1,1-A", "6-A"):
            got[f"export-dot {rec_id}"] = digest(["export-dot", "--id", rec_id])

    lines = [catalog.record_to_json(r) for r in records]

    def edited(i, **fields):
        obj = json.loads(lines[i])
        obj.update(fields)
        return lines[:i] + [json.dumps(obj)] + lines[i + 1:]

    upper = next(i for i, line in enumerate(lines)
                 if re.search(r'"canonical_code":"[0-9]*[a-f]', line))
    lie = next(i for i, r in enumerate(records) if r.id == "8-D")
    tors = next(i for i, r in enumerate(records)
                if (r.e2 or r.e3) and r.tf_code != r.tf_code.upper())
    cases = {
        "relabelled swap": (relabelled_swap(records), "totals"),
        "empty code": (edited(0, canonical_code="00"), "k6"),
        "lift lie": (edited(lie, lift_one_to_one=records[lie].lift_one_to_one + 3),
                     "totals"),
        "upper-case code": (edited(upper, canonical_code=records[upper]
                                   .canonical_code.upper()), "k6"),
        "non-minimal tf code": (edited(tors, tf_code=non_minimal_tf_code(
            records[tors])), "k12"),
        "upper-case tf code": (edited(tors, tf_code=records[tors]
                                      .tf_code.upper()), "k12"),
    }
    for name, (tampered, table) in cases.items():
        path.write_text("\n".join(tampered) + "\n", encoding="utf-8")
        got[name] = digest(["report", "--table", table])
    got["verify upper-case tf code"] = digest(["verify"])
    return got


# Each changes only by a deliberate change of the CLI output, declared in
# CHANGES.md.
GOLDEN = {
    "report k12":
        "eaf9805c4b80c9a9ab37cb0918c1d2acdc121ddbc727c603533412db5e025557",
    "report k18":
        "bddfb5e93f72681c03ca798b371567413271613076782071e290ca1ff03e2f83",
    "report k24":
        "5384d3c48e16c8b04b4376d2dbdb943e6d15f7c8ceabdf76a950769098c62629",
    "report k24sym":
        "651f939414fbb11b36e647066d6e9c28c4575a5ceefed76b015ebe85e2fc6256",
    "report k6":
        "f8e7592480c673c4036ee82113ded9815c1435f3aa04d921eccee890703b0a72",
    "report tf-counts":
        "829c3a4e362b70c82e51e73a31acdcb6cc623c0f12c706f66bac03b8add386f4",
    "report totals":
        "57437e9c00dd705e08f038837d41afc966fc5aa76beaf0dc494f89cc3916f195",
    "verify":
        "211db3ef8cd4cb1fc1bce21bbeb86210bbc5afb1326e4e8abe453ff1031d6747",
    "export-dot 4,1,1-A":
        "d6e1de5a1db1fa4e2ff02d16b45a8898785c9211b6f6ef4ffb92995e15bee7df",
    "export-dot 10,10,1,1,1,1-A":
        "aa88357a3620905bd406a35fe849523d80dd8a395b667c6dc62ad80835cee014",
    "export-dot 6-A":
        "6e6cb493fbeaf0ea31c04a503216e561c8dd84a7d7c8ad19b3f77ea2e7468fb8",
    "relabelled swap":
        "d006616f52fe2cff30330d40fa24f200834ffcd0c0c10fd3786328d107084c38",
    "empty code":
        "0ab859e781ceeae1580406d42315b00fc09e8afa0873679b4ad3c6b78d0b46d2",
    "lift lie":
        "60139e15950a4c9b9c730ac5a4db26ec87aa7671e43183e83c5c4777db178cc7",
    "upper-case code":
        "d75bd2401233a4e238240d5f519f6b8661e789e89f36e443d655c23596868919",
    "non-minimal tf code":
        "e5eaacc289f0a1e61f6df174546256fd7f7fbc86c3fb40719bb1e7ab759b9071",
    "upper-case tf code":
        "f46f5e2e3713fd6ce4fd7892a2b8af2278977cbd197ea8e7f955184e69a50835",
    "verify upper-case tf code":
        "f46f5e2e3713fd6ce4fd7892a2b8af2278977cbd197ea8e7f955184e69a50835",
}


def test_cli_output_matches_the_golden_table(tmp_path, full_catalog, monkeypatch):
    path = tmp_path / "full.jsonl"
    records = full_catalog
    catalog.write_records(path, records)
    assert golden_outputs(path, records, monkeypatch) == GOLDEN


def write_path_outputs(tmp_path):
    """sha256 of (exit status, stdout, stderr, file written) of each write
    command: enumerate -> expand -> lifts of the tf genus-0 stratum at
    6/12/18/24, and enumerate with no filter at 1..17 to stdout."""
    def digest(argv, out=None):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            status = cli.main(argv)
        written = None if out is None else out.read_text(encoding="utf-8")
        text = json.dumps([status, stdout.getvalue(), stderr.getvalue(), written])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    got = {}
    for n in (6, 12, 18, 24):
        tf, k, kl = (tmp_path / f"{name}{n}.jsonl" for name in ("tf", "k", "kl"))
        got[f"enumerate {n}"] = digest(
            ["enumerate", "--index", str(n), "--torsion-free", "--genus", "0",
             "--out", str(tf)], tf)
        got[f"expand {n}"] = digest(["expand", "--in", str(tf), "--out", str(k)], k)
        got[f"lifts {n}"] = digest(["lifts", "--in", str(k), "--out", str(kl)], kl)
    for n in range(1, 18):
        got[f"enumerate --index {n}"] = digest(["enumerate", "--index", str(n)])
    return got


# Computed before the automorphism group was built from the canonical
# walk; each changes only by a deliberate change of the CLI output.
WRITE_GOLDEN = {
    "enumerate 6":
        "5a41ee65e405b82862071b4319e0a809b771bb077f6a656f010c1e391efd57f2",
    "expand 6":
        "46819632e6561cf88b3924cda67c187d5c71c34a97b80811452dfd1b908b1f41",
    "lifts 6":
        "5ff7a73aa8d8b739a56c955839250f5e5d4295e9c545d9c5298c836838f45fae",
    "enumerate 12":
        "0853eaf6d949993a8e4b7a21392255f3a14339ad827d924ef92fc913441b0b7a",
    "expand 12":
        "346ca6107093257e32c468c7850654b3691e786aebe16578366e10ba5d255610",
    "lifts 12":
        "bd06b4cb6ebe1cd404145d8b8ca5af8935a177f000867abc55a590fcc42292d8",
    "enumerate 18":
        "32298a18eb2191aadddc092ba751fb650d5b78a331517b097a48c71ec8ef00d8",
    "expand 18":
        "dd25a059ef10bbb0f2bfb267c57108aed0505e000281e80acd55f1605cad54f4",
    "lifts 18":
        "771abb9e8165f44df2c90ce7eb4e934563c27ade43c4862623c52c239a5dfa4a",
    "enumerate 24":
        "5ca575357c0187959c9ab7b11dbdf661a1f94ea851f3d8064246014af82009a6",
    "expand 24":
        "e70ca48f97ebfa1188c3f30c1915e97d1ff9eb3d1583d2425f9fbe5e8e4a29a7",
    "lifts 24":
        "e7ab2a94577a2e12efdb4995255df32550ea3866a0801b724283b3672b4ef611",
    "enumerate --index 1":
        "d6784224dce8b8e453996240897fdfaa4998d608c94e32c1776ae7d6ae380f0c",
    "enumerate --index 2":
        "fcd78fb08937ac5b0249d988fb16290782e086f6e0bad2595fb31e61c7ab51c1",
    "enumerate --index 3":
        "55753a06695662a33118c6bc0c9faadcbb323c95e8ed0e8fcd296c6075b08b8e",
    "enumerate --index 4":
        "ec45789bcabfdbbe98f8b2f5847625240d054588296b3052f112885c457d24f8",
    "enumerate --index 5":
        "634c584526d642a5131466b3c8673d5b83bea492cad29b109924d3d89155a6bf",
    "enumerate --index 6":
        "953f9a840f320f8cae3587d51ed09be4c24a8876c0699617018b3fad415605bf",
    "enumerate --index 7":
        "291a9340ea31915cfba4dc576d6437980ce2b987bb2cddbe6dc7ee187d61e93b",
    "enumerate --index 8":
        "e0b9740a29b5f9418ffffccff1ad170047772acd0d8affe87429d76e53dffe82",
    "enumerate --index 9":
        "75f72305f5e2b3737a4d47fb96e80a544a9afe47abebeb4c157b941a17c0be52",
    "enumerate --index 10":
        "8a7796bf0b21cc61e17180287af5558fd915857b68cbfad530220a45670db792",
    "enumerate --index 11":
        "f1779aab37267caebdbd938e7d1e97f1bf60e5ea5eb72010b28dd2a7342201f1",
    "enumerate --index 12":
        "a178413a95e95374e08624195a26091fe3505f96d6a7301fccdb0df3253a7699",
    "enumerate --index 13":
        "f33ef77d8c8b9a3e460d57fc069fa8c51067f45f23238df77bdeab229f027d7f",
    "enumerate --index 14":
        "57ce2b9a12b1d45fc0a3d9c38d3f433eb5940fd30cace33010a0f034196e025e",
    "enumerate --index 15":
        "8ac325c04176c24bf3c3cd0a5a513525fe58c714b148ea664c0b3d6dd76015ee",
    "enumerate --index 16":
        "ea443e034a56c37fbe184b4767922666cd423fac46596519a68d54d50292444f",
    "enumerate --index 17":
        "9223ad07fbfd9979bf6f18935be93f26af84bd8572353278b9bf4a5836c988d6",
}


def test_cli_write_path_matches_the_golden_table(tmp_path):
    assert write_path_outputs(tmp_path) == WRITE_GOLDEN
