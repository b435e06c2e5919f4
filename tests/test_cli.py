"""End-to-end CLI tests: output formats, exit codes, error paths."""

import json
import re
import time

import pytest

from subcat import catalog, cli
from subcat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- catalog ----------------------------------------------------------------------


def test_catalog_a2_table(capsys):
    code, out, _ = run(capsys, "catalog", "--builtin", "a2")
    assert code == 0
    assert "3 indecomposables" in out
    assert "0 -> A -> B -> C -> 0" in out


def test_catalog_uniserial_json(capsys):
    code, out, _ = run(capsys, "catalog", "--builtin", "uniserial:3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["indecomposables"]) == 3
    assert data["simples"] == ["M1"]
    assert data["hom_dims"] == [[1, 1, 1], [1, 2, 2], [1, 2, 3]]


def test_catalog_bad_builtin(capsys):
    code, _, err = run(capsys, "catalog", "--builtin", "a2:oops")
    assert code == 2
    assert "error" in err


def test_catalog_missing_source(capsys):
    code, _, err = run(capsys, "catalog", "--format", "json")
    assert code == 2
    assert "exactly one" in err


# -- closure -----------------------------------------------------------------------


def test_closure_tors_b(capsys):
    code, out, _ = run(capsys, "closure", "--builtin", "a2", "--kind", "tors", "--set", "B")
    assert code == 0
    assert out.strip() == "{B, C}"


def test_closure_torf_b(capsys):
    code, out, _ = run(capsys, "closure", "--builtin", "a2", "--kind", "torf", "--set", "B")
    assert code == 0
    assert out.strip() == "{A, B}"


def test_closure_serre_empty(capsys):
    code, out, _ = run(capsys, "closure", "--builtin", "a2", "--kind", "serre", "--set", "")
    assert code == 0
    assert out.strip() == "{}"


def test_closure_serre_of_m13(capsys):
    """M13 has 14 submodules: the cover walk answers, where a cap on total dimension refused."""
    code, out, err = run(capsys, "closure", "--builtin", "uniserial:13", "--kind", "serre",
                         "--set", "M13")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "{" + ", ".join(f"M{k}" for k in range(1, 14)) + "}"


def test_closure_explain_json(capsys):
    code, out, _ = run(
        capsys, "closure", "--builtin", "a2", "--kind", "tors", "--set", "B",
        "--format", "json", "--explain",
    )
    assert code == 0
    data = json.loads(out)
    assert data["closure"] == ["B", "C"]
    assert {c["start"][0] for c in data["certificates"]} == {"B", "C"}
    assert all(c["member"] for c in data["certificates"])


def test_closure_unknown_name(capsys):
    code, _, err = run(capsys, "closure", "--builtin", "a2", "--kind", "tors", "--set", "Z")
    assert code == 2
    assert "unknown module name" in err


@pytest.mark.parametrize("kind,message", [
    ("serre", "--explain is only available for tors and torf closures"),
    ("wide", "closure kind must be one of ['serre', 'torf', 'tors'], got 'wide'"),
])
def test_closure_arguments_are_refused_before_building(monkeypatch, capsys, kind, message):
    """The check comes first: no builder runs, although the Serre closure of M20 answers."""
    def refuse(*args, **kwargs):
        raise AssertionError("a builder was called")

    monkeypatch.setattr(catalog, "_build_uniserial", refuse)
    code, out, err = run(capsys, "closure", "--builtin", "uniserial:20", "--kind", kind,
                         "--set", "M20", "--explain")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# -- enumerate ----------------------------------------------------------------------


def test_enumerate_all_table(capsys):
    code, out, _ = run(capsys, "enumerate", "--builtin", "a2", "--kind", "all")
    assert code == 0
    for row in ("serre", "tors", "torf", "wide", "ice", "ike", "ie"):
        assert row in out
    counts = [line.rsplit("|", 1)[1].strip() for line in out.splitlines()[2:9]]
    assert counts == ["4", "5", "5", "5", "6", "6", "7"]


def test_enumerate_ie_dot(capsys):
    code, out, _ = run(capsys, "enumerate", "--builtin", "a2", "--kind", "ie", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph hasse {")
    assert out.count("->") == 9
    assert out.count("label=") == 7


def test_enumerate_uniserial_all_rows_of_two(capsys):
    code, out, _ = run(capsys, "enumerate", "--builtin", "uniserial:4", "--kind", "all",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert all(fam["count"] == 2 for fam in data["families"].values())


def test_enumerate_all_dot_rejected(capsys):
    code, _, err = run(capsys, "enumerate", "--builtin", "a2", "--kind", "all", "--format", "dot")
    assert code == 2
    assert "single --kind" in err


def test_enumerate_out_file(tmp_path, capsys):
    target = tmp_path / "fam.json"
    code, out, _ = run(capsys, "enumerate", "--builtin", "a2", "--kind", "ie",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["count"] == 7


# -- verify --------------------------------------------------------------------------


def test_verify_a2(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "a2")
    assert code == 0
    assert "PASS a2-none-coincide" in out
    assert "RESULT: PASS" in out


def test_verify_uniserial3_json(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "uniserial:3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    names = {c["name"] for c in data["checks"]}
    assert "local-artinian-collapse" in names


def test_verify_a3(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "a3")
    assert code == 0
    assert "PASS ie-by-intersection" in out


# -- file-based catalogs ----------------------------------------------------------------


@pytest.fixture()
def a2_files(tmp_path):
    (tmp_path / "algebra.json").write_text(json.dumps({
        "field_char": 2,
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"}],
        "relations": [],
    }))
    mods = tmp_path / "mods"
    mods.mkdir()
    (mods / "A.json").write_text(json.dumps({"dims": {"2": 1}, "matrices": {}}))
    (mods / "B.json").write_text(json.dumps({"dims": {"1": 1, "2": 1}, "matrices": {"a": [[1]]}}))
    (mods / "C.json").write_text(json.dumps({"dims": {"1": 1}, "matrices": {}}))
    return tmp_path


def test_file_catalog_roundtrip(a2_files, capsys):
    code, out, _ = run(
        capsys, "enumerate",
        "--algebra", str(a2_files / "algebra.json"),
        "--modules", str(a2_files / "mods"),
        "--kind", "ie", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["count"] == 7


def test_dot_labels_escape_quotes_and_backslashes(a2_files, capsys):
    """Module names are file stems, so a label may hold any character DOT quotes."""
    mods = a2_files / "mods"
    (mods / "B.json").rename(mods / 'S"1\\.json')
    (mods / "C.json").rename(mods / 'C\\"D.json')
    args = ("enumerate", "--algebra", str(a2_files / "algebra.json"), "--modules", str(mods),
            "--kind", "tors")
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    members = ["{" + ", ".join(names) + "}" for names in json.loads(out)["members"]]
    code, out, _ = run(capsys, *args, "--format", "dot")
    assert code == 0
    quoted = [m.group(1) for m in re.finditer(r'^  n\d+ \[label=(.*)\];$', out, re.M)]
    assert len(quoted) == len(members) == 5
    labels = []
    for text in quoted:
        body = re.fullmatch(r'"((?:[^"\\]|\\.)*)"', text)
        assert body, text
        labels.append(re.sub(r"\\(.)", r"\1", body.group(1)))
    assert labels == members
    assert any('"' in label and "\\" in label for label in labels)


def test_bad_module_file(a2_files, capsys):
    (a2_files / "mods" / "D.json").write_text(json.dumps(
        {"dims": {"1": 2, "2": 1}, "matrices": {"a": [[1]]}}
    ))
    code, _, err = run(
        capsys, "catalog",
        "--algebra", str(a2_files / "algebra.json"),
        "--modules", str(a2_files / "mods"),
    )
    assert code == 2
    assert "D.json" in err


def test_relation_with_undeclared_arrow(a2_files, capsys):
    (a2_files / "algebra.json").write_text(json.dumps({
        "field_char": 2,
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"}],
        "relations": [[{"coeff": 1, "path": ["b"]}]],
    }))
    code, _, err = run(
        capsys, "catalog",
        "--algebra", str(a2_files / "algebra.json"),
        "--modules", str(a2_files / "mods"),
    )
    assert code == 2
    assert err.count("\n") == 1 and "undeclared arrow b" in err


def test_negative_dimension_in_module_file(a2_files, capsys):
    (a2_files / "mods" / "D.json").write_text(json.dumps({"dims": {"1": -1, "2": 1}}))
    code, _, err = run(
        capsys, "catalog",
        "--algebra", str(a2_files / "algebra.json"),
        "--modules", str(a2_files / "mods"),
    )
    assert code == 2
    assert err.count("\n") == 1 and "D.json" in err and "vertex 1 is negative" in err


@pytest.mark.parametrize("argv,message", [
    (["enumerate", "--builtin", "a2", "--format", "xml"], "argument --format: invalid choice"),
    (["enumerate", "--builtin", "a2", "--mult-cap", "2"], "unrecognized arguments: --mult-cap 2"),
    ([], "the following arguments are required: command"),
    (["enumerate", "--builtin", "a2", "--dim-cap", "16"], "unrecognized arguments: --dim-cap 16"),
])
def test_argument_errors_are_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: subcat enumerate")


@pytest.mark.parametrize("command", ["catalog", "closure", "enumerate", "verify"])
def test_help_names_no_cap_flag(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert out.startswith(f"usage: subcat {command}")
    assert "--mult-cap" not in out and "--dim-cap" not in out


def test_modules_without_algebra(capsys):
    code, _, err = run(capsys, "catalog", "--builtin", "a2", "--modules", "/nowhere")
    assert code == 2


@pytest.mark.parametrize("make,what", [
    (lambda tmp: tmp / "missing", "no such directory"),
    (lambda tmp: tmp / "algebra.json", "not a directory"),
])
def test_bad_modules_path_is_named(tmp_path, capsys, make, what):
    (tmp_path / "algebra.json").write_text('{"field_char": 2, "vertices": ["1"]}')
    path = make(tmp_path)
    code, out, err = run(capsys, "catalog", "--algebra", str(tmp_path / "algebra.json"),
                         "--modules", str(path))
    assert code == 2 and out == ""
    assert err == f"error: --modules {path}: {what}\n"


@pytest.mark.parametrize("descriptor", ["an:99999999", "an:60", "an:60:>", "uniserial:99999999"])
def test_builtin_size_cap_refuses_before_building(monkeypatch, capsys, descriptor):
    def refuse(*args, **kwargs):
        raise AssertionError("a builder was called")

    monkeypatch.setattr(catalog, "_build_an", refuse)
    monkeypatch.setattr(catalog, "_build_uniserial", refuse)
    code, out, err = run(capsys, "catalog", "--builtin", descriptor)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and f"over the cap of {catalog.BUILTIN_SIZE_CAP}" in err


@pytest.mark.parametrize("descriptor,n,size", [("an:8", 8, 36), ("uniserial:8", 8, 8),
                                               ("an:10:" + ">" * 9, 10, 55)])
def test_builtin_size_cap_admits_the_frontier(monkeypatch, descriptor, n, size):
    built = []
    monkeypatch.setattr(catalog, "_build_an", lambda n, word, p: built.append(n))
    monkeypatch.setattr(catalog, "_build_uniserial", lambda n, p: built.append(n))
    catalog.build_builtin(descriptor)
    assert built == [n] and size <= catalog.BUILTIN_SIZE_CAP


def file_catalog_args(tmp_path, algebra, modules):
    """Write an algebra file and one file per module; the CLI arguments that load them."""
    (tmp_path / "algebra.json").write_text(json.dumps({"field_char": 2, **algebra}))
    mods = tmp_path / "mods"
    mods.mkdir()
    for name, data in modules.items():
        (mods / f"{name}.json").write_text(json.dumps(data))
    return "--algebra", str(tmp_path / "algebra.json"), "--modules", str(mods)


def loop_algebra(power):
    return {
        "vertices": ["1"],
        "arrows": [{"name": "x", "from": "1", "to": "1"}],
        "relations": [[{"coeff": 1, "path": ["x"] * power}]],
    }


def test_cap_exceeded_exit_code(tmp_path, capsys):
    """Two large members trip the isomorphism-search cap during build.

    Over x^2 = 0, comparing the 5-dimensional modules with x = 0 and with x of
    rank 1 meets a 20-dimensional Hom space.
    """
    rank1 = [[1 if (r, c) == (0, 1) else 0 for c in range(5)] for r in range(5)]
    args = file_catalog_args(tmp_path, loop_algebra(2), {
        "Z5": {"dims": {"1": 5}},
        "R5": {"dims": {"1": 5}, "matrices": {"x": rank1}},
    })
    code, _, err = run(capsys, "catalog", *args)
    assert code == 3
    assert "cap exceeded" in err


def test_split_self_extension_needs_no_isomorphism_search(tmp_path, capsys):
    """M5 over F_2[x]/(x^5) is projective: its one extension is split, X + X by Krull-Schmidt."""
    jordan5 = [[1 if c == r - 1 else 0 for c in range(5)] for r in range(5)]
    args = file_catalog_args(tmp_path, loop_algebra(5),
                             {"M5": {"dims": {"1": 5}, "matrices": {"x": jordan5}}})
    code, out, _ = run(capsys, "catalog", *args)
    assert code == 0
    assert "M5" in out


def parallel_arrows(count):
    return {
        "vertices": ["1", "2"],
        "arrows": [{"name": f"a{t}", "from": "1", "to": "2"} for t in range(count)],
    }


SIMPLES = {"S1": {"dims": {"1": 1}}, "S2": {"dims": {"2": 1}}}


def test_extension_space_cap(tmp_path, capsys):
    args = file_catalog_args(tmp_path, parallel_arrows(17), SIMPLES)
    code, _, err = run(capsys, "catalog", *args)
    assert code == 3
    assert "extension space of dimension 17 exceeds the middle-term search budget" in err


def test_extension_space_at_cap_reaches_identification(tmp_path, capsys):
    """16 arrows pass the cap; the first non-split middle, of dimension vector (1, 1), is missing."""
    args = file_catalog_args(tmp_path, parallel_arrows(16), SIMPLES)
    code, _, err = run(capsys, "catalog", *args)
    assert code == 2
    assert err.count("\n") == 1 and "dimension vector (1, 1) is not in the catalog" in err


@pytest.mark.parametrize("count,expected,message", [
    (17, 3, "extension space of dimension 17 exceeds the middle-term search budget"),
    (16, 2, "dimension vector (1, 1) is not in the catalog"),
])
def test_user_catalog_errors_precede_a_tors_closure(tmp_path, capsys, count, expected, message):
    """A user catalog's extension table is its completeness check, read as it loads, so a
    tors closure, which needs no Ext, exits as the catalog command does."""
    args = file_catalog_args(tmp_path, parallel_arrows(count), SIMPLES)
    code, out, err = run(capsys, "closure", *args, "--kind", "tors", "--set", "S1")
    assert (code, out) == (expected, "")
    assert err.count("\n") == 1 and message in err


def test_threads_env_byte_identical(monkeypatch, capsys):
    # SUBCAT_THREADS is no longer read: a stale value in the environment changes nothing
    monkeypatch.delenv("SUBCAT_THREADS", raising=False)
    code, first, _ = run(capsys, "enumerate", "--builtin", "a2", "--kind", "all",
                         "--format", "json")
    assert code == 0
    monkeypatch.setenv("SUBCAT_THREADS", "4")
    code, second, _ = run(capsys, "enumerate", "--builtin", "a2", "--kind", "all",
                          "--format", "json")
    assert code == 0
    assert first == second


LOOP = {"vertices": ["1"], "arrows": [{"name": "x", "from": "1", "to": "1"}]}
S1 = {"S1": {"dims": {"1": 1}}}


@pytest.mark.parametrize("algebra,modules,message", [
    ({**LOOP, "relations": [[{"coeff": "x", "path": ["x", "x"]}]]}, S1,
     'coeff must be an integer, got "x"'),
    ({"field_char": 2.5, "vertices": ["1"]}, S1, "field_char must be an integer, got 2.5"),
    ({"field_char": "x", "vertices": ["1"]}, S1, 'field_char must be an integer, got "x"'),
    ({"vertices": ["1"]}, {"S1": {"dims": {"1": 1.5}}},
     "the dimension at vertex 1 must be an integer, got 1.5"),
    ({"vertices": ["1"]}, {"S1": {"dims": {"1": "x"}}},
     'the dimension at vertex 1 must be an integer, got "x"'),
    ({"vertices": "1"}, S1, 'vertices must be a list, got "1"'),
    ({"vertices": ["1"], "arrows": "x"}, S1, 'arrows must be a list, got "x"'),
    ({"vertices": ["1"], "relations": "x"}, S1, 'relations must be a list, got "x"'),
    ({**LOOP, "relations": [[{"coeff": 1, "path": "xx"}]]}, S1, 'path must be a list, got "xx"'),
])
def test_malformed_number_or_list_is_a_parse_error(tmp_path, capsys, algebra, modules, message):
    code, _, err = run(capsys, "catalog", *file_catalog_args(tmp_path, algebra, modules))
    assert code == 2
    assert err.count("\n") == 1 and message in err


def test_large_prime_with_one_dimensional_end(tmp_path, capsys):
    """dim End = 1 needs no idempotent search, however large the field."""
    args = file_catalog_args(tmp_path, {"field_char": 1000003, "vertices": ["1"]}, S1)
    code, out, _ = run(capsys, "catalog", *args)
    assert code == 0
    assert out.startswith("catalog algebra: 1 indecomposables over F_1000003")


def test_large_prime_enumerates_all_families(tmp_path, capsys):
    """One line per vertex and one scalar class of Hom: F_1000003 costs no more than F_2."""
    args = file_catalog_args(tmp_path, {"field_char": 1000003, "vertices": ["1"]}, S1)
    code, out, _ = run(capsys, "enumerate", *args, "--kind", "all")
    assert code == 0
    assert [line.split(" | ")[-1] for line in out.splitlines()[2:]] == ["2"] * 7


@pytest.mark.parametrize("field_char", [65537, 2**31 - 1])
def test_large_prime_walks_one_extension_per_line(tmp_path, capsys, field_char):
    """Ext^1(S2, S1) of A2 is a line: one non-split theta is walked, not p - 1 of them."""
    a2 = {"field_char": field_char, **parallel_arrows(1)}
    args = file_catalog_args(tmp_path, a2, {
        **SIMPLES, "P1": {"dims": {"1": 1, "2": 1}, "matrices": {"a0": [[1]]}}})
    start = time.perf_counter()
    code, out, _ = run(capsys, "enumerate", *args, "--kind", "ie", "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["count"] == 7


@pytest.mark.parametrize("field_char", [10**400, 2**61 - 1])
def test_huge_modulus_is_an_input_error(tmp_path, capsys, field_char):
    """A field_char of 2^31 or more is refused at once, before any trial division."""
    args = file_catalog_args(tmp_path, {"field_char": field_char, "vertices": ["1"]}, S1)
    start = time.perf_counter()
    code, out, err = run(capsys, "catalog", *args)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "modulus is too large" in err


def test_five_thousand_digit_integer_is_a_parse_error(tmp_path, capsys):
    """json refuses an integer literal past 4,300 digits with a plain ValueError."""
    args = file_catalog_args(tmp_path, {"vertices": ["1"]}, S1)
    (tmp_path / "algebra.json").write_text('{"field_char": ' + "7" * 5000 + ', "vertices": ["1"]}')
    code, out, err = run(capsys, "catalog", *args)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "algebra.json: cannot decode (" in err


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    args = file_catalog_args(tmp_path, {"vertices": ["1"]}, S1)
    (tmp_path / "mods" / "S1.json").write_bytes(b'{"dims": {"1": "\xff"}}')
    code, out, err = run(capsys, "catalog", *args)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "S1.json: cannot decode ('utf-8' codec" in err


def test_algebra_naming_a_directory_is_a_parse_error(tmp_path, capsys):
    args = file_catalog_args(tmp_path, {"vertices": ["1"]}, S1)
    code, out, err = run(capsys, "catalog", "--algebra", str(tmp_path / "mods"), *args[2:])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"{tmp_path / 'mods'}: cannot read (" in err


def test_missing_file_and_json_syntax_keep_their_messages(tmp_path, capsys):
    args = file_catalog_args(tmp_path, {"vertices": ["1"]}, S1)
    code, _, err = run(capsys, "catalog", "--algebra", str(tmp_path / "none.json"), *args[2:])
    assert code == 2 and err == f"error: {tmp_path / 'none.json'}: no such file\n"
    (tmp_path / "algebra.json").write_text('{"field_char": 2,\n "vertices": [1,]}')
    code, _, err = run(capsys, "catalog", *args)
    assert code == 2 and err == f"error: {tmp_path / 'algebra.json'}:2:17: Expecting value\n"


@pytest.mark.parametrize("target", ["missing/x.txt", "."])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, target):
    path = tmp_path / target
    code, out, err = run(capsys, "enumerate", "--builtin", "a2", "--out", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize("error", [ValueError, AttributeError])
def test_uncaught_exception_is_one_line_with_exit_4(monkeypatch, capsys, error):
    def broken(cfg, kind):
        raise error("broken\ninvariant")

    monkeypatch.setattr(cli, "cmd_enumerate", broken)
    code, out, err = run(capsys, "enumerate", "--builtin", "a2")
    assert code == 4
    assert out == ""
    assert err == f"error: internal: {error.__name__}: broken invariant\n"


def test_keyboard_interrupt_is_not_caught(monkeypatch):
    def interrupted(cfg, kind):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_enumerate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["enumerate", "--builtin", "a2"])
