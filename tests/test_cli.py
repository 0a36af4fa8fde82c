import hashlib
import importlib
import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gspace
import oracles
from gspace import (Hyperspace, InputError, SemigroupView, build_builtin,
                    enumerate_class, format_hyperspace, generate, lambda_view,
                    minimal_left_ideals, orbits, principal)
from gspace.cli import _load_groupoid, _show, main
from gspace.hyperspaces import upset_words

Z2_JSON = json.dumps({
    "name": "Z2-from-file",
    "elements": ["e", "a"],
    "table": [["e", "a"], ["a", "e"]],
})


def run_proc(*args, flags=(), env=(), entry=("-m", "gspace"), **kwargs):
    # the child imports the same gspace as the tests, installed or not
    path = [str(Path(gspace.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run([sys.executable, *flags, *entry, *args],
                          capture_output=True, text=True,
                          env={**os.environ, **dict(env),
                               "PYTHONPATH": os.pathsep.join(filter(None, path))},
                          **kwargs)


def run_main(capsys, *argv):
    """`main` on argv, in-process, with its global-flag hoisting and exit
    codes: a CompletedProcess of the code (0, or that of the SystemExit
    `main` raises), stdout and stderr, like `run_proc`'s."""
    try:
        main(list(argv))
        code = 0
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(list(argv), code, out, err)


def test_enumerate_count_only(capsys):
    res = run_main(capsys, "--groupoid", "cyclic:3", "enumerate", "--class", "all",
                   "--count-only")
    assert res.stdout.strip() == "18"


def test_enumerate_listing_uses_terms(capsys):
    res = run_main(capsys, "--groupoid", "cyclic:2", "enumerate")
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].endswith("0∧1")


def test_enumerate_class_filters(capsys):
    res = run_main(capsys, "--groupoid", "cyclic:3", "enumerate", "--class",
                   "ultrafilters", "--count-only")
    assert res.stdout.strip() == "3"


def test_json_format_payload(capsys):
    res = run_main(capsys, "--groupoid", "cyclic:3", "--format", "json", "enumerate",
                   "--class", "maxlinked:2")
    report = json.loads(res.stdout)
    assert report["payload"]["count"] == 4
    assert report["fingerprint"]["groupoid"] == "cyclic:3"
    assert "timing_ms" in report


def test_json_payload_deterministic(capsys):
    for verb in (("enumerate", "--class", "linked:2"), ("orbits",), ("sections",)):
        args = ("--groupoid", "cyclic:3", "--format", "json", *verb)
        a, b = (json.dumps(json.loads(run_main(capsys, *args).stdout)["payload"],
                           sort_keys=True) for _ in range(2))
        assert a == b, verb


def test_payload_identical_across_hash_seeds():
    # fresh interpreters with different string-hash seeds, so that no payload
    # may depend on the iteration order of a set or dict of strings
    for args in (("--groupoid", "cyclic:4", "--format", "json", "analyze"),
                 ("--groupoid", "cyclic:5", "--format", "json", "analyze",
                  "--within", "maxlinked:2")):
        payloads = []
        for seed in ("1", "2"):
            res = run_proc(*args, env={"PYTHONHASHSEED": seed})
            assert res.returncode == 0, res.stderr
            payloads.append(json.dumps(json.loads(res.stdout)["payload"]).encode())
        assert payloads[0] == payloads[1], args


def test_parallel_flag_rejected(capsys):
    res = run_main(capsys, "--groupoid", "cyclic:3", "--parallel", "2", "enumerate")
    assert res.returncode == 2


def test_count_only_full_census_n6(capsys):
    res = run_main(capsys, "--groupoid", "cyclic:6", "enumerate", "--class", "all",
                   "--count-only")
    assert res.stdout.strip() == "7828352"


def test_no_hyperspace_built_before_the_view_cap(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a Hyperspace object was built")
    monkeypatch.setattr(Hyperspace, "_raw", classmethod(refuse))
    monkeypatch.setattr(Hyperspace, "__init__", refuse)
    for argv in (["--groupoid", "cyclic:6", "analyze"],
                 ["--groupoid", "cyclic:6", "table", "--within", "centered"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "views hold at most 10000 elements" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--groupoid", "cyclic:6", "enumerate"])
    assert exc.value.code == 2
    assert ("listing 7828352 families exceeds the cap of 10000; use --count-only"
            in capsys.readouterr().err)
    main(["--groupoid", "cyclic:6", "enumerate", "--class", "linked:2", "--count-only"])
    assert capsys.readouterr().out.strip() == "1422563"
    main(["--groupoid", "cyclic:6", "enumerate", "--class", "maxlinked:3", "--count-only"])
    assert capsys.readouterr().out.strip() == "352"


def test_enumerate_builds_no_hyperspace(monkeypatch, capsys):
    # labels are rendered from the class's word array
    built = []
    real = Hyperspace._raw.__func__
    monkeypatch.setattr(Hyperspace, "_raw",
                        classmethod(lambda cls, n, bits: built.append(n) or real(cls, n, bits)))
    for spec, fmt in [("cyclic:5", "text"), ("cyclic:5", "json"), ("cyclic:3", "text"),
                      ("cyclic:3", "json")]:
        res = run_main(capsys, "--groupoid", spec, "--format", fmt, "enumerate",
                       "--class", "linked:3")
        assert res.returncode == 0 and res.stdout
    assert built == []


def test_table_only_format_rejected_before_any_work(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("work started before the format check")
    monkeypatch.setattr("gspace.cli.class_words", refuse)
    monkeypatch.setattr("gspace.cli._load_groupoid", refuse)
    for fmt in ("csv", "dot"):
        with pytest.raises(SystemExit) as exc:
            main(["--groupoid", "cyclic:5", "--format", fmt, "sections"])
        assert exc.value.code == 2
        assert f"--format {fmt} is only supported by `table`" in capsys.readouterr().err


def test_verb_help_prints_under_every_format(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("help started work")
    monkeypatch.setattr("gspace.cli._load_groupoid", refuse)
    for verb in ("enumerate", "verify-paper"):
        for fmt in ("csv", "dot", "json"):
            main(["--format", fmt, verb, "--help"])     # exit 2 raises SystemExit
            assert capsys.readouterr().out.startswith("Usage: ")


def test_command_echoes_the_arguments_given_to_main(capsys):
    # the echo is main's own argv, before the global flags are hoisted
    argv = ["classify", "<[0]>", "--groupoid", "cyclic:2", "--format", "json"]
    main(argv)
    assert json.loads(capsys.readouterr().out)["command"] == "gspace " + " ".join(argv)


def test_labels_build_no_view_elements(monkeypatch, capsys):
    def unbuilt(self):
        raise AssertionError("view.elements was built")
    monkeypatch.setattr(SemigroupView, "elements", property(unbuilt))
    with pytest.raises(InputError) as exc:
        orbits(build_builtin("cyclic", 3), [principal(3, 0)])
    assert str(exc.value) == \
        "element set not closed under right shifts: <{0}> o point -> <{1}>"
    main(["--groupoid", "cyclic:5", "--format", "json", "sections", "--within", "maxlinked:2"])
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert (payload["orbit_count"], payload["sections"]) == (17, [])
    main(["--groupoid", "cyclic:2", "--format", "json", "sections"])
    assert json.loads(capsys.readouterr().out)["payload"]["sections"] == [["0∧1", "0", "0∨1"]]
    # analyze labels only the elements its payload lists
    main(["--groupoid", "cyclic:3", "--format", "json", "analyze", "--within", "maxlinked:2"])
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["zeros"] == payload["minimal_ideal"] == ["(0∨1)∧(0∨2)∧(1∨2)"]
    assert (payload["identity"], payload["left_cancelable"]) == ("0", ["0", "1", "2"])
    # table and orbits label every element through the same helper
    main(["--groupoid", "cyclic:3", "--format", "json", "table", "--within", "maxlinked:2"])
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["labels"] == ["0", "1", "(0∨1)∧(0∨2)∧(1∨2)", "2"]
    main(["--groupoid", "cyclic:3", "--format", "json", "orbits", "--within", "maxlinked:2"])
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["orbits"] == [["0", "1", "2"], ["(0∨1)∧(0∨2)∧(1∨2)"]]


def test_classify_command(capsys):
    res = run_main(capsys, "--groupoid", "cyclic:3", "--format", "json", "classify",
                   "<[0,1],[0,2],[1,2]>")
    payload = json.loads(res.stdout)["payload"]
    assert payload["self_transversal"] is True
    assert payload["shift_invariant"] is True
    assert payload["maximal_k_linked"] == {"2": True, "3": False}


def test_product_command_with_oracle(capsys):
    res = run_main(capsys, "--groupoid", "cyclic:3", "--format", "json", "product",
                   "<[1]>", "<[2]>", "--oracle")
    report = json.loads(res.stdout)
    assert report["payload"]["result"] == "<[0]>"
    assert report["verdicts"]["oracle_agrees"] is True


def test_product_command_at_n12(capsys):
    g = build_builtin("cyclic", 12)
    rnd = random.Random("cli-product-n12")
    u, v = (generate(12, [rnd.randrange(1, 1 << 12) for _ in range(3)]) for _ in range(2))
    t = oracles.naive_product_transform(g, v)
    want = Hyperspace(12, sum(1 << a for a in range(1 << 12) if (u.bits >> t[a]) & 1))
    res = run_main(capsys, "--groupoid", "cyclic:12", "--format", "json", "product",
                   format_hyperspace(u, g.names), format_hyperspace(v, g.names))
    assert res.returncode == 0
    assert json.loads(res.stdout)["payload"]["result"] == format_hyperspace(want, g.names)


def test_literal_roundtrip_through_cli(capsys):
    res = run_main(capsys, "--groupoid", "cyclic:3", "--format", "json", "enumerate")
    payload = json.loads(res.stdout)["payload"]
    for literal in payload["elements"]:
        out = run_main(capsys, "--groupoid", "cyclic:3", "--format", "json", "classify",
                       literal)
        assert json.loads(out.stdout)["payload"]["hyperspace"] == literal


def test_table_csv(capsys):
    res = run_main(capsys, "--groupoid", "cyclic:2", "--format", "csv", "table",
                   "--within", "maxlinked:2")
    lines = res.stdout.strip().splitlines()
    assert lines[0].startswith("# legend:")
    assert lines[1] == ",0,1"
    assert len(lines) == 4


def test_table_dot(capsys):
    res = run_main(capsys, "--groupoid", "cyclic:2", "--format", "dot", "table")
    assert res.stdout.startswith("digraph product")
    assert '"o 0"' in res.stdout


def test_table_text_closed_flag(capsys):
    res = run_main(capsys, "--groupoid", "cyclic:2", "table")
    assert "closed: True" in res.stdout


def test_analyze_command(capsys):
    res = run_main(capsys, "--groupoid", "cyclic:3", "--format", "json", "analyze")
    payload = json.loads(res.stdout)["payload"]
    assert len(payload["idempotents"]) == 6
    assert len(payload["right_zeros"]) == 3
    assert payload["identity"] == "0"
    assert len(payload["center"]) == 3
    assert sorted(payload["minimal_ideal"]) == sorted(payload["right_zeros"])
    assert len(payload["shift_invariant_core"]) == 3


def test_analyze_reads_the_core_off_its_right_zeros(monkeypatch, capsys):
    # G(X)'s right zeros are its shift-invariant core: one census, no shiftinv mask
    z4 = build_builtin("cyclic", 4)
    core = [_show(z4, f) for f in enumerate_class(z4, "shiftinv")]
    classify_mod, calls = importlib.import_module("gspace.classify"), []
    monkeypatch.setattr(classify_mod, "upset_words", lambda n: calls.append(n) or upset_words(n))

    def refuse(*args):
        raise AssertionError("the shiftinv mask ran")

    monkeypatch.setattr(classify_mod, "_shift_invariant_mask", refuse)
    res = run_main(capsys, "--groupoid", "cyclic:4", "--format", "json", "analyze")
    assert res.returncode == 0 and calls == [4]
    assert json.loads(res.stdout)["payload"]["shift_invariant_core"] == core


def test_analyze_nonassociative_degrades(tmp_path, capsys):
    # subtraction mod 4 is a quasigroup but not associative; the analysis
    # must fall back to one-sided ideal reports
    doc = json.dumps({
        "name": "sub4",
        "elements": ["0", "1", "2", "3"],
        "table": [[str((i - j) % 4) for j in range(4)] for i in range(4)],
    })
    path = tmp_path / "sub4.json"
    path.write_text(doc)
    res = run_main(capsys, "--groupoid", f"file:{path}", "--format", "json", "analyze")
    payload = json.loads(res.stdout)["payload"]
    assert payload["associative"] is False
    assert "minimal_ideal" not in payload
    assert payload["minimal_left_ideals"]


@pytest.mark.parametrize("spec", ["cyclic:6", "symmetric-3"])
def test_lambda_kernel_from_analyze(spec, capsys):
    # a computed result, pinned here and not replayed by verify-paper: the
    # kernel of λ(Z6) and of λ(S3) is the union of 9 minimal left ideals of
    # 2 elements each
    res = run_main(capsys, "--groupoid", spec, "--format", "json", "analyze",
                   "--within", "maxlinked:2")
    assert res.returncode == 0, res.stderr[-500:]
    payload = json.loads(res.stdout)["payload"]
    g = _load_groupoid(spec)
    view = lambda_view(g)
    left = minimal_left_ideals(view)
    assert [len(ideal) for ideal in left] == [2] * 9
    kernel = sorted({i for ideal in left for i in ideal})
    assert len(kernel) == 18 and tuple(kernel) == oracles.descent_minimal_ideal(view.table)
    assert payload["size"] == 2646 and "associative" not in payload
    assert payload["minimal_ideal"] == [_show(g, view.elements[i]) for i in kernel]


def test_orbits_command(capsys):
    res = run_main(capsys, "--groupoid", "cyclic:3", "--format", "json", "orbits")
    payload = json.loads(res.stdout)["payload"]
    assert payload["orbit_count"] == 8


def test_sections_command(capsys):
    res = run_main(capsys, "--groupoid", "cyclic:2", "--format", "json", "sections")
    payload = json.loads(res.stdout)["payload"]
    assert payload["section_count"] == 1
    assert payload["sections"][0] == ["0∧1", "0", "0∨1"]


def test_sections_lambda_z5(capsys):
    res = run_main(capsys, "--groupoid", "cyclic:5", "--format", "json", "sections",
                   "--within", "maxlinked:2")
    payload = json.loads(res.stdout)["payload"]
    assert payload["section_count"] == 0


def test_groupoid_from_file(tmp_path, capsys):
    path = tmp_path / "z2.json"
    path.write_text(Z2_JSON)
    res = run_main(capsys, "--groupoid", f"file:{path}", "enumerate", "--count-only")
    assert res.stdout.strip() == "4"


def _assert_input_error(res):
    assert res.returncode == 2
    assert res.stderr.startswith("input error:")
    assert "Traceback" not in res.stderr


def test_groupoid_file_is_directory(tmp_path, capsys):
    _assert_input_error(run_main(capsys, "--groupoid", f"file:{tmp_path}", "enumerate"))


def test_groupoid_file_invalid_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"name: Z\xe9\nelements: [e]\ntable: [[e]]\n")
    _assert_input_error(run_main(capsys, "--groupoid", f"file:{path}", "enumerate"))


def test_exit_codes(capsys):
    def code(*argv):
        return run_main(capsys, *argv).returncode
    assert code("--groupoid", "cyclic:2", "enumerate") == 0
    assert code("--groupoid", "nonsense:2", "enumerate") == 2
    assert code("--groupoid", "cyclic:3", "classify", "oops") == 2
    assert code("enumerate") == 2                               # missing groupoid
    assert code("--groupoid", "cyclic:3", "--budget", "3", "sections") == 3
    assert code("--groupoid", "cyclic:2", "--format", "csv", "enumerate") == 2  # table-only
    assert code("no-such-command") == 2
    res = run_main(capsys, "--groupoid", "cyclic:3", "--budget", "-5", "sections")
    assert res.returncode == 2 and "Traceback" not in res.stderr   # refused before any search
    assert code("--groupoid", "cyclic:3", "--budget", "0", "sections") == 3
    # `python -m gspace` exits with main's code
    assert run_proc("--groupoid", "cyclic:3", "--budget", "3", "sections").returncode == 3


def test_global_flags_after_subcommand(capsys):
    # the documented grammar allows per-command placement of global flags
    res = run_main(capsys, "enumerate", "--groupoid", "cyclic:3", "--class", "all",
                   "--count-only")
    assert res.returncode == 0
    assert res.stdout.strip() == "18"
    res = run_main(capsys, "sections", "--groupoid", "cyclic:5", "--within",
                   "maxlinked:2", "--format", "json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["payload"]["section_count"] == 0


def test_verify_paper_exit_and_summary(capsys):
    res = run_main(capsys, "verify-paper")
    # one published value (the Z3 transversal count) is a known mismatch,
    # so the suite reports a failure and exits 1
    assert res.returncode == 1
    assert "8 passed, 1 failed" in res.stdout
    assert "[FAIL] z3-transversal-count" in res.stdout
    assert "[PASS] lambda-z6-left-ideals" in res.stdout


def _table_payloads(capsys, verb):
    args = ("--groupoid", "cyclic:3", "--format", "json", verb)
    return [json.loads(run_main(capsys, *args).stdout)["payload"] for _ in range(2)]


def test_table_json_entries_are_product_indices(capsys):
    from gspace import build_builtin, enumerate_all, product
    from gspace.cli import _show
    g = build_builtin("cyclic", 3)
    elems = sorted(enumerate_all(3))
    index = {h.bits: k for k, h in enumerate(elems)}
    first, second = _table_payloads(capsys, "table")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert first["labels"] == [_show(g, h) for h in elems]
    for i, row in enumerate(first["table"]):
        for j, k in enumerate(row):
            assert type(k) is int
            assert k == index[product(g, elems[i], elems[j]).bits]


def test_orbits_json_quotient_entries_are_orbit_indices(capsys):
    from gspace import build_builtin, enumerate_all, product
    from gspace.cli import _show
    g = build_builtin("cyclic", 3)
    elems = sorted(enumerate_all(3))
    index = {h.bits: k for k, h in enumerate(elems)}
    first, second = _table_payloads(capsys, "orbits")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    labels = [_show(g, h) for h in elems]
    orbit_of = {labels.index(lab): o for o, orb in enumerate(first["orbits"]) for lab in orb}
    reps = [labels.index(orb[0]) for orb in first["orbits"]]
    for a, row in enumerate(first["quotient_table"]):
        for b, k in enumerate(row):
            assert type(k) is int
            assert k == orbit_of[index[product(g, elems[reps[a]], elems[reps[b]]).bits]]


def test_sections_payload_unchanged_under_optimize():
    args = ("--groupoid", "cyclic:3", "--format", "json", "sections")
    plain = run_proc(*args)
    optimized = run_proc(*args, flags=("-O",))
    assert plain.returncode == optimized.returncode == 0
    payload = json.loads(optimized.stdout)["payload"]
    assert payload == json.loads(plain.stdout)["payload"]
    assert payload["section_count"] == 3


# sha256 of stdout, pinned from the output before tables were streamed row by row
PINNED_OUTPUT = {
    ("cyclic:3", "text", "table"):
        "2f77e21e29f868aa4edb7e7aa41d002ed564c84923b7fa1d46759584d01fe472",
    ("cyclic:3", "csv", "table"):
        "e35311f975e75a777c970285334e79f84191ba85b4699fb9f4cbc3d244cfc459",
    ("cyclic:3", "dot", "table"):
        "435cff60fca7192499dfe8ceacca607f3c575f6bd66600dd54a21e8456886aa6",
    ("cyclic:3", "text", "orbits"):
        "6eed588eee38067993df45b43e423646a35a5ff9acdbb42411f8eee633b63cf8",
    ("klein-4:4", "text", "table"):
        "b0b568e95b0876d2124a64953a979e22ba6ab58f9104d3750f37cf0e8e0fafda",
    ("klein-4:4", "csv", "table"):
        "07f9834907fd7070dbfc935d7b3d2a3e39c795517b0e8de9f660f6be23129272",
    ("klein-4:4", "dot", "table"):
        "cdce300b02d24881cc7dc344003911267a43fc82fd1d9f5f19ab8bbcf1988353",
    ("klein-4:4", "text", "orbits"):
        "9937b040b86f7415e742e390645df428a5442cb0a955cc6af2621e708c6894f2",
    ("symmetric-3", "text", "table", "--within", "maxlinked:3"):
        "52a8541166fd5efc125389ad4388e4f4fc32b518c6bc8340a552af9f0d867fcf",
    ("symmetric-3", "csv", "table", "--within", "maxlinked:3"):
        "c37dc249e6334b5361f7fa93c4c37f978f81468dccfe86b1d076a80dd61bc07b",
    ("symmetric-3", "dot", "table", "--within", "maxlinked:3"):
        "d158114e04dcf19b07e5cc31eae42a74549dc015acc06ab66a6d93d12dfe7128",
    ("cyclic:5", "text", "enumerate", "--class", "linked:3"):
        "d50e4df813182f855ab2dfe48ad1a95ef5da4e05475dee7a5de66f5a52ec1b97",
    ("cyclic:4", "text", "orbits"):
        "014027125ad051091e759035bfebb69120677fe4cfc8bb4e0072c4e8f9f747ff",
}


def test_pinned_output_bytes(capsys):
    for (spec, fmt, *verb), digest in PINNED_OUTPUT.items():
        res = run_main(capsys, "--groupoid", spec, "--format", fmt, *verb)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest, (spec, fmt, verb)
    # the escaping view has no orbit partition: a refusal, and nothing on stdout
    res = run_main(capsys, "--groupoid", "symmetric-3", "orbits", "--within", "maxlinked:3")
    assert (res.returncode, res.stdout) == (2, "")


def test_json_output_is_the_canonical_dump(capsys):
    for argv in (["enumerate", "--class", "linked:2"], ["enumerate", "--count-only"],
                 ["classify", "<[0,1],[0,2],[1,2]>"], ["product", "<[1]>", "<[2]>", "--oracle"],
                 ["table"], ["table", "--within", "maxlinked:2"], ["analyze"], ["orbits"],
                 ["sections"], ["verify-paper"]):
        res = run_main(capsys, "--groupoid", "cyclic:3", "--format", "json", *argv)
        assert res.returncode in (0, 1), argv     # verify-paper exits 1 on criterion 4
        out = res.stdout
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv
    out = run_main(capsys, "--groupoid", "symmetric-3", "--format", "json",
                   "table", "--within", "maxlinked:3").stdout
    report = json.loads(out)
    assert report["payload"]["closed"] is False
    assert any(-1 in row for row in report["payload"]["table"])
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_json_table_streams_under_an_address_space_limit():
    # 7.0M cells; the whole document as Python lists needs about 1 GB
    limit = 512 << 20
    res = run_proc("--groupoid", "cyclic:6", "--format", "json", "table", "--within",
                   "maxlinked:2",
                   preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert res.returncode == 0, res.stderr[-500:]
    table = np.array(json.loads(res.stdout)["payload"]["table"], dtype=np.int32)
    assert np.array_equal(table, lambda_view(build_builtin("cyclic", 6)).table)


def test_dot_table_streams_under_an_address_space_limit():
    # each piece of the dot rendering is one row of edges, written as it is
    # made: none are joined into larger strings
    limit = 200 << 20
    res = run_proc("--groupoid", "cyclic:6", "--format", "dot", "table", "--within",
                   "maxlinked:2",
                   preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert res.returncode == 0, res.stderr[-500:]
    assert res.stdout.count(" -> ") == 2646 ** 2 and res.stdout.endswith("}\n")


def test_verbs_do_not_import_numpy_ma():
    # plain np.unique, and np.isin or np.intersect1d through it, import
    # numpy.ma on first use: 9-17 ms per process
    script = "\n".join([
        "import contextlib, io, sys",
        "from gspace.cli import main",
        "for args in (['analyze'], ['sections'], ['table'], ['classify', '<[0,1],[2]>']):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        main(['--groupoid', 'cyclic:4', *args])",
        "print('numpy.ma' in sys.modules)"])
    res = run_proc(entry=("-c", script))
    assert res.returncode == 0, res.stderr[-500:]
    assert res.stdout == "False\n"


def test_import_leaves_yaml_out():
    # yaml is imported by `file:` carriers only; `import gspace` skips it
    res = run_proc(entry=("-c", "import sys, gspace; print('yaml' in sys.modules)"))
    assert res.returncode == 0, res.stderr[-500:]
    assert res.stdout == "False\n"


def test_analyze_names_its_escape_as_table_does(capsys):
    # symmetric-3 maxlinked:3 is not product-closed: analyze refuses it with
    # the cell that table reports as its first escape, in literal syntax
    left = "<[e,(01),(02)],[e,(01),(12)],[e,(02),(12)],[(01),(02),(12)]>"
    right = ("<[e,(01),(02)],[e,(01),(12)],[e,(01),(012)],[e,(02),(12),(012)],"
             "[(01),(02),(12),(012)]>")
    prod = ("<[e,(01),(02),(012)],[e,(02),(12),(012)],[e,(01),(02),(021)],"
            "[e,(01),(12),(021)],[e,(01),(012),(021)],[(01),(02),(12),(012),(021)]>")
    res = run_main(capsys, "--groupoid", "symmetric-3", "--format", "json", "table",
                   "--within", "maxlinked:3")
    escape = json.loads(res.stdout)["payload"]["first_escape"]
    assert res.returncode == 0 and escape == {"left": left, "right": right, "product": prod}
    with pytest.raises(SystemExit) as exc:
        main(["--groupoid", "symmetric-3", "analyze", "--within", "maxlinked:3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == ("input error: class 'maxlinked:3' is not product-closed: "
                                       f"{left} o {right} = {prod}\n")


ODD_NAMES = ["e\"", "a\\b", "(x y)", "-1"]


def _odd_groupoid(tmp_path, names):
    table = [[names[(i + j) % len(names)] for j in range(len(names))]
             for i in range(len(names))]
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"name": "odd", "elements": names, "table": table}))
    return f"file:{path}"


def test_dot_escapes_labels(tmp_path, capsys):
    spec = _odd_groupoid(tmp_path, ODD_NAMES[:2])
    labels = json.loads(run_main(capsys, "--groupoid", spec, "--format", "json", "table").stdout)[
        "payload"]["labels"]
    res = run_main(capsys, "--groupoid", spec, "--format", "dot", "table")
    assert res.returncode == 0
    found = re.findall(r'^  n(\d+) \[label="((?:[^"\\]|\\.)*)"\];$', res.stdout, re.M)
    assert [int(i) for i, _ in found] == list(range(len(labels)))
    assert [re.sub(r"\\(.)", r"\1", lab) for _, lab in found] == labels


def test_enumerate_labels_read_back_through_classify(tmp_path, capsys):
    spec = _odd_groupoid(tmp_path, ODD_NAMES)
    res = run_main(capsys, "--groupoid", spec, "enumerate")
    assert res.returncode == 0
    labels = [line.split(": ", 1)[1] for line in res.stdout.splitlines()]
    assert len(labels) == 166
    for label in labels:
        res = run_main(capsys, "--groupoid", spec, "--format", "json", "classify", label)
        assert res.returncode == 0
        assert json.loads(res.stdout)["payload"]["hyperspace"] == label


def test_unreadable_element_names_refused(tmp_path, capsys):
    for bad in ("a,b", "[a", "a]", "<a", "a>", " a", "a\t"):
        res = run_main(capsys, "--groupoid", _odd_groupoid(tmp_path, ["e", bad]), "enumerate")
        _assert_input_error(res)
        assert repr(bad) in res.stderr
