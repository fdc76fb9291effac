"""Driver-level tests: fixture IO, exit codes, stage gating, and the
byte-determinism of reports."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import pfaffian_nets
from pfaffian_nets import cli, cohomology, correspondence, grassmann
from pfaffian_nets.cli import (canonical_json, fingerprint, main,
                               net_from_fixture, net_to_fixture)
from pfaffian_nets.correspondence import ANet, FvMatrix, find_c_points
from pfaffian_nets.fields import GF, QQ
from pfaffian_nets.grassmann import pair_indices
from pfaffian_nets.matrices import ExactMatrix
from pfaffian_nets.multipoly import MultiPoly

from conftest import PINNED_UPPERS

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "pinned_report.json")


@pytest.fixture(scope="module")
def fixture_path(tmp_path_factory):
    net = ANet.from_upper_triangles(QQ, 6, PINNED_UPPERS[0])
    path = tmp_path_factory.mktemp("fx") / "pinned.json"
    path.write_text(canonical_json(net_to_fixture(net)))
    return str(path)


@pytest.fixture(scope="module")
def pipeline_run(fixture_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("rep") / "report.json"
    code = main(["pipeline", fixture_path, "-o", str(out),
                 "--samples", "50"])
    return code, json.loads(out.read_text()), out.read_bytes()


def dead_fixture_text():
    rng = random.Random(7)
    pairs, _ = pair_indices(6)
    tris = [[rng.randint(-3, 3) if j < 5 else 0 for (i, j) in pairs]
            for _ in range(5)]
    net = ANet.from_upper_triangles(QQ, 6, tris)
    return canonical_json(net_to_fixture(net))


class TestFixtureRoundtrip:
    def test_roundtrip(self, pinned_net):
        doc = net_to_fixture(pinned_net)
        back = net_from_fixture(json.loads(canonical_json(doc)))
        assert back.field.name == "QQ"
        assert back.upper_triangles() == pinned_net.upper_triangles()

    def test_rational_entries_survive(self):
        from fractions import Fraction
        tris = [[Fraction(1, 2)] + [0] * 5, [0, 1] + [0] * 4]
        net = ANet.from_upper_triangles(QQ, 4, tris)
        back = net_from_fixture(json.loads(canonical_json(
            net_to_fixture(net))))
        assert back.matrices[0].rows[0][1] == Fraction(1, 2)

    def test_extension_field_entries(self):
        f = GF(3, 2)
        tris = [[(1, 2)] + [(0, 0)] * 5,
                [(0, 0), (1, 0)] + [(0, 0)] * 4]
        net = ANet.from_upper_triangles(f, 4, tris)
        back = net_from_fixture(json.loads(canonical_json(
            net_to_fixture(net))))
        assert back.field.name == "GF(3^2)"
        assert back.matrices[0].rows[0][1] == (1, 2)

    def test_fingerprint_ignores_provenance(self, pinned_net):
        plain = net_to_fixture(pinned_net)
        tagged = net_to_fixture(pinned_net, provenance={"seed": 1})
        assert fingerprint(plain) == fingerprint(tagged)

    def test_fingerprint_sees_entries(self, pinned_net, pinned_family):
        assert fingerprint(net_to_fixture(pinned_net)) \
            != fingerprint(net_to_fixture(pinned_family[1]))

    def test_rejects_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            net_from_fixture({"schema": cli.FIXTURE_SCHEMA})

    def test_rejects_wrong_schema(self, pinned_net):
        doc = net_to_fixture(pinned_net)
        doc["schema"] = "something/2"
        with pytest.raises(ValueError, match="schema"):
            net_from_fixture(doc)

    def test_rejects_count_mismatch(self, pinned_net):
        doc = net_to_fixture(pinned_net)
        doc["n"] = 4
        with pytest.raises(ValueError, match="n = 4"):
            net_from_fixture(doc)


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--seed", "5", "--out", str(a)]) == 0
        assert main(["generate", "--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_provenance_recorded(self, tmp_path):
        out = tmp_path / "g.json"
        main(["generate", "--seed", "5", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["provenance"]["seed"] == 5
        assert doc["provenance"]["tries"] >= 1
        net_from_fixture(doc)

    def test_bad_bound_is_input_error(self):
        assert main(["generate", "--bound", "0"]) == 3

    def test_odd_size_is_input_error(self):
        assert main(["generate", "--two-m", "5"]) == 3


class TestPipeline:
    def test_passes_on_screened_fixture(self, pipeline_run):
        code, report, _ = pipeline_run
        assert code == 0
        assert report["overall"] == "pass"

    def test_stage_roll_call(self, pipeline_run):
        _, report, _ = pipeline_run
        names = [s["name"] for s in report["stages"]]
        assert names == [n for n, _ in cli.STAGES]
        assert all(s["verdict"] == "pass" for s in report["stages"])

    def test_report_identifies_fixture(self, pipeline_run, fixture_path):
        _, report, _ = pipeline_run
        with open(fixture_path) as fh:
            doc = json.load(fh)
        assert report["schema"] == cli.REPORT_SCHEMA
        assert report["fingerprint"] == fingerprint(doc)
        assert report["parameters"]["samples"] == 50

    def test_byte_identical_reruns(self, pipeline_run, fixture_path,
                                   tmp_path):
        _, _, first = pipeline_run
        again = tmp_path / "again.json"
        main(["pipeline", fixture_path, "-o", str(again),
              "--samples", "50"])
        assert again.read_bytes() == first

    def test_matches_golden_report(self, pipeline_run):
        _, _, first = pipeline_run
        with open(GOLDEN, "rb") as fh:
            assert first == fh.read()

    # the only runs that build code tables over GF(4), GF(8), GF(9), GF(16)
    @pytest.mark.parametrize("fields, digest", [
        ("2,3,4,5,7,8,9",
         "fbe150fa0ebe77059472230c56725861d9fa277cab1ce430196fdb91f4bfa27e"),
        ("16,9,4",
         "9ab2f8eada1890389f0ea2fcbf7b006f6d2731d2f7da26cf1f3f8ce9ee760ff0")])
    def test_extension_field_report_digest(self, fixture_path, tmp_path,
                                           monkeypatch, fields, digest):
        for key in list(os.environ):
            if key.startswith(cli.ENV_PREFIX):
                monkeypatch.delenv(key)
        out = tmp_path / "report.json"
        assert main(["pipeline", fixture_path, "-o", str(out),
                     "--fields", fields]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_unexpected_exception_is_an_error_verdict(self, tmp_path):
        net = ANet.from_upper_triangles(QQ, 6, PINNED_UPPERS[0])
        doc = net_to_fixture(net)
        doc["matrices"][0][0] = "1/3"  # no reduction mod 3 exists
        fx = tmp_path / "third.json"
        fx.write_text(canonical_json(doc))
        out = tmp_path / "rep.json"
        assert main(["pipeline", str(fx), "-o", str(out),
                     "--samples", "5"]) == 1
        report = json.loads(out.read_text())
        assert report["overall"] == "fail"
        stages = {s["name"]: s for s in report["stages"]}
        assert stages["regularity"]["verdict"] == "pass"
        assert stages["classification"]["verdict"] == "error"
        assert stages["classification"]["detail"]["error"].startswith(
            "ZeroDivisionError: ")


class TestGating:
    def test_irregular_net_short_circuits(self, tmp_path):
        fx = tmp_path / "dead.json"
        fx.write_text(dead_fixture_text())
        out = tmp_path / "rep.json"
        assert main(["pipeline", str(fx), "-o", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["overall"] == "fail"
        assert report["stages"][0]["verdict"] == "fail"
        assert report["stages"][0]["detail"]["witness"] is not None
        assert all(s["verdict"] == "skipped"
                   for s in report["stages"][1:])

    def test_witness_search_skips_a_field_a_denominator_blocks(self,
                                                             tmp_path):
        # matrix 0 over 3 has no reduction mod 3, so the witness search
        # skips GF(3) and finds its point over GF(7)
        net = net_from_fixture(json.loads(dead_fixture_text()))
        tris = net.upper_triangles()
        tris[0] = [x / 3 for x in tris[0]]
        fx = tmp_path / "thirds.json"
        fx.write_text(canonical_json(net_to_fixture(
            ANet.from_upper_triangles(QQ, 6, tris))))
        out = tmp_path / "rep.json"
        assert main(["pipeline", str(fx), "-o", str(out)]) == 1
        regularity = json.loads(out.read_text())["stages"][0]
        assert regularity["verdict"] == "fail"
        assert regularity["detail"]["witness"] == [7, [1, 1, 0, 3, 2]]

    def test_bad_prime_keeps_the_fiber_stages(self, fixture_path, tmp_path):
        # Y of the pinned net is singular mod 5 but smooth over QQ, so the
        # classification reads EMPTY from the second prime and jw and jw1 run
        out = tmp_path / "rep.json"
        assert main(["pipeline", fixture_path, "-o", str(out),
                     "--samples", "50", "--prime", "5"]) == 0
        stages = {s["name"]: s
                  for s in json.loads(out.read_text())["stages"]}
        assert stages["classification"]["detail"]["y_smooth"] == "EMPTY"
        assert stages["jw"]["verdict"] == "pass"
        assert stages["jw1"]["verdict"] == "pass"

    def test_degenerate_net_report(self, degenerate_fixture, tmp_path):
        fx = tmp_path / "degen.json"
        fx.write_text(canonical_json(net_to_fixture(degenerate_fixture)))
        out = tmp_path / "rep.json"
        assert main(["pipeline", str(fx), "-o", str(out)]) == 1
        stages = {s["name"]: s
                  for s in json.loads(out.read_text())["stages"]}
        # enumeration agrees (sets equal, nonempty) even though X is
        # singular, so classification passes while the verdict overall
        # fails on the curve search
        assert stages["classification"]["verdict"] == "pass"
        detail = stages["classification"]["detail"]
        assert not detail["all_smooth"]
        assert all(d["sets_equal"] and d["sing_x"]
                   for d in detail["per_field"].values())
        assert stages["lines"]["verdict"] == "fail"
        assert stages["jw"]["verdict"] == "skipped"
        assert stages["jw1"]["verdict"] == "skipped"


class TestLinesStage:
    def test_reads_both_fibers_on_code_arrays(self, monkeypatch):
        """Once the curve points are found, the stage builds no scalar
        kernel, f_v matrix, polynomial value or Plucker point."""
        net = ANet.from_upper_triangles(QQ, 6, PINNED_UPPERS[0])
        find_c_points(net)
        targets = [(ExactMatrix, "rank_kernel"), (FvMatrix, "evaluate"),
                   (MultiPoly, "evaluate"),
                   (grassmann, "plucker_from_basis"),
                   (correspondence, "plucker_from_basis")]
        calls = []
        for owner, name in targets:
            def counted(*args, _name=name, _real=getattr(owner, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(owner, name, counted)
        verdict, payload = cli._stage_lines({"net": net})
        assert verdict == "pass" and payload["count"] == 5
        assert calls == []

    def test_one_splitting_type_per_line(self, monkeypatch):
        """One `splitting_types` call ranks each of the 18 lines of Y over
        GF(3) once, the lines M_c first, with no pencil net or `mu_matrix`;
        nothing restricts the cubic to a line: the only substitutions are
        the membership check's twist-0 restrictions, of the monomial 1."""
        net = ANet.from_upper_triangles(QQ, 6, PINNED_UPPERS[0])
        batches, scalar, restricted = [], [], []
        real = cli.splitting_types
        monkeypatch.setattr(cli, "splitting_types", lambda reduced, lines:
                            batches.append(list(lines))
                            or real(reduced, lines))
        for owner, name in ((ANet, "f_at"), (cohomology, "mu_matrix")):
            def counted(*args, _name=name, _real=getattr(owner, name)):
                scalar.append(_name)
                return _real(*args)
            monkeypatch.setattr(owner, name, counted)
        real_substitute = MultiPoly.substitute

        def substitute(poly, *args):
            restricted.append(poly)
            return real_substitute(poly, *args)
        monkeypatch.setattr(MultiPoly, "substitute", substitute)
        verdict, payload = cli._stage_lines({"net": net})
        assert verdict == "pass" and payload["field"] == "GF(3)"
        assert payload["census"] == {"generic": 13, "jumping": 5,
                                     "matches_curve": True}
        (lines,) = batches
        assert len(lines) == len(set(lines)) == 18
        reduced = net.over(GF(3))
        _, points = find_c_points(net)
        assert lines[:5] == [key for _, _, key in
                             correspondence.curve_fibers(reduced, points)]
        assert scalar == []
        assert [(len(p.terms), p.degree()) for p in restricted] \
            == [(1, 0)] * 5

    @pytest.mark.parametrize("index, count, generic", [
        (0, 5, 13), (1, 6, 11), (2, 3, 9), (3, 2, 8), (4, 9, 23)])
    def test_passes_on_every_pinned_net(self, index, count, generic):
        """Every point of C over GF(3) is checked: net 4 has 9, and its
        ninth line M_c is one of the jumping lines of the census."""
        net = ANet.from_upper_triangles(QQ, 6, PINNED_UPPERS[index])
        verdict, payload = cli._stage_lines({"net": net})
        assert verdict == "pass" and payload["field"] == "GF(3)"
        assert payload["count"] == len(payload["lines"]) == count
        assert payload["census"] == {"generic": generic, "jumping": count,
                                     "matches_curve": True}


class TestVerify:
    def test_single_check(self, fixture_path, capsys):
        assert main(["verify", fixture_path, "regularity"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["name"] == "regularity"
        assert result["verdict"] == "pass"
        assert result["detail"]["status"] == "EMPTY"

    def test_charge2_check(self, fixture_path, capsys):
        assert main(["verify", fixture_path, "charge2-table"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["detail"]["all_pass"] is True

    def test_unknown_check(self, fixture_path):
        assert main(["verify", fixture_path, "nosuch"]) == 3

    def test_stdin_fixture(self, fixture_path, capsys, monkeypatch):
        import io
        with open(fixture_path) as fh:
            monkeypatch.setattr("sys.stdin", io.StringIO(fh.read()))
        assert main(["verify", "-", "regularity"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


class TestEntryPoint:
    def test_module_help(self):
        src = os.path.dirname(os.path.dirname(pfaffian_nets.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "pfaffian_nets", "--help"], env=env,
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "pipeline" in done.stdout

    def test_pipeline_imports_no_optional_module(self, fixture_path,
                                                  tmp_path):
        # numpy.ma costs about 14 ms of import; scipy and sympy are not
        # dependencies
        src = os.path.dirname(os.path.dirname(pfaffian_nets.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        script = ("import sys\n"
                  "from pfaffian_nets.cli import main\n"
                  "main(['pipeline', sys.argv[1], '-o', sys.argv[2]])\n"
                  "print('loaded:', *[m for m in ('numpy.ma', 'scipy', "
                  "'sympy') if m in sys.modules])\n")
        done = subprocess.run(
            [sys.executable, "-c", script, fixture_path,
             str(tmp_path / "report.json")], env=env,
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "loaded:"


class TestErrors:
    def test_missing_file(self):
        assert main(["pipeline", "/nonexistent/fixture.json"]) == 3

    def test_malformed_fixture(self, tmp_path):
        fx = tmp_path / "bad.json"
        fx.write_text('{"bad": 1}\n')
        assert main(["pipeline", str(fx)]) == 3

    @pytest.mark.parametrize("command", [["pipeline"], ["verify", "jw"]],
                             ids=["pipeline", "verify"])
    @pytest.mark.parametrize("change, message", [
        (lambda doc: 5, "error: fixture is not a JSON object\n"),
        (lambda doc: dict(doc, field=5),
         "error: fixture 'field' must be of type str, got 5\n"),
        (lambda doc: dict(doc, matrices=5),
         "error: fixture 'matrices' must be of type list, got 5\n"),
        (lambda doc: dict(doc, matrices=[5] * 5),
         "error: fixture 'matrices' is not a list of lists\n"),
        (lambda doc: dict(doc, two_m="6"),
         "error: fixture 'two_m' must be of type int, got '6'\n"),
        (lambda doc: dict(doc, matrices=[["1/0"] * 15] * 5),
         "error: bad matrix entry: Fraction(1, 0)\n")],
        ids=["top-level", "field", "matrices", "matrix", "two_m", "entry"])
    def test_unusable_fixture_document(self, fixture_path, tmp_path, capsys,
                                       command, change, message):
        with open(fixture_path) as fh:
            doc = change(json.load(fh))
        fx = tmp_path / "bad.json"
        fx.write_text(json.dumps(doc))
        assert main([command[0], str(fx)] + command[1:]) == 3
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("command", [["pipeline"], ["verify", "jw"]],
                             ids=["pipeline", "verify"])
    @pytest.mark.parametrize("two_m", [0, -2, 5])
    def test_two_m_not_even_and_positive(self, fixture_path, tmp_path, capsys,
                                         command, two_m):
        with open(fixture_path) as fh:
            doc = dict(json.load(fh), two_m=two_m)
        fx = tmp_path / "bad.json"
        fx.write_text(json.dumps(doc))
        assert main([command[0], str(fx)] + command[1:]) == 3
        assert capsys.readouterr().err == (
            "error: fixture 'two_m' must be an even integer >= 2, got %d\n"
            % two_m)

    def test_unparseable_json(self, tmp_path):
        fx = tmp_path / "broken.json"
        fx.write_text("{nope")
        assert main(["pipeline", str(fx)]) == 3

    def test_usage_error_exits_3(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 3

    def test_bad_field_token(self, fixture_path):
        assert main(["verify", fixture_path, "regularity",
                     "--fields", "6"]) == 3

    @pytest.mark.parametrize("from_env", [False, True], ids=["flag", "env"])
    def test_gf_of_a_non_prime_power(self, fixture_path, monkeypatch,
                                     capsys, from_env):
        argv = ["verify", fixture_path, "regularity"]
        if from_env:
            monkeypatch.setenv("PFAFFIAN_NETS_FIELDS", "GF(6)")
        else:
            argv += ["--fields", "GF(6)"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: 6 is not a prime power\n"

    @pytest.mark.parametrize("command", [["pipeline"], ["verify", "jw"]],
                             ids=["pipeline", "verify"])
    @pytest.mark.parametrize("option, value", [
        ("samples", "0"), ("degree-cap", "-1"), ("prime", "46349"),
        ("prime", "32004"), ("prime", "1"), ("fields", "101"),
        ("fields", "81"), ("fields", "32"), ("fields", "64")])
    @pytest.mark.parametrize("from_env", [False, True], ids=["flag", "env"])
    def test_out_of_range_option(self, fixture_path, monkeypatch, capsys,
                                 command, option, value, from_env):
        argv = command[:1] + [fixture_path] + command[1:]
        if from_env:
            name = "PFAFFIAN_NETS_" + option.upper().replace("-", "_")
            monkeypatch.setenv(name, value)
        else:
            argv += ["--" + option, value]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and value in err

    @staticmethod
    def _field_names(fixture_path, argv):
        """The `parameters.fields` of a report run with these arguments."""
        with open(fixture_path) as fh:
            net = net_from_fixture(json.load(fh))
        opts = cli._options(cli.make_parser().parse_args(argv), net)
        return [f.name for f in opts["fields"]]

    @pytest.mark.parametrize("value, same_as", [
        ("GF(3,2)", "GF(3^2)"), ("2,GF(3,2)", "2,GF(3^2)")])
    @pytest.mark.parametrize("from_env", [False, True], ids=["flag", "env"])
    def test_field_names_with_a_comma(self, fixture_path, monkeypatch,
                                      value, same_as, from_env):
        # the form fixture files use; the comma inside is no separator
        argv = ["verify", fixture_path, "regularity"]
        if from_env:
            monkeypatch.setenv("PFAFFIAN_NETS_FIELDS", value)
            given = argv
        else:
            given = argv + ["--fields", value]
        assert main(given) == 0
        assert self._field_names(fixture_path, given) \
            == self._field_names(fixture_path, argv + ["--fields", same_as])

    @pytest.mark.parametrize("value, same_as", [
        ("GF(4)", "4"), ("GF(9)", "9"), ("GF(7)", "7"),
        ("2,gf( 4 )", "2,4")])
    @pytest.mark.parametrize("from_env", [False, True], ids=["flag", "env"])
    def test_gf_of_an_order(self, fixture_path, monkeypatch, value,
                            same_as, from_env):
        # GF(q) names the field of order q, as the bare q does
        argv = ["verify", fixture_path, "regularity"]
        if from_env:
            monkeypatch.setenv("PFAFFIAN_NETS_FIELDS", value)
            given = argv
        else:
            given = argv + ["--fields", value]
        assert main(given) == 0
        assert self._field_names(fixture_path, given) \
            == self._field_names(fixture_path, argv + ["--fields", same_as])

    def test_rank_table_budget(self, fixture_path):
        # P^5(F_q) has at most 2,000,000 points up to q = 17
        argv = ["verify", fixture_path, "classification", "--fields"]
        assert self._field_names(fixture_path, argv + ["16,17"]) \
            == ["GF(2^4)", "GF(17)"]
        with pytest.raises(ValueError, match="'19'.* 2613660 points"):
            self._field_names(fixture_path, argv + ["2,19"])

    @pytest.mark.parametrize("value", ["", ","], ids=["empty", "comma"])
    @pytest.mark.parametrize("from_env", [False, True], ids=["flag", "env"])
    def test_fields_naming_no_field(self, fixture_path, monkeypatch, capsys,
                                    value, from_env):
        # over no field, sing(X) = X cap kappa(Y) would pass vacuously
        argv = ["pipeline", fixture_path]
        if from_env:
            monkeypatch.setenv("PFAFFIAN_NETS_FIELDS", value)
        else:
            argv += ["--fields", value]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: --fields names no field\n"


    @pytest.mark.parametrize("command", [["pipeline"], ["verify", "jw"]],
                             ids=["pipeline", "verify"])
    @pytest.mark.parametrize("field, entry", [
        ("QQ", [1, 2]), ("QQ", 0.5), ("GF(3,2)", "1/2")],
        ids=["list-over-QQ", "float-over-QQ", "fraction-over-GF(9)"])
    def test_entry_the_field_cannot_take(self, tmp_path, capsys, command,
                                         field, entry):
        doc = net_to_fixture(ANet.from_upper_triangles(QQ, 6,
                                                       PINNED_UPPERS[0]))
        doc["field"] = field
        doc["matrices"][0][0] = entry
        fx = tmp_path / "bad_entry.json"
        fx.write_text(json.dumps(doc))
        argv = command[:1] + [str(fx)] + command[1:]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: bad matrix entry: ")
        assert "Traceback" not in err


class TestReportDiff:
    def test_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text('{"x": [1, 2], "y": {"z": 3}}\n')
        assert main(["report-diff", str(a), str(a)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_value_difference(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text('{"x": {"y": 1}}\n')
        b.write_text('{"x": {"y": 2}}\n')
        assert main(["report-diff", str(a), str(b)]) == 1
        assert "x.y: 1 != 2" in capsys.readouterr().out

    def test_length_and_key_differences(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text('{"l": [1, 2], "only": 1}\n')
        b.write_text('{"l": [1]}\n')
        assert main(["report-diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "l: length 2 != 1" in out
        assert "only: only in first" in out

    def test_input_error(self, tmp_path):
        assert main(["report-diff", str(tmp_path / "none.json"),
                     str(tmp_path / "none.json")]) == 3


class TestOptionResolution:
    def test_env_supplies_default(self, fixture_path, capsys, monkeypatch):
        monkeypatch.setenv("PFAFFIAN_NETS_SAMPLES", "9")
        assert main(["verify", fixture_path, "jw",
                     "--fields", "3"]) == 0
        reports = json.loads(capsys.readouterr().out)["detail"]["reports"]
        assert [r["plan"]["count"] for r in reports][-1] == 9

    def test_flag_beats_env(self, fixture_path, capsys, monkeypatch):
        monkeypatch.setenv("PFAFFIAN_NETS_SAMPLES", "9")
        assert main(["verify", fixture_path, "jw",
                     "--fields", "3", "--samples", "12"]) == 0
        reports = json.loads(capsys.readouterr().out)["detail"]["reports"]
        assert [r["plan"]["count"] for r in reports][-1] == 12

    @pytest.fixture(scope="class")
    def gf3_report(self, fixture_path, tmp_path_factory):
        out = tmp_path_factory.mktemp("gf3") / "report.json"
        main(["pipeline", fixture_path, "-o", str(out), "--samples", "50",
              "--fields", "3"])
        return out.read_bytes()

    @pytest.mark.parametrize("value", ["3,3", "3,GF(3)"])
    @pytest.mark.parametrize("from_env", [False, True], ids=["flag", "env"])
    def test_repeated_field_runs_once(self, fixture_path, gf3_report,
                                      tmp_path, monkeypatch, value,
                                      from_env):
        # a field named twice is one field: listed once, its plans run once
        out = tmp_path / "report.json"
        argv = ["pipeline", fixture_path, "-o", str(out), "--samples", "50"]
        if from_env:
            monkeypatch.setenv("PFAFFIAN_NETS_FIELDS", value)
        else:
            argv += ["--fields", value]
        main(argv)
        assert out.read_bytes() == gf3_report

    def test_field_tokens(self):
        assert cli._field_from_token("2").name == "GF(2)"
        assert cli._field_from_token("9").name == "GF(3^2)"
        assert cli._field_from_token("GF(3^2)").name == "GF(3^2)"
        with pytest.raises(ValueError):
            cli._field_from_token("QQ")
        with pytest.raises(ValueError):
            cli._field_from_token("6")
