import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import catalan
from permscheme import cli, counting, oracle
from permscheme.cli import BRUTE_FORCE_MAX_N, KEY_BUDGET, main
from permscheme.scheme import deserialize


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    result = runner.invoke(main, args, catch_exceptions=False, **kw)
    return result


@pytest.mark.parametrize(
    "args",
    [
        ["count", "--scheme", "c.json", "-n", "-1"],
        ["oracle", "count", "-p", "123", "-n", "-1"],
        ["oracle", "members", "-p", "123", "-n", "-1"],
        ["scheme", "verify", "--scheme", "c.json", "--check-n", "-1"],
        ["sequence", "--scheme", "c.json", "-L", "0"],
        ["guess", "--scheme", "c.json", "-L", "0"],
        ["compare", "-a", "123", "-b", "132", "-L", "0"],
        ["scheme", "find", "-p", "123", "--max-depth", "0"],
        ["compare", "-a", "123", "-b", "132", "--max-depth", "0"],
        ["guess", "--scheme", "c.json", "-L", "30", "--max-order", "-1"],
        ["guess", "--scheme", "c.json", "-L", "30", "--max-degree", "-1"],
        ["guess", "--scheme", "c.json", "-L", "30", "--guard", "-1"],
    ],
)
def test_out_of_range_option_is_usage_error(runner, args):
    # Click rejects the value before the command reads any file.
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "is not in the range" in result.output
    assert result.stdout == ""


def test_help_shows_option_range(runner):
    assert "x>=0" in invoke(runner, ["count", "--help"]).stdout
    # --max-order, --max-degree and --guard.
    assert invoke(runner, ["guess", "--help"]).stdout.count("x>=0") == 3


class TestSchemeFind:
    def test_find_and_count(self, runner, tmp_path):
        path = tmp_path / "both.json"
        result = invoke(runner, ["scheme", "find", "-p", "123,132", "--max-depth", "2", "-o", str(path)])
        assert result.exit_code == 0
        loaded = deserialize(path.read_text())
        assert loaded.patterns == ((1, 2, 3), (1, 3, 2))
        counted = invoke(runner, ["count", "--scheme", str(path), "-n", "3"])
        assert counted.exit_code == 0
        assert counted.stdout.strip() == "4"

    def test_document_on_stdout(self, runner):
        result = invoke(runner, ["scheme", "find", "-p", "123", "--max-depth", "2"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["schema_version"] == 1
        assert result.stdout.endswith("\n")

    def test_failure_record_and_exit_one(self, runner):
        result = invoke(runner, ["scheme", "find", "-p", "123", "--max-depth", "1"])
        assert result.exit_code == 1
        record = json.loads(result.stdout)
        assert record["result"] == "failure"
        assert record["max_depth"] == 1

    def test_empty_pattern_set(self, runner, tmp_path):
        path = tmp_path / "empty.json"
        assert invoke(runner, ["scheme", "find", "-p", "", "--max-depth", "1", "-o", str(path)]).exit_code == 0
        seq = invoke(runner, ["sequence", "--scheme", str(path), "-L", "5"])
        assert seq.stdout.split() == ["1", "2", "6", "24", "120"]

    def test_bad_patterns_usage_error(self, runner):
        result = runner.invoke(main, ["scheme", "find", "-p", "12a", "--max-depth", "2"])
        assert result.exit_code == 2

    def test_symmetries_label_on_stderr(self, runner):
        result = invoke(runner, ["scheme", "find", "-p", "321", "--max-depth", "2", "--symmetries"])
        assert result.exit_code == 0
        assert "symmetry: reverse" in result.stderr
        doc = json.loads(result.stdout)
        assert doc["patterns"] == [[1, 2, 3]]

    def test_explain_writes_log_to_stderr(self, runner):
        result = invoke(runner, ["scheme", "find", "-p", "123", "--max-depth", "2", "--explain"])
        assert result.exit_code == 0
        records = [json.loads(line) for line in result.stderr.splitlines()]
        assert {"sigma": [1, 2], "disposition": "redu", "gaps": [2], "delete_rank": 2} in records
        json.loads(result.stdout)

    def test_explain_records_zero_class(self, runner):
        result = invoke(runner, ["scheme", "find", "-p", "1", "--max-depth", "1", "--explain"])
        assert result.exit_code == 0
        records = [json.loads(line) for line in result.stderr.splitlines()]
        assert records == [
            {"sigma": [], "disposition": "expa", "gaps": [0]},
            {"sigma": [1], "disposition": "zero"},
        ]

    def test_explain_records_stuck_class(self, runner):
        result = invoke(runner, ["scheme", "find", "-p", "123", "--max-depth", "1", "--explain"])
        assert result.exit_code == 1
        records = [json.loads(line) for line in result.stderr.splitlines()]
        assert records[-1] == {"sigma": [1], "disposition": "stuck-at-depth"}
        assert json.loads(result.stdout)["result"] == "failure"

    def test_empirical_mode(self, runner, tmp_path):
        path = tmp_path / "e123.json"
        result = invoke(
            runner,
            ["scheme", "find", "-p", "123", "--max-depth", "2", "--mode", "empirical", "-o", str(path)],
        )
        assert result.exit_code == 0
        assert deserialize(path.read_text()).mode == "empirical"

    def test_empirical_mode_finds_no_wrong_scheme(self, runner):
        # At horizon 8 this search returned a scheme that miscounts at n = 9.
        result = runner.invoke(main, ["scheme", "find", "-p", "2143", "--max-depth", "6", "--mode", "empirical"])
        assert result.exit_code == 1
        assert json.loads(result.stdout)["result"] == "failure"

    def test_empirical_explain_records_stuck_class(self, runner):
        # The exact mode writes the same log as the certified one, so a
        # failure ends at its stuck class.
        args = ["scheme", "find", "-p", "2143", "--max-depth", "6", "--mode", "empirical", "--explain"]
        result = invoke(runner, args)
        assert result.exit_code == 1
        records = [json.loads(line) for line in result.stderr.splitlines()]
        assert records[-1] == {"sigma": [1, 2, 3, 6, 4, 5], "disposition": "stuck-at-depth"}
        assert json.loads(result.stdout)["result"] == "failure"

    @pytest.mark.parametrize("mode", ["certified", "empirical"])
    def test_empirical_n_is_no_option(self, runner, mode):
        # The empirical search derives its horizon; a fixed one could only be wrong.
        args = ["scheme", "find", "-p", "123", "--max-depth", "2", "--mode", mode, "--empirical-n", "9"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "No such option" in result.stderr and "--empirical-n" in result.stderr
        assert "--empirical-n" not in runner.invoke(main, ["scheme", "find", "--help"]).output

    def test_boolean_pattern_entry_is_usage_error(self, runner):
        result = runner.invoke(main, ["scheme", "find", "-p", "[[true,2,3]]", "--max-depth", "2"])
        assert result.exit_code == 2

    def test_explain_with_symmetries_is_usage_error(self, runner):
        # The symmetric search keeps no log, so the pair would print none.
        result = runner.invoke(main, ["scheme", "find", "-p", "321", "--max-depth", "2", "--symmetries", "--explain"])
        assert result.exit_code == 2
        assert result.stdout == ""

    def test_output_into_missing_directory_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "missing" / "x.json"
        result = runner.invoke(main, ["scheme", "find", "-p", "123", "--max-depth", "2", "-o", str(path)])
        assert result.exit_code == 2
        assert f"cannot write scheme file {path}" in result.stderr
        assert result.stdout == ""

    def test_empirical_with_symmetries(self, runner):
        args = ["scheme", "find", "-p", "321", "--max-depth", "2", "--mode", "empirical", "--symmetries"]
        result = invoke(runner, args)
        assert result.exit_code == 0
        assert "symmetry: reverse" in result.stderr
        found = deserialize(result.stdout)
        assert found.patterns == ((1, 2, 3),) and found.mode == "empirical"
        assert counting.sequence(found, 10) == [catalan(n) for n in range(1, 11)]

    def test_failing_symmetric_search(self, runner):
        result = invoke(runner, ["scheme", "find", "-p", "1324", "--max-depth", "3", "--symmetries"])
        assert result.exit_code == 1
        assert json.loads(result.stdout)["result"] == "failure"
        assert "symmetry:" not in result.stderr

    def test_byte_identical_outputs(self, runner):
        args = ["scheme", "find", "-p", "1234,1243,1324", "--max-depth", "4"]
        assert invoke(runner, args).stdout == invoke(runner, args).stdout


class TestSchemeVerify:
    def test_verify_good_scheme(self, runner, tmp_path):
        path = tmp_path / "c123.json"
        invoke(runner, ["scheme", "find", "-p", "123", "--max-depth", "2", "-o", str(path)])
        result = invoke(runner, ["scheme", "verify", "--scheme", str(path), "--check-n", "7"])
        assert result.exit_code == 0
        assert "counts match brute force" in result.stdout

    def test_default_check_n_reaches_first_wrong_size(self, runner):
        # A wrong {2143} document at depth 6, written by an empirical search
        # that checked sizes only up to 8: it first miscounts at
        # n = 9 = 6 + 4 - 1, which the default reaches.
        path = Path(__file__).parent / "data" / "empirical_2143_depth6_horizon8.json"
        result = invoke(runner, ["scheme", "verify", "--scheme", str(path)])
        assert result.exit_code == 1
        assert "mismatch at n=9" in result.stdout

    def test_default_check_n_bounds(self, runner, tmp_path, monkeypatch):
        # {123} at depth 2 gives 2 + 3 - 1 = 4, raised to 8, then capped.
        path = tmp_path / "c123.json"
        invoke(runner, ["scheme", "find", "-p", "123", "--max-depth", "2", "-o", str(path)])
        result = invoke(runner, ["scheme", "verify", "--scheme", str(path)])
        assert "counts match brute force for n <= 8" in result.stdout
        monkeypatch.setattr(cli, "BRUTE_FORCE_MAX_N", 7)
        result = invoke(runner, ["scheme", "verify", "--scheme", str(path)])
        assert "counts match brute force for n <= 7" in result.stdout

    def test_check_n_zero_still_reports(self, runner, tmp_path):
        path = tmp_path / "c123.json"
        invoke(runner, ["scheme", "find", "-p", "123", "--max-depth", "2", "-o", str(path)])
        result = invoke(runner, ["scheme", "verify", "--scheme", str(path), "--check-n", "0"])
        assert result.exit_code == 0
        assert "counts match brute force for n <= 0" in result.stdout

    def test_sigma_listed_twice_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "c123.json"
        invoke(runner, ["scheme", "find", "-p", "123", "--max-depth", "2", "-o", str(path)])
        doc = json.loads(path.read_text())
        doc["redu"].append({"sigma": [1, 2], "delete_rank": 1, "gaps": [2]})
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["scheme", "verify", "--scheme", str(path)])
        assert result.exit_code == 2
        assert "twice" in result.output

    @pytest.mark.parametrize("command", [["scheme", "verify"], ["count", "-n", "5"]])
    def test_unclassified_reduction_target_is_usage_error(self, runner, tmp_path, command):
        # Deleting rank 4 of 3214 leads to 321, which the document lacks.
        path = tmp_path / "c123.json"
        invoke(runner, ["scheme", "find", "-p", "123", "--max-depth", "2", "-o", str(path)])
        doc = json.loads(path.read_text())
        doc["redu"].append({"sigma": [3, 2, 1, 4], "delete_rank": 4, "gaps": []})
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [*command, "--scheme", str(path)])
        assert result.exit_code == 2
        assert "reduction target (3, 2, 1) of (3, 2, 1, 4) not classified" in result.output

    def test_corrupted_document_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        result = runner.invoke(main, ["scheme", "verify", "--scheme", str(path)])
        assert result.exit_code == 2

    def test_missing_file_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["scheme", "verify", "--scheme", str(tmp_path / "nope.json")])
        assert result.exit_code == 2

    def test_wrong_scheme_detected(self, runner, tmp_path):
        # Structurally fine but semantically wrong: all-ones scheme labeled
        # with a pattern set counted by Catalan numbers.
        doc = {
            "patterns": [[1, 2, 3]],
            "mode": "certified",
            "expa": [{"sigma": [], "gaps": [], "refinements": [[1]]}],
            "redu": [{"sigma": [1], "delete_rank": 1, "gaps": [1]}],
            "zero": [],
        }
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(doc))
        result = invoke(runner, ["scheme", "verify", "--scheme", str(path), "--check-n", "4"])
        assert result.exit_code == 1
        assert "mismatch" in result.stdout


class TestSequenceAndCount:
    def test_catalan_sequence(self, runner, tmp_path):
        path = tmp_path / "c123.json"
        invoke(runner, ["scheme", "find", "-p", "123", "--max-depth", "2", "-o", str(path)])
        result = invoke(runner, ["sequence", "--scheme", str(path), "-L", "8"])
        assert [int(t) for t in result.stdout.split()] == [catalan(n) for n in range(1, 9)]
        as_json = invoke(runner, ["sequence", "--scheme", str(path), "-L", "8", "--format", "json"])
        doc = json.loads(as_json.stdout)
        assert doc["schema_version"] == 1
        assert doc["terms"] == [catalan(n) for n in range(1, 9)]

    def test_key_budget_is_usage_error(self, runner, tmp_path):
        # The {123} scheme tabulates 1 + n keys at size n.
        path = tmp_path / "c123.json"
        invoke(runner, ["scheme", "find", "-p", "123", "--max-depth", "2", "-o", str(path)])
        n = str(KEY_BUDGET)
        for args in (
            ["count", "--scheme", str(path), "-n", n],
            ["sequence", "--scheme", str(path), "-L", n],
            ["guess", "--scheme", str(path), "-L", n],
            ["scheme", "verify", "--scheme", str(path), "--check-n", n],
            # The {123} side is counted first, by the same scheme.
            ["compare", "-a", "123", "-b", "132", "-L", n],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 2
            assert f"needs {KEY_BUDGET + 1} keys" in result.output
            # No success line from a command that fails.
            assert "structure: ok" not in result.stdout

    def test_finite_class_checks_only_the_layers_built(self, runner, tmp_path):
        # {1234,4321} has no avoider past n = 9, and layer 60 of its depth-6
        # scheme would hold 139,087,369 keys. The counts stop a few layers
        # past n = 9, so the commands that read a sequence check the budget
        # against those layers only, and run within it.
        path = tmp_path / "e4.json"
        invoke(runner, ["scheme", "find", "-p", "1234,4321", "--max-depth", "6", "--mode", "empirical", "-o", str(path)])
        assert counting.layer_keys(deserialize(path.read_text()), 60) > KEY_BUDGET
        result = invoke(runner, ["sequence", "--scheme", str(path), "-L", "60"])
        assert result.exit_code == 0
        lines = result.stdout.split()
        assert len(lines) == 60 and lines[-1] == "0"
        assert lines[:10] == ["1", "2", "6", "22", "86", "306", "882", "1764", "1764", "0"]
        for args in (["sequence", "--scheme", str(path), "-L", "25"], ["guess", "--scheme", str(path), "-L", "60"]):
            assert runner.invoke(main, args).exit_code == 0, args

    def test_brute_force_over_cap_is_usage_error(self, runner, tmp_path):
        # Both fit the key budget; past the cap the brute force takes minutes.
        path = tmp_path / "c123.json"
        invoke(runner, ["scheme", "find", "-p", "123", "--max-depth", "2", "-o", str(path)])
        n = str(BRUTE_FORCE_MAX_N + 1)
        for args in (
            ["scheme", "verify", "--scheme", str(path), "--check-n", n],
            # Neither set has a scheme at depth 1.
            ["compare", "-a", "1324", "-b", "1234", "-L", n, "--max-depth", "1"],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 2
            assert f"brute force up to n = {n} is over the cap of n <= {BRUTE_FORCE_MAX_N}" in result.stderr
            assert "permscheme oracle count" in result.stderr
            assert "structure: ok" not in result.stdout

    def test_count_json(self, runner, tmp_path):
        path = tmp_path / "c123.json"
        invoke(runner, ["scheme", "find", "-p", "123", "--max-depth", "2", "-o", str(path)])
        result = invoke(runner, ["count", "--scheme", str(path), "-n", "12", "--format", "json"])
        assert json.loads(result.stdout) == {"schema_version": 1, "n": 12, "count": catalan(12)}


class TestGuess:
    def test_catalan_conjecture(self, runner, tmp_path):
        path = tmp_path / "c123.json"
        invoke(runner, ["scheme", "find", "-p", "123", "--max-depth", "2", "-o", str(path)])
        result = invoke(runner, ["guess", "--scheme", str(path), "-L", "30"])
        assert result.exit_code == 0
        assert result.stdout.strip() == "CONJECTURE: (n+2)*a(n+1) - (4*n+2)*a(n) = 0"

    def test_terms_file(self, runner, tmp_path):
        terms = tmp_path / "terms.txt"
        terms.write_text("\n".join(str(catalan(n)) for n in range(1, 31)))
        result = invoke(runner, ["guess", "--terms-file", str(terms)])
        assert result.exit_code == 0
        assert "(n+2)*a(n+1)" in result.stdout

    def test_json_output(self, runner, tmp_path):
        terms = tmp_path / "terms.txt"
        terms.write_text(" ".join(str(catalan(n)) for n in range(1, 31)))
        result = invoke(runner, ["guess", "--terms-file", str(terms), "--format", "json"])
        doc = json.loads(result.stdout)
        assert doc["status"] == "conjecture"
        assert doc["coefficients"] == [[-2, -4], [2, 1]]

    def test_no_recurrence_is_exit_one(self, runner, tmp_path):
        terms = tmp_path / "terms.txt"
        terms.write_text("\n".join(str(n * n + 1 if n % 2 else n**3) for n in range(1, 26)))
        result = invoke(runner, ["guess", "--terms-file", str(terms), "--max-order", "1", "--max-degree", "1"])
        assert result.exit_code == 1
        assert "no recurrence" in result.stdout

    def test_terms_file_as_json_array(self, runner, tmp_path):
        terms = tmp_path / "terms.json"
        terms.write_text(json.dumps([catalan(n) for n in range(1, 31)]))
        result = invoke(runner, ["guess", "--terms-file", str(terms)])
        assert result.exit_code == 0
        assert result.stdout == "CONJECTURE: (n+2)*a(n+1) - (4*n+2)*a(n) = 0\n"

    def test_empty_terms_file_is_usage_error(self, runner, tmp_path):
        terms = tmp_path / "terms.txt"
        terms.write_text(" \n")
        result = runner.invoke(main, ["guess", "--terms-file", str(terms)])
        assert result.exit_code == 2
        assert f"terms file {terms} is empty" in result.output

    def test_unreadable_terms_file_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["guess", "--terms-file", str(tmp_path / "nope.txt")])
        assert result.exit_code == 2
        assert "cannot read terms file" in result.output

    def test_no_recurrence_json(self, runner, tmp_path):
        terms = tmp_path / "terms.txt"
        terms.write_text("\n".join(str(n * n + 1 if n % 2 else n**3) for n in range(1, 26)))
        args = ["guess", "--terms-file", str(terms), "--max-order", "1", "--max-degree", "1", "--format", "json"]
        result = invoke(runner, args)
        assert result.exit_code == 1
        assert result.stdout == '{"schema_version":1,"status":"no-recurrence","max_order":1,"max_degree":1}\n'

    def test_boolean_term_is_usage_error(self, runner, tmp_path):
        terms = tmp_path / "terms.json"
        terms.write_text("[true, 2]")
        result = runner.invoke(main, ["guess", "--terms-file", str(terms)])
        assert result.exit_code == 2
        assert "must hold integers" in result.output

    def test_conflicting_sources(self, runner, tmp_path):
        result = runner.invoke(main, ["guess"])
        assert result.exit_code == 2

    def test_scheme_requires_length(self, runner, tmp_path):
        result = runner.invoke(main, ["guess", "--scheme", str(tmp_path / "c.json")])
        assert result.exit_code == 2
        assert "--scheme requires -L" in result.stderr

    @pytest.mark.parametrize(
        "text, message",
        [("1 2 3", "need at least"), ("[1, 2", "Expecting"), ("1 2 x", "invalid literal")],
        ids=["too-short", "unclosed-array", "non-integer"],
    )
    def test_bad_terms_file_is_usage_error(self, runner, tmp_path, text, message):
        terms = tmp_path / "terms.txt"
        terms.write_text(text)
        result = runner.invoke(main, ["guess", "--terms-file", str(terms)])
        assert result.exit_code == 2
        assert message in result.stderr
        assert result.stdout == ""

    def test_terms_file_takes_no_length(self, runner, tmp_path):
        terms = tmp_path / "terms.txt"
        terms.write_text("\n".join(str(catalan(n)) for n in range(1, 31)))
        result = runner.invoke(main, ["guess", "--terms-file", str(terms), "-L", "3"])
        assert result.exit_code == 2
        assert "--terms-file takes no -L" in result.stderr
        assert result.stdout == ""


class TestOracle:
    def test_count(self, runner):
        result = invoke(runner, ["oracle", "count", "-p", "123,132", "-n", "3"])
        assert result.stdout.strip() == "4"

    def test_count_json(self, runner):
        result = invoke(runner, ["oracle", "count", "-p", "123,132", "-n", "6", "--format", "json"])
        assert result.stdout == '{"schema_version":1,"n":6,"count":32}\n'

    def test_members(self, runner):
        result = invoke(runner, ["oracle", "members", "-p", "12", "-n", "4"])
        assert result.stdout.split() == ["4321"]
        as_json = invoke(runner, ["oracle", "members", "-p", "12", "-n", "4", "--format", "json"])
        assert json.loads(as_json.stdout)["members"] == [[4, 3, 2, 1]]

    def test_members_stream_in_lines_mode(self, runner, monkeypatch):
        # The first avoider is printed before the search goes on.
        def avoiders(n, patterns):
            yield (2, 1)
            raise RuntimeError("search interrupted")

        monkeypatch.setattr(oracle, "iter_avoiders", avoiders)
        result = runner.invoke(main, ["oracle", "members", "-p", "12", "-n", "2"])
        assert isinstance(result.exception, RuntimeError)
        assert result.stdout == "21\n"


class TestCompare:
    def test_wilf_pair_agreement(self, runner):
        result = invoke(runner, ["compare", "-a", "123", "-b", "132", "-L", "10"])
        assert result.exit_code == 0
        assert "sequences agree (n <= 10)" in result.stdout
        assert "not a proof" in result.stdout

    def test_difference_located(self, runner):
        result = invoke(runner, ["compare", "-a", "123", "-b", "12", "-L", "5"])
        assert "differ first at n = 2" in result.stdout

    def test_json(self, runner):
        result = invoke(runner, ["compare", "-a", "123", "-b", "321", "-L", "7", "--format", "json"])
        doc = json.loads(result.stdout)
        assert doc["agree"] is True
        assert doc["a"]["terms"] == doc["b"]["terms"]

    def test_brute_force_fallback(self, runner):
        # Neither set has a scheme at depth 1, so both sides are brute-forced.
        args = ["compare", "-a", "1324", "-b", "1234", "-L", "6", "--max-depth", "1"]
        doc = json.loads(invoke(runner, [*args, "--format", "json"]).stdout)
        terms = [1, 2, 6, 23, 103, 513]
        assert doc["a"] == {"patterns": [[1, 3, 2, 4]], "method": "brute-force", "terms": terms}
        assert doc["b"] == {"patterns": [[1, 2, 3, 4]], "method": "brute-force", "terms": terms}
        assert doc["agree"] is True and doc["first_difference"] is None
        assert invoke(runner, args).stdout.splitlines()[:2] == ["a: 1 2 6 23 103 513", "b: 1 2 6 23 103 513"]
