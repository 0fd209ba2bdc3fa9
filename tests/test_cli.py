"""Command line behavior: formats, overrides, exit codes, determinism."""

import io
import json
import os
import shlex
import subprocess
import sys
import textwrap
import tracemalloc
from argparse import Namespace
from pathlib import Path

import jsonschema
import pytest

from gutheory import (
    DecisionProblem,
    DistributionSpec,
    ValidationError,
    cli,
    decide,
    generate_sequence,
    render_decision_table,
    report_to_dict,
)
from gutheory.algorithms import MAX_DISTRIBUTIONS, MAX_DRAWS, MAX_K
from gutheory.cli import main

PROBLEM = {
    "natures": [
        {"name": "Status 1", "gum": [0.1, 0.2]},
        {"name": "Status 2", "gum": [0.2, 0.3]},
        {"name": "Status 3", "gum": [0.5, 0.7]},
    ],
    "schemes": [
        {"name": "S1", "payoffs": [100, 80, 90]},
        {"name": "S2", "payoffs": [120, 130, 110]},
        {"name": "S3", "payoffs": [150, 150, 120]},
        {"name": "S4", "payoffs": [160, 90, 140]},
    ],
}

SPACE = {
    "atoms": ["N1", "N2", "N3"],
    "gum": {"N1": [0.1, 0.2], "N2": [0.2, 0.3], "N3": [0.5, 0.7]},
}


DOCS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def report_schema(command: str) -> dict:
    """The published schema of ``command``'s ``--format json`` report."""
    return json.loads((DOCS / f"{command}_report.schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "decide", "--input", json.dumps(PROBLEM))
        assert code == 0
        for cell in ("[71,107]", "[93,140]", "[105,159]", "[104,157]"):
            assert cell in out
        assert "selected: S3" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "decide", "--input", json.dumps(PROBLEM), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, report_schema("decision"))
        assert payload["geus"] == [[71, 107], [93, 140], [105, 159], [104, 157]]
        assert payload["selected"] == "S3"

    def test_table_escapes_lone_surrogate(self, capsys):
        problem = {
            "natures": [{"name": "n", "gum": [1, 1]}],
            "schemes": [{"name": "x\ud800", "payoffs": [1]}, {"name": "y", "payoffs": [2]}],
        }
        code, out, err = run(capsys, "decide", "--input", json.dumps(problem))
        assert code == 0 and err == ""
        assert "\nx\\ud800 " in out and "selected: y" in out

    def test_table_pads_cells_by_printed_width(self, capsys):
        problem = {
            "natures": [{"name": "n", "gum": [1, 1]}],
            "schemes": [
                {"name": "x\ud800", "payoffs": [1]},
                {"name": "甲乙", "payoffs": [2]},
                {"name": "y", "payoffs": [3]},
            ],
        }
        code, out, err = run(capsys, "decide", "--input", json.dumps(problem))
        assert code == 0 and err == ""
        # The escape prints 7 columns and each CJK character 2.
        assert out.split("\n")[:5] == [
            "/        n      GEU    Comparison",
            "GUM      [1,1]  /      /",
            "x\\ud800  1      [1,1]  /",
            "甲乙     2      [2,2]  GEU2 > GEU1",
            "y        3      [3,3]  GEU3 > GEU2",
        ]

    def test_json_deterministic(self, capsys):
        argv = ("decide", "--input", json.dumps(PROBLEM), "--format", "json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_relation_cells_cost_few_bytes_each(self):
        # The CI step's nested layout: every scheme survives to stage 3 and
        # the report prints all m * m relation cells.  The writer reads the
        # rows one at a time, well under a byte a cell; holding them as a
        # list of rows cost one 8-byte reference per cell.
        m = 1600
        document = {
            "natures": [{"name": "a", "gum": [0.5, 0.5]}, {"name": "b", "gum": [0, 1]}],
            "schemes": [{"name": f"S{i}", "payoffs": [i, 100000 - 0.6 * i]} for i in range(m)],
            "attitude": "averse",
        }
        args = Namespace(attitude=None, tolerance=1e-9, format="json")
        tracemalloc.start()
        try:
            text, _ = cli._run_decide(document, args)
            for _ in text:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / m**2 < 2

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(PROBLEM), encoding="utf-8")
        code, out, _ = run(capsys, "decide", "--input", str(path))
        assert code == 0 and "selected: S3" in out

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(PROBLEM)))
        code, out, _ = run(capsys, "decide", "--input", "-")
        assert code == 0 and "selected: S3" in out

    def test_attitude_flag_overrides_document(self, capsys):
        document = dict(PROBLEM)
        document["schemes"] = PROBLEM["schemes"] + [
            {"name": "S5", "payoffs": [0, 530, 0]}
        ]
        document["attitude"] = "seeking"
        code, out, _ = run(
            capsys, "decide", "--input", json.dumps(document), "--attitude", "averse"
        )
        assert code == 0 and "selected: S5" in out

    def test_attitude_required_is_domain_error(self, capsys):
        document = dict(PROBLEM)
        document["schemes"] = PROBLEM["schemes"] + [
            {"name": "S5", "payoffs": [0, 530, 0]}
        ]
        code, _, err = run(capsys, "decide", "--input", json.dumps(document))
        assert code == 1
        assert "attitude" in err

    def test_attitude_error_quotes_names_on_one_line(self, capsys):
        document = {
            "natures": [{"name": "n", "gum": [0.2, 0.9]}],
            "schemes": [
                {"name": "x\ny", "payoffs": [1]},
                {"name": "z", "payoffs": [1]},
            ],
        }
        code, out, err = run(capsys, "decide", "--input", json.dumps(document))
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.endswith("needed to choose among 'x\\ny', 'z'\n")

    @pytest.mark.parametrize(
        "natures, schemes",
        [
            ([("n", [0.2, 0.9])], [("s" * 100_000 + "1", [1, 2]), ("s" * 100_000 + "2", [1, 2])]),
            ([("s" * 100_000, [0.2, 1.5]), ("s" * 100_000, [0.2, 0.9])], [("x", [1, 1])]),
            ([("n", [0.2, 0.9])], [("s" * 100_000 + "1", [1]), ("s" * 100_000 + "2", [1])]),
        ],
        ids=["long-scheme-names", "long-duplicate-statuses", "attitude-required"],
    )
    def test_long_names_stay_short_in_errors(self, capsys, natures, schemes):
        document = {
            "natures": [{"name": name, "gum": gum} for name, gum in natures],
            "schemes": [{"name": name, "payoffs": payoffs} for name, payoffs in schemes],
        }
        code, out, err = run(capsys, "decide", "--input", json.dumps(document))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert len(err.encode()) < 1024

    def test_domain_error_exit_one(self, capsys):
        document = {
            "natures": [{"name": "a", "gum": [0.1, 0.2]}],
            "schemes": [{"name": "x", "payoffs": [1, 2]}],
        }
        code, _, err = run(capsys, "decide", "--input", json.dumps(document))
        assert code == 1 and "error:" in err

    def test_overflowing_geu_is_domain_error(self, capsys):
        document = {
            "natures": [{"name": "a", "gum": [0.6, 0.6]}, {"name": "b", "gum": [0.6, 0.6]}],
            "schemes": [{"name": "x", "payoffs": [1.7e308, 1.7e308]}],
        }
        code, out, err = run(capsys, "decide", "--input", json.dumps(document))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "overflow" in err

    def test_nan_tolerance_domain_error(self, capsys):
        code, out, err = run(
            capsys, "decide", "--input", json.dumps(PROBLEM), "--tolerance", "nan"
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "tolerance" in err

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_infinite_tolerance_domain_error(self, capsys, fmt):
        # An infinite slack would call every pair Equal.
        code, out, err = run(
            capsys, "decide", "--input", json.dumps(PROBLEM), "--tolerance=inf", "--format", fmt
        )
        assert code == 1 and out == ""
        assert err == "error: tolerance must be finite and nonnegative, got inf\n"

    def test_malformed_json_exit_two(self, capsys):
        code, _, err = run(capsys, "decide", "--input", '{"natures": [')
        assert code == 2 and "line" in err

    def test_schema_violation_exit_two(self, capsys):
        document = {
            "natures": [{"name": "a", "gum": [0.1, 0.2]}],
            "schemes": [{"name": "x", "payoffs": "high"}],
        }
        code, _, err = run(capsys, "decide", "--input", json.dumps(document))
        assert code == 2 and "schema" in err

    def test_nan_rejected(self, capsys):
        code, _, err = run(
            capsys, "decide", "--input", '{"natures": [{"name": "a", "gum": [NaN, 0.2]}], "schemes": []}'
        )
        assert code == 2 and "non-finite" in err

    def test_missing_file(self, capsys, tmp_path):
        path = str(tmp_path / "absent.json")
        code, _, err = run(capsys, "decide", "--input", path)
        assert code == 2
        assert err == f"error: cannot read {path!r}: No such file or directory\n"

    def test_many_violations_stay_short(self, capsys):
        document = {
            "natures": [{"name": "a", "gum": [0.5, 0.5]}],
            "schemes": [{"name": f"S{i}", "payoffs": [-1]} for i in range(20_000)],
        }
        code, out, err = run(capsys, "decide", "--input", json.dumps(document))
        assert code == 1 and out == ""
        assert err.endswith("; and 19997 more\n")
        assert err.count("\n") == 1 and len(err.encode()) <= 1024
        with pytest.raises(ValidationError) as caught:
            DecisionProblem.from_dict(document)
        assert len(caught.value.violations) == 20_000

    def test_long_missing_path_stays_short(self, capsys, tmp_path):
        code, _, err = run(capsys, "decide", "--input", str(tmp_path / ("p" * 100_000)))
        assert code == 2 and err.startswith("error: cannot read")
        assert err.count("\n") == 1 and len(err.encode()) < 1024

    def test_integer_beyond_float_range_usage_error(self, capsys):
        huge = "1" + "0" * 400
        document = (
            '{"natures": [{"name": "a", "gum": [0.5, 1.0]}], '
            f'"schemes": [{{"name": "x", "payoffs": [{huge}]}}]}}'
        )
        code, out, err = run(capsys, "decide", "--input", document)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "float range" in err


class TestCluster:
    DOCUMENT = {
        "delta": 0.05,
        "items": [[0.1, 0.2], [0.12, 0.22], [0.5, 0.7], [0.52, 0.68]],
    }

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "cluster", "--input", json.dumps(self.DOCUMENT), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, report_schema("cluster"))
        assert payload["classes"] == [[0, 1], [2, 3]]

    def test_table(self, capsys):
        code, out, _ = run(capsys, "cluster", "--input", json.dumps(self.DOCUMENT))
        assert code == 0
        assert "class 1" in out and "class 2" in out

    def test_delta_flag_override(self, capsys):
        code, out, _ = run(
            capsys,
            "cluster",
            "--input",
            json.dumps(self.DOCUMENT),
            "--delta",
            "1.0",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["classes"] == [[0, 1, 2, 3]]

    def test_negative_delta_domain_error(self, capsys):
        document = {"delta": -0.5, "items": [[0.1, 0.2]]}
        code, _, err = run(capsys, "cluster", "--input", json.dumps(document))
        assert code == 1 and "nonnegative" in err

    def test_nan_delta_domain_error(self, capsys):
        code, out, err = run(
            capsys, "cluster", "--input", json.dumps(self.DOCUMENT), "--delta", "nan"
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "nonnegative" in err

    @pytest.mark.parametrize(
        "delta",
        ["1e400", "-1e400", "1" + "0" * 400, "1" + "0" * 5000],
        ids=["1e400", "-1e400", "int-401-digits", "int-5001-digits"],
    )
    def test_number_beyond_float_range_usage_error(self, capsys, delta):
        document = f'{{"delta": {delta}, "items": [[0.1, 0.2]]}}'
        code, out, err = run(capsys, "cluster", "--input", document, "--format", "json")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "float range" in err

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("delta", ["inf", "-inf", "1e400"])
    def test_infinite_delta_domain_error(self, capsys, fmt, delta):
        code, out, err = run(
            capsys,
            "cluster",
            "--input",
            json.dumps(self.DOCUMENT),
            f"--delta={delta}",
            "--format",
            fmt,
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "finite" in err

    def test_float_rounding_in_output(self, capsys):
        document = {"delta": 0.30000000000000004, "items": []}
        code, out, _ = run(
            capsys, "cluster", "--input", json.dumps(document), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["delta"] == 0.3


class TestGenerate:
    DOCUMENT = {
        "k": 8,
        "seed": 42,
        "distributions": [
            {"family": "normal", "mu": 0, "sigma2": 1},
            {"family": "exponential", "mu": 2},
        ],
    }

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--input", json.dumps(self.DOCUMENT), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, report_schema("generate"))
        assert payload["seed"] == 42 and payload["k"] == 8
        assert len(payload["elements"]) == 8

    def test_byte_identical_reruns(self, capsys):
        argv = ("generate", "--input", json.dumps(self.DOCUMENT), "--format", "json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_seed_flag_override(self, capsys):
        base = ("generate", "--input", json.dumps(self.DOCUMENT), "--format", "json")
        _, with_doc_seed, _ = run(capsys, *base)
        _, with_flag_seed, _ = run(capsys, *base, "--seed", "7")
        assert json.loads(with_flag_seed)["seed"] == 7
        assert with_doc_seed != with_flag_seed

    def test_default_seed_zero(self, capsys):
        document = {"k": 3, "distributions": [{"family": "normal", "mu": 0, "sigma2": 1}]}
        code, out, _ = run(
            capsys, "generate", "--input", json.dumps(document), "--format", "json"
        )
        assert code == 0 and json.loads(out)["seed"] == 0

    def test_normal_without_variance_fails_schema(self, capsys):
        document = {"k": 3, "distributions": [{"family": "normal", "mu": 0}]}
        code, _, err = run(capsys, "generate", "--input", json.dumps(document))
        assert code == 2 and "schema" in err

    def test_exponential_without_variance_ok(self, capsys):
        document = {"k": 3, "distributions": [{"family": "exponential", "mu": 2}]}
        code, _, _ = run(capsys, "generate", "--input", json.dumps(document))
        assert code == 0

    def test_bad_parameter_domain_error(self, capsys):
        document = {"k": 3, "distributions": [{"family": "exponential", "mu": -2}]}
        code, _, err = run(capsys, "generate", "--input", json.dumps(document))
        assert code == 1 and "positive mean" in err

    def test_table(self, capsys):
        code, out, _ = run(capsys, "generate", "--input", json.dumps(self.DOCUMENT))
        assert code == 0
        assert "generator: pcg64" in out

    def test_negative_seed_in_document_fails_schema(self, capsys):
        document = dict(self.DOCUMENT, seed=-1)
        code, out, err = run(capsys, "generate", "--input", json.dumps(document))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "schema" in err

    @pytest.mark.parametrize("k", [MAX_K + 1, 1e20])
    def test_length_above_ceiling_fails_schema(self, capsys, k):
        document = dict(self.DOCUMENT, k=k)
        code, out, err = run(capsys, "generate", "--input", json.dumps(document))
        assert code == 2 and out == ""
        assert err == (
            "error: input does not match the schema at $.k: "
            f"{k!r} is greater than the maximum of {MAX_K}\n"
        )

    def test_too_many_draws_domain_error(self, capsys):
        normal = {"family": "normal", "mu": 0, "sigma2": 1}
        document = dict(self.DOCUMENT, k=MAX_K, distributions=[normal] * 4)
        code, out, err = run(capsys, "generate", "--input", json.dumps(document))
        assert code == 1 and out == ""
        assert err == (
            "error: k times the number of distributions must be at most "
            f"{MAX_DRAWS}, got {MAX_K} * 4\n"
        )

    def test_distributions_up_to_the_cap(self, capsys):
        normal = {"family": "normal", "mu": 0, "sigma2": 1}
        document = {"k": 1, "distributions": [normal] * MAX_DISTRIBUTIONS}
        code, out, err = run(
            capsys, "generate", "--input", json.dumps(document), "--format", "json"
        )
        assert code == 0 and err == ""
        assert len(json.loads(out)["elements"]) == 1
        document["distributions"].append(normal)
        code, out, err = run(capsys, "generate", "--input", json.dumps(document))
        assert code == 2 and out == ""
        assert err.startswith("error: input does not match the schema at $.distributions: [{")
        assert err.endswith("... is too long\n") and err.count("\n") == 1
        assert len(err.encode()) <= 300

    @pytest.mark.parametrize(
        "families, bound",
        [(["normal"] * 3, 28), (["normal", "uniform", "exponential"], 40)],
        ids=["one-family", "mixed"],
    )
    def test_elements_cost_few_bytes_each(self, families, bound):
        # One family holds about 18 bytes an element: the kept draws and
        # the picks, 8 each, and the finite check's masks; its candidates
        # are drawn a chunk at a time.  Mixed families read about 25: they
        # scan and gather their words a chunk at a time too, and add the
        # slow draws they replay.  Holding the elements as Python floats
        # would add 32 more in a list and 8 in a tuple copy.
        specs = {
            "normal": {"family": "normal", "mu": 0, "sigma2": 1},
            "uniform": {"family": "uniform", "mu": 0.5, "sigma2": 0.08},
            "exponential": {"family": "exponential", "mu": 1},
        }
        document = {"k": 100_000, "distributions": [specs[f] for f in families]}
        args = Namespace(seed=None, format="json")
        # numpy and the replay are imported before the count starts.
        cli._run_generate(dict(document, k=1), args)
        tracemalloc.start()
        try:
            text, _ = cli._run_generate(document, args)
            for _ in text:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / document["k"] < bound

    def test_negative_seed_flag_domain_error(self, capsys):
        code, out, err = run(
            capsys, "generate", "--input", json.dumps(self.DOCUMENT), "--seed", "-1"
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "seed" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            # five of the twenty kept draws overflow to inf
            ({"family": "exponential", "mu": 1e308}, "drew inf"),
            ({"family": "uniform", "mu": 0, "sigma2": 1e308}, "uniform range"),
            ({"family": "exponential", "mu": 1e308, "sigma2": 1}, "expected inf"),
        ],
    )
    def test_beyond_float_range_domain_error(self, capsys, spec, message):
        document = {"k": 20, "seed": 0, "distributions": [spec]}
        code, out, err = run(
            capsys, "generate", "--input", json.dumps(document), "--format", "json"
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "distributions",
        [
            [{"family": "exponential", "mu": 1e308}],
            [{"family": "normal", "mu": 0, "sigma2": 1}, {"family": "exponential", "mu": 1e308}],
        ],
        ids=["one-family", "mixed"],
    )
    def test_overflowing_draw_prints_one_line(self, distributions):
        # An in-process run cannot see a numpy RuntimeWarning: pytest
        # records warnings instead of printing them.
        document = {"distributions": distributions, "k": 20}
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "gutheory", "generate", "--input", json.dumps(document)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: element ") and proc.stderr.count("\n") == 1
        assert "drew inf" in proc.stderr and "Warning" not in proc.stderr

    def test_closed_stdout_exit_one(self):
        document = {"k": 200000, "distributions": [{"family": "exponential", "mu": 1}]}
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "gutheory", "generate", "--input", json.dumps(document)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"seed: 0\n"
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        err = err.decode()
        assert proc.returncode == 1
        assert "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1


class TestValidate:
    def test_coherent_valid(self, capsys):
        code, out, err = run(capsys, "validate", "--input", json.dumps(SPACE))
        assert code == 0
        assert "valid: yes" in out
        assert err == ""

    def test_strict_mode_flag(self, capsys):
        code, out, err = run(
            capsys, "validate", "--input", json.dumps(SPACE), "--mode", "strict"
        )
        assert code == 1
        assert "valid: no" in out
        assert "0.8" in err

    def test_mode_from_document(self, capsys):
        document = dict(SPACE)
        document["mode"] = "strict"
        code, _, _ = run(capsys, "validate", "--input", json.dumps(document))
        assert code == 1

    NOT_UTF8 = b'{"atoms":["a"],"gum":{"a":[1,1]}}\xff'

    def test_file_not_utf8_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(self.NOT_UTF8)
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"error: cannot read {str(path)!r}: not UTF-8 text\n"

    def test_stdin_not_utf8_is_usage_error(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(self.NOT_UTF8), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, "validate", "--input", "-")
        assert code == 2 and out == ""
        assert err == "error: cannot read '-': not UTF-8 text\n"

    def test_stdin_not_an_object_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("[1]"))
        code, out, err = run(capsys, "validate", "--input", "-")
        assert code == 2 and out == ""
        assert err == "error: the input document must be a JSON object\n"

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "validate", "--input", json.dumps(SPACE), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, report_schema("validate"))
        assert payload["valid"] is True
        assert payload["sum_left"] == 0.8
        assert payload["sum_right"] == 1.2

    def test_invalid_interval_reported(self, capsys):
        document = {"atoms": ["A", "B"], "gum": {"A": [0.5, 0.2], "B": [0.5, 1.0]}}
        code, out, _ = run(
            capsys, "validate", "--input", json.dumps(document), "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        jsonschema.validate(payload, report_schema("validate"))
        assert payload["valid"] is False
        assert any("A" in v for v in payload["violations"])

    def test_infinite_tolerance_is_invalid(self, capsys):
        # Endpoint sums 0.1 and 0.2 would pass the strict law with an
        # infinite slack.
        document = {"atoms": ["A", "B"], "gum": {"A": [0.05, 0.1], "B": [0.05, 0.1]}}
        code, out, err = run(
            capsys, "validate", "--input", json.dumps(document), "--mode", "strict",
            "--tolerance=inf", "--format", "json",
        )
        assert code == 1 and json.loads(out)["valid"] is False
        assert err == (
            "error: invalid space: tolerance must be finite and nonnegative, got inf\n"
        )

    def test_overflowing_sum_reported_as_unavailable(self, capsys):
        document = {"atoms": ["A", "B"], "gum": {"A": [1e308, 1e308], "B": [1e308, 1e308]}}
        code, out, err = run(capsys, "validate", "--input", json.dumps(document))
        assert code == 1
        assert "sum left: n/a" in out and "sum right: n/a" in out
        assert err.startswith("error: invalid space:") and err.count("\n") == 1

    def test_empty_atoms_fails_schema(self, capsys):
        code, _, err = run(capsys, "validate", "--input", '{"atoms": [], "gum": {}}')
        assert code == 2 and "schema" in err

    @pytest.mark.parametrize(
        "document",
        [
            {"atoms": [f"a{i}" for i in range(100_000)], "gum": {}},
            {
                "atoms": [f"a{i}" for i in range(100_000)],
                "gum": {f"a{i}": [2, 3] for i in range(100_000)},
            },
            {"atoms": ["x" * 1_000_000, "b"], "gum": {"b": [1, 1]}},
        ],
        ids=["many-unmeasured", "many-out-of-range", "long-name"],
    )
    def test_violations_stay_short(self, capsys, document):
        code, out, err = run(capsys, "validate", "--input", json.dumps(document))
        assert code == 1
        assert err.startswith("error: invalid space:")
        assert err.count("\n") == 1 and len(err.encode()) < 1024
        assert len(out.encode()) < 1024

    def test_error_line_counts_what_it_does_not_name(self, capsys):
        # Each of the 64 violations names its atom in full.
        atoms = [f"{i:02d}" + "x" * 75 for i in range(64)]
        document = {"atoms": atoms, "gum": {a: [0.9, 0.2] for a in atoms}}
        code, out, err = run(
            capsys, "validate", "--input", json.dumps(document), "--format", "json"
        )
        assert code == 1 and len(json.loads(out)["violations"]) == 64
        assert err.startswith("error: invalid space:") and err.endswith("; and 61 more\n")
        assert err.count("\n") == 1 and len(err.encode()) < 1024


@pytest.mark.parametrize(
    "command, document, where",
    [
        (
            "decide",
            {"natures": [{"name": "a", "gum": [0.1]}], "schemes": PROBLEM["schemes"]},
            "$.natures[0].gum: [0.1] is too short",
        ),
        (
            "decide",
            {
                "natures": PROBLEM["natures"],
                "schemes": [{"name": "x", "payoffs": [True]}],
            },
            "$.schemes[0].payoffs[0]: True is not of type 'number'",
        ),
        (
            "cluster",
            {"delta": 0.1, "items": [], "x": 1},
            "$: Additional properties are not allowed ('x' was unexpected)",
        ),
        (
            "generate",
            {"k": 2, "distributions": [{"family": "normal", "mu": 0}]},
            "$.distributions[0]: 'sigma2' is a required property",
        ),
        (
            "validate",
            {"atoms": ["a", "a"], "gum": {"a": [0.5, 1.0]}},
            "$.atoms: ['a', 'a'] has non-unique elements",
        ),
        (
            "validate",
            {"atoms": ["a"], "gum": {"a\nb": 5}},
            "$.gum['a\\nb']: 5 is not of type 'array'",
        ),
        (
            "validate",
            {"atoms": ["a"], "gum": {"b\n": 5}},
            "$.gum['b\\n']: 5 is not of type 'array'",
        ),
    ],
)
def test_schema_error_text(capsys, command, document, where):
    code, out, err = run(capsys, command, "--input", json.dumps(document))
    assert code == 2 and out == ""
    assert err == f"error: input does not match the schema at {where}\n"


@pytest.mark.parametrize(
    "document, where",
    [
        ({"atoms": "x" * 1_000_000, "gum": {}}, "$.atoms: 'xxx"),
        ({"atoms": ["a"], "gum": {"k" * 1_000_000: 5}}, "$.gum['kkk"),
        ({"atoms": ["a"], "gum": {}, **{f"x{i}": 1 for i in range(100_000)}},
         "$: Additional properties are not allowed ('x0', "),
    ],
)
def test_schema_error_echo_is_bounded(capsys, document, where):
    code, out, err = run(capsys, "validate", "--input", json.dumps(document))
    assert code == 2 and out == ""
    assert err.startswith(f"error: input does not match the schema at {where}")
    assert err.count("\n") == 1 and len(err.encode()) <= 300


def _run_script(script: str, *flags: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )


def test_runs_without_jsonschema():
    """In a fresh interpreter, no subcommand loads jsonschema, dataclasses,
    inspect or the variables module, only generate loads numpy, and only
    generate with mixed families loads the ziggurat tables."""
    one_family = {"k": 8, "distributions": [{"family": "uniform", "mu": 0, "sigma2": 1}] * 2}
    runs = [
        ["decide", "--input", json.dumps(PROBLEM)],
        ["cluster", "--input", json.dumps(TestCluster.DOCUMENT)],
        ["validate", "--input", json.dumps(SPACE)],
        ["generate", "--input", json.dumps(one_family)],
        ["generate", "--input", json.dumps(TestGenerate.DOCUMENT)],
    ]
    proc = _run_script(f"""
        import sys
        from gutheory.cli import main
        for argv in {runs!r}:
            assert "numpy" not in sys.modules or argv[0] == "generate", argv
            assert "gutheory._ziggurat" not in sys.modules, argv
            code = main(argv)
            assert code == 0, (argv, code)
            for name in ("jsonschema", "dataclasses", "gutheory.variables"):
                assert name not in sys.modules, (argv, name)
            # numpy, which only generate loads, imports inspect itself.
            assert "inspect" not in sys.modules or argv[0] == "generate", argv
        assert "numpy" in sys.modules and "gutheory._ziggurat" in sys.modules
    """)
    assert proc.returncode == 0, proc.stderr


def test_clean_interpreter_loads_neither_pathlib_nor_typing():
    """Without ``site``, whose hooks may import both first, decide, cluster
    and validate load neither module."""
    runs = [
        ["decide", "--input", json.dumps(PROBLEM)],
        ["cluster", "--input", json.dumps(TestCluster.DOCUMENT)],
        ["validate", "--input", json.dumps(SPACE)],
    ]
    proc = _run_script(f"""
        import sys
        assert "pathlib" not in sys.modules and "typing" not in sys.modules
        from gutheory.cli import main
        for argv in {runs!r}:
            assert main(argv) == 0, argv
            for name in ("pathlib", "typing"):
                assert name not in sys.modules, (argv, name)
    """, "-S")
    assert proc.returncode == 0, proc.stderr


def test_runs_without_numpy():
    runs = [
        ["decide", "--input", json.dumps(PROBLEM)],
        ["cluster", "--input", json.dumps(TestCluster.DOCUMENT)],
        ["validate", "--input", json.dumps(SPACE)],
    ]
    proc = _run_script(f"""
        import sys
        sys.modules["numpy"] = None
        from gutheory import GUFunctionEnvelope, density_expectation, gu_integral
        from gutheory.cli import main
        for argv in {runs!r}:
            assert main(argv) == 0, argv
        env = GUFunctionEnvelope(
            lambda x: 1.0, lambda x: 2.0, domain=(0.0, 1.0), kind="density"
        )
        assert abs(gu_integral(env, 0.0, 1.0).right - 2.0) <= 1e-12
        assert abs(density_expectation(env).left - 0.5) <= 1e-12
    """)
    assert proc.returncode == 0, proc.stderr


# How deep the parser and the schema check reach before the stack runs out
# depends on the interpreter, so only 20,000 levels, beyond every supported
# one, pins the message; the rest pin the one-line exit-2 contract.
@pytest.mark.parametrize(
    "command, document, message",
    [
        ("validate", '{"atoms": ' + "[" * 990 + "]" * 990 + ', "gum": {}}', None),
        ("validate", '{"atoms": ' + "[" * 5000 + "]" * 5000 + ', "gum": {}}', None),
        ("cluster", '{"items": ' + '{"a": ' * 3000 + "1" + "}" * 3000 + "}", None),
        (
            "decide",
            '{"natures": ' + "[" * 20000 + "]" * 20000 + "}",
            "error: the document is nested too deeply\n",
        ),
    ],
    ids=["array-990", "array-5000", "object-3000", "array-20000"],
)
def test_deeply_nested_document_usage_error(capsys, command, document, message):
    code, out, err = run(capsys, command, "--input", document)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message is None or err == message


def _gut_shell(command: str, source: str, redirect: str, **env) -> subprocess.CompletedProcess:
    """Run ``python -m gutheory <command> --input <source>`` through the
    shell, so ``redirect`` can close or replace a standard stream."""
    src = Path(__file__).resolve().parent.parent / "src"
    argv = [sys.executable, "-m", "gutheory", command, "--input", source]
    line = f"{shlex.join(argv)} {redirect}"
    return subprocess.run(
        line, shell=True, capture_output=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src), **env),
    )


class TestStandardStreams:
    CLUSTER = {"delta": 0.1, "items": [[0.1, 0.2]]}

    @staticmethod
    def assert_one_error_line(proc, code):
        err = proc.stderr.decode()
        assert proc.returncode == code, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_table_writes_utf8_under_ascii_encoding(self):
        # Overlapping GEUs compare weakly, which the table prints as "≥".
        problem = {
            "natures": [{"name": "n", "gum": [0.2, 1]}],
            "schemes": [{"name": "a", "payoffs": [1]}, {"name": "b", "payoffs": [2]}],
        }
        proc = _gut_shell("decide", json.dumps(problem), "", PYTHONIOENCODING="ascii")
        assert proc.returncode == 0 and proc.stderr == b""
        assert "GEU2 ≥ GEU1".encode() in proc.stdout

    def test_stdout_closed_at_start_exit_one(self):
        proc = _gut_shell("cluster", json.dumps(self.CLUSTER), ">&-")
        self.assert_one_error_line(proc, 1)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "command, document",
        [
            ("generate", {"k": k, "distributions": [{"family": "exponential", "mu": 1}]})
            for k in (1, 200000)
        ]
        # An invalid space fails twice, in the space and in the write; only
        # the write failure is reported.
        + [("validate", {"atoms": ["a"], "gum": {"a": [2, 1]}})],
        ids=["buffered", "unbuffered", "invalid-space"],
    )
    def test_full_device_exit_one(self, command, document):
        proc = _gut_shell(command, json.dumps(document), ">/dev/full")
        self.assert_one_error_line(proc, 1)
        assert b"No space left on device" in proc.stderr

    def test_closed_stdin_usage_error(self):
        proc = _gut_shell("validate", "-", "<&-")
        self.assert_one_error_line(proc, 2)
        assert proc.stderr == b"error: cannot read '-': stdin is closed\n"


class _RecordedStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def nested(m: int) -> dict:
    """``m`` schemes whose GEUs each lie inside the one before."""
    return {
        "natures": [{"name": "a", "gum": [0.5, 0.5]}, {"name": "b", "gum": [0, 1]}],
        "schemes": [{"name": f"S{i}", "payoffs": [i, 2.5 * m - 0.6 * i]} for i in range(m)],
        "attitude": "averse",
    }


GENERATE_100K = {
    "k": 100_000,
    "distributions": [
        {"family": "normal", "mu": 0, "sigma2": 1},
        {"family": "exponential", "mu": 1},
    ],
}


def _table(document: dict) -> str:
    problem = DecisionProblem.from_dict(document)
    return render_decision_table(problem, decide(problem))


@pytest.mark.parametrize(
    "command, document, fmt, payload",
    [
        (
            "decide",
            nested(400),
            "json",
            lambda: cli._as_json(report_to_dict(decide(DecisionProblem.from_dict(nested(400))))),
        ),
        # About 100,000 characters: the table's lines cross a block edge.
        ("decide", nested(2000), "table", lambda: _table(nested(2000))),
        (
            "generate",
            GENERATE_100K,
            "json",
            lambda: cli._as_json({
                "seed": 0,
                "k": 100_000,
                "generator": "pcg64",
                "elements": generate_sequence(
                    [DistributionSpec.from_dict(d) for d in GENERATE_100K["distributions"]],
                    100_000,
                    0,
                ).elements,
            }),
        ),
    ],
    ids=["decide-400", "decide-2000-table", "generate-100000"],
)
def test_large_report_is_written_in_blocks(monkeypatch, command, document, fmt, payload):
    report = payload()
    stdout = _RecordedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([command, "--input", json.dumps(document), "--format", fmt]) == 0
    assert "".join(stdout.writes) == report + "\n"
    assert all(len(text) < len(report) for text in stdout.writes)
    # Whole pipe-sized blocks but the last, so a reader gets full reads.
    assert all(len(text) % cli._BLOCK == 0 for text in stdout.writes[:-1])


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(SPACE), encoding="utf-8")
        proc = subprocess.run(
            ["gut", "validate", "--input", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "valid: yes" in proc.stdout

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gutheory", "cluster", "--input",
             '{"delta": 0.1, "items": [[0.1, 0.2]]}', "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["classes"] == [[0]]

    def test_unknown_subcommand_usage_exit(self):
        proc = subprocess.run(
            ["gut", "frobnicate", "--input", "{}"], capture_output=True, text=True
        )
        assert proc.returncode == 2
