import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import projquant
from projquant import IrrepLabel, cli
from projquant.cli import main
from support import closed_form_coefficients


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_resonances_single_box(capsys):
    code, payload = run_json(capsys, "resonances", "--m", "2", "--diagram", "1", "--n", "0")
    assert code == 0
    assert payload == ["1"]


def test_resonances_sorted_fractions(capsys):
    code, payload = run_json(capsys, "resonances", "--m", "2", "--diagram", "2")
    assert code == 0
    assert payload == ["4/3", "5/3"]


def test_branch_single_box(capsys):
    code, payload = run_json(capsys, "branch", "--m", "3", "--diagram", "1")
    assert code == 0
    assert len(payload) == 2
    assert payload[0] == {"q": "0,0", "diagram": "1", "label": "D=1; m=2; n=0; delta=0", "dim": 2}
    assert payload[1]["q"] == "1,0" and payload[1]["dim"] == 1
    for item in payload:
        assert str(IrrepLabel.parse(item["label"])) == item["label"]


def test_eigenvalue_payload(capsys):
    code, payload = run_json(
        capsys, "eigenvalue", "--m", "2", "--diagram", "1", "--n", "0", "--delta", "0"
    )
    assert code == 0
    assert payload["c2"] == "1"
    assert payload["alpha"] == "1"


def test_quantize_success(capsys):
    code, payload = run_json(
        capsys, "quantize", "--m", "2", "-k", "1", "--lambda", "1/2", "--mu", "1/2"
    )
    assert code == 0
    assert payload == ["1", "1/2"]


def test_quantize_high_order(capsys):
    code, payload = run_json(
        capsys, "quantize", "--m", "2", "-k", "6", "--lambda", "1/2", "--mu", "1/3"
    )
    assert code == 0
    expected = closed_form_coefficients(2, 6, Fraction(1, 2), Fraction(1, 3))
    assert payload == [str(c) for c in expected]


def test_quantize_resonant_diagnostic(capsys):
    code, payload = run_json(
        capsys, "quantize", "--m", "2", "-k", "1", "--lambda", "0", "--mu", "1"
    )
    assert code == 1
    assert payload["error"] == "resonant weight"
    assert payload["delta"] == "1"
    assert payload["singular_deltas"] == ["1"]
    assert payload["offending_denominator"] == "delta - (1)"
    assert payload["message"] == (
        "quantization system rank-deficient at delta = 1: "
        "factor j = 1, (m+2k-j)/(m+1) = 1 vanishes"
    )


def test_casimir_check(capsys):
    code, payload = run_json(
        capsys,
        "casimir-check",
        "--m", "2", "--diagram", "1", "--delta", "1/2",
        "--trials", "2", "--seed", "3", "--max-degree", "2",
    )
    assert code == 0
    assert payload["matches"] is True
    assert payload["trials"] == 2


def test_lift_plan_payload(capsys):
    code, payload = run_json(
        capsys, "lift-plan", "--m", "2", "--diagram", "2", "--n", "0", "--delta", "0"
    )
    assert code == 0
    assert [node["q"] for node in payload["nodes"]] == ["0,0", "1,0", "2,0"]
    assert payload["nodes"][0]["coefficient"] is None
    assert payload["nodes"][1]["coefficient"] == "-6/5"
    assert payload["edges"] == [["0,0", "1,0"], ["1,0", "2,0"]]


def test_lift_plan_resonant_exit(capsys):
    code, payload = run_json(
        capsys, "lift-plan", "--m", "2", "--diagram", "2", "--delta", "5/3"
    )
    assert code == 1
    assert payload["error"] == "resonant weight"


def test_decompose_round_trip(capsys):
    v = "D=1; m=2; n=0; delta=0"
    code, payload = run_json(capsys, "decompose", "--v1", v, "--v2", v, "-k", "1")
    assert code == 0
    assert sum(item["multiplicity"] * item["dim"] for item in payload) == 2 * 2 * 2
    for item in payload:
        parsed = IrrepLabel.parse(item["label"])
        assert str(parsed) == item["label"]


def test_byte_identical_output(capsys):
    args = ("branch", "--m", "4", "--diagram", "3,2,2")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_table_format(capsys):
    code, out = run_cli(
        capsys, "--format", "table", "resonances", "--m", "2", "--diagram", "1"
    )
    assert code == 0
    assert out.strip() == "1"
    code, out = run_cli(
        capsys, "--format", "table", "branch", "--m", "3", "--diagram", "1"
    )
    assert code == 0
    assert "diagram" in out and "dim" in out


def test_env_format_override(capsys, monkeypatch):
    monkeypatch.setenv("PROJQUANT_FORMAT", "table")
    code, out = run_cli(capsys, "resonances", "--m", "2", "--diagram", "1")
    assert code == 0
    assert out.strip() == "1"
    # explicit flag wins over the environment
    code, out = run_cli(capsys, "--format", "json", "resonances", "--m", "2", "--diagram", "1")
    assert json.loads(out) == ["1"]


def test_invalid_env_format_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("PROJQUANT_FORMAT", "yaml")
    with pytest.raises(SystemExit) as exc:
        main(["resonances", "--m", "2", "--diagram", "1"])
    assert exc.value.code == 2


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["resonances", "--m", "2", "--diagram", "1,2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["quantize", "--m", "2", "-k", "1", "--lambda", "zero", "--mu", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_domain_error_exit_one(capsys):
    # branching down to rank 1 is outside the classification
    code, payload = run_json(capsys, "branch", "--m", "2", "--diagram", "1")
    assert code == 1
    assert payload["error"] == "domain error"


def test_negative_rationals_after_a_space(capsys):
    code, payload = run_json(capsys, "eigenvalue", "--m", "2", "--diagram", "1", "--delta", "-1/3")
    assert code == 0
    assert payload["delta"] == "-1/3"
    assert payload == run_json(
        capsys, "eigenvalue", "--m", "2", "--diagram", "1", "--delta=-1/3"
    )[1]
    code, payload = run_json(capsys, "resonances", "--m", "2", "--diagram", "2", "--base", "-1/2")
    assert code == 0
    assert payload == ["11/6", "13/6"]
    code, payload = run_json(
        capsys, "quantize", "--m", "2", "-k", "2", "--lambda", "-1/2", "--mu", "-1/3"
    )
    assert code == 0
    assert payload == run_json(
        capsys, "quantize", "--m", "2", "-k", "2", "--lambda=-1/2", "--mu=-1/3"
    )[1]
    code, payload = run_json(
        capsys, "branch", "--m", "3", "--diagram", "1", "--n", "-1", "--delta", "-.5"
    )
    assert code == 0
    assert all(item["label"].endswith("delta=-1/2") for item in payload)


@pytest.mark.parametrize(
    "argv,flag,value",
    [
        (("eigenvalue", "--m", "2", "--diagram", "1"), "--delta", "-1/3"),
        (("resonances", "--m", "2", "--diagram", "2"), "--base", "-1/2"),
        (("quantize", "--m", "2", "-k", "2", "--mu", "1/3"), "--lambda", "-1/2"),
    ],
    ids=["delta", "base", "lambda"],
)
def test_negative_rationals_after_abbreviated_flags(capsys, argv, flag, value):
    expected = run_json(capsys, *argv, f"{flag}={value}")
    assert expected[0] == 0
    # every unambiguous abbreviation argparse accepts, down to "--de" beside "--diagram"
    shortest = 4 if flag == "--delta" else 3
    for end in range(shortest, len(flag)):
        assert run_json(capsys, *argv, flag[:end], value) == expected


def test_unexpected_exception_is_reported_as_json(capsys, monkeypatch):
    def overflow(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_cmd_decompose", overflow)
    code, payload = run_json(
        capsys,
        "decompose",
        "--v2", "D=1200; m=2; n=0; delta=0",
        "--v1", "D=0; m=2; n=0; delta=0",
        "-k", "0",
    )
    assert code == 1
    assert payload["error"] == "internal error"
    assert payload["type"] == "RecursionError"
    assert payload["message"]


def test_decompose_with_more_boxes_than_the_recursion_limit(capsys):
    assert sys.getrecursionlimit() < 1200
    code, payload = run_json(
        capsys,
        "decompose",
        "--v2", "D=1200; m=2; n=0; delta=0",
        "--v1", "D=0; m=2; n=0; delta=0",
        "-k", "0",
    )
    assert code == 0
    assert payload == [
        {
            "label": "D=1200; m=2; n=0; delta=0",
            "diagram": "1200",
            "n": 0,
            "delta": "0",
            "multiplicity": 1,
            "dim": 1201,
        }
    ]


def test_optimized_interpreter_prints_the_same_bytes():
    # python -O strips assert statements; no invariant the output relies on may be one
    env = dict(os.environ, PYTHONPATH=str(Path(projquant.__file__).parents[1]))
    calls = [
        (["quantize", "--m", "3", "-k", "3", "--lambda", "1/3", "--mu", "1/7"], 0),
        (["quantize", "--m", "3", "-k", "3", "--lambda", "0", "--mu", "7/4"], 1),
        (
            ["decompose", "--v1", "D=2,1; m=3; n=1; delta=1/3",
             "--v2", "D=3,1; m=3; n=0; delta=1/2", "-k", "2"],
            0,
        ),
    ]  # fmt: skip
    for argv, code in calls:
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "projquant.cli", *argv],
                capture_output=True, env=env, timeout=120,
            )
            for flags in ([], ["-O"])
        ]
        assert [run.returncode for run in runs] == [code, code]
        assert runs[0].stdout and runs[0].stdout == runs[1].stdout
        assert runs[1].stderr == b""


def test_rational_flag_without_a_value_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eigenvalue", "--m", "2", "--diagram", "1", "--delta", "--n", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eigenvalue", "--m", "2", "--diagram", "1", "--delta", "-1/0"])
    assert exc.value.code == 2
