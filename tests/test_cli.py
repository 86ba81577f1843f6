import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import projquant
from projquant import EigenvaluePoly, IrrepLabel, cli, eigenvalue
from projquant.cli import main
from projquant.flatmodel import sections
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


def test_eigenvalue_cost_does_not_grow_with_the_rank(capsys):
    start = time.perf_counter()
    code, payload = run_json(
        capsys, "eigenvalue", "--m", "100000", "--diagram", "2,1", "--delta", "1/3"
    )
    assert time.perf_counter() - start < 1
    assert code == 0
    assert payload["c2"] == "50000"


def test_branch_cost_does_not_grow_quadratically_with_the_rank(capsys):
    start = time.perf_counter()
    code, payload = run_json(capsys, "branch", "--m", "1000", "--diagram", "1")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert [item["dim"] for item in payload] == [999, 1]


def test_branch_at_a_rank_of_a_hundred_thousand_answers_fast():
    # about 5 s as a subprocess while dimension walked every row pair up to the rank
    start = time.perf_counter()
    run = run_in_one_gibibyte("branch", "--m", "100000", "--diagram", "1")
    assert time.perf_counter() - start < 2
    assert run.returncode == 0 and run.stderr == ""
    payload = json.loads(run.stdout)
    assert [item["dim"] for item in payload] == [99999, 1]
    assert [item["q"] for item in payload] == [",".join("0" * 99999), "1" + ",0" * 99998]


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


def test_quantize_past_the_polynomial_degree_bound_is_domain_error(capsys):
    # mu = 115/2 puts delta = 57 on the factor j = 7: the degree bound is
    # checked before any resonance
    for mu in ("1/3", "115/2"):
        code, payload = run_json(
            capsys, "quantize", "--m", "8", "-k", "256", "--lambda", "1/2", "--mu", mu
        )
        assert code == 1
        assert payload["error"] == "domain error"
        assert "exceeds total degree 255" in payload["message"]


def test_quantize_past_the_size_budget_is_domain_error(capsys):
    # without the budget, k = 400 at m = 2 took 3.9 s and (m, k) = (1000, 1) 12 s
    for m, k, size in (("2", "400", 2424), ("1000", "1", 5020), ("60", "22", 1664)):
        start = time.perf_counter()
        code, payload = run_json(
            capsys, "quantize", "--m", m, "-k", k, "--lambda", "0", "--mu", "0"
        )
        assert time.perf_counter() - start < 0.5
        assert code == 1
        assert payload == {
            "error": "domain error",
            "message": f"order k = {k} at rank m = {m} has (m+4)(k+4) = {size}, "
            "over the budget of 1600",
        }
    # a resonant weight past the budget keeps its diagnostic
    code, payload = run_json(
        capsys, "quantize", "--m", "2", "-k", "400", "--lambda", "0", "--mu", "267"
    )
    assert code == 1 and payload["error"] == "resonant weight"
    assert payload["message"] == (
        "quantization system inconsistent at delta = 267: "
        "factor j = 1, (m+2k-j)/(m+1) = 267 vanishes"
    )


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


def test_casimir_check_stays_fast_at_a_large_rank(capsys):
    start = time.perf_counter()
    code, payload = run_json(
        capsys,
        "casimir-check", "--m", "40", "--diagram", "2", "--max-degree", "0", "--trials", "1",
    )  # fmt: skip
    assert time.perf_counter() - start < 1
    assert code == 0
    assert payload["matches"] is True


def test_casimir_check_answers_past_the_recursion_limit_in_rank(capsys):
    # 600 index tuples, each drawn one constant over 600 exponents
    assert sys.getrecursionlimit() < 2 * 600
    code, payload = run_json(
        capsys,
        "casimir-check", "--m", "600", "--diagram", "1", "--max-degree", "0", "--trials", "1",
    )  # fmt: skip
    assert code == 0
    assert payload["matches"] is True


def run_in_one_gibibyte(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a subprocess whose address space is capped at 1 GiB, so a
    call that would outgrow it fails fast instead of exhausting memory."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from projquant.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(projquant.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_calls_at_a_million_variables_fit_in_one_gibibyte():
    # a polynomial layout is O(m) memory: a million variables once took a
    # MemoryError or an out-of-memory kill
    quantize = run_in_one_gibibyte(
        "quantize", "--m", "1000000", "-k", "1", "--lambda", "0", "--mu", "0"
    )
    casimir = run_in_one_gibibyte(
        "casimir-check", "--m", "1000000", "--diagram", "0", "--max-degree", "0", "--trials", "1"
    )
    assert quantize.returncode == 1 and quantize.stderr == ""
    assert json.loads(quantize.stdout) == {
        "error": "domain error",
        "message": "order k = 1 at rank m = 1000000 has (m+4)(k+4) = 5000020, "
        "over the budget of 1600",
    }
    assert casimir.returncode == 0 and casimir.stderr == ""
    assert json.loads(casimir.stdout)["matches"] is True


def test_casimir_check_stays_fast_on_a_long_row(capsys):
    # 2^16 index tuples in 17 complete orbits, each scaled once instead of
    # swapped over 120 slot pairs per tuple
    start = time.perf_counter()
    code, payload = run_json(
        capsys,
        "casimir-check", "--m", "2", "--diagram", "16", "--max-degree", "0", "--trials", "1",
    )  # fmt: skip
    assert time.perf_counter() - start < 3
    assert code == 0
    assert payload["matches"] is True


def test_casimir_check_over_the_monomial_budget_is_domain_error(capsys):
    start = time.perf_counter()
    code, payload = run_json(
        capsys, "casimir-check", "--m", "2", "--diagram", "1", "--max-degree", "100000"
    )
    assert time.perf_counter() - start < 1
    assert code == 1
    assert payload["error"] == "domain error"
    assert payload["message"].startswith("5000150001 monomials of degree <= 100000")


def test_casimir_check_over_the_section_budget_is_domain_error(capsys, monkeypatch):
    # 5^8 index tuples took 12 s to check; the bound is raised before any draw
    def no_draw(*args):
        raise AssertionError("drew a section")

    monkeypatch.setattr(sections, "random_polynomial", no_draw)
    code, payload = run_json(capsys, "casimir-check", "--m", "5", "--diagram", "3,3,2")
    assert code == 1
    assert payload == {
        "error": "domain error",
        "message": "a section of diagram 3,3,2 at m = 5 stores up to 5^8 = 390625 "
        "index tuples, over the budget of 100000",
    }


def test_casimir_check_stops_the_section_count_at_the_budget(capsys):
    # m^|D| was formed in full: 2^20000 then failed on the interpreter's digit
    # limit, naming no input, and 10^(6 * 10^6) took about 4 s to get there
    start = time.perf_counter()
    code, payload = run_json(capsys, "casimir-check", "--m", "2", "--diagram", "20000")
    huge = run_in_one_gibibyte("casimir-check", "--m", "1000000", "--diagram", "1000000")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert payload == {
        "error": "domain error",
        "message": "a section of diagram 20000 at m = 2 stores at least 2^17 = 131072 "
        "index tuples, over the budget of 100000",
    }
    assert huge.returncode == 1 and huge.stderr == ""
    assert json.loads(huge.stdout) == {
        "error": "domain error",
        "message": "a section of diagram 1000000 at m = 1000000 stores at least "
        "1000000^1 = 1000000 index tuples, over the budget of 100000",
    }


def test_casimir_check_over_the_draw_budget_is_refused_fast():
    # 600 index tuples times C(602, 2) = 180,901 monomials: within each
    # budget apart, about 1.1e8 coefficients together
    start = time.perf_counter()
    run = run_in_one_gibibyte(
        "casimir-check", "--m", "600", "--diagram", "1", "--max-degree", "2", "--trials", "1"
    )
    assert time.perf_counter() - start < 1
    assert run.returncode == 1 and run.stderr == ""
    assert json.loads(run.stdout) == {
        "error": "domain error",
        "message": "a section of diagram 1 at m = 600 draws up to 600 x 180901 = 108540600 "
        "coefficients of degree <= 2, over the budget of 10000000",
    }


def test_casimir_check_refuses_a_huge_monomial_count_fast():
    # C(2 * 10^6, 10^6) has about 600,000 digits: forming it took about 40 s,
    # and then printing it failed on the interpreter's digit limit
    start = time.perf_counter()
    run = run_in_one_gibibyte(
        "casimir-check",
        "--m", "1000000", "--diagram", "0", "--max-degree", "1000000", "--trials", "1",
    )  # fmt: skip
    assert time.perf_counter() - start < 1
    assert run.returncode == 1 and run.stderr == ""
    assert json.loads(run.stdout) == {
        "error": "domain error",
        "message": "at least 1000001 monomials of degree <= 1000000 in 1000000 variables "
        "exceed the budget of 1000000",
    }


def test_casimir_check_spreads_a_long_row_over_its_distinct_rearrangements(capsys):
    # a row of 12 boxes at m = 2 stores 2^12 index tuples; listing all 12!
    # orders of each row key took minutes
    start = time.perf_counter()
    code, payload = run_json(
        capsys, "casimir-check", "--m", "2", "--diagram", "12", "--trials", "1", "--max-degree", "0"
    )
    assert time.perf_counter() - start < 10
    assert code == 0 and payload["matches"] is True


@pytest.mark.parametrize("seed", [9, 11, 12, 25])
def test_casimir_check_redraws_the_zero_section(capsys, monkeypatch, seed):
    # these seeds draw the zero section first, and it satisfies any eigenvalue
    def wrong_eigenvalue(label):
        poly = eigenvalue(label)
        return EigenvaluePoly(poly.c0 + 1, poly.c1, poly.c2)

    monkeypatch.setattr(cli, "eigenvalue", wrong_eigenvalue)
    code, payload = run_json(
        capsys,
        "casimir-check",
        "--m", "3", "--diagram", "0", "--max-degree", "0", "--trials", "1", "--seed", str(seed),
    )  # fmt: skip
    assert code == 1
    assert payload["matches"] is False
    assert payload["first_mismatch"] == []  # the one component of a scalar section


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("diagram", ["2,1", "2,2", "3,1", "2,1,1"])
def test_casimir_check_answers_for_multi_row_diagrams(capsys, diagram, m):
    code, payload = run_json(
        capsys, "casimir-check", "--m", str(m), "--diagram", diagram, "--delta", "1/3"
    )
    assert code == 0
    assert payload["matches"] is True and payload["trials"] == 5


def test_casimir_check_rejects_a_wrong_eigenvalue_on_a_hook(capsys, monkeypatch):
    def wrong_eigenvalue(label):
        poly = eigenvalue(label)
        return EigenvaluePoly(poly.c0 + 1, poly.c1, poly.c2)

    monkeypatch.setattr(cli, "eigenvalue", wrong_eigenvalue)
    code, payload = run_json(
        capsys, "casimir-check", "--m", "3", "--diagram", "2,1", "--trials", "1"
    )
    assert code == 1
    assert payload["matches"] is False
    assert len(payload["first_mismatch"]) == 3


def test_casimir_check_names_the_first_differing_component(capsys, monkeypatch):
    from projquant.flatmodel import Poly, TensorSection, algebra

    casimir = algebra.classical_casimir

    def off_at_two_components(section):
        bump = {index: Poly.constant(3, 1) for index in ((2, 0), (1, 2))}
        return casimir(section) + TensorSection(
            3, 2, section.twist, section.weight, bump
        )

    monkeypatch.setattr(algebra, "classical_casimir", off_at_two_components)
    code, payload = run_json(
        capsys, "casimir-check", "--m", "3", "--diagram", "2", "--trials", "1", "--max-degree", "1"
    )
    assert code == 1
    assert payload["matches"] is False
    assert payload["first_mismatch"] == [1, 2]


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
    assert payload["message"] == (
        "eigenvalue collision at removal q = 1 for delta = 5/3: component "
        "(D=1; m=2; n=0; delta=0) shares the eigenvalue alpha = 4/9 of the base component"
    )


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


_PINNED_SWEEP = [
    ["eigenvalue", "--m", "3", "--diagram", "2,1", "--n", "1", "--delta", "1/3"],
    ["resonances", "--m", "4", "--diagram", "3,1", "--base", "1/2"],
    ["branch", "--m", "4", "--diagram", "3,2,2"],
    ["branch", "--m", "3", "--diagram", "2,1", "--n", "1", "--delta", "-1/2"],
    ["decompose", "--v1", "D=2,1; m=3; n=1; delta=1/3",
     "--v2", "D=3,1; m=3; n=0; delta=1/2", "-k", "2"],
    ["quantize", "--m", "3", "-k", "3", "--lambda", "1/3", "--mu", "1/7"],
    ["quantize", "--m", "3", "-k", "3", "--lambda", "0", "--mu", "7/4"],
    ["casimir-check", "--m", "3", "--diagram", "2,1", "--delta", "1/3", "--trials", "2",
     "--max-degree", "2"],
    ["--format", "table", "branch", "--m", "4", "--diagram", "3,1", "--n", "-1"],
    ["--format", "table", "lift-plan", "--m", "3", "--diagram", "2,1", "--delta", "1/7"],
]  # fmt: skip
# lift-plan at 0, at 1/7 and at every resonance of each label
_PINNED_LIFT_LABELS = [
    ["--m", "3", "--diagram", "2,1", "--n", "-1"],
    ["--m", "4", "--diagram", "2,1,1"],
    ["--m", "4", "--diagram", "3,2", "--n", "1"],
]


def test_pinned_sweep_prints_the_pinned_bytes(capsys, monkeypatch):
    # sha256 over (argv, exit code, stdout) of a fixed sweep of all seven
    # subcommands; a refactor must leave every byte of it where it was
    monkeypatch.delenv("PROJQUANT_FORMAT", raising=False)
    calls = list(_PINNED_SWEEP)
    for flags in _PINNED_LIFT_LABELS:
        code, values = run_json(capsys, "resonances", *flags)
        assert code == 0 and values
        calls.append(["resonances", *flags])
        for delta in ["0", "1/7", *values]:
            calls.append(["lift-plan", *flags, "--delta", delta])
    digest = hashlib.sha256()
    codes = []
    for argv in calls:
        code, out = run_cli(capsys, *argv)
        codes.append(code)
        digest.update(repr((argv, code, out)).encode())
    assert codes.count(1) == 12  # 11 resonant lift plans and the resonant quantize
    assert digest.hexdigest() == (
        "9e65f93f38b2f1c9fa6e2c33e692e6ae8b0bb4cfb4257f167256796898809802"
    )


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


def test_table_format_renders_a_dict_payload(capsys):
    code, out = run_cli(
        capsys, "--format", "table", "eigenvalue",
        "--m", "3", "--diagram", "2,1", "--n", "1", "--delta", "1/2",
    )
    assert code == 0
    assert out == (
        "label: D=2,1; m=3; n=1; delta=1/2\n"
        "diagram: 2,1\n"
        "n: 1\n"
        "delta: 1/2\n"
        "c0: 39/4\n"
        "c1: -15/2\n"
        "c2: 3/2\n"
        "alpha: 51/8\n"
    )


def test_table_format_renders_nested_lists_of_dicts(capsys):
    code, out = run_cli(
        capsys, "--format", "table", "lift-plan",
        "--m", "2", "--diagram", "2", "--n", "0", "--delta", "0",
    )
    assert code == 0
    assert out == (
        "label: D=2; m=2; n=0; delta=0\n"
        "delta: 0\n"
        "nodes:\n"
        "  q    diagram  label                   coefficient\n"
        "  0,0  2        D=2; m=2; n=0; delta=0  -          \n"
        "  1,0  1        D=1; m=2; n=0; delta=0  -6/5       \n"
        "  2,0  0        D=0; m=2; n=0; delta=0  -3/4       \n"
        "edges:\n"
        "  0,0, 1,0\n"
        "  1,0, 2,0\n"
    )


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
    # a casimir-check that would check nothing
    for flags in (["--trials", "0"], ["--trials", "-2"], ["--max-degree", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(["casimir-check", "--m", "3", "--diagram", "0", *flags])
        assert exc.value.code == 2


def test_domain_error_exit_one(capsys):
    # branching down to rank 1 is outside the classification
    code, payload = run_json(capsys, "branch", "--m", "2", "--diagram", "1")
    assert code == 1
    assert payload["error"] == "domain error"
    # the rank is checked before the diagram's depth is compared with it
    code, payload = run_json(capsys, "eigenvalue", "--m", "-3", "--diagram", "0")
    assert code == 1
    assert payload == {"error": "domain error", "message": "rank must be at least 2, got -3"}


def test_label_with_a_zero_denominator_is_usage_error(capsys):
    label = "D=1; m=2; n=0; delta=1/0"
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--v1", label, "--v2", "D=1; m=2; n=0; delta=0", "-k", "1"])
    assert exc.value.code == 2
    assert f"invalid weight '1/0' in label text {label!r}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1e5000", "1e-5000"])
def test_rational_past_the_digit_limit_is_usage_error(capsys, text):
    # Fraction(text) would compute 10**5000, past what any answer can print
    with pytest.raises(SystemExit) as exc:
        main(["eigenvalue", "--m", "2", "--diagram", "1", f"--delta={text}"])
    assert exc.value.code == 2
    assert f"argument --delta: {text!r} spans more than" in capsys.readouterr().err
    label = f"D=1; m=2; n=0; delta={text}"
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--v1", label, "--v2", "D=1; m=2; n=0; delta=0", "-k", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --v1: invalid weight {text!r} in label text {label!r}" in err
    assert "spans more than" in err


def test_output_past_the_digit_limit_is_domain_error(capsys):
    # delta = 10^3000 is within the input limit, but alpha is about delta^2
    limit = sys.get_int_max_str_digits()
    code, payload = run_json(capsys, "eigenvalue", "--m", "2", "--diagram", "1", "--delta=1e3000")
    assert code == 1
    assert payload == {
        "error": "domain error",
        "message": f"output alpha has about 6001 digits, past the limit of {limit} digits "
        "for integer string conversion",
    }
    # just inside the limit the same call answers
    code, payload = run_json(capsys, "eigenvalue", "--m", "2", "--diagram", "1", "--delta=1e2000")
    assert code == 0 and len(payload["alpha"]) == 4000


@pytest.mark.parametrize(
    "label,field",
    [("D=0; m=2; m=3; n=0; delta=0", "repeated field 'm'"),
     ("D=1; m=2; n=0; delta=0; x=1", "unknown field 'x'")],
)  # fmt: skip
def test_label_with_a_repeated_or_unknown_field_is_usage_error(capsys, label, field):
    # "m=2; m=3" used to read as rank 3 and decompose answered "rank mismatch"
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--v1", "D=1; m=2; n=0; delta=0", "--v2", label, "-k", "1"])
    assert exc.value.code == 2
    assert f"{field} in label text {label!r}" in capsys.readouterr().err


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
        (["casimir-check", "--m", "3", "--diagram", "2,1", "--delta", "1/3", "--trials", "2"], 0),
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


def console_env(unbuffered: bool = False) -> dict:
    """Environment of a `python -m projquant.cli` child: these sources, the
    default format, an 80-column help text and the chosen stdout buffering."""
    env = dict(os.environ, PYTHONPATH=str(Path(projquant.__file__).parents[1]), COLUMNS="80")
    env.pop("PROJQUANT_FORMAT", None)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_console(*argv: str, unbuffered: bool = False, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, "-m", "projquant.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=console_env(unbuffered), timeout=120,
    )  # fmt: skip


def test_console_entry_prints_what_main_prints(capsys, monkeypatch):
    # the process ends in os._exit after an explicit flush: every exit code
    # and every byte on stdout and stderr must be those of the in-process main
    monkeypatch.delenv("PROJQUANT_FORMAT", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help at this width
    codes = []
    for argv in [*_PINNED_SWEEP, ["eigenvalue", "--m", "3"], ["--help"]]:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # the usage error and --help
            code = exc.code
        expected = capsys.readouterr()
        run = run_console(*argv)
        assert (run.returncode, run.stdout, run.stderr) == (
            code, expected.out.encode(), expected.err.encode()
        ), argv  # fmt: skip
        codes.append(code)
    assert codes[-2:] == [2, 0] and codes.count(1) == 1  # the resonant quantize


def test_output_past_the_pipe_buffer_arrives_whole(capsys):
    # more than a pipe holds (64 KiB), with stdout buffered: the child blocks
    # on the write until the reader drains the pipe, and every byte must
    # still arrive before the process ends
    argv = ["branch", "--m", "10", "--diagram", "9,8,7,6,5,4,3,2,1"]
    code, out = run_cli(capsys, *argv)
    run = run_console(*argv)
    assert run.returncode == code == 0 and run.stderr == b""
    assert len(run.stdout) == 75775 > 1 << 16
    assert run.stdout == out.encode()


def test_console_entry_runs_the_exit_handlers():
    # the entry skips interpreter teardown but not atexit, where a wrapper
    # such as coverage's subprocess hook saves its data
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write('exit handler ran\\n'))\n"
        "runpy.run_module('projquant.cli', run_name='__main__')\n"
    )
    argv = ["eigenvalue", "--m", "3", "--diagram", "2,1", "--delta", "1/3"]
    run = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=console_env(), timeout=120,
    )  # fmt: skip
    assert run.returncode == 0 and json.loads(run.stdout)["alpha"] == "29/12"
    assert run.stderr == "exit handler ran\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "target,cause",
    [
        ("pipe", "[Errno 32] Broken pipe"),
        ("full", "[Errno 28] No space left on device"),
        ("closed", "stdout is closed"),
    ],
    ids=["pipe", "full", "closed"],
)
def test_unwritable_output_exits_one_with_one_stderr_line(target, cause, unbuffered):
    # buffered, the error comes from the final flush; unbuffered, from the
    # write itself; with stdout closed, sys.stdout is None
    argv = ("branch", "--m", "6", "--diagram", "5,4,3,2,1")
    if target == "pipe":  # the read end is closed before the child writes
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = run_console(*argv, unbuffered=unbuffered, stdout=write_end)
        finally:
            os.close(write_end)
    elif target == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "wb") as full:
            run = run_console(*argv, unbuffered=unbuffered, stdout=full)
    else:
        run = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "projquant.cli", *argv],
            stderr=subprocess.PIPE, env=console_env(unbuffered), timeout=120,
        )  # fmt: skip
    assert run.returncode == 1
    assert run.stderr.decode() == f"projquant: cannot write output: {cause}\n"


def test_rational_flag_without_a_value_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eigenvalue", "--m", "2", "--diagram", "1", "--delta", "--n", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eigenvalue", "--m", "2", "--diagram", "1", "--delta", "-1/0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv,code,needed,absent",
    [
        (["resonances", "--m", "3", "--diagram", "2,1"], 0, "casimir",
         ("flatmodel", "tensor")),
        (["eigenvalue", "--m", "3", "--diagram", "2,1", "--delta", "1/3"], 0, "casimir",
         ("flatmodel", "tensor")),
        (["branch", "--m", "3", "--diagram", "2,1"], 0, "branching",
         ("flatmodel", "tensor")),
        (["decompose", "--v1", "D=1; m=2; n=0; delta=0", "--v2", "D=1; m=2; n=0; delta=0",
          "-k", "1"], 0, "tensor", ("flatmodel",)),
        (["quantize", "--m", "2", "-k", "1", "--lambda", "0", "--mu", "1"], 1,
         "flatmodel.quantize", ("flatmodel.liftplan", "tensor")),
        (["casimir-check", "--m", "3", "--diagram", "1", "--trials", "1", "--max-degree", "1"], 0,
         "flatmodel.algebra", ("flatmodel.quantize", "flatmodel.operators", "flatmodel.liftplan")),
        (["lift-plan", "--m", "2", "--diagram", "2", "--delta", "0"], 0, "flatmodel.liftplan",
         ("flatmodel.poly", "flatmodel.sections", "flatmodel.algebra", "flatmodel.quantize")),
        (["lift-plan", "--m", "2", "--diagram", "2", "--delta", "5/3"], 1, "flatmodel.liftplan",
         ("flatmodel.poly", "flatmodel.sections", "flatmodel.algebra", "flatmodel.quantize")),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)  # fmt: skip
def test_subcommand_imports_only_its_layers(argv, code, needed, absent):
    env = dict(os.environ, PYTHONPATH=str(Path(projquant.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "projquant.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )  # fmt: skip
    assert run.returncode == code
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in run.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert f"projquant.{needed}" in loaded
    assert not {name for name in loaded if name.startswith(tuple(f"projquant.{a}" for a in absent))}
    # dataclasses would pull in inspect, ast, dis and tokenize on every call
    assert not loaded & {"dataclasses", "inspect"}


_SUBCOMMAND_FLAGS = {
    "eigenvalue": ("--m", "--diagram", "--n", "--delta"),
    "resonances": ("--m", "--diagram", "--n", "--base"),
    "branch": ("--m", "--diagram", "--n", "--delta"),
    "decompose": ("--v1", "--v2", "-k"),
    "quantize": ("--m", "-k", "--lambda", "--mu"),
    "casimir-check": ("--m", "--diagram", "--n", "--delta", "--trials", "--seed", "--max-degree"),
    "lift-plan": ("--m", "--diagram", "--n", "--delta"),
}
_JUNK = st.sampled_from(
    ["", "x", "-", "--", "1/0", "0.5.1", "1,,2", "nan", "1,2", "-k", "--m", "D=1",
     "D=1; m=2; n=0; delta=1/0", "D=0; m=2; m=3; n=0; delta=0",
     "D=1; m=2; n=0; delta=0; x=1"]
)


def _ints(low: int, high: int):
    return st.integers(low, high).map(str)


_RATIONALS = st.fractions(-3, 3, max_denominator=7).map(str)
_DIAGRAMS = (
    st.lists(st.integers(1, 4), max_size=4)
    .filter(lambda rows: sum(rows) <= 4)
    .map(lambda rows: ",".join(map(str, sorted(rows, reverse=True))) or "0")
)
_LABELS = st.builds(
    lambda m, rows, n, delta: f"D={rows}; m={m}; n={n}; delta={delta}",
    _ints(2, 4), st.sampled_from(["0", "1", "2", "1,1", "2,1", "3"]), _ints(-2, 2), _RATIONALS,
)  # fmt: skip
_VALUES = {
    "--m": _ints(-1, 4),
    "--diagram": _DIAGRAMS,
    "--n": _ints(-2, 2),
    "--delta": _RATIONALS,
    "--base": _RATIONALS,
    "--lambda": _RATIONALS,
    "--mu": _RATIONALS,
    "-k": _ints(-1, 3),
    "--v1": _LABELS,
    "--v2": _LABELS,
    "--trials": _ints(0, 2),
    "--seed": _ints(0, 30),
    "--max-degree": _ints(-1, 2),
}


@st.composite
def cli_argv(draw) -> list[str]:
    """A subcommand and its flags: each flag is left out, given junk, or followed
    by a stray token one time in forty, and otherwise takes a small value, in
    or out of range."""
    sub = draw(st.sampled_from(sorted(_SUBCOMMAND_FLAGS)))
    argv = [sub]
    for flag in _SUBCOMMAND_FLAGS[sub]:
        fault = draw(st.integers(0, 39))
        if fault != 1:
            argv += [flag, draw(_JUNK if fault == 2 else _VALUES[flag])]
        if fault == 3:
            argv.append(draw(_JUNK))
    return argv


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=cli_argv())
def test_fuzzed_argv_exits_zero_one_or_two(monkeypatch, argv):
    monkeypatch.delenv("PROJQUANT_FORMAT", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
    assert code in (0, 1)
    payload = json.loads(out.getvalue())
    assert code == 0 or payload["error"] in ("domain error", "resonant weight")
