"""Tests of the benchmark's own oracles, checks and failure counting.

    PYTHONPATH=src python -m pytest bench/test_bench_checkers.py
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from projquant import canonicalize, dimension, resonances  # noqa: E402
from projquant.flatmodel import (  # noqa: E402
    QuantCoefficients,
    density_quant_coefficients,
    solver_singular_deltas,
)
from tracing import NullTracer, Tracer  # noqa: E402

NULL = NullTracer()


@pytest.mark.parametrize("m,k", [(m, k) for m in (2, 3) for k in range(1, 6)])
def test_closed_form_matches_library_below_k6(m, k):
    for lam, delta in ((Fraction(1, 2), Fraction(1, 3)), (Fraction(7, 5), Fraction(-2, 9))):
        got = density_quant_coefficients(m, k, lam, lam + delta).values
        assert list(got) == oracles.quant_coefficients(m, k, lam, lam + delta)


@pytest.mark.parametrize("m,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_resonance_set_matches_solver(m, k):
    assert list(solver_singular_deltas(m, k)) == oracles.quant_resonances(m, k)


def test_closed_form_is_singular_exactly_on_resonance_set():
    for delta in oracles.quant_resonances(3, 4):
        with pytest.raises(ZeroDivisionError):
            oracles.quant_coefficients(3, 4, Fraction(1, 2), Fraction(1, 2) + delta)


def test_single_row_resonances_and_hook_dimension():
    for m, row, twist in product(range(2, 6), range(1, 6), range(-1, 3)):
        label = canonicalize((row,), m, twist, 0)
        assert sorted(resonances(label)) == oracles.single_row_resonances(m, row, twist)
    for m in range(2, 6):
        for rows in product(range(5, -1, -1), repeat=m - 1):
            if list(rows) == sorted(rows, reverse=True):
                label = canonicalize(rows, m, 0, 0)
                assert oracles.hook_dimension(label.diagram.rows, m) == dimension(label)


def _with_run(op, fake):
    op.run = fake
    return op


def _rounds(ops):
    while True:
        yield ops


def test_corrupted_value_wrong_verdict_and_traceback_count_as_failures():
    rng = random.Random(0)
    used: dict = {}
    good = workloads.quant_op(rng, used, 2, 2)
    corrupt = workloads.quant_op(rng, used, 2, 2)
    real = corrupt.run(NULL)
    corrupt = _with_run(
        corrupt, lambda tr: QuantCoefficients(real.values[:-1] + (real.values[-1] + 1,))
    )
    verdict = workloads.quant_op(rng, used, 2, 2, j=1)
    verdict = _with_run(verdict, lambda tr: QuantCoefficients((1, 0, 0)))

    def refusal(tr):
        raise workloads.ResonantWeight("false resonance")

    refused = _with_run(workloads.quant_op(rng, used, 2, 3), refusal)
    case = workloads._quantize_case(2, 1, Fraction(1, 2), Fraction(5, 6))
    crash = _with_run(
        workloads.cli_op(case, {}),
        lambda tr: subprocess.CompletedProcess([], 1, "", "Traceback (most recent call last):\n"),
    )
    bad_json = _with_run(
        workloads.cli_op(case, {}),
        lambda tr: subprocess.CompletedProcess([], 0, json.dumps(["1", "0"]), ""),
    )
    loop = run.Loop(_rounds([good, corrupt, verdict, refused, crash, bad_json]), run.kernel_speed())
    loop.run_round(NULL)
    assert loop.outcomes == {"ok": 1, "failed": 2, "wrong": 3}
    result = run.result_line(loop, {}, {})
    assert result["attempted"] == 6 and result["failed"] == 5
    assert result["correct"] is False


def test_refusals_alone_keep_results_correct():
    rng = random.Random(1)

    def refusal(tr):
        raise workloads.ResonantWeight("false resonance")

    op = _with_run(workloads.quant_op(rng, {}, 2, 6), refusal)
    loop = run.Loop(_rounds([op]), run.kernel_speed())
    loop.run_round(NULL)
    result = run.result_line(loop, {}, {})
    assert (result["correct"], result["failed"]) == (True, 1)


def test_each_workload_round_checks_clean_on_a_cheap_sample():
    rng = random.Random(2)
    ops = next(workloads.repr_rounds(rng))
    loop = run.Loop(_rounds(ops), run.kernel_speed())
    loop.run_round(NULL)
    assert loop.outcomes["ok"] == len(ops)


def test_quantize_inputs_never_repeat_a_solve(monkeypatch):
    """Over far more rounds than a 20-second run makes, every solve and
    singular-set call gets arguments it was never given, so the library's
    caches stay bypassed and the input stream never runs dry."""
    seen = {"quant": [], "singular": []}
    monkeypatch.setattr(
        workloads, "density_quant_coefficients", lambda *args: seen["quant"].append(args)
    )
    monkeypatch.setattr(
        workloads, "solver_singular_deltas", lambda *args: seen["singular"].append(args)
    )
    rounds = workloads.quantize_rounds(random.Random(3))
    for _ in range(200):
        for op in next(rounds):
            if op.layer != "flatmodel.quantize.verify_equivariance":
                op.run(NULL)
    assert len(seen["quant"]) == 200 * 48 and len(seen["singular"]) == 200 * 9
    for calls in seen.values():
        assert len(set(calls)) == len(calls)


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.spans = [["op", 0.0, 1.0, None, 1], ["a", 0.1, 0.4, 0, 1], ["b", 0.5, 0.7, 0, 1]]
    summary = tr.summary()
    assert summary["op"]["self_s"] == pytest.approx(0.5)
    assert summary["a"]["busy_s"] == pytest.approx(0.3)


def test_benchmark_json_workloads_exist():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
