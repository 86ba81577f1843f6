"""The four workloads: seeded operation streams and the checks of each result.

A workload yields *rounds*, lists of operations with the same composition
every time; only the drawn values change with the seed.  The runner stops
on a round boundary, so every run sees the same mix of operation kinds.

Each operation has a timed `run(tr)` that makes the library call (or starts
the CLI subprocess) and an untimed `check(tr, result, exc)` that returns
OK, FAILED or WRONG.  FAILED means the program refused or crashed where it
should have answered (an exception it should not raise, a non-zero exit, a
traceback); WRONG means it gave an answer and the answer is wrong (a value,
a resonance verdict, a JSON payload).  Both count as failed operations.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, count, permutations, product
from math import comb
from pathlib import Path
from typing import Callable, Iterator

from projquant import (
    IrrepLabel,
    ResonantWeight,
    branch_labels,
    canonicalize,
    component,
    dimension,
    eigenvalue,
    littlewood_richardson,
    resonances,
    symbol_rep,
)
from projquant.flatmodel import (
    Poly,
    TensorSection,
    classical_casimir,
    density_quant_coefficients,
    lift_plan,
    solver_singular_deltas,
    verify_equivariance,
)

import oracles

OK, FAILED, WRONG = "ok", "failed", "wrong"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass
class Op:
    layer: str  # span name of the library call this operation times
    run: Callable
    check: Callable
    argv: list[str] | None = None  # CLI arguments, for cli_batch only


@dataclass(frozen=True)
class Workload:
    name: str
    imports: str  # first part of set-up, also timed in fresh processes
    rounds: Callable[..., Iterator[list[Op]]]  # called with a seeded Random
    warm: str = ""  # second part of set-up: cache warming
    in_children: bool = False  # the work runs in child processes
    setup_span: str = "setup"  # span name of the in-process warming


def _verdict(ok: bool) -> str:
    return OK if ok else WRONG


# --------------------------------------------------------------- casimir_oracle

LIBRARY_IMPORTS = "import projquant, projquant.flatmodel\n"
CASIMIR_WARM = """
from projquant.flatmodel import Poly, TensorSection, classical_casimir
for m in (2, 3, 4):
    classical_casimir(TensorSection(m, 0, 0, 0, {(): Poly.constant(m, 1)}))
"""
CASIMIR_DIAGRAMS = ((), (1,), (2,), (3,), (1, 1))
# One denominator and nonzero coefficients keep the cost of a slot of the
# round the same from seed to seed.
CASIMIR_WEIGHTS = tuple(
    Fraction(x) for x in ("1/3", "-1/3", "2/3", "-2/3", "4/3", "-4/3", "5/3", "-5/3")
)


def _poly_terms(rng, m: int, degree: int) -> dict:
    terms = {}
    for exps in product(range(degree + 1), repeat=m):
        if sum(exps) <= degree:
            terms[exps] = rng.choice((-3, -2, -1, 1, 2, 3))
    return terms


def section_data(rng, m: int, rows: tuple[int, ...], degree: int) -> dict:
    """Plain {index tuple: {exponents: coefficient}} of a random section with
    the symmetry of the diagram: scalar, symmetric power, or 2-form."""
    data: dict = {}
    if rows == ():
        data[()] = _poly_terms(rng, m, degree)
    elif len(rows) == 1:
        for index in combinations_with_replacement(range(m), rows[0]):
            terms = _poly_terms(rng, m, degree)
            for perm in set(permutations(index)):
                data[perm] = terms
    elif rows == (1, 1):
        for i in range(m):
            for j in range(i + 1, m):
                terms = _poly_terms(rng, m, degree)
                data[(i, j)] = terms
                data[(j, i)] = {e: -c for e, c in terms.items()}
    else:
        raise ValueError(f"no section model for {rows}")
    return {index: terms for index, terms in data.items() if terms}


def to_section(m: int, slots: int, twist: int, weight, data: dict) -> TensorSection:
    return TensorSection(
        m, slots, twist, weight, {index: Poly(m, terms) for index, terms in data.items()}
    )


def plain(section: TensorSection) -> dict:
    return {
        (index, exps): c
        for index, p in section.coeffs.items()
        for exps, c in p.coeffs.items()
    }


def casimir_op(rng, m: int, rows, twist: int, weight: Fraction, degree: int) -> Op:
    data = section_data(rng, m, rows, degree)
    section = to_section(m, sum(rows), twist, weight, data)
    layer = "flatmodel.algebra.classical_casimir"

    def run(tr):
        with tr.span(layer):
            return classical_casimir(section)

    def check(tr, result, exc):
        if exc is not None:
            return FAILED
        alpha = eigenvalue(canonicalize(rows, m, twist, weight))(weight)
        expected = {
            (index, exps): alpha * c
            for index, terms in data.items()
            for exps, c in terms.items()
            if alpha * c
        }
        got = plain(result)
        tr.count(layer + ".in_terms", sum(len(t) for t in data.values()))
        tr.count(layer + ".out_terms", len(got))
        return _verdict(got == expected)

    return Op(layer, run, check)


def casimir_rounds(rng) -> Iterator[list[Op]]:
    """46 operations: every rank, diagram and degree with drawn weights and
    coefficients, both twists at m = 3, 4 and twist 0 at m = 2.  The mix
    puts p50 and p90 inside runs of operations of similar cost, so they do
    not jump between cost classes from one seed to the next.  S^3 is left
    out at m = 4: a call takes 0.6-2 s, and the few such calls in a run
    would alone set the run-to-run spread."""
    while True:
        ops = []
        for m in (2, 3, 4):
            for rows in CASIMIR_DIAGRAMS:
                if (m, rows) == (4, (3,)):
                    continue
                for degree in (2, 3):
                    for twist in (0, 1) if m > 2 else (0,):
                        weight = rng.choice(CASIMIR_WEIGHTS)
                        ops.append(casimir_op(rng, m, rows, twist, weight, degree))
        yield ops


# --------------------------------------------------------------- quantize_sweep

LAMBDA_POOL = 21 * 6  # lambdas over 7 with numerators in one band of 147


def _fresh_lambda(rng, used: dict, key) -> Fraction:
    """A positive lambda over 7, never used before with this key, so the
    library's solve caches are bypassed however many rounds a run makes.
    Lambdas come from a band of LAMBDA_POOL numerators; once a key has
    taken them all, its draws move to the next band up.  Positive lambda
    keeps every numerator lambda + (k-j)/(m+1) of the closed form nonzero;
    one denominator and a narrow numerator band keep costs alike."""
    taken = used.setdefault(key, set())
    base = 147 * (len(taken) // LAMBDA_POOL)
    while True:
        lam = Fraction(base + 7 * rng.randint(10, 30) + rng.randint(1, 6), 7)
        if lam not in taken:
            taken.add(lam)
            return lam


def _generic_delta(rng) -> Fraction:
    """A weight shift over 11: never resonant, since resonant shifts have
    denominators dividing m + 1 <= 5."""
    return rng.choice((-1, 1)) * Fraction(11 * rng.randint(2, 4) + rng.randint(1, 10), 11)


def quant_op(rng, used: dict, m: int, k: int, j: int | None = None) -> Op:
    """Quantization at the resonant shift (m+2k-j)/(m+1), or at a generic
    shift when j is None."""
    resonant = j is not None
    delta = Fraction(m + 2 * k - j, m + 1) if resonant else _generic_delta(rng)
    lam = _fresh_lambda(rng, used, (m, k, delta))
    mu = lam + delta
    layer = "flatmodel.quantize.density_quant_coefficients"

    def run(tr):
        with tr.span(layer):
            return density_quant_coefficients(m, k, lam, mu)

    def check(tr, result, exc):
        if resonant:
            if isinstance(exc, ResonantWeight):
                return OK
            return FAILED if exc is not None else WRONG
        if exc is not None:
            return FAILED
        return _verdict(list(result.values) == oracles.quant_coefficients(m, k, lam, mu))

    return Op(layer, run, check)


def singular_op(rng, used: dict, m: int, k: int) -> Op:
    lam = _fresh_lambda(rng, used, ("singular", m, k))
    layer = "flatmodel.quantize.solver_singular_deltas"

    def run(tr):
        with tr.span(layer):
            return solver_singular_deltas(m, k, lam)

    def check(tr, result, exc):
        if exc is not None:
            return FAILED
        return _verdict(sorted(result) == oracles.quant_resonances(m, k))

    return Op(layer, run, check)


def equivariance_op(rng, used: dict, m: int, k: int) -> Op:
    delta = _generic_delta(rng)
    lam = _fresh_lambda(rng, used, ("equivariance", m, k, delta))
    mu = lam + delta
    coefficients = oracles.quant_coefficients(m, k, lam, mu)
    symbol = to_section(m, k, 0, delta, section_data(rng, m, (k,), 2))
    function = Poly(m, _poly_terms(rng, m, 3))
    layer = "flatmodel.quantize.verify_equivariance"

    def run(tr):
        with tr.span(layer):
            return verify_equivariance(m, k, lam, mu, coefficients, [symbol], [function])

    def check(tr, result, exc):
        if exc is not None:
            return FAILED
        return _verdict(result.all_exact)

    return Op(layer, run, check)


QUANT_ORDERS = ((2, 7), (3, 7), (4, 5))  # (m, largest k)
SINGULAR_CASES = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))


def quantize_rounds(rng) -> Iterator[list[Op]]:
    """60 operations: every (m, k) of QUANT_ORDERS at a generic and at a
    resonant weight shift (the vanishing factor j cycles with the round, so
    every seed sees the same mix), the singular set for small (m, k) and three
    equivariance checks at m = 2.  k >= 6 stays at m = 2, 3, so a false
    resonance of the solver at those orders shows in failed operations; at
    m = 4 they take 0.9-2.7 s per call, and their few samples per run would
    alone set the run-to-run spread.  Costs of the other operations rise
    steadily with m and k, so the round adds seven generic solves at
    (m, k) = (3, 3) and four singular sets at (3, 3), each a run of
    operations of one cost for p50 and p90 to fall in, and three cheap
    solves at (2, 1) that put p50 and p90 in the middle of those runs."""
    used: dict = {}
    for r in count():
        ops = []
        for m, kmax in QUANT_ORDERS:
            for k in range(1, kmax + 1):
                ops.append(quant_op(rng, used, m, k))
                ops.append(quant_op(rng, used, m, k, j=1 + r % k))
        ops += [singular_op(rng, used, m, k) for m, k in SINGULAR_CASES]
        ops += [equivariance_op(rng, used, 2, k) for k in (1, 2, 3)]
        ops += [quant_op(rng, used, 3, 3) for _ in range(7)]
        ops += [singular_op(rng, used, 3, 3) for _ in range(4)]
        ops += [quant_op(rng, used, 2, 1) for _ in range(3)]
        yield ops


# ------------------------------------------------------------------ repr_batch


def load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())


def resonances_op(entry: dict) -> Op:
    label = IrrepLabel.parse(entry["label"])
    rows = label.diagram.rows
    layer = "casimir.resonances"

    def run(tr):
        with tr.span(layer):
            return resonances(label)

    def check(tr, result, exc):
        if exc is not None:
            return FAILED
        tr.count(layer + ".values", len(result))
        if len(rows) == 1:
            expected = oracles.single_row_resonances(label.rank, rows[0], label.twist)
            return _verdict(sorted(result) == expected)
        return _verdict(oracles.digest(oracles.fractions_text(result)) == entry["resonances"])

    return Op(layer, run, check)


def eigenvalue_op(entry: dict) -> Op:
    label = IrrepLabel.parse(entry["label"])
    layer = "casimir.eigenvalue"

    def run(tr):
        with tr.span(layer):
            return eigenvalue(label)

    def check(tr, result, exc):
        if exc is not None:
            return FAILED
        return _verdict(oracles.digest(oracles.eigenvalue_text(result)) == entry["eigenvalue"])

    return Op(layer, run, check)


def branching_op(entry: dict) -> Op:
    parent = IrrepLabel.parse(entry["label"])
    layer = "branching.branch_labels"

    def run(tr):
        with tr.span(layer):
            qs = branch_labels(parent)
        with tr.span("branching.component"):
            children = [component(parent, q) for q in qs]
        with tr.span("diagrams.dimension"):
            dims = [dimension(child) for child in children]
        return children, dims

    def check(tr, result, exc):
        if exc is not None:
            return FAILED
        children, dims = result
        tr.count("branching.components", len(children))
        m = parent.rank - 1
        expected = [oracles.hook_dimension(c.diagram.rows, m) for c in children]
        total = oracles.hook_dimension(parent.diagram.rows, parent.rank)
        return _verdict(dims == expected and sum(expected) == total)

    return Op(layer, run, check)


def lift_op(entry: dict, delta_text: str, resonant: bool) -> Op:
    label = IrrepLabel.parse(entry["label"])
    delta = Fraction(delta_text)
    layer = "flatmodel.liftplan.lift_plan"

    def run(tr):
        with tr.span(layer):
            return lift_plan(label, delta)

    def check(tr, result, exc):
        if resonant:
            if isinstance(exc, ResonantWeight):
                tr.count(layer + ".resonant")
                return OK
            return FAILED if exc is not None else WRONG
        if exc is not None:
            return FAILED
        tr.count(layer + ".nodes", len(result.nodes))
        return _verdict(
            oracles.digest(oracles.lift_plan_text(result)) == entry["lift_plan"][delta_text]
        )

    return Op(layer, run, check)


def lr_op(pair) -> Op:
    a, b = (IrrepLabel.parse(text) for text in pair)
    layer = "tensor.littlewood_richardson"

    def run(tr):
        with tr.span(layer):
            return littlewood_richardson(a, b)

    def check(tr, result, exc):
        if exc is not None:
            return FAILED
        tr.count(layer + ".terms", len(result.terms))
        tr.count(layer + ".multiplicity_total", sum(mult for _, mult in result.terms))
        m = a.rank
        total = sum(mult * oracles.hook_dimension(t.diagram.rows, m) for t, mult in result.terms)
        weights_ok = all(t.weight == a.weight + b.weight for t, _ in result.terms)
        expected = oracles.hook_dimension(a.diagram.rows, m) * oracles.hook_dimension(
            b.diagram.rows, m
        )
        return _verdict(total == expected and weights_ok)

    return Op(layer, run, check)


def symbol_op(triple) -> Op:
    v1, v2 = IrrepLabel.parse(triple[0]), IrrepLabel.parse(triple[1])
    k = triple[2]
    layer = "tensor.symbol_rep"

    def run(tr):
        with tr.span(layer):
            return symbol_rep(v1, v2, k)

    def check(tr, result, exc):
        if exc is not None:
            return FAILED
        tr.count(layer + ".terms", len(result.terms))
        m = v1.rank
        total = sum(mult * oracles.hook_dimension(t.diagram.rows, m) for t, mult in result.terms)
        expected = (
            oracles.hook_dimension(v1.diagram.rows, m)
            * oracles.hook_dimension(v2.diagram.rows, m)
            * comb(m + k - 1, k)
        )
        weights_ok = all(t.weight == v2.weight - v1.weight for t, _ in result.terms)
        return _verdict(total == expected and weights_ok)

    return Op(layer, run, check)


def repr_rounds(rng) -> Iterator[list[Op]]:
    """18 operations over the golden pool: resonances (single-row and other
    shapes), eigenvalues, branching, lift plans at generic and resonant
    weights, LR products (one from the large staircase pairs) and symbol
    representations."""
    golden = load_golden()
    entries = golden["labels"]
    single = [e for e in entries if IrrepLabel.parse(e["label"]).diagram.depth == 1]
    other = [e for e in entries if IrrepLabel.parse(e["label"]).diagram.depth != 1]
    while True:
        ops = [resonances_op(rng.choice(single)) for _ in range(2)]
        ops += [resonances_op(rng.choice(other)) for _ in range(2)]
        ops += [eigenvalue_op(rng.choice(entries)) for _ in range(2)]
        ops += [branching_op(rng.choice(entries)) for _ in range(3)]
        for _ in range(2):
            ops.append(lift_op(rng.choice(entries), rng.choice(golden["generic_deltas"]), False))
            entry = rng.choice(entries)
            ops.append(lift_op(entry, rng.choice(entry["resonant_sample"]), True))
        ops += [lr_op(rng.choice(golden["lr_pairs"])) for _ in range(2)]
        ops.append(lr_op(rng.choice(golden["lr_large_pairs"])))
        ops += [symbol_op(rng.choice(golden["symbol_triples"])) for _ in range(2)]
        yield ops


# -------------------------------------------------------------------- cli_batch

CLI_IMPORTS = "import projquant, projquant.flatmodel, projquant.cli\n"
SUBCOMMANDS = (
    "resonances",
    "eigenvalue",
    "branch",
    "decompose",
    "quantize",
    "casimir-check",
    "lift-plan",
)


def child_env() -> dict:
    """Environment of every child process: the checkout's sources first and
    the default output format."""
    env = dict(os.environ)
    env.pop("PROJQUANT_FORMAT", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _f(value) -> str:
    return str(Fraction(value))


def _label_payload(label: IrrepLabel) -> dict:
    return {
        "label": str(label),
        "diagram": str(label.diagram),
        "n": label.twist,
        "delta": _f(label.weight),
    }


def _rows_arg(rows) -> str:
    return ",".join(map(str, rows)) if rows else "0"


def random_rows(rng, size: int, depth: int) -> tuple[int, ...]:
    """A random partition of `size` boxes, cut to `depth` rows."""
    rows: list[int] = []
    left = size
    while left and len(rows) < depth:
        part = rng.randint(1, min(left, rows[-1] if rows else left))
        rows.append(part)
        left -= part
    return tuple(rows)


@dataclass
class CliCase:
    sub: str
    argv: list[str]
    code: int  # expected exit code
    expected: Callable[[], object]  # expected JSON payload, computed untimed


def cli_op(case: CliCase, env: dict) -> Op:
    cmd = [sys.executable, "-m", "projquant.cli", case.sub, *case.argv]
    layer = f"cli.{case.sub}"

    def run(tr):
        with tr.span(layer):
            return subprocess.run(
                cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
            )

    def check(tr, proc, exc):
        if exc is not None:
            return FAILED
        if "Traceback" in proc.stderr:
            tr.count("cli.tracebacks")
            return FAILED
        if proc.returncode != case.code:
            return FAILED if proc.returncode else WRONG
        try:
            payload = json.loads(proc.stdout)
        except ValueError:
            return WRONG
        if case.code and not (isinstance(payload, dict) and "message" in payload):
            return WRONG
        if case.code:
            payload.pop("message")
        return _verdict(payload == case.expected())

    return Op(layer, run, check, argv=[case.sub, *case.argv])


def _resonant_error(delta: Fraction, singular=None) -> Callable[[], dict]:
    """Expected diagnostic of a resonant weight, less the free-text message,
    which the check only requires to be present."""

    def expected():
        payload = {"error": "resonant weight", "delta": _f(delta)}
        if singular is not None:
            payload["singular_deltas"] = [_f(v) for v in singular]
            payload["offending_denominator"] = f"delta - ({_f(delta)})"
        return payload

    return expected


def _eigenvalue_case(rng) -> CliCase:
    m = rng.randint(2, 5)
    rows = random_rows(rng, rng.randint(1, 5), m - 1)
    n, delta = rng.randint(-1, 2), Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    label = canonicalize(rows, m, n, delta)

    def expected():
        poly = eigenvalue(label)
        payload = _label_payload(label)
        payload.update(
            {"c0": _f(poly.c0), "c1": _f(poly.c1), "c2": _f(poly.c2), "alpha": _f(poly(delta))}
        )
        return payload

    argv = ["--m", str(m), "--diagram", _rows_arg(rows), f"--n={n}", f"--delta={delta}"]
    return CliCase("eigenvalue", argv, 0, expected)


def _resonances_case(rng, single: bool) -> CliCase:
    m = rng.randint(2, 5) if single else rng.randint(3, 5)
    rows = (rng.randint(1, 4),) if single else random_rows(rng, rng.randint(1, 6), m - 1)
    if not single and len(rows) < 2:
        rows = (rows[0], 1)
    n = rng.randint(-1, 2)

    def expected():
        if single:
            values = oracles.single_row_resonances(m, rows[0], n)
        else:
            values = sorted(resonances(canonicalize(rows, m, n, 0)))
        return [_f(v) for v in values]

    return CliCase("resonances", ["--m", str(m), "--diagram", _rows_arg(rows), f"--n={n}"], 0, expected)


def _branch_case(rng) -> CliCase:
    m = rng.randint(3, 5)
    rows = random_rows(rng, rng.randint(1, 6), m - 1)
    n, delta = rng.randint(-1, 1), Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    parent = canonicalize(rows, m, n, delta)

    def expected():
        out = []
        for q in branch_labels(parent):
            child = component(parent, q)
            out.append(
                {
                    "q": ",".join(str(x) for x in q.padded(m - 1)),
                    "diagram": str(child.diagram),
                    "label": str(child),
                    "dim": dimension(child),
                }
            )
        return out

    argv = ["--m", str(m), "--diagram", _rows_arg(rows), f"--n={n}", f"--delta={delta}"]
    return CliCase("branch", argv, 0, expected)


def _decompose_case(rng) -> CliCase:
    m = rng.randint(2, 4)
    v1 = canonicalize(random_rows(rng, rng.randint(1, 2), m - 1), m, 0, Fraction(rng.randint(-3, 3), 2))
    v2 = canonicalize(random_rows(rng, rng.randint(1, 2), m - 1), m, 0, Fraction(rng.randint(-3, 3), 3))
    k = rng.randint(0, 2)

    def expected():
        out = []
        for label, mult in symbol_rep(v1, v2, k).terms:
            entry = _label_payload(label)
            entry["multiplicity"] = mult
            entry["dim"] = dimension(label)
            out.append(entry)
        return out

    return CliCase("decompose", ["--v1", str(v1), "--v2", str(v2), "-k", str(k)], 0, expected)


def _quantize_case(m: int, k: int, lam: Fraction, mu: Fraction) -> CliCase:
    argv = ["--m", str(m), "-k", str(k), f"--lambda={lam}", f"--mu={mu}"]
    delta = mu - lam
    singular = oracles.quant_resonances(m, k)
    if delta in singular:
        return CliCase("quantize", argv, 1, _resonant_error(delta, singular))
    coeffs = oracles.quant_coefficients(m, k, lam, mu)
    return CliCase("quantize", argv, 0, lambda: [_f(c) for c in coeffs])


def _casimir_case(rng, m: int, rows, trials: int) -> CliCase:
    n, delta = rng.randint(0, 1), rng.choice(CASIMIR_WEIGHTS)
    label = canonicalize(rows, m, n, delta)

    def expected():
        payload = _label_payload(label)
        payload.update(
            {"alpha": _f(eigenvalue(label)(delta)), "trials": trials, "matches": True}
        )
        return payload

    argv = [
        "--m", str(m), "--diagram", _rows_arg(rows), f"--n={n}", f"--delta={delta}",
        "--trials", str(trials), "--max-degree", "2", "--seed", str(rng.randint(0, 10**6)),
    ]  # fmt: skip
    return CliCase("casimir-check", argv, 0, expected)


def _lift_case(rng, resonant: bool) -> CliCase:
    m = rng.randint(2, 4)
    n = rng.randint(-1, 1)
    if resonant:
        rows = (rng.randint(1, 4),)
        delta = rng.choice(oracles.single_row_resonances(m, rows[0], n))
    else:
        rows = random_rows(rng, rng.randint(1, 5), m - 1)
        delta = Fraction(rng.randint(-20, 20), rng.choice((211, 223, 227)))
    argv = ["--m", str(m), "--diagram", _rows_arg(rows), f"--n={n}", f"--delta={delta}"]
    if resonant:
        return CliCase("lift-plan", argv, 1, _resonant_error(delta))
    label = canonicalize(rows, m, n, delta)

    def expected():
        plan = lift_plan(label, delta)
        return {
            "label": str(label),
            "delta": _f(plan.delta),
            "nodes": [
                {
                    "q": ",".join(str(x) for x in node.removals.padded(m)),
                    "diagram": str(node.component.diagram),
                    "label": str(node.component),
                    "coefficient": None if node.coefficient is None else _f(node.coefficient),
                }
                for node in plan.nodes
            ],
            "edges": [
                [",".join(str(x) for x in s.padded(m)), ",".join(str(x) for x in d.padded(m))]
                for s, d in plan.edges
            ],
        }

    return CliCase("lift-plan", argv, 0, expected)


def cli_cases(rng) -> list[CliCase]:
    """55 invocations covering every subcommand, with the documented exit-1
    resonance case and a k = 6 quantization in every round.  The 37 cheapest
    (resonances, eigenvalue, branch) hold the median.  Above p90 lie the
    k = 6 quantization and a casimir-check at m = 4, which pays the largest
    Killing dual; seven casimir-check runs at m = 3, each paying a cold dual
    of one cost, come next, so p90 falls in the middle of them.  Two rounds
    put the ten samples the run needs beyond p90."""
    cases = [_resonances_case(rng, single=True) for _ in range(4)]
    cases += [_resonances_case(rng, single=False) for _ in range(3)]
    cases += [_eigenvalue_case(rng) for _ in range(15)]
    cases += [_branch_case(rng) for _ in range(15)]
    cases += [_decompose_case(rng) for _ in range(2)]
    for _ in range(2):
        m, k = rng.randint(2, 3), rng.randint(1, 3)
        lam = Fraction(rng.randint(1, 30), rng.randint(2, 9))
        cases.append(_quantize_case(m, k, lam, lam + _generic_delta(rng)))
    cases.append(_quantize_case(2, 1, Fraction(0), Fraction(1)))
    m, k = rng.randint(2, 3), rng.randint(1, 3)
    lam = Fraction(rng.randint(1, 30), rng.randint(2, 9))
    cases.append(_quantize_case(m, k, lam, lam + rng.choice(oracles.quant_resonances(m, k))))
    lam = Fraction(rng.randint(1, 30), rng.randint(2, 9))
    cases.append(_quantize_case(2, 6, lam, lam + _generic_delta(rng)))
    cases.append(_casimir_case(rng, 2, rng.choice(((), (1,), (2,), (1, 1))), 2))
    cases += [_casimir_case(rng, 3, (), 1) for _ in range(7)]
    cases.append(_casimir_case(rng, 4, (), 1))
    cases += [_lift_case(rng, resonant=False), _lift_case(rng, resonant=True)]
    return cases


def cli_rounds(rng) -> Iterator[list[Op]]:
    env = child_env()
    while True:
        yield [cli_op(case, env) for case in cli_cases(rng)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "casimir_oracle",
            LIBRARY_IMPORTS,
            casimir_rounds,
            warm=CASIMIR_WARM,
            setup_span="flatmodel.algebra.casimir_field_pairs",
        ),
        Workload("quantize_sweep", LIBRARY_IMPORTS, quantize_rounds),
        Workload("repr_batch", LIBRARY_IMPORTS, repr_rounds),
        Workload("cli_batch", CLI_IMPORTS, cli_rounds, in_children=True),
    )
}
