"""Regenerate `golden.json`: the fixed input pool of the `repr_batch`
workload and the exact outputs the library gave for it.

The committed file was produced at the commit that introduced the
benchmark; regenerating it on a later commit would turn the golden check
into a comparison of the code with itself, so only do that when an output
is meant to change, and say so.

    python3 bench/make_golden.py
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from projquant import (  # noqa: E402
    IrrepLabel,
    ResonantWeight,
    canonicalize,
    eigenvalue,
    resonances,
)
from projquant.flatmodel import lift_plan  # noqa: E402

import oracles  # noqa: E402
from workloads import random_rows  # noqa: E402

# Denominators of resonant weights divide 2 |q| (m+1) <= 2 * 13 * 8 = 208,
# so weights over the primes 211..229 are never resonant for this pool.
GENERIC_DELTAS = ("3/211", "-17/223", "29/227", "463/229")
RANKS = range(3, 8)


def label_pool(rng) -> list[IrrepLabel]:
    pool = []
    for m in RANKS:
        shapes = [(k,) for k in (1, 3, 5, 8, 11, 13)]
        shapes += [tuple(range(h, 0, -1)) for h in (2, 3, 4) if h <= m - 1]
        shapes += [random_rows(rng, rng.randint(4, 13), m - 1) for _ in range(8)]
        for rows in shapes:
            pool.append(canonicalize(rows, m, rng.choice((-1, 0, 1, 2)), 0))
    return pool


def lr_pool(rng) -> list[tuple[str, str]]:
    pairs = []
    for m in RANKS:
        for _ in range(6):
            a = canonicalize(random_rows(rng, rng.randint(3, 7), m - 1), m, rng.randint(-1, 1), 0)
            b = canonicalize(random_rows(rng, rng.randint(2, 6), m - 1), m, rng.randint(-1, 1), 0)
            pairs.append((str(a), str(b)))
    return pairs


LR_LARGE = (
    (7, (4, 3, 2, 1), (4, 3, 2, 1)),
    (7, (5, 4, 3, 2, 1), (3, 2, 1)),
    (7, (5, 3, 2, 1), (4, 2, 1)),
    (7, (4, 3, 2, 1), (3, 2, 1, 1)),
    (7, (4, 3, 2, 1), (3, 2, 1)),
    (6, (4, 3, 2, 1), (3, 2, 1)),
    (6, (4, 3, 1), (3, 2, 1)),
    (7, (3, 3, 2, 1), (3, 2, 1)),
)


def lr_large_pool() -> list[tuple[str, str]]:
    """Staircase-like pairs of 13-20 boxes: the slow tail of the LR fillings."""
    return [
        (str(canonicalize(a, m, 0, 0)), str(canonicalize(b, m, 0, 0))) for m, a, b in LR_LARGE
    ]


def symbol_pool(rng) -> list[tuple[str, str, int]]:
    weights = (Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))
    triples = []
    for m in range(3, 6):
        for _ in range(6):
            v1 = canonicalize(random_rows(rng, rng.randint(0, 3), m - 1), m, 0, rng.choice(weights))
            v2 = canonicalize(random_rows(rng, rng.randint(0, 3), m - 1), m, 0, rng.choice(weights))
            triples.append((str(v1), str(v2), rng.randint(1, 3)))
    return triples


def golden_entry(label: IrrepLabel) -> dict:
    values = sorted(resonances(label))
    plans = {}
    for text in GENERIC_DELTAS:
        plans[text] = oracles.digest(oracles.lift_plan_text(lift_plan(label, Fraction(text))))
    for value in values:
        try:
            lift_plan(label, value)
        except ResonantWeight:
            continue
        raise AssertionError(f"lift_plan accepted resonant weight {value} for {label}")
    picks = sorted({values[0], values[len(values) // 2], values[-1]}) if values else []
    return {
        "label": str(label),
        "resonances": oracles.digest(oracles.fractions_text(values)),
        "resonant_sample": [str(v) for v in picks],
        "eigenvalue": oracles.digest(oracles.eigenvalue_text(eigenvalue(label))),
        "lift_plan": plans,
    }


def main() -> None:
    rng = random.Random(601518)
    payload = {
        "generic_deltas": list(GENERIC_DELTAS),
        "labels": [golden_entry(label) for label in label_pool(rng)],
        "lr_pairs": lr_pool(rng),
        "lr_large_pairs": lr_large_pool(),
        "symbol_triples": symbol_pool(rng),
    }
    (HERE / "golden.json").write_text(json.dumps(payload, indent=0) + "\n")


if __name__ == "__main__":
    main()
