"""Batch command-line front end with machine-readable, reproducible output.

Defaults to JSON on stdout; `--format table` (or the PROJQUANT_FORMAT
environment variable) switches to an aligned text rendering.  Rationals are
always serialized as "p/q" strings.  Exit codes: 0 success, 1 domain error
(for example a resonant weight, or any unexpected exception, reported by
its type), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from math import log10

from .branching import BranchLabel, branch_labels, component
from .casimir import eigenvalue, resonances
from .diagrams import IrrepLabel, YoungDiagram, canonicalize, dimension, parse_rational
from .errors import ResonantWeight

# Each handler imports its own heavy layer (tensor, the flat-model engine), so
# a subcommand compiles only the modules it calls.


# flags whose value may be a negative rational such as -1/3
_RATIONAL_FLAGS = frozenset({"--delta", "--base", "--lambda", "--mu"})
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _is_rational_flag(token: str) -> bool:
    """A rational flag's full name or any abbreviation of it ("--delt")."""
    return len(token) > 2 and any(flag.startswith(token) for flag in _RATIONAL_FLAGS)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write "--delta -1/3" as "--delta=-1/3", and "--delt -1/3" as "--delt=-1/3".

    argparse reads a token such as -1/3 as an unknown option rather than as
    the value of the preceding flag; only -1 or -0.5 pass as numbers.
    """
    out: list[str] = []
    for token in argv:
        if out and _is_rational_flag(out[-1]) and _NEGATIVE_NUMBER.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _argument(parse):
    """argparse type of a text parser whose ValueError is the usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return convert


def _int_at_least(low: int):
    """Parser of an int flag whose values below `low` are usage errors."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: ..."
    return parse


def _fmt(value, name: str) -> str:
    """value as "p/q"; ValueError naming the output when its integers pass
    the interpreter's digit limit, which the input can stay within."""
    value = Fraction(value)
    try:
        return str(value)
    except ValueError as exc:
        bits = max(abs(value.numerator), value.denominator).bit_length()
        raise ValueError(
            f"output {name} has about {int(bits * log10(2)) + 1} digits, past the limit of "
            f"{sys.get_int_max_str_digits()} digits for integer string conversion"
        ) from exc


def _removals_text(q: BranchLabel, rank: int) -> str:
    return ",".join(str(x) for x in q.padded(rank))


def _label_payload(label: IrrepLabel) -> dict:
    return {
        "label": str(label),
        "diagram": str(label.diagram),
        "n": label.twist,
        "delta": _fmt(label.weight, "delta"),
    }


def _cmd_eigenvalue(args) -> tuple[dict, int]:
    label = canonicalize(args.diagram.rows, args.m, args.n, args.delta)
    poly = eigenvalue(label)
    payload = _label_payload(label)
    payload.update(
        {
            "c0": _fmt(poly.c0, "c0"),
            "c1": _fmt(poly.c1, "c1"),
            "c2": _fmt(poly.c2, "c2"),
            "alpha": _fmt(poly(label.weight), "alpha"),
        }
    )
    return payload, 0


def _cmd_resonances(args) -> tuple[list, int]:
    label = canonicalize(args.diagram.rows, args.m, args.n, 0)
    values = resonances(label, base=args.base)
    return [_fmt(v, "resonance") for v in sorted(values)], 0


def _cmd_branch(args) -> tuple[list, int]:
    parent = canonicalize(args.diagram.rows, args.m, args.n, args.delta)
    child_rank = parent.rank - 1
    rows = []
    for q in branch_labels(parent):
        child = component(parent, q)
        rows.append(
            {
                "q": _removals_text(q, child_rank),
                "diagram": str(child.diagram),
                "label": str(child),
                "dim": dimension(child),
            }
        )
    return rows, 0


def _cmd_decompose(args) -> tuple[list, int]:
    from .tensor import symbol_rep

    decomposition = symbol_rep(args.v1, args.v2, args.k)
    rows = []
    for label, mult in decomposition.terms:
        entry = _label_payload(label)
        entry["multiplicity"] = mult
        entry["dim"] = dimension(label)
        rows.append(entry)
    return rows, 0


def _cmd_quantize(args) -> tuple[object, int]:
    from .flatmodel.quantize import density_quant_coefficients, solver_singular_deltas

    try:
        coeffs = density_quant_coefficients(args.m, args.k, args.lam, args.mu)
    except ResonantWeight as exc:
        payload = _resonance_diagnostic(exc)
        singular = solver_singular_deltas(args.m, args.k)
        payload["singular_deltas"] = [_fmt(v, "singular delta") for v in singular]
        payload["offending_denominator"] = f"delta - ({_fmt(exc.delta, 'delta')})"
        return payload, 1
    return [_fmt(c, "coefficient") for c in coeffs.values], 0


def _cmd_casimir_check(args) -> tuple[dict, int]:
    import random

    from .flatmodel.algebra import classical_casimir
    from .flatmodel.sections import random_section

    label = canonicalize(args.diagram.rows, args.m, args.n, args.delta)
    alpha = eigenvalue(label)(label.weight)
    rng = random.Random(args.seed)
    mismatch = None  # the first section component where C(s) and alpha s differ
    for _ in range(args.trials):
        section = random_section(
            label.rank, label.diagram.rows, label.twist, label.weight, args.max_degree, rng
        )
        got, expected = classical_casimir(section), section.scale(alpha)
        if got != expected:
            mismatch = min(
                index
                for index in got.coeffs.keys() | expected.coeffs.keys()
                if got.component(index) != expected.component(index)
            )
            break
    payload = _label_payload(label)
    payload.update(
        {"alpha": _fmt(alpha, "alpha"), "trials": args.trials, "matches": mismatch is None}
    )
    if mismatch is not None:
        payload["first_mismatch"] = list(mismatch)
    return payload, 0 if mismatch is None else 1


def _cmd_lift_plan(args) -> tuple[dict, int]:
    from .flatmodel.liftplan import lift_plan

    label = canonicalize(args.diagram.rows, args.m, args.n, args.delta)
    plan = lift_plan(label, args.delta)
    child_rank = label.rank
    payload = {
        "label": str(label),
        "delta": _fmt(plan.delta, "delta"),
        "nodes": [
            {
                "q": _removals_text(node.removals, child_rank),
                "diagram": str(node.component.diagram),
                "label": str(node.component),
                "coefficient": (
                    None if node.coefficient is None else _fmt(node.coefficient, "coefficient")
                ),
            }
            for node in plan.nodes
        ],
        "edges": [
            [_removals_text(src, child_rank), _removals_text(dst, child_rank)]
            for src, dst in plan.edges
        ],
    }
    return payload, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projquant",
        description="Young-diagram calculus, branching, Casimir resonances, "
        "and flat-space equivariant quantization with exact arithmetic.",
    )
    parser.add_argument(
        "--format",
        choices=("json", "table"),
        default=None,
        help="output format (default json; PROJQUANT_FORMAT overrides the default)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rational = _argument(parse_rational)
    diagram = _argument(YoungDiagram.parse)
    label = _argument(IrrepLabel.parse)

    def add_label_flags(p, with_delta=True):
        p.add_argument("--m", type=int, required=True, help="rank of the group")
        p.add_argument("--diagram", type=diagram, required=True, help='rows, e.g. "3,2,2"')
        p.add_argument("--n", type=int, default=0, help="determinant twist")
        if with_delta:
            p.add_argument("--delta", type=rational, default=Fraction(0), help="weight")

    p = sub.add_parser("eigenvalue", help="Casimir eigenvalue polynomial and value")
    add_label_flags(p)
    p.set_defaults(handler=_cmd_eigenvalue)

    p = sub.add_parser("resonances", help="resonant weights of a label")
    add_label_flags(p, with_delta=False)
    p.add_argument("--base", type=rational, default=Fraction(0), help="base weight shift")
    p.set_defaults(handler=_cmd_resonances)

    p = sub.add_parser("branch", help="restriction of a rank-m label to rank m-1")
    add_label_flags(p)
    p.set_defaults(handler=_cmd_branch)

    p = sub.add_parser("decompose", help="decompose v1* (x) v2 (x) S^k")
    p.add_argument("--v1", type=label, required=True, help='label text "D=..; m=..; n=..; delta=.."')
    p.add_argument("--v2", type=label, required=True, help="label text")
    p.add_argument("-k", type=int, required=True, help="symmetric power")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("quantize", help="divergence-ansatz quantization constants")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("-k", type=int, required=True, help="symbol order")
    p.add_argument("--lambda", dest="lam", type=rational, required=True)
    p.add_argument("--mu", type=rational, required=True)
    p.set_defaults(handler=_cmd_quantize)

    p = sub.add_parser("casimir-check", help="verify the eigenvalue on random sections")
    add_label_flags(p)
    p.add_argument("--trials", type=_int_at_least(1), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-degree", type=_int_at_least(0), default=3)
    p.set_defaults(handler=_cmd_casimir_check)

    p = sub.add_parser("lift-plan", help="eigenvector lift DAG with exact scalars")
    add_label_flags(p)
    p.set_defaults(handler=_cmd_lift_plan)

    return parser


def _render_table(payload, indent: str = "") -> list[str]:
    lines: list[str] = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)) and value and not _is_scalar_list(value):
                lines.append(f"{indent}{key}:")
                lines.extend(_render_table(value, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {_scalar_text(value)}")
    elif isinstance(payload, list):
        if payload and all(isinstance(item, dict) for item in payload):
            keys = list(payload[0].keys())
            widths = {
                k: max(len(k), *(len(_scalar_text(item.get(k))) for item in payload))
                for k in keys
            }
            lines.append(indent + "  ".join(k.ljust(widths[k]) for k in keys))
            for item in payload:
                lines.append(
                    indent
                    + "  ".join(_scalar_text(item.get(k)).ljust(widths[k]) for k in keys)
                )
        else:  # scalars and scalar lists: no handler nests further
            lines.extend(f"{indent}{_scalar_text(item)}" for item in payload)
    return lines


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(item, (dict, list)) for item in value
    )


def _scalar_text(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, list):
        return ", ".join(_scalar_text(v) for v in value)
    return str(value)


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(_render_table(payload)) + "\n")


def _resonance_diagnostic(exc: ResonantWeight) -> dict:
    payload = {"error": "resonant weight", "message": str(exc)}
    if exc.delta is not None:
        payload["delta"] = _fmt(exc.delta, "delta")
    return payload


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_attach_negative_values(argv))
    fmt = args.format
    if fmt is None:
        fmt = os.environ.get("PROJQUANT_FORMAT", "json")
    if fmt not in ("json", "table"):
        parser.error(f"PROJQUANT_FORMAT must be 'json' or 'table', got {fmt!r}")
    try:
        payload, code = _run(args)
    except Exception as exc:  # a structured report, never a raw traceback
        payload = {"error": "internal error", "type": type(exc).__name__, "message": str(exc)}
        code = 1
    _emit(payload, fmt)
    return code


def _run(args) -> tuple[object, int]:
    """The subcommand's payload and exit code, domain errors included."""
    try:
        return args.handler(args)
    except ResonantWeight as exc:
        return _resonance_diagnostic(exc), 1
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return {"error": "domain error", "message": str(exc)}, 1


if __name__ == "__main__":
    sys.exit(main())
