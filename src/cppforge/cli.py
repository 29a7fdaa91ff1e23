"""Command-line front end: verify, construct, search, kernel-check, grid.

Reports are built as dicts and emitted as JSON by default; csv flattens
the same dict into one row with dotted column names (search emits one row
per mapping), text is an indented rendering. JSON is the source of truth.
Output for a fixed command line is deterministic except for the trailing
timestamp field, which --reproducible suppresses (grid reports also carry
elapsed seconds; that is timing too and is suppressed with it).

Exit codes: 0 success, 2 a named precondition or cap refused the run,
3 a counterexample (an unclean sweep, or a crosscheck disagreement),
4 unusable input.
"""

from __future__ import annotations

import argparse
import ast
import csv
import functools
import io
import json
import os
import sys
from datetime import datetime, timezone
from typing import Optional

from .errors import (
    BadInput,
    BadTableLength,
    FieldMismatch,
    HypothesisFails,
    NotIrreducible,
    NotPrime,
    OrderCapExceeded,
    OutOfRange,
    PreconditionViolated,
    SearchCapExceeded,
)
from .fields import FieldDesc, Poly, TowerDesc, make_extension, make_prime_field, make_tower
from .lifts import (
    cppeg_construct,
    monomial_cpp_check,
    norm_lift,
    trace_lift_binomial,
    trace_lift_general,
    trace_lift_simple,
)
from .maps import PPoly, binomial_kernel_criterion, ppoly_permutes_kernel
from .permcheck import _cap_check, fiber_criterion_verify, is_complete_permutation
from .search import enumerate_complete_mappings

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_PARSE = 4

CAP_ENV = "CPPFORGE_CAP"

CONSTRUCTIONS = (
    "norm-lift",
    "trace-simple",
    "trace-general",
    "trace-binomial",
    "cppeg",
    "monomial",
)

# grids.REGISTRY's tokens in its order; a test pins the two together, so
# that the parser is built without importing the sweeps and numpy
GRID_TOKENS = ("thm2.2", "cor2.3", "cor2.5", "thm3.2", "thm3.3", "thm3.7", "lemma3.4")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to exit code 2, which this tool reserves for
        # precondition refusals; parse problems are code 4
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def _int_list(text: str, flag: str) -> list[int]:
    try:
        val = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        raise BadInput(f"{flag}: cannot parse {text!r} as a coefficient list")
    if isinstance(val, int) and not isinstance(val, bool):
        val = [val]
    if not isinstance(val, (list, tuple)) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in val
    ):
        raise BadInput(f"{flag}: expected a list of integer codes like [0,2,1]")
    return [int(v) for v in val]


def _pair_list(text: str, flag: str) -> list[tuple[int, int]]:
    try:
        val = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        raise BadInput(f"{flag}: cannot parse {text!r} as [[index,coeff],...]")
    ok = isinstance(val, (list, tuple)) and all(
        isinstance(pair, (list, tuple))
        and len(pair) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
        for pair in val
    )
    if not ok:
        raise BadInput(f"{flag}: expected index/coefficient pairs like [[0,1],[2,3]]")
    return [(int(i), int(c)) for i, c in val]


def _require(args, flag: str):
    val = getattr(args, flag.lstrip("-"))
    if val is None:
        raise BadInput(f"{args.command} {getattr(args, 'construction', '')} needs {flag}".replace("  ", " "))
    return val


def _base_from(args) -> FieldDesc:
    if args.p is None:
        raise BadInput("this command needs --p")
    base = make_prime_field(args.p)
    mod = _int_list(args.mod, "--mod") if args.mod else None
    if args.r != 1:
        base = make_extension(base, args.r, mod)
    elif mod is not None:
        raise BadInput("--mod only applies with --r >= 2")
    return base


def _tower_from(args) -> TowerDesc:
    if args.n is None:
        raise BadInput("this command needs --n")
    base = _base_from(args)
    tmod = _int_list(args.tmod, "--tmod") if args.tmod else None
    return make_tower(base, args.n, tmod)


def _cap(args) -> Optional[int]:
    if args.cap is not None:
        return args.cap
    env = os.environ.get(CAP_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise BadInput(f"{CAP_ENV}={env!r} is not an integer")
    return None


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _flatten(d: dict, prefix: str = "") -> dict:
    flat = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            flat.update(_flatten(v, key + "."))
        elif isinstance(v, (list, tuple)):
            flat[key] = json.dumps(v, separators=(",", ":"))
        elif isinstance(v, (bool, type(None))):
            flat[key] = json.dumps(v)
        else:
            flat[key] = v
    return flat


def _text_lines(d: dict, indent: int = 0) -> list[str]:
    pad = "  " * indent
    out = []
    for k, v in d.items():
        if isinstance(v, dict):
            out.append(f"{pad}{k}:")
            out.extend(_text_lines(v, indent + 1))
        elif isinstance(v, list) and v and all(isinstance(x, dict) for x in v):
            out.append(f"{pad}{k}:")
            for x in v:
                out.extend(_text_lines(x, indent + 1))
                out.append(f"{pad}  -")
            out.pop()
        else:
            out.append(f"{pad}{k}: {json.dumps(v)}")
    return out


def _write_out(args, payload: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit(args, report: dict):
    """Write the report in args.format, with a timestamp unless
    --reproducible. JSON is json.dumps(report, indent=2)."""
    if not args.reproducible:
        report = dict(report)
        report["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if args.format == "json":
        payload = json.dumps(report, indent=2) + "\n"
    elif args.format == "csv":
        flat = _flatten(report)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(flat), lineterminator="\n")
        writer.writeheader()
        writer.writerow(flat)
        payload = buf.getvalue()
    else:
        payload = "\n".join(_text_lines(report)) + "\n"
    _write_out(args, payload)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    tower = _tower_from(args) if args.n is not None else None
    home = tower if tower is not None else _base_from(args)
    f = Poly(home, _int_list(_require(args, "--poly"), "--poly"))
    cap = _cap(args)
    check = is_complete_permutation(f, cap)
    report = {
        "command": "verify",
        "field": home.descriptor(),
        "poly": f.codes(),
        "f": check.f_verdict.to_json(),
        "f_plus_x": check.shifted_verdict.to_json(),
        "complete": check.both,
    }
    if args.lam:
        if tower is None:
            raise BadInput("--lam needs a tower (give --n)")
        h = Poly(tower.base, _int_list(_require(args, "--h"), "--h"))
        fiber = fiber_criterion_verify(f, h, args.lam, tower, cap)
        report["fiber"] = fiber.to_json()
        report["fiber"]["lambda"] = args.lam
    _emit(args, report)
    return EXIT_OK


def cmd_construct(args) -> int:
    cap = _cap(args)
    kind = args.construction
    if kind == "cppeg":
        res = cppeg_construct(
            _require(args, "--e"), _require(args, "--t"),
            _require(args, "--k"), _require(args, "--alpha"),
        )
    elif kind == "monomial":
        tower = _tower_from(args)
        res = monomial_cpp_check(_require(args, "--alpha"), _require(args, "--s"), tower, cap)
    else:
        tower = _tower_from(args)
        h = Poly(tower.base, _int_list(_require(args, "--h"), "--h"))
        if kind == "norm-lift":
            res = norm_lift(h, tower, cap)
        elif kind == "trace-simple":
            res = trace_lift_simple(h, tower, cap)
        elif kind == "trace-general":
            L = PPoly(tower, _pair_list(_require(args, "--L"), "--L"))
            res = trace_lift_general(h, L, _require(args, "--a"), tower, cap)
        else:
            res = trace_lift_binomial(
                h, _require(args, "--k"), _require(args, "--a"), tower, cap
            )
    report = {"command": "construct", **res.to_json(cap)}
    _emit(args, report)
    pred, ver = report["predicted_cpp"], report["verified_cpp"]
    if pred is not None and ver is not None and pred != ver:
        print("cppforge: predicted and verified CPP status disagree", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def cmd_search(args) -> int:
    field = _base_from(args)
    mappings = enumerate_complete_mappings(field)
    rows = [m.to_json() for m in mappings]
    if args.format == "json":
        payload = "".join(json.dumps(r, separators=(", ", ": ")) + "\n" for r in rows)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=["field", "table", "poly_coeffs", "normalized"], lineterminator="\n"
        )
        writer.writeheader()
        for r in rows:
            writer.writerow(_flatten(r))
        payload = buf.getvalue()
    else:
        payload = "".join(
            f"table={json.dumps(r['table'], separators=(',', ':'))} "
            f"poly={json.dumps(r['poly_coeffs'], separators=(',', ':'))} "
            f"normalized={json.dumps(r['normalized'])}\n"
            for r in rows
        )
    _write_out(args, payload)
    summary = f"{len(rows)} complete mappings with f(0) = 0 over {field.descriptor()}"
    print(summary, file=sys.stdout if args.out else sys.stderr)
    return EXIT_OK


def cmd_kernel_check(args) -> int:
    tower = _tower_from(args)
    k = _require(args, "--k")
    c = _require(args, "--c")
    verdict = binomial_kernel_criterion(k, c, tower)
    L = PPoly.monomial(tower, k % tower.full_degree)
    _cap_check(tower.order, _cap(args))  # the kernel scan walks the whole tower
    actual = ppoly_permutes_kernel(L, shift=c)
    agree = verdict.predicted is None or verdict.predicted == actual
    report = {
        "command": "kernel-check",
        "field": tower.descriptor(),
        "criterion": verdict.to_json(),
        "note": verdict.note,
        "exhaustive_permutes_kernel": actual,
        "agree": agree,
    }
    _emit(args, report)
    return EXIT_OK if agree else EXIT_COUNTEREXAMPLE


def cmd_grid(args) -> int:
    from .grids import REGISTRY  # numpy loads only for a sweep

    sweep = REGISTRY[args.token]
    # every tower of the sweep has order <= max_order
    max_order = sweep.default_max_order if args.max_order is None else args.max_order
    _cap_check(max_order, _cap(args))
    rep = sweep(max_order=args.max_order)
    report = {"command": "grid", **rep.to_json()}
    if args.reproducible:
        del report["elapsed_seconds"]
    _emit(args, report)
    return EXIT_OK if rep.clean else EXIT_COUNTEREXAMPLE


_HANDLERS = {
    "verify": cmd_verify,
    "construct": cmd_construct,
    "search": cmd_search,
    "kernel-check": cmd_kernel_check,
    "grid": cmd_grid,
}


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--format", choices=("json", "csv", "text"), default="json",
                    help="output format (json is the source of truth)")
    sp.add_argument("--out", help="write output to this file instead of stdout")
    sp.add_argument("--cap", type=int,
                    help=f"exhaustive-scan cap override (also via {CAP_ENV})")
    sp.add_argument("--reproducible", action="store_true",
                    help="suppress timestamp/timing fields for byte-stable output")


def _add_field(sp, with_tower: bool):
    sp.add_argument("--p", type=int, help="field characteristic (prime)")
    sp.add_argument("--r", type=int, default=1, help="base extension degree over F_p")
    sp.add_argument("--mod", help="base modulus coefficients over F_p, low degree first")
    if with_tower:
        sp.add_argument("--n", type=int, help="tower degree over the base field")
        sp.add_argument("--tmod", help="tower modulus coefficients (base codes)")


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The one parser of this process; parse_args leaves it unchanged."""
    parser = _Parser(
        prog="cppforge",
        description="Complete permutation polynomials: construct over F_(q^n) "
        "from base-field data, verify exhaustively, search and sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser(
        "verify", help="exhaustive permutation/CPP verdicts for a polynomial",
        description="Check whether f and f + x permute their field. Polynomials "
        "are coefficient lists of integer codes, lowest degree first. With --lam "
        "and --h, also run the commuting-square criterion against f.",
    )
    _add_field(sp, with_tower=True)
    sp.add_argument("--poly", help="polynomial under test, e.g. [0,2]")
    sp.add_argument("--lam", choices=("trace", "norm"),
                    help="run the fiber criterion with this surjection")
    sp.add_argument("--h", help="base-side map for the fiber criterion")
    _add_common(sp)

    sp = sub.add_parser(
        "construct", help="build a CPP of the tower from base-field data",
        description="Run one construction and report its precondition checks, "
        "subfield witness, predicted CPP status, and an independent exhaustive "
        "verification when the order is within the cap.",
    )
    sp.add_argument("construction", choices=CONSTRUCTIONS, metavar="construction",
                    help="one of: " + ", ".join(CONSTRUCTIONS))
    _add_field(sp, with_tower=True)
    sp.add_argument("--h", help="base-field polynomial h, e.g. [2,1]")
    sp.add_argument("--k", type=int, help="Frobenius index (trace-binomial, cppeg)")
    sp.add_argument("--a", type=int, help="base-field code a (trace lifts)")
    sp.add_argument("--L", help="additive polynomial as [[index,coeff],...] (trace-general)")
    sp.add_argument("--s", type=int, help="exponent parameter s (monomial)")
    sp.add_argument("--e", type=int, help="subfield exponent e (cppeg)")
    sp.add_argument("--t", type=int, help="degree factor t (cppeg)")
    sp.add_argument("--alpha", type=int, help="coefficient code alpha (monomial, cppeg)")
    _add_common(sp)

    sp = sub.add_parser(
        "search", help="enumerate all complete mappings with f(0) = 0",
        description="Exhaustive search over one base field; emits a JSON-lines "
        "catalog ({field, table, poly_coeffs, normalized} per line) and prints "
        "the count. csv emits one row per mapping instead.",
    )
    _add_field(sp, with_tower=False)
    _add_common(sp)

    sp = sub.add_parser(
        "kernel-check", help="binomial-on-the-trace-kernel criterion vs ground truth",
        description="Report the case analysis for x^(p^k) - c*x on ker(tr) "
        "alongside the exhaustive answer.",
    )
    _add_field(sp, with_tower=True)
    sp.add_argument("--k", type=int, help="Frobenius index k >= 1")
    sp.add_argument("--c", type=int, help="base-field code c")
    _add_common(sp)

    sp = sub.add_parser(
        "grid", help="run one equivalence sweep over its whole parameter grid",
        description="Exhaustive agreement sweep; any counterexample is reported "
        "verbatim and the exit code is 3.",
    )
    sp.add_argument("token", choices=GRID_TOKENS, metavar="token",
                    help="one of: " + ", ".join(GRID_TOKENS))
    sp.add_argument("--max-order", type=int, dest="max_order",
                    help="cap on the tower order q^n (default per sweep)")
    _add_common(sp)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (BadInput, NotPrime, NotIrreducible, OutOfRange, FieldMismatch, BadTableLength) as exc:
        print(f"cppforge: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionViolated, HypothesisFails, SearchCapExceeded, OrderCapExceeded) as exc:
        print(f"cppforge: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
