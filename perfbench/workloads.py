"""The benchmark workloads: inputs, set-up, body and correctness gate.

Each workload runs in a fresh interpreter (see child.py), so the module
caches of cppforge start cold every time. ``setup`` builds only field and
table structures through public calls; verdict caches stay cold until the
timed body runs.

An "op" is one sweep case or one CLI call. ``Outcome`` counts ops attempted
and failed and keeps one latency per command: one ``cppforge.cli.main``
call in ``cli_session``, the sweep in ``norm_batch``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

WORKLOADS = ("norm_batch", "cli_session")
DEFAULT_SEED = 20260819
DEFAULT_MAX_ORDER = 4096
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Counts measured when this benchmark was defined, at the sweep's default
# grid and the default seed.  At other seeds every sweep must come back
# clean.
PINNED_SWEEPS = {
    "thm2.2": {"cases": 305888, "skipped": 0, "pairs": 27, "fiber_agreements": 305888},
}
PINNED_SEARCH = {3: 1, 4: 2, 5: 3, 7: 19, 8: 48}

SWEEPS = {"norm_batch": ("thm2.2",)}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    out_bytes: int = 0

    def fail(self, count: int, why: str):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


# ---------------------------------------------------------------------------
# norm_batch: the norm-lift sweep
# ---------------------------------------------------------------------------


def setup_sweeps(max_order):
    """Build every tower and numpy table the norm-lift sweep touches."""
    from cppforge import grids, tables

    cap = DEFAULT_MAX_ORDER if max_order is None else max_order
    wanted = set(grids.norm_lift_pairs(cap))
    for tower in grids.tower_grid(cap):
        if (tower.q, tower.n) in wanted:
            tables.tower_tables(tower)


def run_sweeps(workload: str, seed: int, max_order, out: Outcome):
    from cppforge import grids

    for token in SWEEPS[workload]:
        t0 = time.perf_counter()
        try:
            rep = grids.REGISTRY[token](max_order=max_order, seed=seed)
        except Exception as exc:  # a failed replay assertion or a crash
            pinned = PINNED_SWEEPS[token]["cases"] if max_order is None else 1
            out.attempted += pinned
            out.fail(pinned, f"{token}: {type(exc).__name__}: {exc}")
            continue
        finally:
            out.latencies.append(time.perf_counter() - t0)
        out.attempted += rep.cases
        _check_sweep(token, rep, seed, max_order, out)


def _check_sweep(token: str, rep, seed: int, max_order, out: Outcome):
    bad = rep.cases - rep.agreements
    if token == "thm2.2":
        bad = max(bad, rep.extras["fiber_cases"] - rep.extras["fiber_agreements"])
    bad = max(bad, len(rep.counterexamples))
    if bad:
        out.fail(bad, f"{token}: {bad} disagreements, e.g. {rep.counterexamples[:1]}")
    if seed != DEFAULT_SEED or max_order is not None:
        return
    pinned = PINNED_SWEEPS[token]
    seen = {"cases": rep.cases, "skipped": rep.skipped}
    if token == "thm2.2":
        seen["pairs"] = len(rep.extras["pairs"])
        seen["fiber_agreements"] = rep.extras["fiber_agreements"]
    if seen != pinned:
        miss = max(1, abs(rep.cases - pinned["cases"]))
        out.fail(miss, f"{token}: counts {seen} differ from pinned {pinned}")


# ---------------------------------------------------------------------------
# cli_session: a seeded, closed-loop list of CLI calls
# ---------------------------------------------------------------------------

# Towers as (p, r, n).  The session is built from five cost classes so
# that each percentile lands inside a block of calls of one shape, and its
# rank does not flip between calls of very different cost from run to run:
#   A  tiny calls on towers of order <= 64, refused draws, small searches
#   B  verify over F_256/F_2 (32) and F_343/F_7 (8): the block that holds p50
#   C  constructs and checks on towers of order 81..256
#   D  verify over the four large towers, 16 of them on F_4096/F_2: the
#      block that holds p90
#   E  the heavy calls, one per (command, tower)
# The seed draws polynomials, coefficients, output formats and the order.
F4096_F2 = (2, 1, 12)
F3125_F5 = (5, 1, 5)
F4096_F64 = (2, 6, 2)
F2187_F3 = (3, 1, 7)
LARGE_TOWERS = (F4096_F2, F2187_F3, F3125_F5, F4096_F64)

TINY_TOWERS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 1, 4), (2, 2, 2), (5, 1, 2),
               (3, 1, 3), (2, 1, 5), (7, 1, 2), (2, 2, 3), (2, 3, 2), (2, 1, 6)]
MID_TOWERS = [(3, 1, 4), (3, 2, 2), (11, 1, 2), (5, 1, 3), (2, 1, 7), (13, 1, 2),
              (3, 1, 5), (2, 1, 8), (2, 2, 4), (2, 4, 2)]
SEARCH_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)]


def _norm_ok(t) -> bool:
    """gcd(n, q - 1) = 1: the norm lift and the monomial family apply."""
    p, r, n = t
    return math.gcd(n, p**r - 1) == 1


def _field_args(p: int, r: int, n=None) -> list:
    args = ["--p", str(p), "--r", str(r)]
    return args if n is None else args + ["--n", str(n)]


def _codes(values) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


def _poly(rng, order: int, degree: int) -> str:
    return _codes([rng.randrange(order) for _ in range(degree)] + [rng.randrange(1, order)])


def _monic(rng, order: int, degree: int) -> str:
    # A random leading code would make a verify's cost depend on how many
    # digits it has (the scalar product skips zero digits), so the seed
    # would change the cost of every Horner step.
    return _codes([rng.randrange(order) for _ in range(degree)] + [1])


def _binomial_ks(p: int, r: int, n: int) -> list:
    return [k for k in range(1, r * n)
            if math.gcd(k, n) == 1 and math.gcd(n, p ** math.gcd(k, r) - 1) == 1]


def _gf2_mul(a: int, b: int, mod: int, m: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> m & 1:
            a ^= mod
    return out


def _gf2_canonical_modulus(m: int) -> int:
    """Smallest irreducible x^m + ... over F_2 as a bit mask (c_0 = bit 0)."""
    def divides(d: int, f: int) -> bool:
        while f.bit_length() >= d.bit_length():
            f ^= d << (f.bit_length() - d.bit_length())
        return f == 0
    for cand in range(1 << m, 1 << (m + 1)):
        if not any(divides(d, cand) for d in range(2, 1 << (m // 2 + 1))):
            return cand
    raise AssertionError("no irreducible polynomial found")


def cppeg_admissible(e: int, t: int, k: int, alpha: int) -> bool:
    """Independent check that alpha is not an (2^(ek) - 1)-th power in F_(2^et)."""
    m = e * t
    q = 1 << m
    mod = _gf2_canonical_modulus(m)
    g = math.gcd((1 << (e * k)) - 1, q - 1)
    acc, base, ex = 1, alpha, (q - 1) // g
    while ex:
        if ex & 1:
            acc = _gf2_mul(acc, base, mod, m)
        base = _gf2_mul(base, base, mod, m)
        ex >>= 1
    return alpha != 0 and acc != 1


def draw_session(seed: int) -> list:
    """The cli_session calls for a seed: [(argv, expected_exit_code), ...]."""
    rng = random.Random(seed)
    calls = []

    def add(argv, code=0):
        calls.append((argv, code))

    def verify(t, degree, lam=None):
        p, r, n = t
        argv = ["verify", *_field_args(p, r, n), "--poly", _monic(rng, p ** (r * n), degree)]
        if lam:
            argv += ["--lam", lam, "--h", _poly(rng, p**r, 1)]
        add(argv)

    def construct(kind, t, i):
        p, r, n = t
        q = p**r
        if kind == "norm-lift":
            add(["construct", kind, *_field_args(p, r, n), "--h", _poly(rng, q, i % 3)])
        elif kind == "monomial":
            add(["construct", kind, *_field_args(p, r, n), "--alpha", str(rng.randrange(1, q)),
                 "--s", str(min(i % 3, q - 2))])
        elif kind == "trace-simple":
            h0 = rng.choice([c for c in range(1, q) if c != p - 1])  # h(0) not in {0, -1}
            add(["construct", kind, *_field_args(p, r, n),
                 "--h", _codes([h0] + [rng.randrange(q) for _ in range(i % 3)])])
        else:  # trace lifts with L = c*x^(p^k) under the binomial conditions
            ks = _binomial_ks(p, r, n)
            argv = ["construct", kind, *_field_args(p, r, n), "--h", _poly(rng, q, 1 + i % 2)]
            if kind == "trace-binomial":
                argv += ["--k", str(ks[i % len(ks)])]
            else:
                argv += ["--L", f"[[{ks[i % len(ks)]},{rng.randrange(1, q)}]]"]
            add(argv + ["--a", str(rng.randrange(1, q))])

    def kernel_check(t, i):
        p, r, n = t
        ks = [k for k in range(1, r * n + 1) if math.gcd(k, n) == 1]
        add(["kernel-check", *_field_args(p, r, n), "--k", str(ks[i % len(ks)]),
             "--c", str(rng.randrange(p**r))])

    def cppeg(e, t, k):
        q = 1 << (e * t)
        alpha = rng.choice([a for a in range(1, q) if cppeg_admissible(e, t, k, a)])
        add(["construct", "cppeg", "--e", str(e), "--t", str(t), "--k", str(k),
             "--alpha", str(alpha)])

    tiny_norm = [t for t in TINY_TOWERS if _norm_ok(t)]
    tiny_odd = [t for t in TINY_TOWERS if t[0] > 2]  # trace-simple needs q > 2
    # A: 81 calls
    for i in range(24):
        verify(TINY_TOWERS[i % 12], 1 + i % 3)
    for i in range(8):
        verify(TINY_TOWERS[(5 * i + 1) % 12], 1, ("trace", "norm")[i % 2])
    for i in range(12):
        kernel_check(TINY_TOWERS[i], i)
    for i in range(6):
        construct("norm-lift", tiny_norm[i % len(tiny_norm)], i)
        construct("monomial", tiny_norm[(i + 3) % len(tiny_norm)], i)
        construct("trace-simple", tiny_odd[i % len(tiny_odd)], i)
    for i in range(2):
        construct("trace-general", (2, 1, 3), i)
        construct("trace-binomial", (2, 1, 3), i)
    for p, r in SEARCH_FIELDS:
        add(["search", *_field_args(p, r)])
    add(["construct", "norm-lift", *_field_args(3, 1, 2), "--h", _poly(rng, 3, 1)], 2)
    add(["construct", "norm-lift", *_field_args(7, 1, 3), "--h", _poly(rng, 7, 1)], 2)
    add(["construct", "trace-simple", *_field_args(5, 1, 2),
         "--h", _codes([0, rng.randrange(1, 5)])], 2)
    add(["construct", "trace-binomial", *_field_args(*F4096_F64), "--h", "[1]",
         "--k", "1", "--a", str(rng.randrange(1, 64))], 2)
    add(["construct", "cppeg", "--e", "1", "--t", "4", "--k", "4", "--alpha", "3"], 2)
    add(["construct", "monomial", *_field_args(5, 1, 3), "--alpha", "0", "--s", "1"], 2)
    add(["kernel-check", *_field_args(*F4096_F2), "--k", str(rng.choice([2, 3, 4])),
         "--c", "1"], 2)
    add(["search", *_field_args(13, 1)], 2)
    add(["verify", *_field_args(2, 4, 2), "--poly", _monic(rng, 256, 1), "--cap", "100"], 2)
    # B: 40 calls.  p50 (the 101st of 201) falls inside the 32 calls on
    # F_256/F_2, not on the step up to the dearer F_343/F_7 calls.
    for i in range(40):
        verify((2, 1, 8) if i % 5 else (7, 1, 3), 2)
    # C: 40 calls
    mid_norm = [t for t in MID_TOWERS if _norm_ok(t)]
    mid_wide = [t for t in MID_TOWERS if t[0] ** t[1] > 2]
    for i in range(8):
        verify(MID_TOWERS[i], 1, ("trace", "norm")[i % 2])
        kernel_check(MID_TOWERS[(i + 2) % len(MID_TOWERS)], i)
    for i in range(5):
        construct("norm-lift", mid_norm[i % len(mid_norm)], i)
        construct("monomial", mid_norm[(i + 1) % len(mid_norm)], i)
        construct("trace-simple", mid_wide[i], i)
    for i in range(3):
        construct("trace-general", ((2, 1, 5), (2, 2, 3))[i % 2], i)
        construct("trace-binomial", ((2, 2, 3), (2, 1, 5))[i % 2], i)
    cppeg(1, 4, 2)
    cppeg(2, 2, 1)
    add(["search", *_field_args(3, 2)])
    # D: 28 calls.  p90 (the 181st of 201, with the 12 heavy calls above
    # it) falls inside the 16 calls on F_4096/F_2, the dearest of the four.
    for i in range(28):
        t = LARGE_TOWERS[i % 7] if i % 7 < 4 else F4096_F2
        verify(t, 6 if t == F4096_F64 else 2)
    # E: 12 calls
    verify(F4096_F64, 1, "trace")
    verify(F3125_F5, 1, "norm")
    construct("norm-lift", F4096_F64, 1)
    construct("norm-lift", F2187_F3, 1)
    construct("trace-simple", F3125_F5, 1)
    construct("monomial", F3125_F5, 1)
    cppeg(1, 6, 3)
    cppeg(2, 3, 1)
    cppeg(3, 2, 1)
    add(["kernel-check", *_field_args(*F3125_F5), "--k", "1", "--c", str(rng.randrange(5))])
    # Kernel-check on F_4096/F_2 (about 4 s) and trace-binomial on F_2187/F_3
    # (about 7 s) would be half the session on their own; the same commands
    # on F_1024/F_2 and F_243/F_3 keep the heavy class under a second each.
    add(["kernel-check", *_field_args(2, 1, 10), "--k", "1", "--c", str(rng.randrange(2))])
    # fixed parameters: its cost depends on how many distinct kernel shifts h and a give
    add(["construct", "trace-binomial", *_field_args(3, 1, 5), "--h", "[1,2]",
         "--k", "1", "--a", "1"])

    formats = ["json", "csv", "text"]
    session = [(argv + ["--format", rng.choice(formats), "--reproducible"], code)
               for argv, code in calls]
    rng.shuffle(session)
    return session


def load_reference(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def setup_session(session: list):
    """Build every field and tower the session's calls name, warming the moduli."""
    from cppforge import fields

    def flag(argv, name):
        return int(argv[argv.index(name) + 1]) if name in argv else None

    shapes = set()
    for argv, _ in session:
        if "--e" in argv:  # cppeg works in F_(q^2) over q = 2^(e*t)
            shapes.add((2, flag(argv, "--e") * flag(argv, "--t"), 2))
        elif "--p" in argv:
            shapes.add((flag(argv, "--p"), flag(argv, "--r"), flag(argv, "--n")))
    for p, r, n in sorted(shapes, key=str):
        base = fields.make_prime_field(p)
        if r > 1:
            base = fields.make_extension(base, r)
        if n is not None:
            fields.make_tower(base, n)


def call_digest(stdout: str, stderr: str) -> str:
    return hashlib.sha256((stdout + "\0" + stderr).encode()).hexdigest()


def run_session(session: list, reference, out: Outcome) -> list:
    """Run every call in order; returns [[argv, code, digest], ...]."""
    from cppforge import cli

    ref_calls = None
    if reference is not None:
        ref_calls = reference["calls"]
    record = []
    for i, (argv, want) in enumerate(session):
        o, e = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):
                code = cli.main(argv)
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        out.latencies.append(time.perf_counter() - t0)
        out.attempted += 1
        stdout, stderr = o.getvalue(), e.getvalue()
        out.out_bytes += len(stdout.encode()) + len(stderr.encode())
        digest = call_digest(stdout, stderr)
        record.append([argv, code, digest])
        why = _check_call(argv, want, code, stdout, stderr)
        if why is None and ref_calls is not None:
            if i >= len(ref_calls) or ref_calls[i][0] != argv:
                why = "call differs from the reference draw"
            elif ref_calls[i][1] != code or ref_calls[i][2] != digest:
                why = "output differs from the reference bytes"
        if why is not None:
            out.fail(1, f"{' '.join(argv)}: {why}")
    return record


def _check_call(argv, want, code, stdout: str, stderr: str):
    if code != want:
        return f"exit code {code!r}, expected {want}"
    if code != 0:
        return None
    if argv[0] == "search":
        count = int((stderr or stdout).split()[0])
        q = int(argv[argv.index("--p") + 1]) ** int(argv[argv.index("--r") + 1])
        if q in PINNED_SEARCH and count != PINNED_SEARCH[q]:
            return f"{count} complete mappings, pinned {PINNED_SEARCH[q]}"
    if argv[argv.index("--format") + 1] != "json" or argv[0] not in ("construct", "verify"):
        return None
    rep = json.loads(stdout)
    if argv[0] == "construct":
        if rep["verified_cpp"] is not None and rep["predicted_cpp"] != rep["verified_cpp"]:
            return "predicted_cpp != verified_cpp"
    elif "fiber" in rep:
        direct = rep["f"]["is_permutation"]
        if rep["fiber"]["cross_check"] != direct or rep["fiber"]["conclusion"] not in (None, direct):
            return "fiber criterion disagrees with the direct verdict"
    return None
