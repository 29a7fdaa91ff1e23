"""CLI behavior: reports, formats, exit codes, determinism.

Most cases drive main(argv) in-process and read the captured streams; one
test goes through `python -m cppforge` to cover the module entry point, and
one checks in a fresh interpreter that a non-grid call leaves numpy unloaded.
"""

import csv
import hashlib
import io
import json
import subprocess
import sys
import time

import pytest

from cppforge import cli, clear_caches, lifts, permcheck
from cppforge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--reproducible")
    return code, json.loads(out), err


# --- verify -------------------------------------------------------------


def test_verify_scaling_is_complete(capsys):
    code, rep, _ = run_json(capsys, "verify", "--p", "2", "--r", "2", "--poly", "[0,2]")
    assert code == 0
    assert rep["complete"] is True
    assert rep["f"]["is_permutation"] and rep["f_plus_x"]["is_permutation"]
    assert rep["field"] == "p=2;r=2;mod=[1,1,1]"


def test_verify_reports_collision_witness(capsys):
    code, rep, _ = run_json(capsys, "verify", "--p", "3", "--poly", "[0,0,1]")
    assert code == 0  # a truthful negative report is still a successful run
    assert rep["f"]["is_permutation"] is False
    assert rep["f"]["witness"] == [1, 2]
    assert rep["complete"] is False


def test_verify_with_fiber_criterion(capsys):
    code, rep, _ = run_json(
        capsys, "verify", "--p", "2", "--r", "2", "--n", "3",
        "--poly", "[0,2]", "--lam", "trace", "--h", "[0,2]",
    )
    assert code == 0
    fib = rep["fiber"]
    assert fib["lambda"] == "trace"
    assert fib["square_commutes"] is True
    assert fib["conclusion"] is True and fib["cross_check"] is True


def test_verify_lam_without_tower_is_a_parse_error(capsys):
    code, _, err = run(capsys, "verify", "--p", "2", "--r", "2",
                       "--poly", "[0,2]", "--lam", "trace", "--h", "[0,2]")
    assert code == 4
    assert "--lam needs a tower" in err


def test_verify_missing_poly(capsys):
    code, _, err = run(capsys, "verify", "--p", "2")
    assert code == 4 and "needs --poly" in err


def test_verify_unparseable_poly(capsys):
    code, _, err = run(capsys, "verify", "--p", "2", "--poly", "nope")
    assert code == 4 and "cannot parse" in err


def test_verify_reads_a_bare_code_as_a_one_term_list(capsys):
    bare = run(capsys, "verify", "--p", "3", "--poly", "1", "--reproducible")
    assert bare == run(capsys, "verify", "--p", "3", "--poly", "[1]", "--reproducible")
    assert bare[0] == 0 and json.loads(bare[1])["poly"] == [1]


def test_verify_mod_requires_extension(capsys):
    code, _, err = run(capsys, "verify", "--p", "2", "--mod", "[1,1,1]",
                       "--poly", "[0,1]")
    assert code == 4 and "--mod only applies" in err


def test_verify_rejects_reducible_modulus(capsys):
    code, _, err = run(capsys, "verify", "--p", "2", "--r", "2",
                       "--mod", "[1,0,1]", "--poly", "[0,1]")
    assert code == 4 and "irreducible" in err.lower()


def test_verify_cap_refusal(capsys):
    code, _, err = run(capsys, "verify", "--p", "2", "--r", "4",
                       "--poly", "[0,1]", "--cap", "8")
    assert code == 2
    assert "cap" in err.lower()


def test_cap_env_is_honored_and_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("CPPFORGE_CAP", "8")
    code, _, err = run(capsys, "verify", "--p", "2", "--r", "4", "--poly", "[0,1]")
    assert code == 2
    code, rep, _ = run_json(capsys, "verify", "--p", "2", "--r", "4",
                            "--poly", "[0,1]", "--cap", "100")
    assert code == 0 and rep["complete"] is False  # x + x = 0 in char 2
    monkeypatch.setenv("CPPFORGE_CAP", "many")
    code, _, err = run(capsys, "verify", "--p", "2", "--r", "4", "--poly", "[0,1]")
    assert code == 4 and "not an integer" in err


@pytest.mark.parametrize("field, order", [
    (["--p", "1000000000000000003"], "1000000000000000003"),
    (["--p", "1048577"], "1048577"),
    (["--p", "2", "--r", "1000000000000000000"], "2^1000000000000000000"),
    (["--p", "3", "--r", "2", "--n", "1000000000000000000"], "9^1000000000000000000"),
    (["--p", "2", "--r", "100000000"], "2^100000000"),
    (["--p", "2", "--r", "10", "--n", "3"], "1073741824"),
])
def test_an_oversized_field_is_refused_before_it_is_computed(capsys, field, order):
    # the cap comes before the trial division of p, which takes sqrt(p)
    # steps (1048577 = 17 * 61681 is refused by the cap too), a degree
    # past the cap's bit length is refused as p^d, before p^d is built, and
    # a smaller one by the order it gives (F_1024 itself is within the cap)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", *field, "--poly", "[1]")
    assert time.perf_counter() - t0 < 5
    _assert_refused(code, out, err)
    assert err == f"cppforge: field construction refused: order {order} exceeds cap 1048576\n"


# --- construct ------------------------------------------------------------


def test_construct_trace_binomial(capsys):
    code, rep, _ = run_json(
        capsys, "construct", "trace-binomial", "--p", "2", "--r", "2", "--n", "3",
        "--h", "[2,1]", "--k", "1", "--a", "1",
    )
    assert code == 0
    assert rep["construction"] == "trace-binomial"
    assert rep["predicted_cpp"] == rep["verified_cpp"]
    assert all(p["holds"] for p in rep["preconditions"])


def test_construct_norm_lift_gcd_refusal(capsys):
    code, _, err = run(capsys, "construct", "norm-lift", "--p", "2", "--r", "2",
                       "--n", "3", "--h", "[2]")
    assert code == 2
    assert "gcd" in err


def test_construct_cppeg_exponent(capsys):
    code, rep, _ = run_json(capsys, "construct", "cppeg",
                            "--e", "1", "--t", "4", "--k", "2", "--alpha", "2")
    assert code == 0
    assert rep["params"]["exponent"] == 409
    assert rep["predicted_cpp"] is True and rep["verified_cpp"] is True


def test_construct_trace_general_hypothesis_refusal(capsys):
    code, _, err = run(capsys, "construct", "trace-general", "--p", "2", "--r", "2",
                       "--n", "3", "--h", "[0]", "--a", "1", "--L", "[[0,1]]")
    assert code == 2
    assert "hypothesis fails at b=0" in err


def test_construct_missing_parameter_names_construction(capsys):
    code, _, err = run(capsys, "construct", "trace-binomial", "--p", "2", "--r", "2",
                       "--n", "3", "--h", "[2,1]", "--a", "1")
    assert code == 4
    assert "construct trace-binomial needs --k" in err


def test_construct_monomial(capsys):
    code, rep, _ = run_json(capsys, "construct", "monomial", "--p", "2", "--r", "2",
                            "--n", "2", "--alpha", "2", "--s", "1")
    assert code == 0
    assert rep["params"]["exponent"] == 6
    assert rep["predicted_cpp"] == rep["verified_cpp"]


def test_construct_monomial_refuses_a_base_past_the_exhaustive_cap(capsys):
    # as construct norm-lift does: one message and exit 2, at once, where a
    # scan of the 2^20 witness values would run for minutes
    code, out, err = run(capsys, "construct", "monomial", "--p", "2", "--r", "20",
                         "--n", "1", "--alpha", "2", "--s", "1")
    assert code == 2 and out == ""
    assert err.startswith("cppforge: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err and "65536" in err


CAPPED_CONSTRUCTS = [
    "norm-lift --p 2 --r 2 --n 2 --h [2]",
    "monomial --p 2 --r 2 --n 2 --alpha 2 --s 1",
    "trace-simple --p 2 --r 2 --n 3 --h [2]",
    "trace-general --p 2 --r 2 --n 3 --h [1,1] --L [[1,1]] --a 1",
    "trace-binomial --p 2 --r 2 --n 3 --h [2,1] --k 1 --a 1",
]


@pytest.mark.parametrize("call", CAPPED_CONSTRUCTS)
def test_construct_cap_governs_the_base_field_scan(capsys, monkeypatch, call):
    # with the default cap below the base field F_4, only the cap the user
    # passes decides whether the witness scan runs
    argv = ["construct", *call.split(), "--reproducible"]
    want = run(capsys, *argv)
    assert want[0] == 0
    monkeypatch.setattr(permcheck, "DEFAULT_EXHAUSTIVE_CAP", 2)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "order 4 exceeds cap 2" in err
    assert run(capsys, *argv, "--cap", "64") == want
    code, out, err = run(capsys, *argv, "--cap", "3")
    assert code == 2 and out == "" and "order 4 exceeds cap 3" in err
    monkeypatch.setenv(cli.CAP_ENV, "64")
    assert run(capsys, *argv) == want


def test_construct_exits_on_a_prediction_its_check_refutes(capsys, monkeypatch):
    # a builder whose predicted CPP status disagrees with the exhaustive
    # check of its lift: construct still prints the report, names the
    # disagreement on stderr and exits with the counterexample code
    def flipped(h, tower, cap=None):
        res = lifts.norm_lift(h, tower, cap)
        res.predicted_cpp = not res.predicted_cpp
        return res

    monkeypatch.setattr(cli, "norm_lift", flipped)
    code, out, err = run(capsys, "construct", "norm-lift", "--p", "2", "--r", "2", "--n", "2",
                         "--h", "[2]", "--reproducible")
    assert code == cli.EXIT_COUNTEREXAMPLE == 3
    rep = json.loads(out)
    assert (rep["predicted_cpp"], rep["verified_cpp"]) == (False, True)
    assert err == "cppforge: predicted and verified CPP status disagree\n"


def test_construct_bad_l_pairs(capsys):
    code, _, err = run(capsys, "construct", "trace-general", "--p", "2", "--r", "2",
                       "--n", "3", "--h", "[1,1]", "--a", "1", "--L", "[[1]]")
    assert code == 4 and "index/coefficient pairs" in err


# sha256 of `cppforge construct <call> --reproducible`; any change to a
# builder's params, preconditions, witness, lifted polynomial or verdicts
# moves these (cppeg runs monomial_cpp_check underneath)
CONSTRUCT_DIGESTS = {
    "cppeg --e 1 --t 4 --k 2 --alpha 3":
        "c3f8da2c0865b15cf3b5f462dcf3c296bf595b386f66298ff29124219e6bb430",
    "cppeg --e 2 --t 2 --k 1 --alpha 2":
        "b9a9f233170d3eb7d9d5bb387415fec15bd47bb1033f5b055b8cd0d16b193afb",
    "cppeg --e 1 --t 6 --k 3 --alpha 3":
        "d48e2895fdb07ec2a37a243256a92418ea41df2a49b74b71c295101d6b9ffe09",
    "cppeg --e 3 --t 2 --k 1 --alpha 3":
        "d6f6f21637e244348d8bfd1d253e1bbf823c4a34c07b9d25f17f3ad2d1b64081",
    "monomial --p 2 --r 2 --n 2 --alpha 2 --s 1":
        "6bc63cb55a7c426bfc687e7170559bf75cf6ea9b58ec06e116e293a4a5d8f530",
    "norm-lift --p 2 --r 2 --n 2 --h [2]":
        "0ad045cb901b3150ef122d6a448ae51f1869f9d1f758aba2f2ede259d25ef766",
    "trace-general --p 2 --r 2 --n 3 --h [1,1] --L [[1,1]] --a 1":
        "f9e9bb710a4c24b9d7dfc5ada6c41a4f536aeb7662914591ffd75cd59ebab075",
}


@pytest.mark.parametrize("call", list(CONSTRUCT_DIGESTS))
def test_construct_reproducible_output_is_pinned(capsys, call):
    code, out, _ = run(capsys, "construct", *call.split(), "--reproducible")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_DIGESTS[call]


# --- search ---------------------------------------------------------------


def test_search_f2_is_empty(capsys):
    code, out, err = run(capsys, "search", "--p", "2")
    assert code == 0
    assert out == ""
    assert err.strip() == "0 complete mappings with f(0) = 0 over p=2;r=1;mod=[0,1]"


def test_search_f4_tables(capsys):
    code, out, err = run(capsys, "search", "--p", "2", "--r", "2")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["table"] for r in rows] == [[0, 2, 3, 1], [0, 3, 1, 2]]
    assert all(set(r) == {"field", "table", "poly_coeffs", "normalized"} for r in rows)
    assert "2 complete mappings" in err


def test_search_f5_count(capsys):
    code, out, err = run(capsys, "search", "--p", "5")
    assert code == 0
    assert len(out.splitlines()) == 3
    assert "3 complete mappings" in err


def test_search_csv_format(capsys):
    code, out, _ = run(capsys, "search", "--p", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    assert rows[0]["table"].startswith("[0,")


def test_search_text_format_is_one_line_per_mapping(capsys):
    code, out, err = run(capsys, "search", "--p", "5", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0] == "table=[0,1,2,3,4] poly=[0,1] normalized=true"
    assert "3 complete mappings" in err


def test_search_cap_refusal(capsys):
    code, _, err = run(capsys, "search", "--p", "13")
    assert code == 2 and "cap" in err.lower()


def test_search_out_file_moves_summary_to_stdout(capsys, tmp_path):
    dest = tmp_path / "catalog.jsonl"
    code, out, err = run(capsys, "search", "--p", "5", "--out", str(dest))
    assert code == 0
    assert err == ""
    assert "3 complete mappings" in out
    assert len(dest.read_text().splitlines()) == 3


# --- kernel-check -----------------------------------------------------------


def test_kernel_check_case1_agrees(capsys):
    code, rep, _ = run_json(capsys, "kernel-check", "--p", "3", "--r", "2",
                            "--n", "2", "--k", "1", "--c", "2")
    assert code == 0
    assert rep["criterion"]["case"] == "Case1"
    assert rep["criterion"]["predicted"] is True
    assert rep["exhaustive_permutes_kernel"] is True
    assert rep["agree"] is True


def test_kernel_check_no_case_reports_exhaustive_truth(capsys):
    code, rep, _ = run_json(capsys, "kernel-check", "--p", "2", "--r", "2",
                            "--n", "2", "--k", "1", "--c", "1")
    assert code == 0
    assert rep["criterion"]["case"] == "NoCaseApplies"
    assert rep["criterion"]["predicted"] is None
    assert rep["exhaustive_permutes_kernel"] is False
    assert rep["agree"] is True


def test_kernel_check_rejects_non_coprime_k(capsys):
    code, _, err = run(capsys, "kernel-check", "--p", "2", "--r", "2",
                       "--n", "2", "--k", "2", "--c", "1")
    assert code == 2 and "gcd" in err


def _no_kernel_scan(*args, **kwargs):
    raise AssertionError("a kernel scan ran above the cap")


@pytest.mark.parametrize("call", [
    "kernel-check --p 2 --r 1 --n 17 --k 1 --c 1",
    "construct trace-binomial --p 2 --r 1 --n 17 --h [1] --k 1 --a 1",
])
def test_kernel_scan_above_the_cap_is_refused_before_it_starts(capsys, monkeypatch, call):
    # both walk ker(tr) of F_131072, past the default cap; the base F_2 is not
    monkeypatch.setattr(cli, "ppoly_permutes_kernel", _no_kernel_scan)
    monkeypatch.setattr(lifts, "ppoly_permutes_kernel", _no_kernel_scan)
    for cap, extra in ((65536, []), (1000, ["--cap", "1000"])):
        code, out, err = run(capsys, *call.split(), *extra)
        assert code == 2 and out == ""
        assert err.count("cppforge:") == 1
        assert f"order 131072 exceeds cap {cap}" in err


def test_kernel_check_cap_governs_the_kernel_scan(capsys, monkeypatch):
    argv = ["kernel-check", "--p", "2", "--r", "1", "--n", "4", "--k", "1", "--c", "1"]
    assert run_json(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "ppoly_permutes_kernel", _no_kernel_scan)
    code, out, err = run(capsys, *argv, "--cap", "8")
    assert code == 2 and out == "" and "order 16 exceeds cap 8" in err
    monkeypatch.setenv(cli.CAP_ENV, "8")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "order 16 exceeds cap 8" in err


# --- grid -------------------------------------------------------------------


def test_grid_small_binomial_sweep(capsys):
    code, rep, _ = run_json(capsys, "grid", "thm3.7", "--max-order", "64")
    assert code == 0
    assert rep["cases"] == 420 and rep["agreements"] == 420
    assert rep["counterexamples"] == []
    assert "elapsed_seconds" not in rep  # timing suppressed by --reproducible


def test_grid_reports_timing_without_reproducible(capsys):
    code, out, _ = run(capsys, "grid", "lemma3.4", "--max-order", "64")
    rep = json.loads(out)
    assert code == 0
    assert "elapsed_seconds" in rep and "timestamp" in rep


# sha256 of `cppforge grid <token> --max-order 64 --reproducible`; any change
# to a sweep's grid, rng stream, tallies or report layout moves these
GRID_DIGESTS_64 = {
    "thm2.2": "2068a5da8668eec6784bf0c3f57c43d5aa85582f98a53e1504d9e597dc90cc51",
    "cor2.3": "6d044c6093ee22238225eaa0e046ce88a277f6f63cfd45140fa24edf5fc71ee7",
    "cor2.5": "1a6495eb8da1199f314743504868c3fb2c8285ab52985229e6d1c826797e649a",
    "thm3.2": "f9609cdc3eee5449684f307f66e76a366ce029a22cc0e5ad479d7510e2961875",
    "thm3.3": "f34ae7352fd6d58eded30522f672f7756f4643d8a0f04faa1247fb21c26f7081",
    "thm3.7": "90c6e3e09a0e0500d8736ecedbbf99953e50885934b3028989354fcedc5b3240",
    "lemma3.4": "d2bf36b38f713032088f50264d710709eb8dcabada8d8a2d25be55c794fc18d9",
}


# the same at max_order 0, where every walk is empty, and at 8, where thm3.2
# skips every tower (q = 2 leaves no admissible h): each report still
# carries its sweep's zero extras
GRID_DIGESTS_0 = {
    "thm2.2": "34aaa5317e947cf2d810c73cb24211afc9e411b97e3636513ee5612c67b8e3f9",
    "cor2.3": "a8bd2b2cdcca6a456de19546cee0e9b48bb49a9f66876feec33c6f5fe6e7bfaa",
    "cor2.5": "1a6495eb8da1199f314743504868c3fb2c8285ab52985229e6d1c826797e649a",
    "thm3.2": "08a155ba084af4137ff5dd381f351f4e284defbd4e97bda179cf6a33850e721f",
    "thm3.3": "9dfe181f66462b7fe48b789b68801cec3d3d788f9c7d6d2dfc8b6fcd2c19910e",
    "thm3.7": "a63672c7a06f3f6c5919993c5bfeee58c78f6574ea8a7c4d3b74a9c17ce7fba5",
    "lemma3.4": "bb8f57e5847beb5eab8807aeba18b59cb6f5b939e83943132441417b1c910e56",
}
GRID_DIGESTS_8 = {
    "thm2.2": "79b3497f035271cce36122d8723967448b92fe9ec75708f4a6591d394d8120b9",
    "cor2.3": "c053a0ac9ac637241cebc6d0b90d032fe52207227a361d9acc31b8f96ae4c912",
    "cor2.5": "1a6495eb8da1199f314743504868c3fb2c8285ab52985229e6d1c826797e649a",
    "thm3.2": "08a155ba084af4137ff5dd381f351f4e284defbd4e97bda179cf6a33850e721f",
    "thm3.3": "8e689c13448d2130cafcc376984b406def149ab5e5700cbf637e05f480ea27a0",
    "thm3.7": "92ec7657e845118efba2cf5e59c7e02f8acf3c32ca6fd368fa17d73ea5d21d02",
    "lemma3.4": "d26452ba1f022bab61a81af149cd50293949b3dc030b05850b03ab194db3f08a",
}
_GRID_DIGESTS = {64: GRID_DIGESTS_64, 0: GRID_DIGESTS_0, 8: GRID_DIGESTS_8}


@pytest.mark.parametrize("token, max_order", [
    pytest.param(token, max_order, id=token if max_order == 64 else f"{token}@{max_order}")
    for max_order, digests in _GRID_DIGESTS.items() for token in digests
])
def test_grid_reproducible_output_is_pinned(capsys, token, max_order):
    code, out, _ = run(capsys, "grid", token, "--max-order", str(max_order), "--reproducible")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _GRID_DIGESTS[max_order][token]


# sha256 of `cppforge grid thm2.2 --max-order 1024 --reproducible`: every
# admissible tower up to order 1024, F_1024/F_4 and F_1024/F_32 among them
THM22_DIGEST_1024 = "9ce0487393770e3fe633f1e0edbef8b4bd15778650eccb0df3f75c63cdcd10d9"


def test_grid_norm_lift_at_1024_is_pinned(capsys):
    code, out, _ = run(capsys, "grid", "thm2.2", "--max-order", "1024", "--reproducible")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == THM22_DIGEST_1024


@pytest.mark.parametrize("token", ["thm2.2", "cor2.5"])
def test_grid_rejects_negative_max_order(capsys, token):
    code, out, err = run(capsys, "grid", token, "--max-order", "-5")
    assert code == cli.EXIT_PARSE == 4
    assert out == ""
    assert err.startswith("cppforge: ") and "--max-order" in err
    assert "Traceback" not in err


def _stub_sweep(monkeypatch, token, run=False):
    """Replace a registered sweep by a stub with its default max_order: one
    that raises, so a sweep that should be refused fails rather than runs,
    or one that returns an empty clean report."""
    from cppforge import grids

    real = grids.REGISTRY[token]

    def stub(max_order=None):
        if not run:
            raise AssertionError(f"{token} ran past the cap")
        return grids.SweepReport(token)

    stub.default_max_order = real.default_max_order
    monkeypatch.setitem(grids.REGISTRY, token, stub)


def _assert_refused(code, out, err):
    assert code == cli.EXIT_PRECONDITION == 2
    assert out == ""
    assert err.startswith("cppforge: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_grid_honours_the_cap_flag_and_env(capsys, monkeypatch):
    _stub_sweep(monkeypatch, "thm2.2")
    code, out, err = run(capsys, "grid", "thm2.2", "--max-order", "64", "--cap", "2")
    _assert_refused(code, out, err)
    assert "order 64 exceeds cap 2" in err
    monkeypatch.setenv("CPPFORGE_CAP", "2")
    _assert_refused(*run(capsys, "grid", "thm2.2", "--max-order", "64"))


def test_grid_checks_the_cap_against_the_sweeps_own_default(capsys, monkeypatch):
    # thm3.3 sweeps every tower of order <= 256 unless told otherwise
    from cppforge import REGISTRY

    assert REGISTRY["thm3.3"].default_max_order == 256
    _stub_sweep(monkeypatch, "thm3.3")
    _assert_refused(*run(capsys, "grid", "thm3.3", "--cap", "255"))
    _stub_sweep(monkeypatch, "thm3.3", run=True)
    code, rep, _ = run_json(capsys, "grid", "thm3.3", "--cap", "256")
    assert code == 0 and rep["token"] == "thm3.3"


def _no_per_tower_work(*args, **kwargs):
    raise AssertionError("a sweep ran per-tower work before the bulk cap refused it")


@pytest.mark.parametrize("token", list(GRID_DIGESTS_64))
def test_grid_refuses_a_tower_past_the_bulk_cap_before_the_first_tower(
        capsys, monkeypatch, token):
    # 2^18 is past BULK_TOWER_CAP = 2^16, and every walk up to it reaches a
    # tower past the cap: for cor2.5 that is F_(4^9)/F_(2^9). The walk is
    # refused whole, before any sweep builds a table or runs a builder
    from cppforge import grids

    for name in ("tower_tables", "base_tables", "trace_lift_general"):
        monkeypatch.setattr(grids, name, _no_per_tower_work)
    code, out, err = run(capsys, "grid", token, "--max-order", "262144", "--cap", "262144")
    _assert_refused(code, out, err)
    assert err.startswith("cppforge: bulk tower tables refused: order 262144 exceeds cap 65536")


@pytest.mark.parametrize("token", list(GRID_DIGESTS_64))
def test_grid_refuses_an_over_cap_walk_before_it_builds_a_tower(capsys, monkeypatch, token):
    # a walk whose max_order is past 2^20, where no field can be built, is
    # refused by the bulk cap with that max_order, and no tower is built
    from cppforge import grids

    monkeypatch.setattr(grids, "_tower", _no_per_tower_work)
    code, out, err = run(capsys, "grid", token, "--max-order", "10000000", "--cap", "10000000")
    _assert_refused(code, out, err)
    assert err.startswith("cppforge: bulk tower tables refused: order 10000000 exceeds cap 65536")


def test_grid_refuses_a_walk_past_the_field_cap_before_it_lists_the_walk(capsys, monkeypatch):
    # listing the walk of 10^14 would trial-divide every integer up to 10^7
    # and hold a shape for each of the 664,579 primes below it; the refusal
    # comes first and allocates next to nothing
    import tracemalloc

    from cppforge import grids

    monkeypatch.setattr(grids, "_tower", _no_per_tower_work)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "grid", "lemma3.4", "--max-order", str(10**14),
                             "--cap", str(10**14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_refused(code, out, err)
    assert err.startswith(f"cppforge: bulk tower tables refused: order {10**14} exceeds cap")
    assert peak < 20 * 2**20, peak


def test_the_default_cap_passes_every_default_sweep():
    from cppforge import REGISTRY

    defaults = {token: sweep.default_max_order for token, sweep in REGISTRY.items()}
    assert max(defaults.values()) <= permcheck.DEFAULT_EXHAUSTIVE_CAP, defaults


def test_grid_rejects_unknown_token(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["grid", "thm9.9"])
    assert exc.value.code == 4


# --- output plumbing ---------------------------------------------------------


def test_reproducible_output_is_byte_stable(capsys):
    argv = ["verify", "--p", "2", "--r", "2", "--poly", "[0,2]", "--reproducible"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_one_parser_serves_every_call_of_a_process(capsys):
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    verify = ("verify", "--p", "2", "--r", "2", "--n", "3", "--poly", "[0,2]",
              "--lam", "trace", "--h", "[0,2]", "--reproducible")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "two"])
    assert exc.value.code == 4
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    code, _, err = run(capsys, "construct", "cppeg", "--e", "1", "--t", "4",
                       "--k", "4", "--alpha", "3")
    assert code == 2 and "1 <= k < t" in err
    first = run(capsys, *verify)
    assert first[0] == 0 and json.loads(first[1])["fiber"]["lambda"] == "trace"
    assert run(capsys, *verify) == first
    assert cli._build_parser() is parser
    clear_caches()
    assert cli._build_parser() is not parser
    assert run(capsys, *verify) == first


def test_timestamp_present_by_default(capsys):
    code, out, _ = run(capsys, "verify", "--p", "2", "--poly", "[0,1]")
    rep = json.loads(out)
    assert code == 0 and "timestamp" in rep


def test_csv_report_is_one_flat_row(capsys):
    code, out, _ = run(capsys, "verify", "--p", "2", "--r", "2", "--poly", "[0,2]",
                       "--format", "csv", "--reproducible")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["f.is_permutation"] == "true"
    assert rows[0]["poly"] == "[0,2]"


def test_text_format_is_indented(capsys):
    code, out, _ = run(capsys, "verify", "--p", "2", "--r", "2", "--poly", "[0,2]",
                       "--format", "text", "--reproducible")
    assert code == 0
    lines = out.splitlines()
    assert "f:" in lines
    assert any(line.startswith("  is_permutation:") for line in lines)


def test_text_format_separates_a_list_of_dicts(capsys):
    # a monomial report lists three preconditions, each a dict: one
    # "preconditions:" line, then the dicts with a "  -" line between them
    code, out, _ = run(capsys, "construct", "monomial", "--p", "2", "--r", "2", "--n", "2",
                       "--alpha", "2", "--s", "1", "--format", "text", "--reproducible")
    assert code == 0
    lines = out.splitlines()
    start = lines.index("preconditions:")
    assert lines[start + 1 : start + 9] == [
        '  name: "gcd(n, q-1) = 1"', "  holds: true", "  -",
        '  name: "alpha != 0"', "  holds: true", "  -",
        '  name: "s >= 0"', "  holds: true"]
    assert not lines[start + 9].startswith("  ")


def test_report_out_file(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--p", "2", "--r", "2", "--poly", "[0,2]",
                       "--out", str(dest), "--reproducible")
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["complete"] is True


def test_missing_subcommand_exits_4(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 4


MALFORMED = {
    "construct norm-lift --p 2 --r 2 --n 0 --h [1]": "tower degree must be a positive integer",
    "verify --p 2 --n -1 --poly [0,1]": "tower degree must be a positive integer",
    "verify --p 2 --n 0 --poly [0,1]": "tower degree must be a positive integer",
    "verify --p 2 --r -1 --poly [0,1]": "extension degree must be a positive integer",
    "verify --p 2 --r 0 --poly [0,1]": "extension degree must be a positive integer",
    "kernel-check --p 2 --r 2 --n 3 --k 1 --c 9": "code 9 outside 0..3",
    "construct trace-general --p 2 --r 2 --n 3 --h [2,1] --L [[0,9]]": "code 9 outside 0..3",
    "construct trace-general --p 2 --r 2 --n 3 --h [2,1] --L [[99,1]]":
        "exponent index 99 outside 0..5",
    "construct trace-general --p 2 --r 2 --n 3 --h [2,1] --L [[0,0]]":
        "the zero p-polynomial is not allowed",
    "verify --p 2 --r 2 --mod [1,1] --poly [0,1]": "modulus must have 3 coefficients, got 2",
    "verify --p 2 --r 2 --mod [1,1,0] --poly [0,1]": "modulus must be monic",
    "verify --p 2 --r 2 --n 2 --tmod [1,1] --poly [0,1]": "modulus must have 3 coefficients, got 2",
    "verify --p 2 --poly {1}": "--poly: expected a list of integer codes like [0,2,1]",
    "construct trace-general --p 2 --r 2 --n 3 --h [2,1] --L [[1,":
        "--L: cannot parse '[[1,' as [[index,coeff],...]",
    "verify --poly [1]": "this command needs --p",
    "kernel-check --p 2 --k 1 --c 1": "this command needs --n",
}


@pytest.mark.parametrize("call, message", list(MALFORMED.items()), ids=list(MALFORMED))
def test_malformed_input_exits_4_with_a_message(capsys, call, message):
    code, out, err = run(capsys, *call.split())
    assert code == 4
    assert err == f"cppforge: {message}\n"
    assert out == ""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cppforge", "search", "--p", "5", "--reproducible"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 3
    assert "3 complete mappings" in proc.stderr


def test_grid_tokens_are_the_sweep_registry():
    # the parser takes its choices from cli.GRID_TOKENS so that it never
    # imports the sweeps; they must be the registry's tokens, in its order
    from cppforge import REGISTRY

    assert cli.GRID_TOKENS == tuple(REGISTRY)


def test_one_shot_cli_call_does_not_import_numpy():
    # only `grid` runs on the numpy tables; a verify call, and emptying
    # the caches after it, must leave numpy and the sweeps unloaded
    code = (
        "import sys\n"
        "import cppforge\n"
        "from cppforge import cli\n"
        "rc = cli.main(['verify', '--p', '2', '--r', '2', '--poly', '[0,2]', '--reproducible'])\n"
        "cppforge.clear_caches()\n"
        "loaded = [m for m in ('numpy', 'cppforge.grids', 'cppforge.tables') if m in sys.modules]\n"
        "print(rc, loaded)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
