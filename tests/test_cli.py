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

import pytest

from cppforge import cli, clear_caches
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


@pytest.mark.parametrize("token", list(GRID_DIGESTS_64))
def test_grid_reproducible_output_is_pinned(capsys, token):
    code, out, _ = run(capsys, "grid", token, "--max-order", "64", "--reproducible")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GRID_DIGESTS_64[token]


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


@pytest.mark.parametrize("call", [
    "construct norm-lift --p 2 --r 2 --n 0 --h [1]",
    "verify --p 2 --n -1 --poly [0,1]",
    "verify --p 2 --n 0 --poly [0,1]",
    "verify --p 2 --r -1 --poly [0,1]",
    "verify --p 2 --r 0 --poly [0,1]",
    "kernel-check --p 2 --r 2 --n 3 --k 1 --c 9",
    "construct trace-general --p 2 --r 2 --n 3 --h [2,1] --L [[0,9]]",
    "construct trace-general --p 2 --r 2 --n 3 --h [2,1] --L [[99,1]]",
    "construct trace-general --p 2 --r 2 --n 3 --h [2,1] --L [[0,0]]",
    "verify --p 2 --r 2 --mod [1,1] --poly [0,1]",
    "verify --p 2 --r 2 --mod [1,1,0] --poly [0,1]",
    "verify --p 2 --r 2 --n 2 --tmod [1,1] --poly [0,1]",
])
def test_malformed_input_exits_4_with_a_message(capsys, call):
    code, out, err = run(capsys, *call.split())
    assert code == 4
    assert err.startswith("cppforge: ") and "Traceback" not in err
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
