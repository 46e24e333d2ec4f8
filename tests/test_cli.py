import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padiccf import cfengine
from padiccf.cli import coords_str, main
from padiccf.errors import FieldSpecError
from padiccf.fieldspec import bundled_path, load_bundled, load_field_data
from padiccf.ideals import primes_above


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "padiccf.cli"] + args,
        capture_output=True, text=True, timeout=600,
    )
    return proc


# -- field files -----------------------------------------------------------------


def test_load_bundled_files():
    for name in ("qq.json", "qsqrt14.json", "qz3.json"):
        lf = load_bundled(name)
        assert lf.class_number == 1
    lf14 = load_bundled("qsqrt14.json")
    assert lf14.bedocchi == {"M": 2, "epsilon": pytest.approx(31 / 32)} or str(
        lf14.bedocchi["epsilon"]
    ) == "31/32"


def test_field_file_validation_errors():
    with pytest.raises(FieldSpecError):
        load_field_data({"min_poly": [-4, 0, 1]})  # reducible
    with pytest.raises(FieldSpecError):
        load_field_data({})  # missing min_poly
    with pytest.raises(FieldSpecError):
        load_field_data({"min_poly": [-14, 0, 1], "fundamental_units": [["3", "1"]]})
    with pytest.raises(FieldSpecError):
        load_field_data({"min_poly": [1, -2, -1, 1]})  # rank 2 without units


@pytest.mark.parametrize("key, block", [
    ("bedocchi", {"M": 3}),
    ("bedocchi", [3]),
    ("fundamental_units", 5),
    ("m_reference", "eleven"),
])
def test_malformed_optional_block_is_an_input_error(tmp_path, capsys, key, block):
    """A malformed optional block is a FieldSpecError that names its key, and
    the CLI reports it with exit 2, not a traceback with exit 1."""
    data = json.loads(bundled_path("qq.json").read_text())
    data[key] = block
    with pytest.raises(FieldSpecError, match=f"invalid {key}"):
        load_field_data(data)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["constants", str(p)]) == 2
    assert f"input error: invalid {key}" in capsys.readouterr().err


def test_bad_unit_data_fails_loudly(tmp_path):
    bad = {"min_poly": [-14, 0, 1], "fundamental_units": [["2", "1"]]}  # norm -10
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    proc = run_cli(["field-info", str(p)])
    assert proc.returncode == 2


def test_too_few_units_fail_loudly(tmp_path):
    """A unit list shorter than the unit rank r1 + r2 - 1 is an input error:
    without it T0 and c(M,K) came out far below the field's true values."""
    with pytest.raises(FieldSpecError, match="rank 2"):
        load_field_data({"min_poly": [1, -2, -1, 1], "fundamental_units": []})  # totally real
    p = tmp_path / "no_units.json"
    p.write_text(json.dumps({"min_poly": [-14, 0, 1], "fundamental_units": []}))
    proc = run_cli(["constants", str(p)])
    assert proc.returncode == 2 and "rank 1" in proc.stderr


# -- subcommands -------------------------------------------------------------------


def test_field_info(capsys):
    assert main(["field-info", "qsqrt14"]) == 0
    out = capsys.readouterr().out
    assert "signature (2, 0)" in out and "disc 56" in out


def test_constants_golden(capsys):
    assert main(["constants", "qsqrt14", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    out = rep["outputs"]
    assert out["M"] == 28
    assert abs(float(out["epsilon"]["lo"]) - 0.516973) < 1e-6
    assert 5.47 <= float(out["T0"]["lo"]) <= float(out["T0"]["hi"]) <= 5.48
    assert abs(float(out["c_MK"]["hi"]) / 48896 - 1) < 0.005


def test_constants_bedocchi(capsys):
    assert main(["constants", "qsqrt14", "--bedocchi", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(float(rep["outputs"]["c_MK"]["hi"]) / 119008 - 1) < 0.005
    assert any("below c(K)" in w for w in rep["warnings"])


def test_constants_m_override_warning(capsys):
    assert main(["constants", "qsqrt14", "--M", "2", "--epsilon", "31/32", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert any("below c(K)" in w for w in rep["warnings"])


def test_table1_m_column(capsys):
    assert main(["table1", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    rows = rep["outputs"]["rows"]
    assert len(rows) == 7
    assert all(r["M_matches"] for r in rows)
    assert rep["outputs"]["m_column_checked"]


def test_table1_flags_broken_row(tmp_path, capsys):
    src = json.loads(bundled_path("table1/row1.json").read_text())
    del src["fundamental_units"]
    (tmp_path / "row1.json").write_text(json.dumps(src))
    ok = json.loads(bundled_path("table1/row2.json").read_text())
    (tmp_path / "row2.json").write_text(json.dumps(ok))
    assert main(["table1", str(tmp_path), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    rows = rep["outputs"]["rows"]
    assert any("flagged" in r for r in rows)
    assert any(r.get("M") == 18 for r in rows)


def test_expand_golden(capsys):
    assert main(["expand", "qq", "--prime", "5", "--alpha", "7/3", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    out = rep["outputs"]
    assert out["status"] == ["finite", 3]
    assert out["partial_quotients"] == ["-1", "-11/5", "2/5"]
    assert out["roundtrip_exact"] is True


# sha256 of stdout for JSON reports over fields of degree > 1: a changed
# partial quotient, interval endpoint or report key changes the digest
GOLDEN_STDOUT_SHA256 = {
    "expand qsqrt14 --prime 48953 --alpha 1/3,2/7 --floor representative --json":
        "c7042e273ca7c846d9eda3ae6892f8a3d9bef3712d74e41297fb3a56e2f2e64c",
    "constants qz3 --json":
        "9b3e1d126e6d9d507560a099ab157d86b03c44ecec70c0453bf3a15917a9ed84",
    "verify-floor qsqrt14 --prime 48953 --floor representative --samples 5 --seed 1 --json":
        "7d6e70a8330c949530e9e677abfc257c8ca750fa3328a305b3705f2b4a25da8b",
    "verify-type qz3 --prime 1009 --floor representative --samples 3 --seed 1 --json":
        "d23528a3fc134bb00a603dda7e99f56c1b97158da5945f8b96c9f238d6e7e7c6",
    "divchain qsqrt14 --a 7 --b 3 --S 5 --json":
        "7263838bf15195f8f66819b5cd9c15d0c4294123c0fc8dcc85d03674c8de4aa8",
    "expand qz3 --prime 1009 --alpha 1/3,2/7,5 --floor representative --json":
        "72d1ca510af92fbdfb6bc21de17104c02eff2e25c344b5e79b28802c49b5b34d",
    # a quartic with complex roots, at a residue-degree-2 prime
    "verify-floor table1/row5 --prime 19 --prime-index 2 --floor representative --samples 20 --seed 1 --json":
        "4b8f7285fe77dbe4c0f507bb3e8ec3cea5554d7c603fcb72acd80e626bf87682",
    # seven fields, three of them with complex roots
    "table1 --json":
        "d9052cf0ea2b19740e7e19476db442f2c70de5b59cdc37a8d03353e0e2f17874",
}


@pytest.mark.parametrize("command", list(GOLDEN_STDOUT_SHA256))
def test_reports_byte_identical(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN_STDOUT_SHA256[command]


@pytest.mark.parametrize("argv", [["--precision", "128", "constants", "qq"],
                                  ["constants", "qq", "--precision", "128"]])
def test_precision_is_not_an_option(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_expand_json_deterministic():
    a = run_cli(["expand", "qq", "--prime", "5", "--alpha", "7/3", "--json"])
    b = run_cli(["expand", "qq", "--prime", "5", "--alpha", "7/3", "--json"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout  # byte-identical reports


def test_verify_floor_ok(capsys):
    assert main(["--seed", "7", "verify-floor", "qq", "--prime", "5",
                 "--samples", "40"]) == 0


def test_verify_floor_corrupted_exits_one(capsys):
    assert main(["--seed", "7", "verify-floor", "qq", "--prime", "5",
                 "--samples", "15", "--corrupt"]) == 1


def test_verify_type(capsys):
    assert main(["--seed", "11", "verify-type", "qq", "--prime", "7",
                 "--samples", "15", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["outputs"]["flagged_nu_at_least_one"] == 0
    assert rep["outputs"]["height_chain_ok"] is True
    assert float(rep["outputs"]["empirical_sup"]) < 1


def test_divchain_command(capsys):
    assert main(["divchain", "qq", "--a", "7", "--b", "3", "--S", "5", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    out = rep["outputs"]
    assert out["terminating"] and out["length"] <= 5
    assert out["verification"]["valid"]


def test_divchain_search_exhausted_exit_code():
    proc = run_cli(["divchain", "qq", "--a", "100", "--b", "47", "--S", "5",
                    "--candidate-bound", "0", "--k-range", "0", "--unit-exp-bound", "0"])
    assert proc.returncode == 3


def test_evaluate_command(capsys):
    assert main(["evaluate", "qq", "--quotients", "1;2;3"]) == 0
    assert "10/7" in capsys.readouterr().out


COLD_START = """
import contextlib, hashlib, io, sys
sys.modules["sympy"] = None  # any import of sympy now fails
heavy = ("numpy", "mpmath")
import padiccf.cli


def run(argv, code=0):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert padiccf.cli.main(argv) == code, argv


print(*[m for m in heavy if m in sys.modules])
for argv in (["field-info", "qsqrt14"], ["constants", "qsqrt14", "--json"],
             ["expand", "qq", "--prime", "5", "--alpha", "7/3", "--json"],
             ["divchain", "qq", "--a", "7", "--b", "3", "--S", "5", "--json"],
             ["evaluate", "qq", "--quotients=-1;-11/5;2/5", "--json"], ["table1", "--json"]):
    run(argv)
print(*[m for m in heavy if m in sys.modules])
run(["divchain", "qsqrt14", "--a=20,-14", "--b=-3,-5", "--S", "5"], 3)
print(*[m for m in heavy if m in sys.modules])
run(["expand", "qq", "--prime", "3317044064679887385962123", "--alpha", "7/3", "--json"])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert padiccf.cli.main(sys.argv[1:]) == 0
print(hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_cold_start_imports_no_sympy_or_numpy():
    """With sympy blocked, a fresh `import padiccf.cli` loads neither numpy nor
    mpmath, and these commands (over Q, the totally real Q(sqrt14) and the
    table1 fields, some with complex roots) load neither.  Without sympy, a
    division-chain search over Q(sqrt14) that exhausts its caps after many
    S-integrality questions exits 3 and loads no numpy either (its principal
    generators reduce their lattice in Python), an expansion at a prime above
    psi_13 runs, and an expansion at a large prime of Q(sqrt14) prints its
    golden report."""
    proc = subprocess.run([sys.executable, "-c", COLD_START, *Q14_LARGE], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    after_import, after_commands, after_divchain, digest = proc.stdout.splitlines()
    assert after_import == ""
    assert after_commands == ""
    assert "numpy" not in after_divchain.split()
    assert digest == GOLDEN_STDOUT_SHA256[" ".join(Q14_LARGE)]


def test_input_error_exit_code():
    proc = run_cli(["constants", "no_such_field.json"])
    assert proc.returncode == 2 and "not found" in proc.stderr
    proc2 = run_cli(["expand", "qq", "--prime", "5", "--alpha", "oops"])
    assert proc2.returncode == 2


REP_QQ = ["expand", "qq", "--prime", "5", "--alpha", "1/3", "--floor", "representative", "--json"]


@pytest.mark.parametrize("argv, message", [
    (["expand", "qq", "--prime", "5", "--prime-index", "-1", "--alpha", "7/3", "--json"],
     "prime index -1 out of range (1 primes above 5)"),
    (["divchain", "qq", "--a", "7", "--b", "3", "--S", "5", "--s-index", "5", "--json"],
     "S index 5 out of range (1 primes above 5)"),
    (["divchain", "qq", "--a", "7", "--b", "3", "--S", "5", "--s-index", "-1", "--json"],
     "S index -1 out of range (1 primes above 5)"),
    (["verify-floor", "qq", "--prime", "5", "--samples", "-3", "--json"], "--samples must be positive, got -3"),
    (["verify-type", "qq", "--prime", "5", "--samples", "0", "--json"], "--samples must be positive, got 0"),
    (REP_QQ + ["--M", "2", "--epsilon", "2"], "--epsilon must lie strictly between 0 and 1, got 2"),
    (REP_QQ + ["--M", "2", "--epsilon", "1"], "--epsilon must lie strictly between 0 and 1, got 1"),
    (["verify-floor", "qq", "--prime", "5", "--floor", "representative", "--epsilon", "3/2", "--json"],
     "--epsilon must lie strictly between 0 and 1, got 3/2"),
    (REP_QQ + ["--epsilon", "0"], "--epsilon must lie strictly between 0 and 1, got 0"),
    (REP_QQ + ["--epsilon=-1/2"], "--epsilon must lie strictly between 0 and 1, got -1/2"),
    (["constants", "qsqrt14", "--epsilon", "2", "--json"], "--epsilon must lie strictly between 0 and 1, got 2"),
    (["constants", "qsqrt14", "--M", "0", "--json"], "--M must be at least 1, got 0"),
    (["constants", "qsqrt14", "--M", "-3", "--json"], "--M must be at least 1, got -3"),
    (REP_QQ + ["--M", "0"], "--M must be at least 2, got 0"),
    (REP_QQ + ["--M", "1"], "--M must be at least 2, got 1"),
    (["constants", "qsqrt14", "--M", "1", "--json"], "M = 1 yields epsilon >= 1 (needs M > c(ideal,K) = 7.483)"),
    (["expand", "qsqrt14", "--prime", "48953", "--alpha", "1/3,2/7", "--floor", "representative", "--M", "3"],
     "M = 3 yields epsilon >= 1 (needs M > c(ideal,K) = 7.483)"),
    (["expand", "qq", "--prime", "5", "--alpha", "1/3", "--M", "2", "--json"],
     "--M needs --floor representative; the browkin floor has no M or epsilon"),
    (["verify-floor", "qq", "--prime", "5", "--epsilon", "1/2", "--json"],
     "--epsilon needs --floor representative; the browkin floor has no M or epsilon"),
    (["expand", "qq", "--prime", "2", "--alpha", "1/3", "--json"],
     "the browkin floor's centered digit set needs an odd prime, got --prime 2"),
    (["verify-floor", "qq", "--prime", "2", "--json"],
     "the browkin floor's centered digit set needs an odd prime, got --prime 2"),
    (["divchain", "qq", "--a", "3", "--b", "0", "--S", "5", "--json"], "--b must be nonzero"),
    (["table1", "/nonexistent", "--json"], "no field files (*.json) in /nonexistent"),
    (["table1", str(Path(__file__).parent), "--json"], f"no field files (*.json) in {Path(__file__).parent}"),
], ids=["prime-index", "s-index-too-large", "s-index-negative", "verify-floor-samples", "verify-type-samples",
        "epsilon-2", "epsilon-1", "verify-floor-epsilon", "epsilon-0", "epsilon-negative", "constants-epsilon",
        "constants-M-0", "constants-M-negative", "representative-M-0", "representative-M-1",
        "constants-M-epsilon-not-below-1", "representative-M-epsilon-not-below-1", "browkin-M", "browkin-epsilon",
        "browkin-expand-prime-2", "browkin-verify-floor-prime-2", "b-zero",
        "table1-missing-dir", "table1-no-json"])
def test_out_of_range_option_is_an_input_error(argv, message, capsys):
    """An option outside the values any computation can use exits 2 with the
    reason, and prints no report."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"input error: {message}" in captured.err


def test_chosen_M_with_epsilon_not_below_one_is_an_assertion_failure(monkeypatch, capsys):
    """Without --M the program chooses M, so epsilon >= 1 is its own failure:
    exit 1, not an input error."""
    monkeypatch.setattr("padiccf.constants.choose_M", lambda field: 1)
    assert main(["constants", "qsqrt14", "--json"]) == 1
    assert "error: M = 1 yields epsilon >= 1" in capsys.readouterr().err


def test_bundled_field_load_error_is_not_not_found(monkeypatch, capsys):
    """A bundled file that exists but fails to load reports the load's own
    error, not "not found"."""
    def failing(name):
        raise FieldSpecError("unit validation failed: boom")

    monkeypatch.setattr("padiccf.cli.load_bundled", failing)
    assert main(["field-info", "qsqrt14"]) == 2
    err = capsys.readouterr().err
    assert "unit validation failed: boom" in err and "not found" not in err


def test_representative_expand_on_q(capsys):
    assert main(["expand", "qq", "--prime", "5", "--alpha", "1/3",
                 "--floor", "representative", "--M", "2", "--epsilon", "1/2",
                 "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["outputs"]["status"][0] == "finite"
    assert rep["outputs"]["roundtrip_exact"] is True


Q14_LARGE = ["expand", "qsqrt14", "--prime", "48953", "--alpha", "1/3,2/7",
             "--floor", "representative", "--json"]
PRIME1_QUOTIENTS = ["-59/10,3/10", "7854/48953,18/48953"]


def _json_report(capsys, argv, code=0):
    assert main(argv) == code
    return json.loads(capsys.readouterr().out)


def test_prime_gen_selection(capsys):
    # N(P) = 5 is far below c(M,K) ~ 48896.  With P = (3+sqrt14) every
    # j*xi - tau (5 does not divide j) has sqrt14-coordinate in (1/5)Z \ Z, so
    # max|sigma(j*xi - tau)| >= sqrt14/5 > epsilon = 14^(-1/4): no pair exists.
    # The certified window sees it without a candidate: c_2 is at least 1/5
    # from Z and the reach R_2 = epsilon * 2 * sqrt14/28 is about 0.138.
    assert main(["expand", "qsqrt14", "--prime", "5", "--prime-gen", "3,1",
                 "--alpha", "2", "--floor", "representative", "--json"]) == 3
    captured = capsys.readouterr()
    assert "search exhausted" in captured.err
    # under --json the error object keeps the inputs and the warning that explains it
    error = json.loads(captured.out)
    assert error["error"].startswith("search exhausted: ")
    assert "precision" not in error["error"]  # fixed, and doubled by the certification
    assert "no tau within the certified reach for any j" in error["error"]
    assert error["inputs"]["prime_gen"] == "3,1"
    assert any("N(P) = 5 is not above c(M,K)" in w for w in error["warnings"])
    # 48953 splits as (263+38sqrt14)(263-38sqrt14); the second generator picks
    # prime index 1, and 1/3,2/7 tells the two primes apart.
    rep = _json_report(capsys, Q14_LARGE + ["--prime-gen=263,-38"])
    assert rep["outputs"]["status"][0] == "finite"
    assert rep["outputs"]["roundtrip_exact"] is True
    assert rep["warnings"] == []
    assert rep["inputs"]["prime_index"] == 1
    assert rep["inputs"]["prime_gen"] == rep["inputs"]["gamma"] == "263,-38"
    quotients = rep["outputs"]["partial_quotients"]
    assert quotients == PRIME1_QUOTIENTS
    index1 = _json_report(capsys, Q14_LARGE + ["--prime-index", "1"])
    index0 = _json_report(capsys, Q14_LARGE + ["--prime-index", "0"])
    assert quotients == index1["outputs"]["partial_quotients"]
    assert quotients != index0["outputs"]["partial_quotients"]
    assert "prime_gen" not in index1["inputs"] and "gamma" not in index1["inputs"]


def test_prime_gen_rejects_non_generators(capsys):
    # 5 and 10 lie in P = (3+sqrt14) but have norm 25 and 100; 0 lies in every P
    for gen in ("5,0", "10,0", "0,0"):
        assert main(["expand", "qsqrt14", "--prime", "5", "--prime-gen", gen,
                     "--alpha", "2", "--floor", "representative"]) == 2
        assert "does not generate" in capsys.readouterr().err


def test_prime_gen_is_the_floor_gamma(capsys):
    # (263-38sqrt14)(15+4sqrt14): a unit multiple of the generator of prime 1
    rep = _json_report(capsys, Q14_LARGE + ["--prime-gen", "1817,482"])
    assert rep["outputs"]["roundtrip_exact"] is True
    lf = load_bundled("qsqrt14.json")
    field = lf.field
    prime = primes_above(field, 48953)[1]
    spec = cfengine.make_representative_type(
        field, prime, lf.units, gamma=field.element([1817, 482]))
    exp = cfengine.expand(field.element([Fraction(1, 3), Fraction(2, 7)]), spec)
    assert rep["outputs"]["partial_quotients"] == [
        coords_str(q) for q in exp.partial_quotients]
    # the floor's own choice of gamma, 263-38sqrt14, gives a different expansion
    assert rep["outputs"]["partial_quotients"] != PRIME1_QUOTIENTS



def test_verify_reports_record_the_prime(capsys):
    verify_floor = ["verify-floor", "qsqrt14", "--prime", "48953", "--floor", "representative",
                    "--samples", "2", "--json"]
    index0 = _json_report(capsys, verify_floor + ["--prime-index", "0"])["inputs"]
    index1 = _json_report(capsys, verify_floor + ["--prime-index", "1"])["inputs"]
    assert index0 != index1
    assert (index0["prime_index"], index1["prime_index"]) == (0, 1)
    rep = _json_report(capsys, ["verify-type", "qsqrt14", "--prime", "48953", "--floor",
                                "representative", "--samples", "1", "--prime-gen=263,-38", "--json"])
    assert rep["inputs"]["prime_index"] == 1
    assert rep["inputs"]["prime_gen"] == rep["inputs"]["gamma"] == "263,-38"
