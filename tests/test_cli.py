"""Command-line behavior: artifacts, verdict lines, and exit codes."""

from __future__ import annotations

import hashlib

import pytest

import fixtures as fx
from grid_oracle import is_sudoku
from row_oracle import grid_from_text
from sudoku_ooa import BandedArray, array_from_text, array_to_text, ooa, verify
from sudoku_ooa.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_array(tmp_path, capsys):
    out = tmp_path / "arr.txt"
    code, stdout, _ = run(capsys, "construct", "--q", "3", "--s", "4", "--out", str(out))
    assert code == 0
    assert "CONSTRUCTED q=3 s=4 method=substrong" in stdout
    arr = array_from_text(out.read_text())
    assert verify(arr, "ooa").ok


def test_construct_rejects_q2_s4(capsys):
    code, _, stderr = run(capsys, "construct", "--q", "2", "--s", "4")
    assert code == 2
    assert "OOA(4,4,2,2) does not exist" in stderr


def test_construct_rejects_non_prime_power(capsys):
    code, _, stderr = run(capsys, "construct", "--q", "6", "--s", "3")
    assert code == 2
    assert "prime power" in stderr


def test_construct_emit_flags(tmp_path, capsys):
    from sudoku_ooa import construct_family, flags_from_text

    out = tmp_path / "flags.txt"
    code, stdout, _ = run(
        capsys, "construct", "--q", "7", "--s", "5", "--emit", "flags", "--out", str(out)
    )
    assert code == 0
    assert "method=big" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "flags q=7 count=3"
    assert len(lines) == 4
    assert flags_from_text(out.read_text()) == list(construct_family(7, 5).data)


def test_construct_emit_grids(tmp_path, capsys):
    from sudoku_ooa import construct_family, generate

    out = tmp_path / "grid.txt"
    code, _, _ = run(
        capsys, "construct", "--q", "3", "--s", "4", "--emit", "grids", "--out", str(out)
    )
    assert code == 0
    expected = [generate(d.flag()) for d in construct_family(3, 4).data]
    for name, want in zip(("grid_1.txt", "grid_2.txt"), expected):
        grid = grid_from_text((tmp_path / name).read_text())
        assert is_sudoku(grid)
        assert grid == want


def _outputs(capsys, out_dir, *argv):
    """Exit code, stdout, stderr and every written file of one invocation."""
    out_dir.mkdir()
    result = run(capsys, *argv, "--out", str(out_dir / "out.txt"))
    return result, {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--q", "5", "--s", "4", "--emit", "array"],
        ["construct", "--q", "5", "--s", "4", "--emit", "flags"],
        ["construct", "--q", "5", "--s", "4", "--emit", "grids"],
        ["gen-sudoku", "--q", "5", "--flag", "2,1,3,2,2"],
    ],
    ids=["array", "flags", "grids", "gen-sudoku"],
)
def test_datum_to_artifact_path_does_no_subspace_algebra(tmp_path, capsys, monkeypatch, argv):
    # Flags come from their data in closed form: with row reduction disabled,
    # and with it every span, rank and nullspace, the artifacts are unchanged.
    from sudoku_ooa import FlagData, linalg, make_field

    expected = _outputs(capsys, tmp_path / "plain", *argv)
    assert expected[0][0] == 0 and expected[1]

    def no_rref(field, rows):
        raise AssertionError("row reduction on the datum path")

    monkeypatch.setattr(linalg, "rref", no_rref)
    with pytest.raises(AssertionError, match="row reduction"):
        FlagData(make_field(5), 2, 1, 3, 2, 2).spaces()  # the patch does bite
    assert _outputs(capsys, tmp_path / "patched", *argv) == expected


def test_construct_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "construct", "--q", "4", "--s", "4", "--out", str(a))
    run(capsys, "construct", "--q", "4", "--s", "4", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# sha256 of `construct --q <q> --s <max_s> --emit array` output.
ARRAY_SHA256 = {
    9: "9a915a51c48f99aa87a4b5005b3fd9bfbc0c6e709bfaa6940b76735ea32115ae",
    11: "85174b9636cd7912a5bf73fbcd479395c13fe6526d569c3aa427b8d16417fe88",
    13: "fc3e0dc27ce48fac850ca2b2cb49b6e85f3d84cc4a2b2933a61c9235dea52ffd",
    16: "7766a077c5d377dd7b1b2f4e9a372140e35a12ee02ee0afeaa0757104d19172a",
}


@pytest.mark.parametrize("q", sorted(ARRAY_SHA256))
def test_construct_array_matches_pinned_digest(q, tmp_path, capsys):
    from sudoku_ooa import assemble, construct_family, generate, max_guaranteed_s

    s = max_guaranteed_s(q)
    if q <= 11:
        out = tmp_path / "arr.txt"
        code, stdout, _ = run(capsys, "construct", "--q", str(q), "--s", str(s), "--out", str(out))
        assert (code, stdout) == (0, f"CONSTRUCTED q={q} s={s} method=big\n")
        text = out.read_bytes()
    else:
        # The text `construct` writes, without its exhaustive re-verification.
        grids = (generate(d.flag()) for d in construct_family(q, s).data)
        text = array_to_text(assemble(grids)).encode()
    assert hashlib.sha256(text).hexdigest() == ARRAY_SHA256[q]


# sha256 of each grid file of `construct --q <q> --s <s> --emit grids`.
GRID_SHA256 = {
    (5, 4): [
        "87edfa73050059bd0bb7e6f0f1b8b14abf673d56d68984c271e14936d1daf49d",
        "f1902770f35782774cb62e36e331b221a45c8d21f7a8d90d24663a13d4b38b08",
    ],
    (7, 5): [
        "5afd2d3339de5355412ce56d0f6ae512126fa85f381d77321f1b8e914b769dc8",
        "ed96b7408998ce563cbefe6672b80269eaf9c4e0eb63238611afe55b9a0e0ea0",
        "7d7582111c2ce4db78ef6ced20e3d18eba01e706ee3ce11ece0340b6bdd19c2b",
    ],
}


@pytest.mark.parametrize("q, s", sorted(GRID_SHA256))
def test_construct_grids_match_pinned_digests(q, s, tmp_path, capsys):
    out = tmp_path / "grid.txt"
    code, _, _ = run(
        capsys, "construct", "--q", str(q), "--s", str(s), "--emit", "grids", "--out", str(out)
    )
    assert code == 0
    got = [hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.glob("grid_*"))]
    assert got == GRID_SHA256[q, s]


def test_verify_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text(array_to_text(BandedArray(2, 3, tuple(tuple(r) for r in fx.OOA_4_3_2_2))))
    code, stdout, _ = run(capsys, "verify", str(good))
    assert code == 0 and stdout.strip() == "PASS"

    sa = tmp_path / "sa.txt"
    sa.write_text(array_to_text(BandedArray(2, 4, tuple(tuple(r) for r in fx.SA42_ARRAY))))
    code, stdout, _ = run(capsys, "verify", str(sa), "--mode", "sa")
    assert code == 0 and stdout.strip() == "PASS"
    code, stdout, _ = run(capsys, "verify", str(sa))
    assert code == 1
    assert stdout.startswith("FAIL")
    assert "columns" in stdout


def test_verify_missing_file(tmp_path, capsys):
    code, _, stderr = run(capsys, "verify", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error:" in stderr


def test_verify_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("ooa t=4 s=3 l=2 v=2\n0 1\n")
    code, _, stderr = run(capsys, "verify", str(bad))
    assert code == 2
    assert "line" in stderr


def test_interrupt_is_one_line_and_exit_130(tmp_path, capsys, monkeypatch):
    array, flags = tmp_path / "a.txt", tmp_path / "f.txt"
    assert main(["construct", "--q", "3", "--s", "4", "--out", str(array)]) == 0
    assert main(["construct", "--q", "3", "--s", "4", "--emit", "flags", "--out", str(flags)]) == 0
    capsys.readouterr()

    def interrupted_finder(array):
        def scan(rowset):
            raise KeyboardInterrupt

        return scan

    monkeypatch.setattr(ooa, "duplicate_finder", interrupted_finder)
    for argv in (["verify", str(array)], ["check-family", str(flags), "--level", "combinatorial"]):
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout, stderr) == (130, "", "error: interrupted\n"), argv


_BUDGET = "a 2s x q^4 array is limited to 16777216 entries"


@pytest.mark.parametrize(
    "command,header,message",
    [
        pytest.param(
            "check-family",
            "flags q=3 count=-1",
            "header field count must be at least 1, got -1",
            id="check-family-flags q=3 count=-1",
        ),
        pytest.param(
            "verify",
            "ooa t=4 s=-1 l=2 v=3",
            "header field s must be at least 2, got -1",
            id="verify-ooa t=4 s=-1 l=2 v=3",
        ),
        pytest.param(
            "verify",
            "ooa t=4 s=3 l=2 v=-3",
            "header field v must be at least 2, got -3",
            id="verify-ooa t=4 s=3 l=2 v=-3",
        ),
        # Over the array memory budget, with values whose derived counts
        # (2*s, v^4) have too many digits to convert to text.
        pytest.param("verify", "ooa t=4 s=3 l=2 v=1" + "0" * 1100, _BUDGET, id="verify-huge-v"),
        pytest.param(
            "verify", "ooa t=4 s=1" + "0" * 4000 + " l=2 v=3", _BUDGET, id="verify-huge-s"
        ),
        # An integer past the interpreter's int-string digit limit: named,
        # not echoed.
        pytest.param(
            "verify",
            "ooa t=4 s=3 l=2 v=" + "1" * 5000,
            "header field v has too many digits",
            id="verify-v-over-digit-limit",
        ),
        # Only an optional '-' and ASCII digits: int() alone would read these
        # as 11, 3 and 11.
        pytest.param(
            "check-family",
            "flags q=1_1 count=1",
            "non-integer header value 'q=1_1'",
            id="flags-underscore-q",
        ),
        pytest.param(
            "check-family", "flags q=+3 count=1", "non-integer header value 'q=+3'", id="flags-plus-q"
        ),
        pytest.param(
            "verify", "ooa t=4 s=3 l=2 v=١١", "non-integer header value 'v=١١'", id="verify-arabic-v"
        ),
        pytest.param(
            "verify",
            "ooa t=4 s=3 l=2 v=" + "١" * 5000,
            "non-integer header value 'v=" + "١" * 38 + "'... (5002 characters)",
            id="verify-long-arabic-v",
        ),
        pytest.param(
            "check-family",
            "flags q=3 count=1 q=5",
            "repeated header field 'q=5'",
            id="flags-repeated-q",
        ),
        pytest.param(
            "verify",
            "ooa t=4 s=3 l=2 s=4 v=3",
            "repeated header field 's=4'",
            id="verify-repeated-s",
        ),
        # Long lines and fields are quoted by their first 40 characters.
        pytest.param(
            "check-family",
            "ooa t=4 s=3 l=2 v=" + "1" * 5000,
            "expected a 'flags' header, got 'ooa t=4 s=3 l=2 v=" + "1" * 22
            + "'... (5018 characters)",
            id="flags-long-wrong-kind",
        ),
        pytest.param(
            "check-family",
            "flags q=3 count=1 x" + "1" * 5000 + "=1",
            "unexpected header field 'x" + "1" * 39 + "'... (5003 characters)",
            id="flags-long-unexpected-field",
        ),
        pytest.param(
            "verify",
            "ooa t=4 s=3 l=2 v=" + "x" * 5000,
            "non-integer header value 'v=" + "x" * 38 + "'... (5002 characters)",
            id="verify-long-non-integer-v",
        ),
        pytest.param(
            "check-family",
            "flags q=3 count=1 q=" + "5" * 5000,
            "repeated header field 'q=" + "5" * 38 + "'... (5002 characters)",
            id="flags-long-repeated-q",
        ),
        pytest.param(
            "verify",
            "ooa t=4 s=-" + "1" * 4000 + " l=2 v=3",
            "header field s must be at least 2, got '-" + "1" * 39 + "'... (4001 characters)",
            id="verify-long-negative-s",
        ),
    ],
)
def test_bad_header_is_a_parse_error(tmp_path, capsys, command, header, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(header + "\n")
    code, stdout, stderr = run(capsys, command, str(bad))
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: line 1: {message}\n"


def test_long_non_integer_line_is_quoted_by_its_start(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    line = "0 " * 40 + "x" + " 0" * 40
    bad.write_text("ooa t=4 s=3 l=2 v=3\n" + (line + "\n") * 6)
    code, stdout, stderr = run(capsys, "verify", str(bad))
    assert (code, stdout) == (2, "")
    assert stderr == f"error: line 2: non-integer entry in {line[:40]!r}... (161 characters)\n"


@pytest.mark.parametrize("command", ["verify", "check-family"])
def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"flags q=3 count=1\n\xff\xfe 1 0 2 1\n")
    code, stdout, stderr = run(capsys, command, str(bad))
    assert code == 2
    assert stdout == ""
    assert stderr == "error: line 2: byte 0xff is not UTF-8 (invalid start byte)\n"


def test_construct_refuses_arrays_over_budget(capsys):
    # GF(49) is a valid field and s = 3 is guaranteed, but 6 * 49^4 entries
    # exceed the budget; the refusal comes before any grid is generated.
    code, stdout, stderr = run(capsys, "construct", "--q", "49", "--s", "3")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: a 2s x q^4 array is limited to 16777216 entries\n"


def test_check_family_refuses_arrays_over_budget(tmp_path, capsys):
    # The combinatorial and exhaustive levels build the family's array, so a
    # one-member family over GF(49) is refused before its grid is generated;
    # the algebraic level builds no array and still runs.
    flags = tmp_path / "flags.txt"
    flags.write_text("flags q=49 count=1\n1 1 0 1 1\n")
    for level in ("combinatorial", "exhaustive"):
        code, stdout, stderr = run(capsys, "check-family", str(flags), "--level", level)
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {_BUDGET}\n"
    code, stdout, stderr = run(capsys, "check-family", str(flags), "--level", "algebraic")
    assert (code, stdout.splitlines()[-1], stderr) == (0, "PASS", "")


def test_gen_sudoku_refuses_grids_over_budget(tmp_path, capsys):
    # A grid is the array of a one-member family, as `construct --s 3` builds.
    out = tmp_path / "grid.txt"
    code, stdout, stderr = run(
        capsys, "gen-sudoku", "--q", "49", "--flag", "1,1,0,1,1", "--out", str(out)
    )
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {_BUDGET}\n"
    assert not out.exists()


def test_flags_q257_is_a_header_error(tmp_path, capsys):
    flags = tmp_path / "flags.txt"
    flags.write_text("flags q=257 count=1\n1 1 0 1 1\n")
    code, _, stderr = run(capsys, "check-family", str(flags))
    assert code == 2
    assert stderr == "error: line 1: field order must be at most 256, got 257\n"


def test_check_family_levels_agree(tmp_path, capsys):
    flags = tmp_path / "flags.txt"
    flags.write_text("flags q=3 count=2\n2 1 0 2 1\n1 1 0 1 2\n")
    verdicts = []
    for level in ("algebraic", "combinatorial", "exhaustive"):
        code, stdout, _ = run(capsys, "check-family", str(flags), "--level", level)
        verdicts.append((code, stdout.strip().splitlines()[-1]))
    assert verdicts == [(0, "PASS")] * 3


def test_check_family_reports_conditions(tmp_path, capsys):
    flags = tmp_path / "flags.txt"
    flags.write_text("flags q=3 count=2\n2 1 0 2 1\n1 1 0 1 2\n")
    code, stdout, _ = run(capsys, "check-family", str(flags))
    assert code == 0
    assert "orth 1,2 PASS" in stdout
    assert "ii.b 1,2 PASS" in stdout
    assert "iv - N/A" in stdout


def test_check_family_failing_family(tmp_path, capsys):
    # A mutually orthogonal pair over GF(2) that cannot be strongly
    # orthogonal: every level must report FAIL with exit code 1.
    flags = tmp_path / "flags.txt"
    flags.write_text("flags q=2 count=2\n0 1 1 0 1\n1 1 0 1 1\n")
    for level in ("algebraic", "combinatorial", "exhaustive"):
        code, stdout, _ = run(capsys, "check-family", str(flags), "--level", level)
        assert code == 1
        assert stdout.strip().splitlines()[-1].startswith("FAIL")
    code, stdout, _ = run(capsys, "check-family", str(flags), "--quiet")
    assert code == 1
    assert stdout.strip() == "FAIL"


def test_check_family_not_mutually_orthogonal(tmp_path, capsys):
    flags = tmp_path / "flags.txt"
    flags.write_text("flags q=3 count=2\n1 1 0 1 1\n1 1 0 1 2\n")
    code, _, stderr = run(capsys, "check-family", str(flags))
    assert code == 2
    assert "1 and 2" in stderr


def test_check_family_invalid_data(tmp_path, capsys):
    flags = tmp_path / "flags.txt"
    flags.write_text("flags q=3 count=1\n1 0 0 1 1\n")
    code, _, stderr = run(capsys, "check-family", str(flags))
    assert code == 2
    assert "line 2: upper-right entry b of the matrix datum is zero" in stderr


def test_gen_sudoku(tmp_path, capsys):
    out = tmp_path / "grid.txt"
    code, _, _ = run(
        capsys, "gen-sudoku", "--q", "3", "--flag", "2,1,0,2,1", "--out", str(out)
    )
    assert code == 0
    grid = grid_from_text(out.read_text())
    assert grid.q == 3
    assert is_sudoku(grid)


def test_gen_sudoku_bad_flag(capsys):
    code, _, stderr = run(capsys, "gen-sudoku", "--q", "3", "--flag", "1,2,3")
    assert code == 2
    assert stderr == "error: --flag needs 5 comma-separated integers, got '1,2,3'\n"


# int() alone would read each of these as the valid datum 2,1,0,2,1 (or 10).
@pytest.mark.parametrize("flag", ["2,1,0,2,+1", "2,1,0,٢,1", "2,1_0,0,2,1"])
def test_gen_sudoku_refuses_numbers_outside_the_format(capsys, flag):
    code, stdout, stderr = run(capsys, "gen-sudoku", "--q", "3", "--flag", flag)
    assert (code, stdout) == (2, "")
    assert stderr == f"error: --flag needs 5 comma-separated integers, got {flag!r}\n"


def test_gen_sudoku_bad_flag_is_quoted_by_its_start(capsys):
    flag = "2,1,0,2," + "1" * 5000
    code, stdout, stderr = run(capsys, "gen-sudoku", "--q", "3", "--flag", flag)
    assert (code, stdout) == (2, "")
    assert stderr == (
        f"error: --flag needs 5 comma-separated integers, got {flag[:40]!r}"
        "... (5008 characters)\n"
    )


# int() alone would read each of these as 11 or 3.
@pytest.mark.parametrize("value", ["1_1", "+3", "١١"])
@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--s", "3", "--q"],
        ["construct", "--q", "3", "--s"],
        ["gen-sudoku", "--flag", "2,1,0,2,1", "--q"],
        ["info", "--q"],
    ],
    ids=["construct-q", "construct-s", "gen-sudoku-q", "info-q"],
)
def test_numeric_options_refuse_numbers_outside_the_format(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument {argv[-1]}: invalid int value: {value!r}\n")


@pytest.mark.parametrize(
    "q,expected_max", [(2, 3), (3, 4), (9, 6)]
)
def test_info(capsys, q, expected_max):
    code, stdout, _ = run(capsys, "info", "--q", str(q))
    assert code == 0
    fields = dict(line.split("=", 1) for line in stdout.strip().splitlines())
    assert fields["q"] == str(q)
    assert int(fields["max_s"]) == expected_max
    if q == 9:
        assert fields == {
            "q": "9", "p": "3", "k": "2", "modulus": "1,0,1",
            "generator": "4", "max_s": "6",
        }


def test_info_rejects_orders_above_256(capsys):
    code, stdout, stderr = run(capsys, "info", "--q", "257")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: field order must be at most 256, got 257\n"


def test_huge_field_orders_are_cut_in_errors(tmp_path, capsys):
    huge = "1" + "0" * 3000
    code, stdout, stderr = run(capsys, "info", "--q", huge)
    assert (code, stdout) == (2, "")
    assert stderr == (
        f"error: field order must be at most 256, got {huge[:40]!r}... (3001 characters)\n"
    )
    flags = tmp_path / "flags.txt"
    flags.write_text(f"flags q={'7' * 4000} count=1\n1 1 0 1 1\n")
    code, stdout, stderr = run(capsys, "check-family", str(flags))
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: line 1: field order must be at most 256, got '7777")
    assert len(stderr.encode()) < 200


def test_info_rejects_composite(capsys):
    code, _, stderr = run(capsys, "info", "--q", "10")
    assert code == 2
    assert "prime power" in stderr


def test_roundtrip_stdout_array(capsys):
    code, stdout, _ = run(capsys, "construct", "--q", "2", "--s", "3")
    assert code == 0
    body = stdout.rsplit("CONSTRUCTED", 1)[0]
    arr = array_from_text(body)
    assert verify(arr, "ooa").ok
