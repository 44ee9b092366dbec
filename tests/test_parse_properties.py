"""Property tests for the text parsers.

Each parser round-trips its own output.  A mutated text either parses or
raises ParseError, and the CLI turns a ParseError into exit 2 with the same
``line N:`` message, never a traceback.  The array reader, which decodes a
line as the printer prints it a whole row at a time, agrees with the full
reader of ``row_oracle`` on texts with one token or separator changed.  No
command reads grids, so grid text is read by ``row_oracle.grid_from_text``,
the reference reader.
"""

from __future__ import annotations

import random

import pytest

import fixtures as fx
import row_oracle

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sudoku_ooa import (  # noqa: E402
    BandedArray,
    FlagData,
    InvalidFlagData,
    ParseError,
    array_from_text,
    array_to_text,
    flags_from_text,
    flags_to_text,
    grid_to_text,
    make_field,
)
from sudoku_ooa.cli import main  # noqa: E402

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@st.composite
def grids(draw):
    q = draw(st.sampled_from([2, 3]))
    side = q * q
    cells = st.lists(st.integers(0, side - 1), min_size=side, max_size=side)
    rows = draw(st.lists(cells, min_size=side, max_size=side))
    return fx.grid(q, rows)


def _datum_or_none(field, entries):
    try:
        return FlagData(field, *entries)
    except InvalidFlagData:
        return None


@st.composite
def flag_lists(draw):
    field = make_field(draw(st.sampled_from([2, 3])))
    entries = st.tuples(*[st.integers(0, field.q - 1)] * 5)
    data = st.builds(lambda e: _datum_or_none(field, e), entries).filter(bool)
    return draw(st.lists(data, min_size=1, max_size=3))


@st.composite
def arrays(draw):
    q = draw(st.sampled_from([2, 3]))
    s = draw(st.integers(2, 3))
    row = st.lists(st.integers(0, q - 1), min_size=q**4, max_size=q**4)
    rows = draw(st.lists(row, min_size=2 * s, max_size=2 * s))
    return BandedArray(q, s, tuple(tuple(r) for r in rows))


FORMATS = {
    "grid": (grids(), grid_to_text, row_oracle.grid_from_text),
    "flags": (flag_lists(), flags_to_text, flags_from_text),
    "array": (arrays(), array_to_text, array_from_text),
}

# Characters that keep a mutation close to the format, plus any character.
_NEAR = st.sampled_from(list("0123456789 -=\n\r\tqsvtlx") + ["count", "\x85", "٣"])


@st.composite
def mutated(draw, values, to_text):
    """A valid text with one to three characters inserted, deleted or replaced."""
    chars = list(to_text(draw(values)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(chars) - 1))
        new = draw(st.one_of(_NEAR, st.characters()))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            chars.insert(i, new)
        elif op == "delete":
            del chars[i]
        else:
            chars[i] = new
    return "".join(chars)


def _parse_outcome(parse, text):
    """The parsed value, or the ParseError; any other exception escapes."""
    try:
        return parse(text)
    except ParseError as exc:
        return exc


@pytest.mark.parametrize("kind", FORMATS)
def test_parsers_round_trip_their_output(kind):
    values, to_text, parse = FORMATS[kind]

    @SETTINGS
    @given(values)
    def check(value):
        text = to_text(value)
        assert parse(text) == (list(value) if kind == "flags" else value)

    check()


@pytest.mark.parametrize("kind", FORMATS)
def test_mutated_text_raises_only_parse_error(kind):
    values, to_text, parse = FORMATS[kind]

    @SETTINGS
    @given(mutated(values, to_text))
    def check(text):
        outcome = _parse_outcome(parse, text)
        if isinstance(outcome, ParseError):
            assert str(outcome).startswith(f"line {outcome.line}: ")

    check()


@pytest.mark.parametrize("command,kind", [("verify", "array"), ("check-family", "flags")])
def test_cli_exits_2_on_unparsable_input(tmp_path, capsys, command, kind):
    values, to_text, parse = FORMATS[kind]
    path = tmp_path / "input.txt"

    @SETTINGS
    @given(mutated(values, to_text), st.booleans())
    def check(text, raw_byte):
        data = text.encode()
        if raw_byte:
            data = data[:-1] + b"\xff"
        path.write_bytes(data)
        code = main([command, str(path)])
        out, err = capsys.readouterr()
        try:
            outcome = _parse_outcome(parse, data.decode())
        except UnicodeDecodeError:
            assert (code, out) == (2, "")
            assert err.startswith("error: line ")
            return
        if isinstance(outcome, ParseError):
            assert (code, out, err) == (2, "", f"error: {outcome}\n")
        else:
            assert code in (0, 1, 2)

    check()


# One-token edits: spellings int() takes that are not canonical, spellings the
# parsers refuse, entries out of range, a tab separator, and a token added or
# removed.  "{q}" is the row bound, the array's order q.  Edits aimed at the
# row decoder's digit pairing: two tokens merged, a token's digits split
# apart, a doubled, leading or trailing space, and the bytes the decoder's
# tables use as markers (NUL, and U+00FF as a character).
_TOKEN_EDITS = [
    "007", "-0", "+1", "1_0", "\u0661", "{q}", "-1", "256", "tab", "extra", "missing",
    "merge", "split", "double space", "leading space", "trailing space", "\x00", "\u00ff",
]


def _random_array(rng, q):
    s = rng.randint(2, 3)
    return BandedArray(q, s, tuple(bytes(rng.choices(range(q), k=q**4)) for _ in range(2 * s)))


READERS = {
    # kind: (orders, random value, printer, reader, oracle)
    "array": ([2, 3, 5, 11, 13], _random_array, array_to_text, array_from_text,
              row_oracle.array_from_text),
}


def _edit_token(lines, i, j, edit, q):
    """The text of ``lines`` with ``edit`` made at token j of line i."""
    tokens = lines[i].split(" ")
    if edit in ("tab", "merge"):
        j = min(j, len(tokens) - 2)
        tokens[j : j + 2] = [tokens[j] + ("\t" if edit == "tab" else "") + tokens[j + 1]]
    elif edit == "split":  # 12 -> 1 2, at the first token of two digits from j on
        j = next((k for k in range(j, len(tokens)) if len(tokens[k]) > 1), j)
        tokens[j] = " ".join(tokens[j])
    elif edit == "double space":
        tokens.insert(max(j, 1), "")
    elif edit in ("leading space", "trailing space"):
        tokens.insert(0 if edit == "leading space" else len(tokens), "")
    elif edit == "extra":
        tokens.insert(j, "0")
    elif edit == "missing":
        del tokens[j]
    elif edit == "007":  # the same value, zero-padded
        tokens[j] = "00" + tokens[j]
    else:
        tokens[j] = edit.format(q=q)
    return "\n".join([*lines[:i], " ".join(tokens), *lines[i + 1 :], ""])


@st.composite
def token_edited(draw, kind):
    orders, build, to_text = READERS[kind][:3]
    q = draw(st.sampled_from(orders))
    lines = to_text(build(random.Random(draw(st.integers(0, 2**32))), q)).splitlines()
    i = draw(st.integers(1, len(lines) - 1))
    j = draw(st.integers(0, q**4 - 1))
    return _edit_token(lines, i, j, draw(st.sampled_from(_TOKEN_EDITS)), q)


def _assert_agrees(read, oracle, text):
    got, want = _parse_outcome(read, text), _parse_outcome(oracle, text)
    if isinstance(want, ParseError):
        assert isinstance(got, ParseError)
        assert (str(got), got.line) == (str(want), want.line)
    else:
        assert got == want


@pytest.mark.parametrize("kind", READERS)
def test_row_decoder_agrees_with_full_reader(kind):
    read, oracle = READERS[kind][3:]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(token_edited(kind))
    def check(text):
        _assert_agrees(read, oracle, text)

    check()


@pytest.mark.parametrize("edit", _TOKEN_EDITS)
def test_every_token_edit_agrees_with_full_reader(edit):
    # Hypothesis draws some edits rarely; here each is made at every order.
    orders, build, to_text, read, oracle = READERS["array"]
    for q in orders:
        rng = random.Random(f"{edit} {q}")
        lines = to_text(build(rng, q)).splitlines()
        i, j = rng.randrange(1, len(lines)), rng.randrange(q**4)
        _assert_agrees(read, oracle, _edit_token(lines, i, j, edit, q))
