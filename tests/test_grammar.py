"""The text grammars checked against oracles that know the answer by construction.

A wire line is assembled from parts, each drawn from examples that are valid or
invalid by definition; the decoder must accept the line exactly when the verb,
the arity, the separators and every part are valid.
"""

import pytest
from hypothesis import given, settings, strategies as st

from rollcall import protocol
from rollcall.client import parse_activity_text, parse_uptime_text
from rollcall.counter import CounterError, parse_log_line
from rollcall.protocol import (
    Ack,
    ConfigError,
    ExperimentConfig,
    MalformedLine,
    Reject,
    Report,
    RoundRef,
    Survey,
    SyncRequest,
    SyncResponse,
    decode_message,
    derive_token,
    encode_message,
    encode_survey_text,
    format_config,
    parse_config,
)


def _field(valid, invalid):
    """A wire field: strategies for its valid and its invalid texts."""
    return valid.map(lambda text: [text]), invalid.map(lambda text: [text])


NONCE_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.~!éß中"
# whitespace to `\s` that `line.split(" ")` leaves inside a part (line breaks too)
HIDDEN_SPACE = ["\u2028", "\x85", "\t", "\x1c", "\xa0", "\u3000", "\n", "\r"]


@st.composite
def _spaced_nonce(draw):
    nonce = draw(st.text(st.sampled_from(NONCE_CHARS), min_size=8, max_size=63))
    at = draw(st.integers(min_value=0, max_value=len(nonce)))
    return nonce[:at] + draw(st.sampled_from(HIDDEN_SPACE)) + nonce[at:]


NONCE = _field(
    st.text(st.sampled_from(NONCE_CHARS), min_size=8, max_size=64),
    st.one_of(
        st.text(st.sampled_from(NONCE_CHARS), min_size=7, max_size=7),
        st.text(st.sampled_from(NONCE_CHARS), min_size=65, max_size=65),
        _spaced_nonce(),
    ),
)
HEX = "0123456789abcdef"
TOKEN_0 = derive_token("k", RoundRef.cal(0))
TOKEN = _field(
    st.text(st.sampled_from(HEX), min_size=32, max_size=32),
    st.one_of(
        st.text(st.sampled_from(HEX), min_size=31, max_size=31),
        st.text(st.sampled_from(HEX), min_size=33, max_size=33),
        st.text(st.sampled_from(HEX.upper()), min_size=32, max_size=32).filter(
            lambda t: t != t.lower()
        ),
        st.just("g" * 32),
    ),
)
# "-0" is accepted but does not re-encode to itself; the integer table covers it
MS = _field(
    st.integers(min_value=-(10**18), max_value=10**18).map(str),
    st.sampled_from(["01", "+1", "1_0", "١", "１２", "-", "--1", "1.0", "00", "-01", "0x1"]),
)
REASON = _field(
    st.sampled_from(sorted(protocol.REJECT_REASONS)),
    st.sampled_from(["dup", "NOPE", "OK", "MALFORMED_"]),
)
CODE = _field(
    st.sampled_from(sorted(protocol.SURVEY_CODES)),
    st.sampled_from(["forgot", "NONE", "OTHERS"]),
)
# a survey text field is valid exactly when it is what encode_survey_text writes
NON_CANONICAL_TEXT = ["!!!!", "aGk=!", "aGk+", "aGl=", "aGk=aGk="]
TEXT = _field(
    st.one_of(st.just("-"), st.text(min_size=1, max_size=40).map(encode_survey_text)),
    # "_w==" is not UTF-8
    st.sampled_from(["a", "aGk", "abcde", "a===", "_w==", *NON_CANONICAL_TEXT]),
)
INDEX = st.integers(min_value=0, max_value=10**12).map(str)
BAD_INDEX = st.sampled_from(["01", "+1", "-0", "-1", "1_0", "١", "00", "x"])
ROUND = (
    st.one_of(st.tuples(st.just("CAL"), INDEX), st.just(("EXE", "0"))).map(list),
    st.one_of(
        st.tuples(st.sampled_from(["CAL", "EXE"]), BAD_INDEX),
        st.tuples(st.sampled_from(["cal", "XYZ", "EXEC"]), INDEX),
        st.tuples(st.just("EXE"), INDEX.filter(lambda i: i != "0")),
    ).map(list),
)
SCHEMA = {
    "SYNC": [MS],
    "SYNCR": [MS, MS, MS],
    "REPORT": [ROUND, NONCE, TOKEN],
    "ACK": [ROUND],
    "REJ": [REASON],
    "SURVEY": [NONCE, CODE, TEXT],
}
UNKNOWN_VERBS = ["HELLO", "sync", "REPORTS", "SYNCRR", "ACK0"]


@st.composite
def schema_lines(draw, valid_only=False):
    """A wire line assembled from SCHEMA parts, and whether it is valid by
    construction; with `valid_only`, always a valid one."""
    if valid_only:
        parts = [draw(st.sampled_from(list(SCHEMA)))]
        for valid, _invalid in SCHEMA[parts[0]]:
            parts += draw(valid)
        return " ".join(parts), True
    verb = draw(st.sampled_from([*SCHEMA, *SCHEMA, *UNKNOWN_VERBS]))
    schema = SCHEMA.get(verb) or draw(st.sampled_from(list(SCHEMA.values())))
    bad = draw(st.sets(st.integers(min_value=0, max_value=len(schema) - 1)))
    parts = [verb]
    for i, (valid, invalid) in enumerate(schema):
        parts += draw(invalid if i in bad else valid)
    arity = draw(st.sampled_from([0] * 4 + [-1, 1]))
    if arity < 0:
        parts.pop()
    elif arity > 0:
        parts.append("0")
    separator = draw(st.sampled_from(["ok"] * 4 + ["double", "leading", "trailing"]))
    line = " ".join(parts)
    if separator == "double":
        line = line.replace(" ", "  ", 1)
    elif separator == "leading":
        line = " " + line
    elif separator == "trailing":
        line = line + " "
    return line, verb in SCHEMA and not bad and arity == 0 and separator == "ok"


@settings(max_examples=1500, deadline=None)
@given(schema_lines())
def test_decoder_accepts_exactly_the_valid_lines(case):
    line, valid = case
    try:
        msg = decode_message(line)
    except MalformedLine:
        msg = None
    assert (msg is not None) == valid, line
    if msg is not None:
        assert encode_message(msg) == line


def _typed(msg):
    """A message with its type: named tuples of equal fields compare equal across types."""
    return type(msg), msg


VALID_LINE = schema_lines(valid_only=True).map(lambda case: case[0])


@settings(max_examples=1000, deadline=None)
@given(st.one_of(VALID_LINE, schema_lines().map(lambda case: case[0])), VALID_LINE)
def test_decoded_messages_are_checked_values_of_their_own_type(line, other_line):
    other = decode_message(other_line)
    try:
        msg = decode_message(line)
    except MalformedLine:
        return
    # the decoder builds with `tuple.__new__`, skipping the checks its patterns made;
    # the checked constructor is the oracle
    assert _typed(type(msg)(*msg)) == _typed(msg)
    if type(msg) is not type(other):
        assert msg != other


# --- the compiled decoder against the split-based one it replaced ----------------


def reference_decode(line):
    """The split-based decoder, field by field; the oracle for `decode_message`."""
    if "\n" in line or "\r" in line:
        raise MalformedLine("line contains a line break")
    parts = line.split(" ")
    if parts != [p for p in parts if p]:
        raise MalformedLine("empty or repeated separators")
    verb, *args = parts

    def round_ref(kind, index):
        if index.startswith("-"):  # "-0" would pass the integer grammar
            raise ValueError(f"round index must be unsigned, got {index!r}")
        return RoundRef(kind, protocol._parse_int(index))

    try:
        if verb == "SYNC" and len(args) == 1:
            return SyncRequest(protocol._parse_int(args[0]))
        if verb == "SYNCR" and len(args) == 3:
            return SyncResponse(*map(protocol._parse_int, args))
        if verb == "REPORT" and len(args) == 4:
            return Report(round_ref(args[0], args[1]), args[2], args[3])
        if verb == "ACK" and len(args) == 2:
            return Ack(round_ref(*args))
        if verb == "REJ" and len(args) == 1:
            return Reject(args[0])
        if verb == "SURVEY" and len(args) == 3:
            return Survey(args[0], args[1], protocol.decode_survey_text(args[2]))
    except ValueError as exc:
        raise MalformedLine(str(exc)) from exc
    raise MalformedLine(f"unrecognized line {line!r}")


def _outcome(decode, line):
    try:
        return _typed(decode(line))
    except MalformedLine:
        return MalformedLine


BIG = "1" * 4301  # one digit past int()'s default limit
HOSTILE_LINES = [
    f"SYNC {BIG}", f"SYNC -{BIG}", f"SYNCR 1 2 {BIG}", f"ACK CAL {BIG}",
    f"REPORT CAL {BIG} abcdefgh {TOKEN_0}", "ACK CAL " + "9" * 4300,
    "ACK EXE 1", "ACK EXE 00", f"REPORT EXE 1 abcdefgh {TOKEN_0}", "SYNC -0", "ACK CAL -0",
    "SYNC", "SYNC ", "", " ", "REJ", "ACK CAL", "ACK  CAL 1", "SURVEY abcdefgh FORGOT",
]


@st.composite
def hostile_lines(draw):
    """A line from SCHEMA with one hostile edit: a hidden space inside a field,
    an over-long integer, stray spaces or a line break at the end."""
    line = draw(schema_lines())[0]
    parts = line.split(" ")
    i = draw(st.integers(min_value=0, max_value=len(parts) - 1))
    edit = draw(st.sampled_from(["hidden", "digits", "space", "break"]))
    if edit == "hidden":
        at = draw(st.integers(min_value=0, max_value=len(parts[i])))
        parts[i] = parts[i][:at] + draw(st.sampled_from(HIDDEN_SPACE)) + parts[i][at:]
    elif edit == "digits":
        parts[i] = draw(st.sampled_from(["", "-"])) + BIG
    elif edit == "space":
        parts[i] = draw(st.sampled_from([" ", ""])) + parts[i] + draw(st.sampled_from([" ", ""]))
    else:
        parts[-1] += draw(st.sampled_from(["\n", "\r", "\r\n"]))
    return " ".join(parts)


@settings(max_examples=1500, deadline=None)
@given(st.one_of(schema_lines().map(lambda case: case[0]), hostile_lines(),
                 st.sampled_from(HOSTILE_LINES)))
def test_decoder_equals_the_split_reference(line):
    assert _outcome(decode_message, line) == _outcome(reference_decode, line), line


VALID_LINES = [
    "SYNC -7", "SYNCR 1 2 3", f"REPORT CAL 12 abcdefgh {TOKEN_0}",
    f"REPORT EXE 0 abcdefgh {TOKEN_0}", "ACK CAL 3", "ACK EXE 0", "REJ DUP",
    f"SURVEY abcdefgh FORGOT {encode_survey_text('hi')}",
]


@pytest.mark.parametrize("line", VALID_LINES)
def test_hidden_space_in_every_field_is_malformed(line):
    # the reference rejects these too (covered above); here every place is tried
    assert _typed(decode_message(line)) == _typed(reference_decode(line))
    parts = line.split(" ")
    for i, part in enumerate(parts):
        for at in range(len(part) + 1):
            for space in HIDDEN_SPACE:
                edited = " ".join([*parts[:i], part[:at] + space + part[at:], *parts[i + 1:]])
                assert _outcome(reference_decode, edited) is MalformedLine, edited
                assert _outcome(decode_message, edited) is MalformedLine, edited


@pytest.mark.parametrize("field", NON_CANONICAL_TEXT)
def test_survey_text_must_be_canonical(field):
    # the lenient stdlib decoder reads these as "", "hi", "hi>", "hi" and "hi"
    with pytest.raises(MalformedLine):
        decode_message(f"SURVEY abcdefgh FORGOT {field}")


# --- the one integer grammar, wherever an integer is read ----------------------

INTEGERS = [
    ("0", True),
    ("7", True),
    ("-7", True),
    ("-0", True),
    ("1000", True),
    ("123456789012345678", True),
    ("01", False),
    ("00", False),
    ("-01", False),
    ("+1", False),
    ("1_000", False),
    ("١", False),
    ("٣", False),
    ("１２", False),
    ("1.0", False),
    ("1e3", False),
    ("0x10", False),
    ("--1", False),
    ("-", False),
    ("9" * 5000, False),  # beyond int()'s digit limit
]

CONFIG_WITHOUT_EPOCH = """
experiment_id = grammar
secret = s
delta_t_ms = 100
n_rounds = 3
delta_tau_ms = 20
"""


def _accepts(parse, text, error):
    try:
        parse(text)
    except error:
        return False
    return True


@pytest.mark.parametrize("text, valid", INTEGERS, ids=lambda v: repr(v)[:12])
def test_one_integer_grammar_everywhere(text, valid):
    readers = {
        "wire": (lambda t: decode_message(f"SYNC {t}"), MalformedLine),
        "log": (lambda t: parse_log_line(f"{t} REJECT x"), CounterError),
        "config": (lambda t: parse_config(f"{CONFIG_WITHOUT_EPOCH}epoch_ms = {t}\n"), ConfigError),
        "activity": (parse_activity_text, ValueError),
        "uptime": (lambda t: parse_uptime_text(f"DOWN {t}"), ValueError),
    }
    verdicts = {name: _accepts(parse, text, error) for name, (parse, error) in readers.items()}
    assert verdicts == dict.fromkeys(readers, valid)


# --- every grammar regex is anchored at the true end of the string ----------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: Report(RoundRef.cal(0), "abcdefgh\n", TOKEN_0),
        lambda: Report(RoundRef.cal(0), "abcdefgh", TOKEN_0 + "\n"),
        lambda: Survey("abcdefgh\n", "FORGOT", ""),
    ],
    ids=["report-nonce", "report-token", "survey-nonce"],
)
def test_message_field_with_trailing_newline_rejected(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("key", ["experiment_id", "secret"])
def test_config_string_with_trailing_newline_rejected(key):
    values = dict(
        experiment_id="x", secret="sec", epoch_ms=0, delta_t_ms=100, n_rounds=3,
        delta_tau_ms=20, t_star_ms=300,
    )
    config = ExperimentConfig(**values)
    assert parse_config(format_config(config)) == config
    values[key] += "\n"
    with pytest.raises(ConfigError):
        ExperimentConfig(**values)
