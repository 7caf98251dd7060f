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
    ConfigError,
    ExperimentConfig,
    MalformedLine,
    Report,
    RoundRef,
    Survey,
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


@settings(max_examples=1500, deadline=None)
@given(st.data())
def test_decoder_accepts_exactly_the_valid_lines(data):
    verb = data.draw(st.sampled_from([*SCHEMA, *SCHEMA, *UNKNOWN_VERBS]))
    schema = SCHEMA.get(verb) or data.draw(st.sampled_from(list(SCHEMA.values())))
    bad = data.draw(st.sets(st.integers(min_value=0, max_value=len(schema) - 1)))
    parts = [verb]
    for i, (valid, invalid) in enumerate(schema):
        parts += data.draw(invalid if i in bad else valid)
    arity = data.draw(st.sampled_from([0] * 4 + [-1, 1]))
    if arity < 0:
        parts.pop()
    elif arity > 0:
        parts.append("0")
    separator = data.draw(st.sampled_from(["ok"] * 4 + ["double", "leading", "trailing"]))
    line = " ".join(parts)
    if separator == "double":
        line = line.replace(" ", "  ", 1)
    elif separator == "leading":
        line = " " + line
    elif separator == "trailing":
        line = line + " "
    valid = verb in SCHEMA and not bad and arity == 0 and separator == "ok"
    try:
        msg = decode_message(line)
    except MalformedLine:
        msg = None
    assert (msg is not None) == valid, line
    if msg is not None:
        assert encode_message(msg) == line


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

TOKEN_0 = derive_token("k", RoundRef.cal(0))


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
