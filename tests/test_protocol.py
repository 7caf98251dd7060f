import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rollcall import protocol
from rollcall.counter import CounterCore
from rollcall.protocol import (
    CAL,
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
    format_config,
    parse_config,
)
from rollcall.timesync import ClockEstimate, SyncSample

from conftest import submit

# Frozen before the build with `printf '<secret>:<index>:<kind>' | sha256sum`.
GOLDEN_TOKENS = {
    ("k", "CAL", 0): "8041cec80625ce75b1e4b7e7e4f837ce",
    ("k", "CAL", 1): "dba4896a65fdc2c94891882c6778e6d7",
    ("k", "EXE", 0): "4221272bb5a68a6f971be4d6265c72f9",
    ("hunter2-shared", "CAL", 7): "056959823320f70ea26b3c3e02bac8c0",
    ("s3cret", "CAL", 2): "a64882859acb2d60eb2ad94d624cf039",
    ("s3cret", "EXE", 0): "89f0b0859ababd415016c340732c15d7",
    ("orchard-lane", "CAL", 11): "6525de6ac64a365fcbad512bde757168",
}

NONCE_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.~!"

nonces = st.text(st.sampled_from(NONCE_ALPHABET), min_size=8, max_size=64)
tokens = st.text(st.sampled_from("0123456789abcdef"), min_size=32, max_size=32)
rounds = st.one_of(
    st.builds(RoundRef.cal, st.integers(min_value=0, max_value=10_000)),
    st.just(RoundRef.exe()),
)
wire_ints = st.integers(min_value=-(10**15), max_value=10**15)

messages = st.one_of(
    st.builds(SyncRequest, wire_ints),
    st.builds(SyncResponse, wire_ints, wire_ints, wire_ints),
    st.builds(Report, rounds, nonces, tokens),
    st.builds(Ack, rounds),
    st.builds(Reject, st.sampled_from(sorted(protocol.REJECT_REASONS))),
    st.builds(
        Survey,
        nonces,
        st.sampled_from(sorted(protocol.SURVEY_CODES)),
        st.text(max_size=200),
    ),
)


class TestDeriveToken:
    def test_golden_values(self):
        for (secret, kind, index), expected in GOLDEN_TOKENS.items():
            assert derive_token(secret, RoundRef(kind, index)) == expected

    def test_deterministic(self):
        r = RoundRef.cal(3)
        assert derive_token("s", r) == derive_token("s", r)

    def test_rounds_distinct(self):
        assert derive_token("k", RoundRef.cal(0)) != derive_token("k", RoundRef.cal(1))

    def test_kind_separation(self):
        seen = {derive_token("k", RoundRef.exe())}
        for i in range(50):
            token = derive_token("k", RoundRef.cal(i))
            assert token not in seen
            seen.add(token)

    def test_empty_secret_rejected(self):
        with pytest.raises(ValueError):
            derive_token("", RoundRef.cal(0))

    def test_shape(self):
        token = derive_token("abc", RoundRef.cal(12))
        assert len(token) == 32
        assert set(token) <= set("0123456789abcdef")


class TestWireGrammar:
    def test_ack_example(self):
        assert encode_message(Ack(RoundRef.cal(3))) == "ACK CAL 3"

    def test_report_decode(self):
        token = "0" * 32
        msg = decode_message(f"REPORT CAL 2 abc123xy {token}")
        assert msg == Report(RoundRef.cal(2), "abc123xy", token)

    def test_exe_report_uses_literal_zero_index(self):
        token = "f" * 32
        line = encode_message(Report(RoundRef.exe(), "abcdefgh", token))
        assert line == f"REPORT EXE 0 abcdefgh {token}"

    def test_survey_empty_text_dash(self):
        assert encode_message(Survey("abcdefgh", "FORGOT", "")) == "SURVEY abcdefgh FORGOT -"

    def test_survey_text_base64(self):
        line = encode_message(Survey("abcdefgh", "INTERFERENCE", "browser popup distracted me"))
        verb, nonce, code, blob = line.split(" ")
        assert (verb, nonce, code) == ("SURVEY", "abcdefgh", "INTERFERENCE")
        assert blob != "-" and " " not in blob
        assert decode_message(line).text == "browser popup distracted me"

    @pytest.mark.parametrize(
        "line",
        [
            "",
            " ",
            "REPORT CAL two abc12345 " + "0" * 32,  # non-integer index
            "REPORT CAL -1 abc12345 " + "0" * 32,
            "REPORT EXE 1 abc12345 " + "0" * 32,  # EXE index must be literal 0
            "REPORT CAL 1 short " + "0" * 32,  # nonce below 8 chars
            "REPORT CAL 1 abc12345 " + "0" * 31,  # token too short
            "REPORT CAL 1 abc12345 " + "A" * 32,  # token not lowercase hex
            "REPORT CAL 1 abc12345",  # missing field
            "REPORT  CAL 1 abc12345 " + "0" * 32,  # doubled separator
            " ACK CAL 1",
            "ACK CAL 1 ",
            "ACK WAT 1",
            "REJ NOSUCHREASON",
            "SYNC ten",
            "SYNCR 1 2",
            "SURVEY abcdefgh BADCODE -",
            "SURVEY abcdefgh FORGOT not*base64!",
            "HELLO world",
        ],
    )
    def test_malformed_lines(self, line):
        with pytest.raises(MalformedLine):
            decode_message(line)

    def test_decode_rejects_embedded_newline(self):
        with pytest.raises(MalformedLine):
            decode_message("ACK CAL 1\nACK CAL 2")

    @given(messages)
    def test_roundtrip_identity(self, msg):
        assert decode_message(encode_message(msg)) == msg

    @given(messages)
    def test_encoded_lines_are_single_and_nonempty(self, msg):
        line = encode_message(msg)
        assert line
        assert "\n" not in line and "\r" not in line

    def test_equal_rounds_share_one_ref(self):
        token = derive_token("k", RoundRef.cal(3))
        report = decode_message(f"REPORT CAL 3 abcdefgh {token}")
        assert report.round is decode_message("ACK CAL 3").round

    def test_round_cache_stays_bounded_under_hostile_indices(self):
        limit = protocol._round_ref.cache_info().maxsize
        for i in range(3 * limit):
            index = str(i + 1) + "9" * 4000
            assert decode_message(f"ACK CAL {index}") == Ack(RoundRef.cal(int(index)))
        assert protocol._round_ref.cache_info().currsize <= limit


class TestRoundRef:
    def test_exe_index_constrained(self):
        with pytest.raises(ValueError):
            RoundRef("EXE", 1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            RoundRef("CAL", -1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RoundRef("XYZ", 0)

    def test_repr_names_the_fields(self):
        assert repr(RoundRef.cal(3)) == "RoundRef(kind='CAL', index=3)"

    def test_interned_constructor_rejects_negative_index(self):
        with pytest.raises(ValueError):
            RoundRef.cal(-1)

    def test_a_round_pickled_in_another_process_hashes_by_value(self):
        # string hashes differ between processes, so a cached hash must not travel
        def run(seed, code, data=b""):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": str(Path(protocol.__file__).parents[1])}
            return subprocess.run([sys.executable, "-c", code], input=data, env=env,
                                  capture_output=True, check=True, timeout=60).stdout

        header = "import pickle, sys; from rollcall.protocol import RoundRef; "
        data = run("1", header + "sys.stdout.buffer.write(pickle.dumps(RoundRef.cal(3)))")
        verdict = run("2", header + "r = pickle.loads(sys.stdin.buffer.read()); "
                      "print(r == RoundRef(\"CAL\", 3) and hash(r) == hash(RoundRef(\"CAL\", 3)))",
                      data)
        assert verdict == b"True\n"

    # 100 scheduled rounds: more than the 64 the round cache holds
    WIDE = ExperimentConfig("wide", "k", 0, 10_000, 100, 2_000, 1_000_000, 2_000)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 99) | st.integers(0, 10**6))
    def test_equal_rounds_behave_alike_past_the_cache(self, index):
        interned = decode_message(f"ACK CAL {index}").round
        built = RoundRef(CAL, index)
        limit = protocol._round_ref.cache_info().maxsize
        for filler in range(limit):  # evicts `interned` from the cache
            decode_message(f"ACK CAL {10**7 + filler}")
        fresh = decode_message(f"ACK CAL {index}").round
        assert fresh is not interned and fresh == interned == built
        assert hash(fresh) == hash(interned) == hash(built)
        core = CounterCore(self.WIDE)
        token = derive_token("k", built)
        if index >= self.WIDE.n_rounds:
            at = self.WIDE.window_open(RoundRef.cal(0))
            assert core.handle_line(f"REPORT CAL {index} nonce-001 {'0' * 32}", at) == "REJ BADTOKEN"
            assert core.handle_line(f"REPORT CAL {index} nonce-001 {token}", at) == "REJ BADROUND"
            return
        at = self.WIDE.window_open(built)
        assert submit(core, Report(built, "nonce-001", token), at) == Ack(fresh)
        assert core.tallies[interned].count == core.tallies[fresh].count == 1
        assert (interned, "nonce-001") in core.seen and (fresh, "nonce-001") in core.seen
        assert submit(core, Report(interned, "nonce-001", token), at) == Reject("DUP")


# (value, a replacement its checks refuse, a replacement they accept)
REPLACEMENTS = [
    (RoundRef.cal(1), {"kind": "XYZ"}, {"index": 2}),
    (Report(RoundRef.cal(0), "abcdefgh", "0" * 32), {"nonce": "a b"}, {"round": RoundRef.exe()}),
    (Reject("DUP"), {"reason": "NOPE"}, {"reason": "LATE"}),
    (Survey("abcdefgh", "FORGOT", ""), {"code": "NOPE"}, {"text": "popup"}),
    (SyncSample(0, 10, 12, 4), {"t4": -1}, {"t4": 5}),
    (ClockEstimate(9, 2, 1), {"delay_ms": -1}, {"samples_used": 2}),
]


@pytest.mark.parametrize("value, bad, good", REPLACEMENTS,
                         ids=[type(value).__name__ for value, _, _ in REPLACEMENTS])
def test_replace_runs_the_checks(value, bad, good):
    with pytest.raises(ValueError):
        value._replace(**bad)
    replaced = value._replace(**good)
    assert type(replaced) is type(value)
    assert replaced == type(value)(**{**value._asdict(), **good})


CONFIG_TEXT = """
# schedule for the dry run
experiment_id = dryrun-1
secret = swordfish
epoch_ms = 1000
delta_t_ms = 100
n_rounds   =   3
delta_tau_ms = 20
t_star_ms = 1300
grace_ms = 30
"""


class TestConfig:
    def test_parse_full(self):
        cfg = parse_config(CONFIG_TEXT)
        assert cfg.experiment_id == "dryrun-1"
        assert cfg.n_rounds == 3
        assert cfg.t_star_ms == 1300
        assert cfg.grace_ms == 30

    def test_t_star_computed_when_omitted(self):
        text = "\n".join(
            line for line in CONFIG_TEXT.splitlines() if not line.startswith("t_star_ms")
        )
        assert parse_config(text).t_star_ms == 1300

    def test_grace_defaults(self):
        text = "\n".join(
            line for line in CONFIG_TEXT.splitlines() if not line.startswith("grace_ms")
        )
        assert parse_config(text).grace_ms == 300_000

    def test_format_parse_roundtrip(self):
        cfg = parse_config(CONFIG_TEXT)
        assert parse_config(format_config(cfg)) == cfg

    @pytest.mark.parametrize(
        "old, new, fragment",
        [
            ("secret = swordfish", "secret = swordfish\nsecret = other", "duplicate"),
            ("secret = swordfish", "secret = swordfish\nmystery = 1", "unknown key"),
            ("epoch_ms = 1000", "epoch_ms = soon", "integer"),
            ("epoch_ms = 1000", "epoch_ms", "key = value"),
        ],
    )
    def test_bad_lines_name_the_line(self, old, new, fragment):
        with pytest.raises(ConfigError) as err:
            parse_config(CONFIG_TEXT.replace(old, new))
        assert fragment in str(err.value)
        assert "line" in str(err.value)

    def test_missing_key(self):
        text = "\n".join(
            line for line in CONFIG_TEXT.splitlines() if not line.startswith("secret")
        )
        with pytest.raises(ConfigError, match="missing"):
            parse_config(text)

    def test_t_star_mismatch(self):
        with pytest.raises(ConfigError, match="t_star_ms"):
            parse_config(CONFIG_TEXT.replace("t_star_ms = 1300", "t_star_ms = 1400"))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_rounds=1, t_star_ms=1100),
            dict(delta_tau_ms=0),
            dict(delta_tau_ms=100),  # equal to delta_t
            dict(grace_ms=0),
            dict(secret="has space"),
        ],
    )
    def test_invariants_enforced(self, kwargs):
        base = dict(
            experiment_id="x",
            secret="s",
            epoch_ms=1000,
            delta_t_ms=100,
            n_rounds=3,
            delta_tau_ms=20,
            t_star_ms=1300,
            grace_ms=30,
        )
        base.update(kwargs)
        with pytest.raises(ConfigError):
            ExperimentConfig(**base)

    def test_window_helpers(self):
        cfg = parse_config(CONFIG_TEXT)
        r1 = RoundRef.cal(1)
        assert cfg.round_start(r1) == 1100
        assert cfg.window_open(r1) == 1120
        assert cfg.window_close(r1) == 1150
        assert cfg.round_start(RoundRef.exe()) == 1300
        assert [r.index for r in cfg.rounds()] == [0, 1, 2, 0]
