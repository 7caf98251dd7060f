"""Wire protocol shared by clients and the counter.

Everything on the wire is a single UTF-8 text line. Client-to-counter lines
are ``SYNC``, ``REPORT`` and ``SURVEY``; counter-to-client lines are
``SYNCR``, ``ACK`` and ``REJ``. The per-round participation token is derived
deterministically from the experiment secret, so every client holding the
config file produces the same token for the same round without any extra
distribution step.
"""

from __future__ import annotations

import base64
import hashlib
import re
from collections import namedtuple
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Callable, TypeVar, get_type_hints

CAL = "CAL"
EXE = "EXE"

REJECT_REASONS = frozenset({"BADTOKEN", "EARLY", "LATE", "DUP", "BADROUND", "MALFORMED"})
SURVEY_CODES = frozenset({"FORGOT", "OBSTACLE", "CHANGED_MIND", "INTERFERENCE", "OTHER"})

TOKEN_HEX_LEN = 32
MAX_LINE_BYTES = 8192  # longest line either side sends, without its "\n"

# every pattern is applied with fullmatch: `$` would also match before a final "\n"
_UINT = r"(?:0|[1-9][0-9]*)"
_TOKEN_RE = re.compile(r"[0-9a-f]{32}")
_NONCE_RE = re.compile(r"\S{8,64}")
_INT_RE = re.compile(rf"-?{_UINT}")
_ROUND_RE = re.compile(rf"CAL {_UINT}|EXE 0")
_NO_WS_RE = re.compile(r"\S+")


class ProtocolError(ValueError):
    """Base class for wire and config format violations."""


class MalformedLine(ProtocolError):
    """A wire line that does not match the message grammar."""


class ConfigError(ProtocolError):
    """A config file or config value that violates the schedule contract."""


class RoundRef(namedtuple("RoundRef", "kind index")):
    """Reference to one scheduled round: a calibration index or the execution round.

    A plain immutable value: it hashes and compares as the tuple
    ``(kind, index)``, and it pickles through that tuple, so the checks below
    also run on whatever another process sends.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int) -> "RoundRef":
        if kind not in (CAL, EXE):
            raise ValueError(f"unknown round kind {kind!r}")
        if kind == EXE and index != 0:
            raise ValueError("execution round carries no index other than 0")
        if index < 0:
            raise ValueError("round index must be non-negative")
        return super().__new__(cls, kind, index)

    @classmethod
    def cal(cls, index: int) -> "RoundRef":
        return cls(CAL, index)

    @classmethod
    def exe(cls) -> "RoundRef":
        return cls(EXE, 0)

    @property
    def is_execution(self) -> bool:
        return self.kind == EXE

    def wire(self) -> str:
        return f"{self.kind} {self.index}"


@dataclass(frozen=True)
class ExperimentConfig:
    """The shared schedule and secret that define one experiment.

    Calibration round ``i`` (0-based) starts at ``epoch_ms + i * delta_t_ms``
    and runs for ``delta_tau_ms``; the execution round starts at ``t_star_ms``
    which must equal ``epoch_ms + n_rounds * delta_t_ms``. Reports for a round
    are accepted for ``grace_ms`` after its window ends.
    """

    experiment_id: str
    secret: str
    epoch_ms: int
    delta_t_ms: int
    n_rounds: int
    delta_tau_ms: int
    t_star_ms: int
    grace_ms: int = 300_000

    def __post_init__(self) -> None:
        if not _NO_WS_RE.fullmatch(self.experiment_id):
            raise ConfigError("experiment_id must be non-empty without whitespace")
        if not _NO_WS_RE.fullmatch(self.secret):
            raise ConfigError("secret must be non-empty without whitespace")
        if self.n_rounds < 2:
            raise ConfigError("n_rounds must be at least 2 (spread is undefined otherwise)")
        if self.delta_tau_ms <= 0:
            raise ConfigError("delta_tau_ms must be positive")
        if self.delta_t_ms <= self.delta_tau_ms:
            raise ConfigError("delta_t_ms must exceed delta_tau_ms")
        if self.grace_ms <= 0:
            raise ConfigError("grace_ms must be positive")
        expected_t_star = self.epoch_ms + self.n_rounds * self.delta_t_ms
        if self.t_star_ms != expected_t_star:
            raise ConfigError(
                f"t_star_ms must equal epoch_ms + n_rounds * delta_t_ms "
                f"({expected_t_star}), got {self.t_star_ms}"
            )

    def round_start(self, round: RoundRef) -> int:
        if round.kind == EXE:
            return self.t_star_ms
        return self.epoch_ms + round.index * self.delta_t_ms

    def window_open(self, round: RoundRef) -> int:
        """Counter time from which reports for `round` are accepted."""
        return self.round_start(round) + self.delta_tau_ms

    def window_close(self, round: RoundRef) -> int:
        """Last counter time (inclusive) at which reports for `round` are accepted."""
        return self.window_open(round) + self.grace_ms

    def has_round(self, round: RoundRef) -> bool:
        if round.kind == EXE:
            return True
        return 0 <= round.index < self.n_rounds

    def rounds(self) -> list[RoundRef]:
        """All rounds in schedule order, the execution round last."""
        return [RoundRef.cal(i) for i in range(self.n_rounds)] + [RoundRef.exe()]


# --- messages ---------------------------------------------------------------


def _check_nonce(nonce: str) -> None:
    if not _NONCE_RE.fullmatch(nonce):
        raise ValueError("nonce must be 8-64 characters without whitespace")


@dataclass(frozen=True)
class SyncRequest:
    t1: int


@dataclass(frozen=True)
class SyncResponse:
    t1: int
    t2: int
    t3: int


@dataclass(frozen=True)
class Report:
    """One client's per-round participation certificate."""

    round: RoundRef
    nonce: str
    token: str

    def __post_init__(self) -> None:
        _check_nonce(self.nonce)
        if not _TOKEN_RE.fullmatch(self.token):
            raise ValueError("token must be exactly 32 lowercase hex characters")


@dataclass(frozen=True)
class Ack:
    round: RoundRef


@dataclass(frozen=True)
class Reject:
    reason: str

    def __post_init__(self) -> None:
        if self.reason not in REJECT_REASONS:
            raise ValueError(f"unknown reject reason {self.reason!r}")


@dataclass(frozen=True)
class Survey:
    """A questionnaire answer; `text` is the decoded free text (may be empty)."""

    nonce: str
    code: str
    text: str

    def __post_init__(self) -> None:
        _check_nonce(self.nonce)
        if self.code not in SURVEY_CODES:
            raise ValueError(f"unknown survey code {self.code!r}")


Message = SyncRequest | SyncResponse | Report | Ack | Reject | Survey


@lru_cache(maxsize=4096)
def _token_digest(secret: str, kind: str, index: int) -> str:
    preimage = f"{secret}:{index}:{kind}".encode("utf-8")
    return hashlib.sha256(preimage).hexdigest()[:TOKEN_HEX_LEN]


def derive_token(secret: str, round: RoundRef) -> str:
    """Deterministic per-round token shared by every client holding `secret`.

    The token is the first 32 hex characters of SHA-256 over
    ``secret ":" index ":" kind`` (the execution round uses index 0), so it is
    unique per round but identical across clients.
    """
    if not secret:
        raise ValueError("secret must be non-empty")
    return _token_digest(secret, round.kind, round.index)


def encode_survey_text(text: str) -> str:
    if not text:
        return "-"
    return base64.urlsafe_b64encode(text.encode("utf-8")).decode("ascii")


def decode_survey_text(field: str) -> str:
    """The text of a field that `encode_survey_text` would write, else MalformedLine.

    The stdlib decoder skips characters outside the alphabet and ignores stray
    padding bits, so only a field that re-encodes to itself is accepted.
    """
    if field == "-":
        return ""
    try:
        text = base64.urlsafe_b64decode(field.encode("ascii")).decode("utf-8")
    except ValueError as exc:  # binascii.Error and UnicodeDecodeError among them
        raise MalformedLine(f"bad survey text field: {exc}") from exc
    if encode_survey_text(text) != field:
        raise MalformedLine("survey text field is not canonical URL-safe base64")
    return text


def encode_message(msg: Message) -> str:
    """Render a message as its wire line (without the trailing newline)."""
    if isinstance(msg, SyncRequest):
        return f"SYNC {msg.t1}"
    if isinstance(msg, SyncResponse):
        return f"SYNCR {msg.t1} {msg.t2} {msg.t3}"
    if isinstance(msg, Report):
        return f"REPORT {msg.round.wire()} {msg.nonce} {msg.token}"
    if isinstance(msg, Ack):
        return f"ACK {msg.round.wire()}"
    if isinstance(msg, Reject):
        return f"REJ {msg.reason}"
    if isinstance(msg, Survey):
        return f"SURVEY {msg.nonce} {msg.code} {encode_survey_text(msg.text)}"
    raise TypeError(f"not a protocol message: {msg!r}")


def _parse_int(text: str) -> int:
    """The integer grammar of every text format: "-"? then ASCII digits with
    no leading zero. Raises ValueError, also for more digits than int() takes."""
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"expected a decimal integer, got {text!r}")
    return int(text)


@lru_cache(maxsize=64)
def _round_ref(wire: str) -> RoundRef:
    """The round named by its wire text, such as ``CAL 3`` or ``EXE 0``.

    Raises ValueError off the round grammar. Only the decoder and the log
    reader call this: outside input arrives there, and equal texts share one
    RoundRef while they stay in the cache, so the counter's dedupe set holds
    one round object per round instead of one per report. The bound caps what
    hostile indices of up to 8 KiB each can hold (about 0.5 MB).
    """
    if not _ROUND_RE.fullmatch(wire):
        raise ValueError(f"expected CAL <index> or EXE 0, got {wire!r}")
    kind, _, index = wire.partition(" ")
    return RoundRef(kind, int(index))


def _fields(*patterns: str) -> re.Pattern[str]:
    """The text after a verb: one group per field, fields split by single spaces."""
    return re.compile(" ".join(f"({pattern})" for pattern in patterns))


def _one_of(words: frozenset[str]) -> str:
    return "|".join(sorted(words))


_INT = _INT_RE.pattern
_ROUND = _ROUND_RE.pattern
# verb -> (pattern of the rest of the line, constructor from the pattern's groups)
_GRAMMAR: dict[str, tuple[re.Pattern[str], Callable[..., Message]]] = {
    "SYNC": (_fields(_INT), lambda t1: SyncRequest(int(t1))),
    "SYNCR": (_fields(_INT, _INT, _INT), lambda *ts: SyncResponse(*map(int, ts))),
    "REPORT": (
        _fields(_ROUND, _NONCE_RE.pattern, _TOKEN_RE.pattern),
        lambda round, nonce, token: Report(_round_ref(round), nonce, token),
    ),
    "ACK": (_fields(_ROUND), lambda round: Ack(_round_ref(round))),
    "REJ": (_fields(_one_of(REJECT_REASONS)), Reject),
    "SURVEY": (
        _fields(_NONCE_RE.pattern, _one_of(SURVEY_CODES), r"\S+"),
        lambda nonce, code, text: Survey(nonce, code, decode_survey_text(text)),
    ),
}


def decode_message(line: str) -> Message:
    """Parse one wire line. Raises MalformedLine for anything off-grammar."""
    verb, _, rest = line.partition(" ")
    grammar = _GRAMMAR.get(verb)
    match = grammar[0].fullmatch(rest) if grammar is not None else None
    if match is None:
        raise MalformedLine(f"unrecognized line {line!r}")
    try:
        return grammar[1](*match.groups())
    except ValueError as exc:  # more digits than int() takes, or non-canonical text
        raise MalformedLine(str(exc)) from exc


# --- config file and other line files ---------------------------------------


_T = TypeVar("_T")


def _parse_lines(
    text: str, parse: Callable[[str], _T], error: type[ValueError], name: str
) -> list[_T]:
    """Apply `parse` to each line of a line file that holds something before
    its ``#`` comment, stripped; a ValueError names the file and line number."""
    items = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            try:
                items.append(parse(content))
            except ValueError as exc:
                raise error(f"{name} line {lineno}: {exc}") from exc
    return items


_CONFIG_TYPES = get_type_hints(ExperimentConfig)


def parse_config(text: str) -> ExperimentConfig:
    """Parse `key = value` config text.

    ``#`` starts a comment and whitespace around ``=`` is ignored. Keys are
    exactly the ExperimentConfig field names; ``t_star_ms`` may be omitted
    (computed from the schedule) and ``grace_ms`` defaults to 5 minutes.
    """
    values: dict[str, int | str] = {}

    def entry(line: str) -> None:
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"unknown key {key!r}")
        if key in values:
            raise ConfigError(f"duplicate key {key!r}")
        if not value:
            raise ConfigError(f"empty value for {key!r}")
        values[key] = _parse_int(value) if _CONFIG_TYPES[key] is int else value

    _parse_lines(text, entry, ConfigError, "config")
    required = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
    missing = required - {"t_star_ms", *values}  # t_star_ms follows from the schedule
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(sorted(missing))}")
    if "t_star_ms" not in values:
        values["t_star_ms"] = (
            int(values["epoch_ms"]) + int(values["n_rounds"]) * int(values["delta_t_ms"])
        )
    return ExperimentConfig(**values)  # type: ignore[arg-type]


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def format_config(config: ExperimentConfig) -> str:
    """Render a config back to the `key = value` file format."""
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in fields(ExperimentConfig)]
    return "\n".join(lines) + "\n"
