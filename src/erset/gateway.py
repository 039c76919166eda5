"""Clustering backends: prompt construction, response parsing, the live HTTP
provider and the simulated oracle, with per-attempt cost accounting."""

from __future__ import annotations

import json
import os
import random
import re
import threading
import time
from dataclasses import dataclass, field

import requests

from .model import (
    CostLedger,
    ERError,
    Record,
    RecordSet,
    SetClustering,
    estimate_tokens,
)

RETRY_REMINDER = "Answer ONLY with one line per cluster, comma-separated labels."
# an unparseable reply is asked again up to this many times, then falls back
MAX_RETRIES = 3

_SYSTEM_TEXT = (
    "You are an expert at entity resolution. You group data records that "
    "refer to the same real-world entity."
)

_INSTRUCTION = (
    "Group the following records by the real-world entity they refer to. "
    "Records of the same entity may differ in spelling, formatting or "
    "missing values. Answer with one line per cluster, listing the labels "
    "of the records in that cluster separated by commas. Every label must "
    "appear in exactly one line."
)

_LABEL_RE = re.compile(r"^R(\d+)$", re.IGNORECASE)


class MalformedResponse(ERError):
    pass


class MissingMember(ERError):
    pass


class DuplicateMember(ERError):
    pass


class UnknownLabel(ERError):
    pass


class ProviderUnavailable(ERError):
    pass


class UncoveredRecord(ERError):
    pass


@dataclass(frozen=True)
class Prompt:
    system_text: str
    user_text: str


@dataclass
class ProviderConfig:
    endpoint: str
    model: str
    temperature: float = 0.0
    api_key_env: str = "ER_API_KEY"
    timeout: float = 60.0
    max_retries: int = 3
    requests_per_minute: int = 60
    transcript_path: str | None = None

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.requests_per_minute < 1:
            raise ValueError("requests_per_minute must be >= 1")


@dataclass
class OracleConfig:
    truth: dict[str, str]
    error_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")


def _member_line(label: str, record: Record) -> str:
    parts = [label]
    parts.extend(f"{a.name}: {a.value}" for a in record.attributes if a.value)
    return " | ".join(parts)


def build_prompt(record_set: RecordSet, records: dict[str, Record]) -> Prompt:
    """Render one record set as a zero-shot clustering prompt; each member
    (its representative record) gets the positional label R1..Rn."""
    lines = [
        _member_line(f"R{pos}", records[node.representative])
        for pos, node in enumerate(record_set.members, 1)
    ]
    return Prompt(_SYSTEM_TEXT, _INSTRUCTION + "\n\n" + "\n".join(lines))


def parse_clustering(response_text: str, record_set: RecordSet) -> SetClustering:
    """Parse lines of comma-separated R-labels into an exact-cover clustering."""
    lines = [ln.strip() for ln in response_text.splitlines() if ln.strip()]
    if not lines:
        raise MalformedResponse("empty response")
    n = len(record_set)
    groups: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for line in lines:
        tokens = [t.strip() for t in line.split(",")]
        positions: list[int] = []
        for token in tokens:
            m = _LABEL_RE.match(token)
            if m is None:
                raise MalformedResponse(f"unparseable line: {line!r}")
            pos = int(m.group(1))
            if not 1 <= pos <= n:
                raise UnknownLabel(f"R{pos}")
            if pos - 1 in seen:
                raise DuplicateMember(f"R{pos}")
            seen.add(pos - 1)
            positions.append(pos - 1)
        groups.append(tuple(positions))
    if len(seen) < n:
        missing = min(set(range(n)) - seen)
        raise MissingMember(f"R{missing + 1}")
    return SetClustering(source=record_set.set_id, groups=tuple(groups))


def parse_batch(
    response_text: str, record_sets: list[RecordSet]
) -> list[SetClustering]:
    """parse_clustering over the one-element set list that the gateway hands
    its backend. The gateway parses through this name because the benchmark
    tracer (bench/instrument.py) counts parse failures on it."""
    (record_set,) = record_sets
    return [parse_clustering(response_text, record_set)]


def _render_groups(groups) -> str:
    return "\n".join(
        ",".join(f"R{pos + 1}" for pos in group) for group in groups
    )


class SimulatedOracle:
    """Test backend: the ground-truth clustering of each set, perturbed by a
    seeded per-member displacement probability.

    Each prompt gets its own random stream derived from (seed, set_id), the
    id of the record set asked (a shared prompt's is its sets' ids joined by
    "+"), consumed across repeated calls for the same prompt, so results do
    not depend on scheduling order across prompts.
    """

    def __init__(self, config: OracleConfig):
        self.config = config
        self._streams: dict[str, random.Random] = {}
        self._lock = threading.Lock()

    def _stream(self, set_id: str) -> random.Random:
        with self._lock:
            if set_id not in self._streams:
                self._streams[set_id] = random.Random(
                    f"{self.config.seed}:{set_id}"
                )
            return self._streams[set_id]

    def _truth_groups(self, record_set: RecordSet) -> list[list[int]]:
        by_entity: dict[str, list[int]] = {}
        for pos, node in enumerate(record_set.members):
            for rid in node.members:
                if rid not in self.config.truth:
                    raise UncoveredRecord(f"no ground truth for record {rid!r}")
            entity = self.config.truth[node.representative]
            by_entity.setdefault(entity, []).append(pos)
        return [by_entity[e] for e in sorted(by_entity)]

    def _perturb(self, groups: list[list[int]], rng: random.Random) -> list:
        p = self.config.error_rate
        positions = sorted(pos for group in groups for pos in group)
        for pos in positions:
            if rng.random() >= p:
                continue
            home = next(g for g in groups if pos in g)
            others = [g for g in groups if g is not home]
            g = len(groups)
            if not others or rng.random() < 1.0 / (g + 1):
                home.remove(pos)
                groups.append([pos])
            else:
                home.remove(pos)
                others[rng.randrange(len(others))].append(pos)
            if not home:
                groups.remove(home)
        return [sorted(g) for g in groups]

    def clustering_for(self, record_set: RecordSet):
        groups = self._truth_groups(record_set)
        if self.config.error_rate > 0.0:
            groups = self._perturb(groups, self._stream(record_set.set_id))
        return groups

    def complete(self, prompt: Prompt, record_sets: list[RecordSet]):
        """Render the (possibly perturbed) truth of the one set as response
        text, so oracle output flows through the same parser as
        live-provider output."""
        (record_set,) = record_sets
        return _render_groups(self.clustering_for(record_set)), None


class _TokenBucket:
    def __init__(self, per_minute: int):
        self.capacity = per_minute
        self.tokens = float(self.capacity)
        self.updated = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self.tokens = min(
                    self.capacity,
                    self.tokens + (now - self.updated) * self.capacity / 60.0,
                )
                self.updated = now
                if self.tokens >= 1.0:
                    self.tokens -= 1.0
                    return
                wait = (1.0 - self.tokens) * 60.0 / self.capacity
            time.sleep(wait)


def _reply_text(data) -> str:
    """``choices[0].message.content`` of a chat-completion reply; ValueError
    when it is missing or not a string."""
    try:
        text = data["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed reply: {exc!r}") from exc
    if not isinstance(text, str):
        raise ValueError(f"reply content is {type(text).__name__}")
    return text


_RETRIED_4XX = (408, 429)  # request timeout, too many requests


class HttpProvider:
    """Chat-completion HTTP backend with retries, backoff and rate limiting.
    A reply without a string ``choices[0].message.content`` is a failed
    attempt, retried like a transport error; a malformed ``usage`` is not,
    and the gateway estimates that reply's tokens. 408, 429 and 5xx replies
    are retried too; any other 4xx reply would only be refused again, so it
    raises ProviderUnavailable at once."""

    def __init__(self, config: ProviderConfig):
        self.config = config
        self._bucket = _TokenBucket(config.requests_per_minute)
        self._transcript_lock = threading.Lock()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _log(self, payload: dict, response: dict) -> None:
        if not self.config.transcript_path:
            return
        line = json.dumps({"request": payload, "response": response})
        with self._transcript_lock:
            with open(self.config.transcript_path, "a") as fh:
                fh.write(line + "\n")

    def complete(self, prompt: Prompt, record_sets: list[RecordSet]):
        payload = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [
                {"role": "system", "content": prompt.system_text},
                {"role": "user", "content": prompt.user_text},
            ],
        }
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            self._bucket.acquire()
            try:
                resp = requests.post(
                    self.config.endpoint,
                    json=payload,
                    headers=self._headers(),
                    timeout=self.config.timeout,
                )
                status = resp.status_code
                if status in _RETRIED_4XX or status >= 500:
                    raise requests.HTTPError(f"status {status}", response=resp)
                if status >= 400:
                    raise ProviderUnavailable(
                        f"provider rejected the request with status {status}"
                    )
                data = resp.json()
                self._log(payload, data)
                text = _reply_text(data)
                # a usable reply is kept whatever its usage says; counts that
                # are not two non-negative ints leave the ledger to estimate
                usage = data.get("usage")
                if isinstance(usage, dict):
                    counts = usage.get("prompt_tokens"), usage.get("completion_tokens")
                    if all(type(n) is int and n >= 0 for n in counts):
                        return text, counts
                return text, None
            except (requests.RequestException, ValueError) as exc:
                last_error = exc
                if attempt < self.config.max_retries:
                    time.sleep(min(2.0**attempt, 30.0))
        raise ProviderUnavailable(
            f"provider failed after {self.config.max_retries + 1} attempts: "
            f"{last_error}"
        )


@dataclass
class LlmGateway:
    """Builds prompts, calls a backend, parses and validates, accounts cost.

    One call clusters one record set; a backend's complete(prompt,
    record_sets) receives it as a one-element list. Parse failures are
    retried (with a format reminder appended) up to MAX_RETRIES times; after
    exhaustion the clustering falls back to all singletons and is flagged
    "fallback-singletons". Every backend attempt is ledgered.
    """

    backend: object
    records: dict[str, Record]
    ledger: CostLedger = field(default_factory=CostLedger)

    def __post_init__(self):
        self._ledger_lock = threading.Lock()

    def _call(self, prompt: Prompt, record_sets: list[RecordSet]) -> str:
        start = time.monotonic()
        text, usage = self.backend.complete(prompt, record_sets)
        elapsed = time.monotonic() - start
        if usage is None:
            usage = (
                estimate_tokens(prompt.system_text + prompt.user_text),
                estimate_tokens(text),
            )
        with self._ledger_lock:
            self.ledger.record(*usage)
            self.ledger.add_wall_time(elapsed)
        return text

    def cluster_batch(self, record_sets: list[RecordSet]) -> list[SetClustering]:
        """Cluster the one record set of a one-element list: build its
        prompt, call, parse, retry, fall back. cluster_records goes through
        this name because the benchmark tracer (bench/instrument.py) counts
        fallbacks and gateway self time on it."""
        (record_set,) = record_sets
        prompt = build_prompt(record_set, self.records)
        for attempt in range(MAX_RETRIES + 1):
            text = self._call(prompt, record_sets)
            try:
                clusterings = parse_batch(text, record_sets)
            except ERError:
                if attempt == 0:
                    prompt = Prompt(
                        prompt.system_text, prompt.user_text + "\n\n" + RETRY_REMINDER
                    )
                continue
            clusterings[0].validate(record_set)
            return clusterings
        singletons = tuple((i,) for i in range(len(record_set)))
        return [
            SetClustering(record_set.set_id, singletons, ("fallback-singletons",))
        ]

    def cluster_records(self, record_set: RecordSet) -> SetClustering:
        return self.cluster_batch([record_set])[0]
