import json
import os
import random

import pytest

from erset.gateway import (
    MAX_RETRIES,
    RETRY_REMINDER,
    DuplicateMember,
    HttpProvider,
    LlmGateway,
    MalformedResponse,
    MissingMember,
    OracleConfig,
    ProviderConfig,
    ProviderUnavailable,
    SimulatedOracle,
    UncoveredRecord,
    UnknownLabel,
    build_prompt,
    parse_clustering,
)
from erset.model import Attribute, ClusterNode, CostLedger, Record, RecordSet


def _records(n, prefix="r"):
    return {
        f"{prefix}{i}": Record(
            f"{prefix}{i}",
            (Attribute("name", f"name {i}"), Attribute("city", "springfield")),
        )
        for i in range(n)
    }


def _record_set(records, set_id="s0"):
    return RecordSet(
        set_id, tuple(ClusterNode.singleton(rid) for rid in sorted(records))
    )


class TestBuildPrompt:
    def test_nine_labels(self):
        records = _records(9)
        prompt = build_prompt(_record_set(records), records)
        for i in range(1, 10):
            assert f"R{i} |" in prompt.user_text
        assert "R10" not in prompt.user_text
        assert "SET" not in prompt.user_text

    def test_prompt_text_is_pinned(self):
        # tokens_in is estimated from this text: any change to it changes
        # the ledger of every run without a provider-reported usage
        def rec(rid, name, city, phone):
            values = {"name": name, "city": city, "phone": phone}
            return Record(rid, tuple(Attribute(k, v) for k, v in values.items()))

        records = {
            "a7": rec("a7", "Ada Lovelace", "London", ""),
            "b2": rec("b2", "ada  lovelace", "", "555-0100"),
            "c9": rec("c9", "Charles Babbage", "London", "555 0199"),
        }
        rs = RecordSet("s0", tuple(ClusterNode.singleton(r) for r in ("b2", "c9", "a7")))
        assert build_prompt(rs, records).user_text == (
            "Group the following records by the real-world entity they refer to. "
            "Records of the same entity may differ in spelling, formatting or "
            "missing values. Answer with one line per cluster, listing the labels "
            "of the records in that cluster separated by commas. Every label must "
            "appear in exactly one line.\n"
            "\n"
            "R1 | name: ada  lovelace | phone: 555-0100\n"
            "R2 | name: Charles Babbage | city: London | phone: 555 0199\n"
            "R3 | name: Ada Lovelace | city: London"
        )

    def test_missing_value_omitted(self):
        records = {
            "r0": Record("r0", (Attribute("name", "ada"), Attribute("city", "")))
        }
        prompt = build_prompt(_record_set(records), records)
        assert "city" not in prompt.user_text
        assert "R1 | name: ada" in prompt.user_text


class TestParseClustering:
    def test_groups(self):
        rs = _record_set(_records(3))
        c = parse_clustering("R1,R2\nR3", rs)
        assert c.groups == ((0, 1), (2,))
        assert c.source == "s0"

    def test_whitespace_and_case_tolerant(self):
        rs = _record_set(_records(3))
        c = parse_clustering("  r1 , R2 \n\n R3 ", rs)
        assert c.groups == ((0, 1), (2,))

    def test_missing_member(self):
        with pytest.raises(MissingMember, match="R3"):
            parse_clustering("R1,R2", _record_set(_records(3)))

    def test_duplicate_member(self):
        with pytest.raises(DuplicateMember, match="R1"):
            parse_clustering("R1,R1,R2,R3", _record_set(_records(3)))

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel, match="R9"):
            parse_clustering("R1,R9\nR2,R3", _record_set(_records(3)))

    def test_malformed(self):
        with pytest.raises(MalformedResponse):
            parse_clustering("sure! here are the clusters", _record_set(_records(2)))
        with pytest.raises(MalformedResponse):
            parse_clustering("", _record_set(_records(2)))


class TestSimulatedOracle:
    def _truth(self, records, k):
        return {rid: f"e{i % k}" for i, rid in enumerate(sorted(records))}

    def test_noiseless_is_truth_restriction(self):
        records = _records(6)
        truth = self._truth(records, 2)
        oracle = SimulatedOracle(OracleConfig(truth, 0.0, 0))
        groups = oracle.clustering_for(_record_set(records))
        got = sorted(tuple(g) for g in groups)
        assert got == [(0, 2, 4), (1, 3, 5)]

    def test_single_entity_single_group(self):
        records = _records(5)
        truth = {rid: "e0" for rid in records}
        oracle = SimulatedOracle(OracleConfig(truth, 0.0, 0))
        assert oracle.clustering_for(_record_set(records)) == [[0, 1, 2, 3, 4]]

    def test_uncovered_record(self):
        records = _records(2)
        oracle = SimulatedOracle(OracleConfig({"r0": "e0"}, 0.0, 0))
        with pytest.raises(UncoveredRecord):
            oracle.clustering_for(_record_set(records))

    def test_full_noise_deterministic_and_matches_replay(self):
        records = _records(6)
        truth = self._truth(records, 2)
        rs = _record_set(records)
        a = SimulatedOracle(OracleConfig(truth, 1.0, 42)).clustering_for(rs)
        b = SimulatedOracle(OracleConfig(truth, 1.0, 42)).clustering_for(rs)
        assert a == b
        # replay the documented noise model directly against the same stream
        oracle = SimulatedOracle(OracleConfig(truth, 1.0, 42))
        rng = random.Random("42:s0")
        groups = [[0, 2, 4], [1, 3, 5]]
        expected = oracle._perturb([list(g) for g in groups], rng)
        again = SimulatedOracle(OracleConfig(truth, 1.0, 42)).clustering_for(rs)
        assert again == expected

    def test_displacement_frequency(self):
        """Over 10^4 sampled members at p=0.2 the displaced fraction is
        0.2 +- 0.01."""
        n_sets, size, p = 2000, 5, 0.2
        displaced = total = 0
        for s in range(n_sets):
            records = _records(size)
            truth = {rid: "e0" for rid in records}
            rs = RecordSet(
                f"set{s}", tuple(ClusterNode.singleton(r) for r in sorted(records))
            )
            oracle = SimulatedOracle(OracleConfig(truth, p, seed=9))
            groups = oracle.clustering_for(rs)
            big = max(groups, key=len)
            displaced += size - len(big)
            total += size
        assert abs(displaced / total - p) <= 0.01

    def test_streams_independent_of_order(self):
        records = _records(8)
        truth = self._truth(records, 3)
        s1 = RecordSet("a", tuple(ClusterNode.singleton(r) for r in sorted(records)[:4]))
        s2 = RecordSet("b", tuple(ClusterNode.singleton(r) for r in sorted(records)[4:]))
        o1 = SimulatedOracle(OracleConfig(truth, 0.7, 5))
        r1 = (o1.clustering_for(s1), o1.clustering_for(s2))
        o2 = SimulatedOracle(OracleConfig(truth, 0.7, 5))
        r2_b = o2.clustering_for(s2)
        r2_a = o2.clustering_for(s1)
        assert r1 == (r2_a, r2_b)


class _GarbageBackend:
    def __init__(self, texts):
        self.texts = list(texts)
        self.prompts = []

    def complete(self, prompt, record_sets):
        self.prompts.append(prompt)
        return self.texts.pop(0), None


class TestGateway:
    def test_oracle_roundtrip_and_ledger(self):
        records = _records(6)
        truth = {rid: f"e{i % 2}" for i, rid in enumerate(sorted(records))}
        ledger = CostLedger()
        gateway = LlmGateway(
            SimulatedOracle(OracleConfig(truth, 0.0, 0)), records, ledger=ledger
        )
        clustering = gateway.cluster_records(_record_set(records))
        assert sorted(clustering.groups) == [(0, 2, 4), (1, 3, 5)]
        assert ledger.api_calls == 1
        assert ledger.tokens_in > 0 and ledger.tokens_out > 0

    def test_retry_appends_reminder_then_fallback(self):
        records = _records(3)
        backend = _GarbageBackend(["nonsense"] * (MAX_RETRIES + 1))
        gateway = LlmGateway(backend, records, ledger=CostLedger())
        clustering = gateway.cluster_records(_record_set(records))
        assert clustering.groups == ((0,), (1,), (2,))
        assert "fallback-singletons" in clustering.flags
        assert gateway.ledger.api_calls == MAX_RETRIES + 1
        assert RETRY_REMINDER not in backend.prompts[0].user_text
        assert all(RETRY_REMINDER in p.user_text for p in backend.prompts[1:])

    def test_recovers_after_one_garbage_reply(self):
        records = _records(2)
        backend = _GarbageBackend(["??", "R1\nR2"])
        gateway = LlmGateway(backend, records, ledger=CostLedger())
        clustering = gateway.cluster_records(_record_set(records))
        assert clustering.groups == ((0,), (1,))
        assert clustering.flags == ()
        assert gateway.ledger.api_calls == 2


class TestHttpProvider:
    def test_provider_unavailable_after_retries(self, monkeypatch):
        import requests as requests_mod

        calls = {"n": 0}

        def boom(*args, **kwargs):
            calls["n"] += 1
            raise requests_mod.ConnectionError("refused")

        monkeypatch.setattr(requests_mod, "post", boom)
        monkeypatch.setattr("erset.gateway.time.sleep", lambda s: None)
        provider = HttpProvider(
            ProviderConfig(
                endpoint="http://localhost:1/v1/chat",
                model="m",
                max_retries=2,
                requests_per_minute=100000,
            )
        )
        records = _records(2)
        prompt = build_prompt(_record_set(records), records)
        with pytest.raises(ProviderUnavailable):
            provider.complete(prompt, [_record_set(records)])
        assert calls["n"] == 3

    def test_extracts_choice_and_usage(self, monkeypatch):
        import requests as requests_mod

        class FakeResponse:
            status_code = 200

            def raise_for_status(self):
                pass

            def json(self):
                return {
                    "choices": [{"message": {"content": "R1,R2"}}],
                    "usage": {"prompt_tokens": 11, "completion_tokens": 3},
                }

        monkeypatch.setattr(requests_mod, "post", lambda *a, **k: FakeResponse())
        provider = HttpProvider(
            ProviderConfig(
                endpoint="http://x", model="m", requests_per_minute=100000
            )
        )
        records = _records(2)
        rs = _record_set(records)
        text, usage = provider.complete(build_prompt(rs, records), [rs])
        assert text == "R1,R2"
        assert usage == (11, 3)

    @pytest.mark.parametrize(
        "body",
        [{"choices": []}, {"choices": [{"message": {"content": None}}]}],
        ids=["no-choices", "null-content"],
    )
    def test_malformed_reply_is_retried_then_unavailable(self, monkeypatch, body):
        import requests as requests_mod

        calls = {"n": 0}

        class FakeResponse:
            status_code = 200

            def raise_for_status(self):
                pass

            def json(self):
                return body

        def post(*args, **kwargs):
            calls["n"] += 1
            return FakeResponse()

        monkeypatch.setattr(requests_mod, "post", post)
        monkeypatch.setattr("erset.gateway.time.sleep", lambda s: None)
        provider = HttpProvider(
            ProviderConfig(
                endpoint="http://x",
                model="m",
                max_retries=2,
                requests_per_minute=100000,
            )
        )
        records = _records(2)
        rs = _record_set(records)
        with pytest.raises(ProviderUnavailable):
            provider.complete(build_prompt(rs, records), [rs])
        assert calls["n"] == 3

    @staticmethod
    def _status_replies(monkeypatch, status):
        """Every post gets a reply with ``status``; returns the post and sleep
        logs."""
        import requests as requests_mod

        posts, sleeps = [], []

        class FakeResponse:
            status_code = status

            def raise_for_status(self):
                if status >= 400:
                    raise requests_mod.HTTPError(f"status {status}", response=self)

            def json(self):
                return {"error": {"message": "no"}}

        def post(*args, **kwargs):
            posts.append(status)
            return FakeResponse()

        monkeypatch.setattr(requests_mod, "post", post)
        monkeypatch.setattr("erset.gateway.time.sleep", sleeps.append)
        return posts, sleeps

    def _complete(self):
        provider = HttpProvider(
            ProviderConfig(
                endpoint="http://x", model="m", max_retries=3, requests_per_minute=100000
            )
        )
        records = _records(2)
        rs = _record_set(records)
        return provider.complete(build_prompt(rs, records), [rs])

    @pytest.mark.parametrize("status", [401, 400, 403, 404])
    def test_client_error_fails_at_once(self, monkeypatch, status):
        """A refused request would be refused again: one post, no sleep."""
        posts, sleeps = self._status_replies(monkeypatch, status)
        with pytest.raises(ProviderUnavailable, match=str(status)):
            self._complete()
        assert (len(posts), sleeps) == (1, [])

    @pytest.mark.parametrize("status", [408, 429, 500, 503])
    def test_transient_status_is_retried(self, monkeypatch, status):
        posts, sleeps = self._status_replies(monkeypatch, status)
        with pytest.raises(ProviderUnavailable):
            self._complete()
        assert (len(posts), sleeps) == (4, [1.0, 2.0, 4.0])

    @staticmethod
    def _cluster_with_usage(monkeypatch, usage):
        """One record set through the gateway over an HTTP reply that groups
        r0 and r1 and carries ``usage`` (no key when None); returns the
        clustering, the ledger, and the post and sleep counts."""
        import requests as requests_mod

        posts, sleeps = [], []

        class FakeResponse:
            status_code = 200

            def json(self):
                body = {"choices": [{"message": {"content": "R1,R2\nR3"}}]}
                if usage is not None:
                    body["usage"] = usage
                return body

        def post(*args, **kwargs):
            posts.append(1)
            return FakeResponse()

        monkeypatch.setattr(requests_mod, "post", post)
        monkeypatch.setattr("erset.gateway.time.sleep", sleeps.append)
        provider = HttpProvider(
            ProviderConfig(
                endpoint="http://x", model="m", max_retries=3, requests_per_minute=100000
            )
        )
        records = _records(3)
        gateway = LlmGateway(provider, records, ledger=CostLedger())
        clustering = gateway.cluster_records(_record_set(records))
        return clustering, gateway.ledger, len(posts), len(sleeps)

    @pytest.mark.parametrize(
        "usage",
        [
            {"prompt_tokens": None, "completion_tokens": 3},
            {"prompt_tokens": 11, "completion_tokens": -3},
            {"prompt_tokens": "abc", "completion_tokens": 3},
        ],
        ids=["null", "negative", "text"],
    )
    def test_malformed_usage_keeps_reply_and_estimates(self, monkeypatch, usage):
        """A usable reply with a malformed usage is kept after one post, and
        the ledger records the same estimate as for a reply without usage."""
        _, estimated, _, _ = self._cluster_with_usage(monkeypatch, None)
        clustering, ledger, posts, sleeps = self._cluster_with_usage(
            monkeypatch, usage
        )
        assert clustering.groups == ((0, 1), (2,)) and not clustering.flags
        assert (posts, sleeps) == (1, 0)
        counts = (ledger.api_calls, ledger.tokens_in, ledger.tokens_out)
        assert counts == (1, estimated.tokens_in, estimated.tokens_out)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProviderConfig(endpoint="http://x", model="m", temperature=-1)
        with pytest.raises(ValueError):
            ProviderConfig(endpoint="http://x", model="m", max_retries=-1)


class TestTranscript:
    """``ProviderConfig.transcript_path`` (``--transcript``): one appended
    JSON line per reply the provider decodes, and nothing else."""

    KEY = "sk-transcript-test-key"

    @staticmethod
    def _scripted(monkeypatch, replies):
        """Each post takes the next of ``replies``: an exception to raise, or
        a (status, body) reply whose body is a JSON text. Returns the posts'
        headers."""
        import requests as requests_mod

        script, headers = iter(replies), []

        class FakeResponse:
            def __init__(self, status, text):
                self.status_code, self.text = status, text

            def json(self):
                return json.loads(self.text)

        def post(*args, **kwargs):
            headers.append(kwargs["headers"])
            reply = next(script)
            if isinstance(reply, Exception):
                raise reply
            return FakeResponse(*reply)

        monkeypatch.setattr(requests_mod, "post", post)
        monkeypatch.setattr("erset.gateway.time.sleep", lambda s: None)
        monkeypatch.setenv("TRANSCRIPT_TEST_KEY", TestTranscript.KEY)
        return headers

    @staticmethod
    def _complete(transcript_path, max_retries=4):
        provider = HttpProvider(
            ProviderConfig(
                endpoint="http://x",
                model="m",
                api_key_env="TRANSCRIPT_TEST_KEY",
                max_retries=max_retries,
                requests_per_minute=100000,
                transcript_path=transcript_path,
            )
        )
        records = _records(2)
        rs = _record_set(records)
        prompt = build_prompt(rs, records)
        return prompt, provider.complete(prompt, [rs])

    def test_one_line_per_decoded_reply(self, monkeypatch, tmp_path):
        """A transport error, a 503 and an undecodable body leave no line; a
        decoded reply without content does, and is retried; the reply kept
        does too. Lines are appended to what the file held, and the API key
        sent in the headers is nowhere in it."""
        import requests as requests_mod

        no_content = {"choices": [{"message": {"content": None}}]}
        good = {
            "choices": [{"message": {"content": "R1,R2"}}],
            "usage": {"prompt_tokens": 11, "completion_tokens": 3},
        }
        headers = self._scripted(
            monkeypatch,
            [
                requests_mod.ConnectionError("refused"),
                (503, json.dumps({"error": "busy"})),
                (200, "<html>not json</html>"),
                (200, json.dumps(no_content)),
                (200, json.dumps(good)),
            ],
        )
        path = tmp_path / "transcript.jsonl"
        path.write_text('{"earlier": 1}\n')
        prompt, reply = self._complete(str(path))
        assert reply == ("R1,R2", (11, 3))
        assert len(headers) == 5
        assert all(h["Authorization"] == f"Bearer {self.KEY}" for h in headers)
        request = {
            "model": "m",
            "temperature": 0.0,
            "messages": [
                {"role": "system", "content": prompt.system_text},
                {"role": "user", "content": prompt.user_text},
            ],
        }
        text = path.read_text()
        assert [json.loads(line) for line in text.splitlines()] == [
            {"earlier": 1},
            {"request": request, "response": no_content},
            {"request": request, "response": good},
        ]
        assert self.KEY not in text

    def test_no_line_without_a_decoded_reply(self, monkeypatch, tmp_path):
        """A 4xx reply fails at once, and retries that end in transport
        errors, retried statuses and undecodable bodies decode nothing: no
        transcript file is made."""
        import requests as requests_mod

        path = tmp_path / "transcript.jsonl"
        self._scripted(monkeypatch, [(400, json.dumps({"error": "bad"}))])
        with pytest.raises(ProviderUnavailable, match="400"):
            self._complete(str(path))
        self._scripted(
            monkeypatch,
            [
                requests_mod.Timeout("slow"),
                (429, json.dumps({"error": "slow down"})),
                (200, ""),
            ],
        )
        with pytest.raises(ProviderUnavailable):
            self._complete(str(path), max_retries=2)
        assert not path.exists()

    def test_no_file_without_a_path(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        reply = {"choices": [{"message": {"content": "R1\nR2"}}]}
        self._scripted(monkeypatch, [(200, json.dumps(reply))])
        _, (text, _) = self._complete(None)
        assert text == "R1\nR2"
        assert os.listdir(tmp_path) == []
