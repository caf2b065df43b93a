import hashlib
import io
import itertools
import json
import re
import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pipeline_utils import make_workspace, run
from reviewgraph.extraction import build_graph
from reviewgraph import orchestration
from reviewgraph.graph import OlderForm, text_key, validate_graph
from reviewgraph.orchestration import (
    ClassificationFailed,
    EmbeddingCache,
    EndpointConfig,
    EndpointError,
    ExtractionFailed,
    HttpChatClient,
    InconsistentDimension,
    MockClient,
    OrchestrationError,
    PaperInput,
    Transcript,
    TransportError,
    classify_dimensions,
    embed_texts,
    extract_triples,
    find_json_object,
    load_transcript,
    make_client,
    render_review_file,
    save_transcript,
    simulate_debate,
    transcript_from_dict,
)

PAPER = PaperInput(
    paper_id="p-0",
    title="Typed Attention for Debate Graphs",
    body="We present a study of typed attention. " * 25,
    attachments=("figure-1.png",),
)


def test_mock_clients_with_equal_seeds_are_identical():
    t1 = simulate_debate(PAPER, MockClient(seed=7))
    t2 = simulate_debate(PAPER, MockClient(seed=7))
    assert t1 == t2


def test_mock_clients_with_different_seeds_differ():
    t1 = simulate_debate(PAPER, MockClient(seed=7))
    t2 = simulate_debate(PAPER, MockClient(seed=8))
    assert t1 != t2


def test_simulate_stage_structure_and_request_count():
    client = MockClient(seed=1)
    t = simulate_debate(PAPER, client)
    assert (t.paper_id, t.title, t.attachments) == (PAPER.paper_id, PAPER.title,
                                                     PAPER.attachments)
    assert len(t.reviews) == len(t.re_evaluations) == 3
    assert all(r.startswith("Overall rating: ") for r in t.reviews)
    assert t.rebuttal.startswith("Rebuttal:\n")
    assert [r.splitlines()[0] for r in t.re_evaluations] == [
        f"Re-evaluation by Reviewer {k}:" for k in (1, 2, 3)]
    assert t.meta_review.startswith("Score: ")
    # 3 reviews + 1 rebuttal + 3 re-evaluations + 1 meta-review
    assert client.chat_requests == 8


def test_simulate_rejects_empty_paper():
    with pytest.raises(OrchestrationError):
        simulate_debate(PaperInput("x", "T", "   "), MockClient())


def test_transcript_json_round_trip(tmp_path):
    t = simulate_debate(PAPER, MockClient(seed=3))
    path = tmp_path / "t.json"
    save_transcript(t, path)
    assert load_transcript(path) == t
    assert transcript_from_dict(json.loads(path.read_text())) == t
    assert path.read_text() == json.dumps(
        {**vars(t), "reviews": list(t.reviews), "re_evaluations": list(t.re_evaluations),
         "attachments": list(t.attachments)}, sort_keys=True, separators=(",", ":")) + "\n"


#: Any text, lone surrogates included: JSON escapes them, and they read back.
TEXT = st.text(st.characters(blacklist_categories=()))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(t=st.builds(Transcript, TEXT, TEXT, st.tuples(TEXT, TEXT, TEXT), TEXT,
                   st.tuples(TEXT, TEXT, TEXT), TEXT, st.lists(TEXT).map(tuple)))
def test_any_transcript_reads_back_equal(tmp_path, t):
    save_transcript(t, tmp_path / "t.json")
    assert load_transcript(tmp_path / "t.json") == t


def test_render_review_file_excludes_meta_review():
    t = simulate_debate(PAPER, MockClient(seed=3))
    rendered = render_review_file(t)
    meta = t.meta_review
    assert meta not in rendered
    assert "### Initial Review Comments:" in rendered
    assert "### Author's Responses:" in rendered
    assert "### Reviewers' Responses:" in rendered


#: The review file that ``render_review_file`` makes of ``simulate_debate(PAPER,
#: MockClient(seed=3))``; the extraction prompt holds every byte of it.
REVIEW_FILE = (
    "### Initial Review Comments:\n"
    "\n"
    "## Reviewer 1:\n"
    "Overall rating: 7\n"
    "\n"
    "Comments:\n"
    "- The proposed method offers limited methodological novelty over established "
    "approaches.\n"
    "- The paper is well written with a clear and readable structure.\n"
    "\n"
    "## Reviewer 2:\n"
    "Overall rating: 7\n"
    "\n"
    "Comments:\n"
    "- The proposed method offers limited methodological novelty over established "
    "approaches.\n"
    "- The experiments are thorough and include convincing baseline comparisons.\n"
    "\n"
    "## Reviewer 3:\n"
    "Overall rating: 7\n"
    "\n"
    "Comments:\n"
    "- The writing is dense and several passages are hard to follow.\n"
    "- The motivation for the central design choice is not clearly articulated.\n"
    "\n"
    "### Author's Responses:\n"
    "\n"
    "## Author:\n"
    "Rebuttal:\n"
    "Response to Reviewer 1: We will address the point that the proposed method offers "
    "limited methodological novelty over established approaches.\n"
    "Response to Reviewer 1: We will address the point that the paper is well written "
    "with a clear and readable structure.\n"
    "Response to Reviewer 2: We will address the point that the proposed method offers "
    "limited methodological novelty over established approaches.\n"
    "Response to Reviewer 2: We will address the point that the experiments are thorough "
    "and include convincing baseline comparisons.\n"
    "Response to Reviewer 3: We will address the point that the writing is dense and "
    "several passages are hard to follow.\n"
    "Response to Reviewer 3: We will address the point that the motivation for the "
    "central design choice is not clearly articulated.\n"
    "\n"
    "### Reviewers' Responses:\n"
    "\n"
    "## Reviewer 1:\n"
    "Re-evaluation by Reviewer 1:\n"
    "- After the rebuttal, I maintain that the proposed method offers limited "
    "methodological novelty over established approaches.\n"
    "- After the rebuttal, I maintain that the paper is well written with a clear and "
    "readable structure.\n"
    "\n"
    "## Reviewer 2:\n"
    "Re-evaluation by Reviewer 2:\n"
    "- After the rebuttal, I maintain that the proposed method offers limited "
    "methodological novelty over established approaches.\n"
    "- After the rebuttal, I maintain that the experiments are thorough and include "
    "convincing baseline comparisons.\n"
    "\n"
    "## Reviewer 3:\n"
    "Re-evaluation by Reviewer 3:\n"
    "- After the rebuttal, I maintain that the writing is dense and several passages are "
    "hard to follow.\n"
    "- After the rebuttal, I maintain that the motivation for the central design choice "
    "is not clearly articulated.\n"
)


def test_render_review_file_gives_the_pinned_text():
    assert render_review_file(simulate_debate(PAPER, MockClient(seed=3))) == REVIEW_FILE


class RecordingClient(MockClient):
    """A mock client that keeps a copy of each message list it is sent."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.sent: list[list[dict[str, str]]] = []

    def _complete_once(self, messages):
        self.sent.append([dict(m) for m in messages])
        return super()._complete_once(messages)


def _digest(requests) -> str:
    return hashlib.sha256(json.dumps(requests, sort_keys=True).encode()).hexdigest()


def test_simulate_and_extract_send_the_pinned_messages():
    """The debate is one conversation: the paper and its attachment, then
    eight prompts, each sent after the whole conversation so far. Extraction
    sends the review file in one request. The digests pin every byte."""
    client = RecordingClient(seed=3)
    transcript = simulate_debate(PAPER, client)
    debate, client.sent = client.sent, []
    extract_triples(transcript, client)
    prompts = [orchestration.REVIEWER_PROMPT.format(
                   guidelines=orchestration.DEFAULT_REVIEW_GUIDELINES, k=k) for k in (1, 2, 3)]
    prompts.append(orchestration.AUTHOR_PROMPT.format(
        guidelines=orchestration.DEFAULT_AUTHOR_GUIDELINES))
    prompts += [orchestration.REEVALUATION_PROMPT.format(k=k) for k in (1, 2, 3)]
    prompts.append(orchestration.SENIOR_PROMPT.format(
        guidelines=orchestration.DEFAULT_CHAIR_GUIDELINES))
    assert [request[-1] for request in debate] == [{"role": "user", "content": p}
                                                   for p in prompts]
    assert [m["content"] for m in debate[0][3:7]] == [
        f"Title: {PAPER.title}\n\n{PAPER.body}", "Received the text content of the research paper.",
        "figure-1.png", "Received the figure or table."]
    for before, request in zip(debate, debate[1:]):
        assert request[:-2] == before and request[-2]["role"] == "assistant"
    assert _digest(debate) == "58aa394b56b55d08ba4ff0c4c38fc41d21c2a5bb0df8a4d8c925a34ee5be057e"
    assert [[m["role"] for m in request] for request in client.sent] == [
        ["system", "user", "assistant", "user"]]
    assert client.sent[0][1]["content"] == REVIEW_FILE
    assert _digest(client.sent) == "4b2de91e060103e0fb83be71ebe8cf87ad3a40d10e0885bbc4094d9cf63ae00d"


def test_find_json_object_picks_longest_balanced_span():
    text = 'noise {"a": 1} more {"b": {"c": [1, 2]}} trailing'
    assert find_json_object(text) == '{"b": {"c": [1, 2]}}'
    assert find_json_object("no braces") is None
    assert find_json_object("{unclosed") is None


@pytest.mark.parametrize("text, found", [
    ('{"category": "a}b"}', '{"category": "a}b"}'),
    ('Sure: {"category": "a{b"} done', '{"category": "a{b"}'),
    ('{"text": "say \\"}\\" twice"}', '{"text": "say \\"}\\" twice"}'),
    ('Note {see the remarks on the method below}: {"category": "Soundness"}',
     '{"category": "Soundness"}'),
    ("Note {see below}.", None),
    ('{"a": "}"} ' + '{"a": ' * 100_000, '{"a": "}"}'),
], ids=["closing-brace-in-string", "opening-brace-in-string", "escaped-quote", "prose-braces",
        "only-prose-braces", "nested-too-deeply"])
def test_find_json_object_decodes_strings_and_skips_prose_braces(text, found):
    assert find_json_object(text) == found


def test_extraction_reply_is_wrapped_in_prose_yet_parses():
    client = MockClient(seed=2)
    t = simulate_debate(PAPER, client)
    batch = extract_triples(t, client)
    assert batch.reviewer_author
    assert batch.inter_reviewer
    assert not batch.malformed


def test_extract_retries_once_then_fails():
    class StubbornClient(MockClient):
        def _complete_once(self, messages):
            return "I cannot produce JSON today."

    with pytest.raises(ExtractionFailed):
        extract_triples(simulate_debate(PAPER, MockClient(seed=2)), StubbornClient())


def test_extract_recovers_on_second_attempt():
    good = MockClient(seed=2)
    transcript = simulate_debate(PAPER, good)

    class FlakyClient(MockClient):
        def __init__(self):
            super().__init__(seed=2)
            self.calls = 0

        def _complete_once(self, messages):
            self.calls += 1
            if self.calls == 1:
                return "not json"
            return super()._complete_once(messages)

    batch = extract_triples(transcript, FlakyClient())
    assert batch.reviewer_author


def test_classify_dimensions_keyword_rules():
    client = MockClient(seed=2)
    t = simulate_debate(PAPER, client)
    batch = extract_triples(t, client)
    dims = classify_dimensions(batch, client)
    texts = {d.text: d.dimension.value for d in dims}
    for text, dim in texts.items():
        low = text.lower()
        if "experiment" in low or "dataset" in low:
            assert dim == "experimental_completeness", text
        elif "motivat" in low:
            assert dim == "motivation_clarity", text


def test_classify_failure_collects_offenders():
    client = MockClient(seed=2)
    t = simulate_debate(PAPER, client)
    batch = extract_triples(t, client)

    class BrokenClassifier(MockClient):
        def _classification_reply(self, prompt):
            return '{"category": "nonsense"}'

    with pytest.raises(ClassificationFailed) as err:
        classify_dimensions(batch, BrokenClassifier())
    assert err.value.failures


def test_pipeline_to_valid_graph():
    client = MockClient(seed=9)
    t = simulate_debate(PAPER, client)
    batch = extract_triples(t, client)
    dims = classify_dimensions(batch, client)
    g = build_graph(t.title, batch, dims, label="accept")
    report = validate_graph(g)
    assert report.ok, report.violations


def test_retry_backoff_delays_increase():
    client = MockClient(seed=0, fail_first_n=3,
                        config=EndpointConfig(mock=True, retry_limit=3, backoff_base=0.25))
    client.complete([{"role": "user", "content": "You are a reviewer. Reviewer 1"}])
    assert client.retry_delays == [0.25, 0.5, 1.0]
    assert all(a < b for a, b in zip(client.retry_delays, client.retry_delays[1:]))


def test_retry_exhaustion_raises_endpoint_error():
    client = MockClient(seed=0, fail_first_n=10,
                        config=EndpointConfig(mock=True, retry_limit=2))
    with pytest.raises(EndpointError):
        client.complete([{"role": "user", "content": "hello"}])
    # attempts = 1 initial + 2 retries
    assert client.chat_attempts == 3


def test_concurrency_never_exceeds_limit():
    config = EndpointConfig(mock=True, max_concurrent=2)
    client = MockClient(seed=0, config=config)
    barrier_error = []

    def worker():
        try:
            for _ in range(5):
                client.complete([{"role": "user", "content": "ping"}])
        except Exception as exc:  # pragma: no cover
            barrier_error.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not barrier_error
    assert client.max_in_flight <= 2


def test_embedding_cache_round_trip(tmp_path):
    client = MockClient(seed=4)
    path = tmp_path / "emb"
    texts = ["alpha", "beta", "alpha"]
    vecs = embed_texts(texts, client, EmbeddingCache(path))
    assert client.embed_requests == 1
    np.testing.assert_array_equal(vecs[0], vecs[2])

    # a fresh cache instance reads the same vectors and issues no new requests
    again = embed_texts(texts, client, EmbeddingCache(path))
    assert client.embed_requests == 1
    for a, b in zip(vecs, again):
        np.testing.assert_array_equal(a, b)

    # rows put into a loaded cache join its loaded ones: both read back
    # bit-identical, from the cache and from the file reloaded
    cache = EmbeddingCache(path)
    new_texts = ["gamma", "delta"]
    new = client.embed(new_texts)
    cache.put_many((t, v, text_key(t)) for t, v in zip(new_texts, new))
    every, expected = ["alpha", "beta", *new_texts], np.stack([vecs[0], vecs[1], *new])
    for reader in (cache, EmbeddingCache(path)):
        assert [reader.get(t).tobytes() for t in every] == [row.tobytes() for row in expected]
        assert reader.vectors([text_key(t) for t in every]).tobytes() == expected.tobytes()


def test_embedding_cache_file_format(tmp_path):
    """Header: magic and little-endian uint32 dim; then per text its raw
    SHA-256 digest and its vector's little-endian float64 bytes."""
    path = tmp_path / "emb"
    texts = ["one text", "two"]
    vecs = embed_texts(texts, MockClient(seed=0), EmbeddingCache(path))
    data = path.read_bytes()
    assert data[:8] == b"\x89RGEMB1\n"
    assert struct.unpack_from("<I", data, 8) == (64,)
    size = 32 + 8 * 64
    assert len(data) == 12 + len(texts) * size
    for i, (text, vec) in enumerate(zip(texts, vecs)):
        record = data[12 + i * size:12 + (i + 1) * size]
        assert record[:32] == hashlib.sha256(text.encode("utf-8")).digest()
        assert record[32:] == vec.astype("<f8").tobytes()


def test_embedding_cache_round_trip_is_bit_exact(tmp_path):
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072e-308,
                        1.0 / 3.0, -1.7976931348623157e308])
    path = tmp_path / "emb"
    EmbeddingCache(path).put("special", special)
    loaded = EmbeddingCache(path).get("special")
    assert loaded.dtype == np.float64 and loaded.flags.writeable
    assert loaded.view(np.uint64).tolist() == special.view(np.uint64).tolist()


def test_embed_texts_appends_one_batch(tmp_path, monkeypatch):
    class RecordingClient(MockClient):
        def _embed_once(self, texts):
            self.seen.append(list(texts))
            return super()._embed_once(texts)

    client = RecordingClient(seed=1)
    client.seen = []
    path = tmp_path / "emb"
    embed_texts(["a", "b"], client, EmbeddingCache(path))

    opens = []
    real_open = io.open
    monkeypatch.setattr(orchestration, "open",
                        lambda p, mode="r": opens.append(mode) or real_open(p, mode),
                        raising=False)
    embed_texts(["a", "c", "b", "d", "e", "c"], client, EmbeddingCache(path))
    monkeypatch.undo()
    assert client.seen == [["a", "b"], ["c", "d", "e"]]
    assert opens == ["rb", "ab"]  # the cache's one read, then one append
    assert (path.stat().st_size - 12) / (32 + 8 * 64) == 5


def test_a_digest_ending_in_a_nul_byte_round_trips(tmp_path):
    """A NumPy ``S32`` field would drop the digest's trailing NUL and miss it."""
    text = next(str(i) for i in itertools.count() if text_key(str(i))[-1] == 0)
    vector = np.array([1.5, -2.0, 0.25])
    path = tmp_path / "emb"
    EmbeddingCache(path).put(text, vector)
    cache = EmbeddingCache(path)
    assert len(cache) == 1
    assert cache.get(text).tobytes() == vector.tobytes()


def test_put_of_another_dimension_raises_and_writes_nothing(tmp_path):
    path = tmp_path / "emb"
    EmbeddingCache(path).put("a", np.zeros(4))
    before = path.read_bytes()
    cache = EmbeddingCache(path)
    with pytest.raises(InconsistentDimension):
        cache.put("b", np.zeros(3))
    with pytest.raises(InconsistentDimension):
        cache.put_many([("c", np.zeros(4), text_key("c")),
                        ("d", np.zeros(5), text_key("d"))])
    assert path.read_bytes() == before
    assert len(cache) == 1 and cache.get("c") is None  # the failed batch left no trace
    cache.put("c", np.ones(4))
    assert EmbeddingCache(path).get("c").tolist() == [1.0] * 4


def test_puts_write_the_header_once(tmp_path):
    path = tmp_path / "emb"
    path.touch()
    cache = EmbeddingCache(path)
    for text in "abc":
        cache.put(text, np.full(2, ord(text), dtype=np.float64))
    EmbeddingCache(path).put("d", np.zeros(2))
    assert len(path.read_bytes()) == 12 + 4 * (32 + 16)
    assert [EmbeddingCache(path).get(t)[0] for t in "abc"] == [97.0, 98.0, 99.0]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dim=st.integers(0, 3), n=st.integers(1, 4), data=st.data())
def test_damaged_binary_cache_raises_or_loads_whole_records(tmp_path, dim, n, data):
    """A binary cache cut anywhere, or with a header byte changed, either
    raises ``ValueError``, naming no file, or loads whole records only; one
    whose first byte is not the magic's raises ``OlderForm``, as a cache of
    the older JSON-lines form does."""
    path = tmp_path / "emb"
    path.unlink(missing_ok=True)
    vectors = np.arange(n * dim, dtype=np.float64).reshape(n, dim) - 0.5
    EmbeddingCache(path).put_many((str(i), v, text_key(str(i)))
                                  for i, v in enumerate(vectors))
    whole = path.read_bytes()
    size, body = 32 + 8 * dim, len(whole) - 12
    older = False
    if data.draw(st.booleans(), label="cut"):
        cut = data.draw(st.integers(0, len(whole) - 1), label="length")
        path.write_bytes(whole[:cut])
        # an empty file is an empty cache; one cut at a record boundary
        # holds the records before the cut
        loads = cut == 0 or (cut >= 12 and (cut - 12) % size == 0)
        n_loaded = max(cut - 12, 0) // size
    else:
        at = data.draw(st.integers(0, 11), label="header byte")
        value = data.draw(st.integers(0, 255).filter(lambda b: b != whole[at]), label="value")
        path.write_bytes(whole[:at] + bytes([value]) + whole[at + 1:])
        # a changed dim whose records still tile the body cannot be told
        # from a whole file of that dim
        new_size = 32 + 8 * struct.unpack_from("<I", path.read_bytes(), 8)[0]
        loads = at >= 8 and body % new_size == 0
        n_loaded = body // new_size
        older = at == 0
    if older:
        with pytest.raises(OlderForm, match="older JSON-lines"):
            EmbeddingCache(path)
        return
    if not loads:
        with pytest.raises(ValueError) as info:
            EmbeddingCache(path)
        assert str(path) not in str(info.value)
        return
    cache = EmbeddingCache(path)
    assert len(cache) == n_loaded
    if dim == cache.dim:
        for i in range(n_loaded):
            assert cache.get(str(i)).tobytes() == vectors[i].tobytes()


def test_embeddings_are_unit_norm_and_deterministic(tmp_path):
    v1 = embed_texts(["stable text"], MockClient(seed=5), EmbeddingCache(tmp_path / "1"))[0]
    v2 = embed_texts(["stable text"], MockClient(seed=5), EmbeddingCache(tmp_path / "2"))[0]
    np.testing.assert_array_equal(v1, v2)
    assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)


def test_inconsistent_embedding_dimension_detected(tmp_path):
    class WonkyClient(MockClient):
        def _embed_once(self, texts):
            return [[0.0] * (32 if i % 2 else 64) for i, _t in enumerate(texts)]

    with pytest.raises(InconsistentDimension):
        embed_texts(["a", "b"], WonkyClient(), EmbeddingCache(tmp_path / "new"))
    # the cache refuses the batch whole: nothing of it is kept or written
    path = tmp_path / "emb"
    embed_texts(["z"], MockClient(config=EndpointConfig(mock=True, embedding_dim=64)),
                EmbeddingCache(path))
    before = path.read_bytes()
    cache = EmbeddingCache(path)
    with pytest.raises(InconsistentDimension):
        embed_texts(["a", "b", "z"], WonkyClient(), cache)
    assert path.read_bytes() == before
    assert len(cache) == 1 and cache.get("a") is None


def test_make_client_dispatch():
    assert isinstance(make_client(EndpointConfig(mock=True)), MockClient)
    http = make_client(EndpointConfig(base_url="https://example.invalid", model="m"))
    assert isinstance(http, HttpChatClient)


def test_http_client_maps_transport_errors(monkeypatch):
    import requests

    def boom(*args, **kwargs):
        raise requests.ConnectionError("refused")

    monkeypatch.setattr(requests, "post", boom)
    config = EndpointConfig(base_url="https://example.invalid", model="m",
                            retry_limit=1, backoff_base=0.0)
    client = HttpChatClient(config, sleep=lambda _t: None)
    with pytest.raises(EndpointError):
        client.complete([{"role": "user", "content": "hi"}])
    with pytest.raises(TransportError):
        client._complete_once([{"role": "user", "content": "hi"}])


class FakeResponse:
    """The part of ``requests.Response`` the HTTP client reads."""

    def __init__(self, status_code, body):
        self.status_code = status_code
        self.text = body if isinstance(body, str) else json.dumps(body)

    def json(self):
        return json.loads(self.text)


def fake_endpoint(monkeypatch, reply):
    """Route ``requests.post`` to ``reply(payload) -> (status, body)``; the
    returned list collects each posted URL's last path segment."""
    import requests

    posted = []

    def post(url, **kwargs):
        posted.append(url.rsplit("/", 1)[-1])
        return FakeResponse(*reply(kwargs["json"]))

    monkeypatch.setattr(requests, "post", post)
    return posted


def http_client():
    config = EndpointConfig(base_url="https://example.invalid/v1", model="m",
                            retry_limit=2, backoff_base=0.5)
    return HttpChatClient(config, sleep=lambda _t: None)


CALLS = {
    "completions": lambda client: client.complete([{"role": "user", "content": "hi"}]),
    "embeddings": lambda client: client.embed(["a", "b"]),
}


@pytest.mark.parametrize("route", CALLS)
def test_http_server_error_is_retried_then_raises(monkeypatch, route):
    posted = fake_endpoint(monkeypatch, lambda _payload: (503, "busy"))
    client = http_client()
    with pytest.raises(EndpointError, match="after 3 attempts: server error 503"):
        CALLS[route](client)
    assert posted == [route] * 3
    assert client.retry_delays == [0.5, 1.0]
    assert client.chat_requests == client.embed_requests == 0


@pytest.mark.parametrize("route", CALLS)
def test_http_client_error_is_raised_without_retry(monkeypatch, route):
    posted = fake_endpoint(monkeypatch, lambda _payload: (404, "no such model"))
    client = http_client()
    with pytest.raises(EndpointError, match="404: no such model"):
        CALLS[route](client)
    assert posted == [route]
    assert client.retry_delays == []


def _vectors(embedding, drop=0):
    """An embeddings reply giving each input text ``embedding``, less ``drop`` rows."""
    return lambda payload: {"data": [{"embedding": embedding}] * (len(payload["input"]) - drop)}


#: Replies that break the endpoint contract, by route; each is an EndpointError.
BAD_REPLIES = {
    "choices-null": ("completions", lambda _p: {"choices": None}),
    "list-body": ("completions", lambda _p: [{"choices": []}]),
    "content-null": ("completions", lambda _p: {"choices": [{"message": {"content": None}}]}),
    "not-json": ("completions", lambda _p: "<html>busy</html>"),
    "fewer-vectors": ("embeddings", _vectors([0.5, 0.5], drop=1)),
    "non-numeric": ("embeddings", _vectors(["x", "y"])),
    "nested-vector": ("embeddings", _vectors([[0.5], [0.5]])),
    "non-finite": ("embeddings", _vectors([0.5, float("nan")])),
    "no-data": ("embeddings", lambda _p: {"object": "list"}),
}


@pytest.mark.parametrize("route, body", BAD_REPLIES.values(), ids=BAD_REPLIES.keys())
def test_http_malformed_reply_is_an_endpoint_error(monkeypatch, route, body):
    posted = fake_endpoint(monkeypatch, lambda payload: (200, body(payload)))
    client = http_client()
    with pytest.raises(EndpointError):
        CALLS[route](client)
    assert posted == [route]
    assert client.retry_delays == []


def test_http_well_formed_replies_pass_the_contract(monkeypatch):
    fake_endpoint(monkeypatch, lambda payload: (200, {
        "choices": [{"message": {"content": "fine"}}],
        "data": [{"embedding": [1, 0.5]}] * len(payload.get("input", ())),
    }))
    client = http_client()
    assert CALLS["completions"](client) == "fine"
    vectors = CALLS["embeddings"](client)
    assert [v.tolist() for v in vectors] == [[1.0, 0.5]] * 2
    assert all(v.dtype == np.float64 for v in vectors)
    assert (client.chat_requests, client.embed_requests) == (1, 1)


@pytest.mark.parametrize("stage, defect", [
    ("extract", "choices-null"), ("extract", "list-body"), ("extract", "content-null"),
    ("embed", "fewer-vectors"), ("embed", "non-numeric"), ("embed", "non-finite"),
])
def test_cli_stage_exits_2_on_malformed_reply(tmp_path, monkeypatch, capsys, stage, defect):
    manifest = make_workspace(tmp_path, [("p0", "train", "accept")])
    assert run(tmp_path, "simulate", str(manifest)) == 0
    assert run(tmp_path, "extract", str(manifest)) == 0
    config = json.loads((tmp_path / "run.json").read_text())
    config["endpoint"] = {"base_url": "https://example.invalid/v1", "model": "m",
                          "retry_limit": 0, "embedding_dim": 16}
    (tmp_path / "run.json").write_text(json.dumps(config))
    body = BAD_REPLIES[defect][1]
    fake_endpoint(monkeypatch, lambda payload: (200, body(payload)))
    capsys.readouterr()
    assert run(tmp_path, stage, "--force", str(manifest)) == 2
    err = capsys.readouterr().err
    assert err.startswith("endpoint error: ") and "Traceback" not in err
    assert not list((tmp_path / "work").glob("*.emb*"))  # nothing is cached


def test_cli_stage_exits_2_on_blank_completion(tmp_path, monkeypatch, capsys):
    manifest = make_workspace(tmp_path, [("p0", "train", "accept")])
    config = json.loads((tmp_path / "run.json").read_text())
    config["endpoint"] = {"base_url": "https://example.invalid/v1", "model": "m",
                          "retry_limit": 0}
    (tmp_path / "run.json").write_text(json.dumps(config))
    fake_endpoint(monkeypatch, lambda _p: (200, {"choices": [{"message": {"content": " \n"}}]}))
    capsys.readouterr()
    assert run(tmp_path, "simulate", str(manifest)) == 2
    assert capsys.readouterr().err == "endpoint error: endpoint returned an empty completion\n"
    assert not list((tmp_path / "work").iterdir())


def mock_backed_endpoint(monkeypatch, seed=7, delay=0.02, refuse=lambda _blob: None):
    """A fake HTTP endpoint that answers each request as ``MockClient(seed)``
    does, after ``delay`` seconds. A chat request whose text makes
    ``refuse(text)`` return ``(delay, body)`` gets a 404 with ``body`` after
    that delay instead. The returned dict holds the most requests it saw at once."""
    mock = MockClient(seed=seed)
    lock = threading.Lock()
    seen = {"in_flight": 0, "max_in_flight": 0}

    def reply(payload):
        with lock:
            seen["in_flight"] += 1
            seen["max_in_flight"] = max(seen["max_in_flight"], seen["in_flight"])
        try:
            if "input" in payload:
                time.sleep(delay)
                return 200, {"data": [{"embedding": v} for v in mock._embed_once(payload["input"])]}
            refused = refuse("\n".join(m["content"] for m in payload["messages"]))
            if refused is not None:
                time.sleep(refused[0])
                return 404, refused[1]
            time.sleep(delay)
            return 200, {"choices": [{"message": {"content":
                                                  mock._complete_once(payload["messages"])}}]}
        finally:
            with lock:
                seen["in_flight"] -= 1

    fake_endpoint(monkeypatch, reply)
    return seen


FOUR_PAPERS = [("p0", "train", "accept"), ("p1", "train", "reject"),
               ("p2", "val", "accept"), ("p3", "test", "reject")]
REQUEST_STAGES = ("simulate", "extract", "classify", "embed")


def http_workspace(root, papers=FOUR_PAPERS):
    """A workspace over ``papers`` whose run config names an HTTP endpoint."""
    return make_workspace(root, papers, config_extra={"endpoint": {
        "mock": False, "base_url": "https://example.invalid/v1", "model": "m",
        "retry_limit": 0}})


def work_files(root):
    return {p.name: p.read_bytes() for p in sorted((root / "work").iterdir())}


def test_papers_in_flight_write_what_one_at_a_time_writes(tmp_path, monkeypatch, capsys):
    """Every stage at --jobs 4 against an HTTP endpoint has several papers'
    requests in flight, and writes the files and prints the summary line of
    --jobs 1, which has one request in flight."""
    files, summaries = {}, {}
    for jobs in ("1", "4"):
        root = tmp_path / jobs
        manifest = http_workspace(root)
        summaries[jobs] = []
        for stage in REQUEST_STAGES:
            seen = mock_backed_endpoint(monkeypatch)
            capsys.readouterr()
            assert run(root, "--jobs", jobs, stage, str(manifest)) == 0, stage
            summaries[jobs].append(capsys.readouterr().out)
            files[jobs, stage] = work_files(root)
            assert (seen["max_in_flight"] >= 2) == (jobs == "4"), (stage, seen)
    assert summaries["1"] == summaries["4"]
    assert summaries["1"][0] == "simulate: 4 written, 0 skipped (32 requests)\n"
    for stage in REQUEST_STAGES:
        assert files["1", stage] == files["4", stage], stage


def test_papers_in_flight_fail_as_the_first_failing_paper_and_keep_progress(
        tmp_path, monkeypatch, capsys):
    """Of two failing papers, the first in manifest order gives the exit code
    and the message, though the other fails first; the papers written before
    the failure stay, and a rerun skips them."""
    papers = [(f"p{i}", "train", "accept") for i in range(8)]
    reference = tmp_path / "reference"
    mock_backed_endpoint(monkeypatch)
    assert run(reference, "simulate", str(http_workspace(reference, papers))) == 0

    root = tmp_path / "failing"
    manifest = http_workspace(root, papers)
    body = (root / "papers" / "p3.json").read_text()
    (root / "papers" / "p3.json").write_text(json.dumps({**json.loads(body), "body": " "}))
    # p1's first request is refused after p3 has already failed
    mock_backed_endpoint(monkeypatch, refuse=lambda text: (0.1, "refused p1")
                         if "Paper p1 on" in text else None)
    capsys.readouterr()
    assert run(root, "--jobs", "4", "simulate", str(manifest)) == 2
    assert capsys.readouterr().err == "endpoint error: endpoint returned 404: refused p1\n"
    written = {p.name for p in (root / "work").iterdir()}
    assert "p0.transcript.json" in written and "p1.transcript.json" not in written
    assert not any(name.endswith(".tmp") for name in written)

    (root / "papers" / "p3.json").write_text(body)
    mock_backed_endpoint(monkeypatch)
    assert run(root, "--jobs", "4", "simulate", str(manifest)) == 0
    n_written = 8 - len(written)
    assert capsys.readouterr().out == (f"simulate: {n_written} written, {len(written)} "
                                       f"skipped ({8 * n_written} requests)\n")
    assert work_files(root) == work_files(reference)


@pytest.mark.parametrize("work_dir", ["work", "alias"])
def test_two_papers_with_one_output_path_exit_3_before_any_request(tmp_path, monkeypatch,
                                                                  capsys, work_dir):
    """Also when one path reaches the file through a symlinked directory."""
    manifest = http_workspace(tmp_path)
    (tmp_path / "alias").symlink_to(tmp_path / "work", target_is_directory=True)
    records = [json.loads(line) for line in manifest.read_text().splitlines()]
    records[3]["paths"]["transcript"] = f"{work_dir}/p1.transcript.json"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
    posted = fake_endpoint(monkeypatch, lambda _payload: (500, "unexpected"))
    assert run(tmp_path, "--jobs", "4", "simulate", str(manifest)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: p1 and p3: both write the transcript file ")
    assert err.rstrip().endswith("p1.transcript.json")
    assert posted == [] and not list((tmp_path / "work").iterdir())


def test_an_output_file_symlinked_to_another_papers_output_exits_3_before_any_request(
        tmp_path, monkeypatch, capsys):
    """Symlinks are followed once per output directory, and once more for an
    output that is itself a symlink: p3's transcript links to p1's."""
    manifest = http_workspace(tmp_path)
    link = tmp_path / "work" / "p3.transcript.json"
    link.symlink_to(tmp_path / "work" / "p1.transcript.json")
    posted = fake_endpoint(monkeypatch, lambda _payload: (500, "unexpected"))
    assert run(tmp_path, "--jobs", "4", "simulate", str(manifest)) == 3
    err = capsys.readouterr().err
    assert err == f"data error: p1 and p3: both write the transcript file {link}\n"
    assert posted == [] and list((tmp_path / "work").iterdir()) == [link]


def test_mock_endpoint_runs_papers_in_the_calling_thread(tmp_path, monkeypatch):
    """The mock answers inside the interpreter: --jobs 4 starts no thread and
    writes what --jobs 1 writes."""
    files = {}
    for jobs in ("1", "4"):
        root = tmp_path / jobs
        manifest = make_workspace(root, FOUR_PAPERS)
        started = []
        start = threading.Thread.start
        with monkeypatch.context() as patch:
            patch.setattr(threading.Thread, "start",
                          lambda thread: started.append(thread) or start(thread))
            for stage in REQUEST_STAGES:
                assert run(root, "--jobs", jobs, stage, str(manifest)) == 0, stage
        assert started == []
        files[jobs] = work_files(root)
    assert files["1"] == files["4"]


def test_build_graph_runs_papers_in_the_calling_thread(tmp_path, monkeypatch):
    """build-graph sends no requests, so against an HTTP endpoint at --jobs 4
    it starts no thread."""
    manifest = http_workspace(tmp_path)
    mock_backed_endpoint(monkeypatch, delay=0)
    for stage in REQUEST_STAGES:
        assert run(tmp_path, stage, str(manifest)) == 0, stage
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    assert run(tmp_path, "--jobs", "4", "build-graph", str(manifest)) == 0
    assert started == [] and len(list((tmp_path / "work").glob("*.graph.json"))) == 4


def test_http_map_keeps_order_raises_the_first_failure_and_cancels_the_rest():
    client = http_client()
    assert client.map(lambda x: x * x, list(range(10)), 4) == [x * x for x in range(10)]

    ran = []

    def item(i):
        ran.append(i)
        if i == 0:
            time.sleep(0.05)
            raise ValueError("item 0")
        if i == 1:
            raise ValueError("item 1")  # fails first, but is later in order
        time.sleep(0.05)
        return i

    with pytest.raises(ValueError, match="item 0"):
        client.map(item, list(range(20)), 2)
    assert 0 in ran and 1 in ran and len(ran) < 20  # the items not started are cancelled


def test_http_map_counts_every_request_and_retry_under_contention(monkeypatch):
    """More items in flight than cores, each refused once with a 503 and then
    answered: no request or retry is lost from the client's counters."""
    lock = threading.Lock()
    refused = set()

    def reply(payload):
        text = payload["messages"][0]["content"]
        with lock:
            if text not in refused:
                refused.add(text)
                return 503, "busy"
        return 200, {"choices": [{"message": {"content": f"re {text}"}}]}

    fake_endpoint(monkeypatch, reply)
    client = http_client()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        replies = client.map(lambda i: client.complete([{"role": "user", "content": str(i)}]),
                             list(range(300)), 8)
    finally:
        sys.setswitchinterval(interval)
    assert replies == [f"re {i}" for i in range(300)]
    assert client.chat_requests == 300 and client.retry_delays == [0.5] * 300
    assert client.max_in_flight <= client.config.max_concurrent


def test_api_key_comes_from_environment(monkeypatch):
    config = EndpointConfig(base_url="https://example.invalid", model="m",
                            api_key_env="RVG_TEST_KEY")
    client = HttpChatClient(config)
    monkeypatch.delenv("RVG_TEST_KEY", raising=False)
    assert "Authorization" not in client._headers()
    monkeypatch.setenv("RVG_TEST_KEY", "sekrit")
    assert client._headers()["Authorization"] == "Bearer sekrit"
