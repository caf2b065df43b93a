"""LLM pipeline stages: debate simulation, triple extraction, dimension
classification, and text embedding, behind a pluggable chat/embedding client.

The HTTP client speaks chat-completion-style JSON; the mock client implements
the same interface with deterministic keyword-rule outputs and never touches
the network, so the whole pipeline runs offline and reproducibly.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .extraction import (
    DimensionAssignment,
    ExtractionError,
    TripleBatch,
    parse_dimension_reply,
    parse_triple_batch,
    reviewer_opinion_keys,
)
from .graph import (DIMENSION_LABELS, Dimension, OlderForm, compact_json, parse_json, require_str,
                    text_key)


class OrchestrationError(Exception):
    pass


class EndpointError(OrchestrationError):
    pass


class EmptyCompletion(OrchestrationError):
    pass


class ExtractionFailed(OrchestrationError):
    """Neither the reply to a prompt nor the one after the correction parsed."""

    def __init__(self, errors: list[str]) -> None:
        super().__init__(f"both attempts unparseable: {errors}")
        self.errors = errors


class ClassificationFailed(OrchestrationError):
    def __init__(self, failures: list[tuple[str, str, str]]) -> None:
        super().__init__(
            "could not classify: "
            + "; ".join(f"{spk}: {txt[:50]!r} ({err})" for spk, txt, err in failures)
        )
        self.failures = failures


class InconsistentDimension(OrchestrationError):
    pass


class EmptyPaper(OrchestrationError):
    """A paper whose body is blank, so there is nothing to debate."""


class TransportError(OrchestrationError):
    """Transient endpoint failure; retried up to the configured limit."""


@dataclass(frozen=True)
class Transcript:
    """The debate ``simulate_debate`` records: three initial reviews, the author's rebuttal, the
    three re-evaluations and the area chair's meta-review, and the paper's attachments."""

    paper_id: str
    title: str
    reviews: tuple[str, str, str]
    rebuttal: str
    re_evaluations: tuple[str, str, str]
    meta_review: str
    attachments: tuple[str, ...]


def transcript_from_dict(d: object) -> Transcript:
    """The transcript of a decoded transcript file. A field that is missing,
    unknown or of the wrong type raises ``TypeError``; a file of the older
    form, whose debate is a list of stages, raises ``OlderForm``."""
    if not isinstance(d, dict):
        raise TypeError("a transcript must be a JSON object")
    if "stages" in d:
        raise OlderForm("a transcript of the older form, a list of debate stages")
    t = Transcript(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})
    if not (type(t.reviews) is type(t.re_evaluations) is type(t.attachments) is tuple
            and len(t.reviews) == len(t.re_evaluations) == 3):
        raise TypeError("reviews and re_evaluations must be lists of three strings, and "
                        "attachments a list of strings")
    require_str("each of paper_id, title, the turns and the attachments", t.paper_id, t.title,
                *t.reviews, t.rebuttal, *t.re_evaluations, t.meta_review, *t.attachments)
    return t


def save_transcript(t: Transcript, path: str | Path) -> None:
    Path(path).write_text(compact_json(vars(t)))


def load_transcript(path: str | Path) -> Transcript:
    return transcript_from_dict(parse_json(Path(path).read_bytes()))


@dataclass(frozen=True)
class PaperInput:
    paper_id: str
    title: str
    body: str
    attachments: tuple[str, ...] = ()


def load_paper(path: str | Path) -> PaperInput:
    """The paper of a paper file, whose ``attachments`` are a list of strings, none if absent;
    a document that is not a JSON object raises ``TypeError``."""
    d = parse_json(Path(path).read_bytes())
    if not isinstance(d, dict):
        raise TypeError("a paper must be a JSON object")
    attachments = d.get("attachments", [])
    if not isinstance(attachments, list):
        raise TypeError(f"attachments must be a list of strings, not {json.dumps(attachments)}")
    require_str("each of paper_id, title, body and attachment", d["paper_id"], d["title"],
                d["body"], *attachments)
    return PaperInput(d["paper_id"], d["title"], d["body"], tuple(attachments))


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str = ""
    model: str = ""
    api_key_env: str = "REVIEWGRAPH_API_KEY"
    max_concurrent: int = 4
    timeout: float = 120.0
    retry_limit: int = 3
    backoff_base: float = 0.5
    embedding_dim: int = 64
    mock: bool = False
    mock_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_concurrent < 1 or self.retry_limit < 0 or self.embedding_dim < 1:
            raise OrchestrationError(
                "need max_concurrent >= 1, retry_limit >= 0 and embedding_dim >= 1")
        # each test is written so that NaN fails it
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise OrchestrationError(f"timeout must be finite and above 0, not {self.timeout}")
        if not (math.isfinite(self.backoff_base) and self.backoff_base >= 0):
            raise OrchestrationError(
                f"backoff_base must be finite and at least 0, not {self.backoff_base}")
        if not self.mock:
            try:
                url = urllib.parse.urlsplit(self.base_url)
            except ValueError:  # such as an unclosed IPv6 bracket
                url = None
            if url is None or url.scheme not in ("http", "https") or not url.hostname:
                raise OrchestrationError("base_url must be an http:// or https:// URL with a "
                                         f"host unless mock is true, not {self.base_url!r}")


T = TypeVar("T")
R = TypeVar("R")


class BaseClient:
    """Shared retry/backoff and concurrency bookkeeping for all clients, and
    the reply contract every client's completions and embeddings must meet."""

    def __init__(self, config: EndpointConfig,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.config = config
        self._sleep = sleep
        self._semaphore = threading.Semaphore(config.max_concurrent)
        self._lock = threading.Lock()
        self._in_flight = 0
        self.max_in_flight = 0
        self.chat_requests = 0
        self.embed_requests = 0
        self.retry_delays: list[float] = []

    def _request(self, fn: Callable[[], object], counter: str) -> object:
        """``fn()`` within the concurrency limit and with retries; a success
        adds one to the request counter named ``counter``."""
        with self._semaphore:
            with self._lock:
                self._in_flight += 1
                self.max_in_flight = max(self.max_in_flight, self._in_flight)
            try:
                out = self._with_retries(fn)
            finally:
                with self._lock:
                    self._in_flight -= 1
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)
        return out

    def _with_retries(self, fn: Callable[[], object]) -> object:
        last: Exception | None = None
        for attempt in range(self.config.retry_limit + 1):
            try:
                return fn()
            except TransportError as exc:
                last = exc
                if attempt < self.config.retry_limit:
                    delay = self.config.backoff_base * (2.0**attempt)
                    self.retry_delays.append(delay)
                    self._sleep(delay)
        raise EndpointError(f"endpoint failed after {self.config.retry_limit + 1} attempts: {last}")

    def complete(self, messages: list[dict[str, str]]) -> str:
        out = self._request(lambda: self._complete_once(messages), "chat_requests")
        if not isinstance(out, str):
            raise EndpointError(f"completion is {type(out).__name__}, not a string")
        if not out.strip():
            raise EmptyCompletion("endpoint returned an empty completion")
        return out

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        texts = list(texts)
        out = self._request(lambda: self._embed_once(texts), "embed_requests")
        try:
            vectors = [np.asarray(v) for v in out]
        except (TypeError, ValueError) as exc:  # not iterable, or a ragged vector
            raise EndpointError(f"malformed embeddings: {exc}") from None
        if len(vectors) != len(texts) or not all(v.ndim == 1 and v.dtype.kind in "iuf"
                                                 for v in vectors):
            raise EndpointError(f"embeddings reply is not one 1-D vector of numbers per "
                                f"text ({len(vectors)} for {len(texts)} texts)")
        vectors = [np.asarray(v, dtype=np.float64) for v in vectors]
        # JSON parsers accept a bare NaN or Infinity; no embedding has one
        bad = next((i for i, v in enumerate(vectors) if not np.isfinite(v).all()), None)
        if bad is not None:
            raise EndpointError(f"embeddings reply has a non-finite value in the vector "
                                f"of text {bad}")
        return vectors

    def map(self, fn: Callable[[T], R], items: Sequence[T], jobs: int) -> list[R]:
        """``[fn(item) for item in items]``, run one item after another in the
        calling thread whatever ``jobs`` says: a client that answers inside
        the interpreter holds the GIL, so threads would only wait for it."""
        return [fn(item) for item in items]

    def _complete_once(self, messages: list[dict[str, str]]) -> str:
        raise NotImplementedError

    def _embed_once(self, texts: list[str]) -> list[list[float]]:
        raise NotImplementedError


class HttpChatClient(BaseClient):
    """Chat-completion-style JSON-over-HTTPS client."""

    def map(self, fn: Callable[[T], R], items: Sequence[T], jobs: int) -> list[R]:
        """``[fn(item) for item in items]`` with up to ``jobs`` items in flight,
        since each waits on requests that leave the process. The first item
        to fail, in ``items`` order, raises once the items already started
        end; the items not started yet are cancelled."""
        if jobs == 1:
            return super().map(fn, items, jobs)
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            # Executor.map cancels the pending items when a result raises
            return list(pool.map(fn, items))

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _post(self, route: str, payload: dict, pick: Callable[[object], object]) -> object:
        """``pick`` of the JSON body that POSTing ``payload`` to ``route`` returns.
        A 5xx status or a failed connection raises ``TransportError`` (retried);
        another status but 200, or a body ``pick`` cannot read, ``EndpointError``."""
        # imported here, not at the top: only a request to an HTTP endpoint
        # needs the HTTP stack, which adds about 10 MB to a process
        import requests

        try:
            resp = requests.post(
                f"{self.config.base_url.rstrip('/')}/{route}",
                json={"model": self.config.model, **payload},
                headers=self._headers(),
                timeout=self.config.timeout,
            )
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if resp.status_code >= 500:
            raise TransportError(f"server error {resp.status_code}")
        if resp.status_code != 200:
            raise EndpointError(f"endpoint returned {resp.status_code}: {resp.text[:200]}")
        try:
            return pick(resp.json())
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise EndpointError(f"malformed {route} reply: "
                                f"{type(exc).__name__}: {exc}") from exc

    def _complete_once(self, messages: list[dict[str, str]]) -> str:
        return self._post("chat/completions", {"messages": messages},
                          lambda body: body["choices"][0]["message"]["content"])

    def _embed_once(self, texts: list[str]) -> list[list[float]]:
        return self._post("embeddings", {"input": texts},
                          lambda body: [row["embedding"] for row in body["data"]])


# deterministic opinion banks for the mock reviewers; every sentence carries a
# keyword the mock classifier maps back to its dimension, and none contains
# characters that would break the triple format
_MOCK_OPINIONS = [
    "The proposed method offers limited methodological novelty over established approaches.",
    "The core idea is novel and clearly differentiated from prior techniques.",
    "The experimental evaluation covers too few datasets to support the claims.",
    "The experiments are thorough and include convincing baseline comparisons.",
    "The motivation for the central design choice is not clearly articulated.",
    "The problem motivation is compelling and well grounded in practice.",
    "The writing is dense and several passages are hard to follow.",
    "The paper is well written with a clear and readable structure.",
]

_MOCK_RA_LABELS = ("Accept", "Clarify", "Compromise", "Extend", "Reject", "Neutral")
_MOCK_IR_LABELS = ("Agree", "Complement", "Independent", "Disagree", "Progressive")


def _stable_hash(*parts: object) -> int:
    return int.from_bytes(text_key("\x00".join(map(str, parts)))[:8], "little")


class MockClient(BaseClient):
    """Deterministic offline stand-in for the chat/embedding endpoint.

    ``fail_first_n`` injects transient transport failures on the first n chat
    attempts to exercise the shared retry path; delays are recorded, not slept.
    """

    def __init__(self, seed: int = 0, config: EndpointConfig | None = None,
                 fail_first_n: int = 0) -> None:
        config = config or EndpointConfig(mock=True, mock_seed=seed)
        super().__init__(config, sleep=lambda _t: None)
        self.seed = seed
        self.fail_first_n = fail_first_n
        self.chat_attempts = 0

    # -- chat -------------------------------------------------------------

    def _complete_once(self, messages: list[dict[str, str]]) -> str:
        with self._lock:
            self.chat_attempts += 1
            if self.chat_attempts <= self.fail_first_n:
                raise TransportError(f"injected failure {self.chat_attempts}")
        blob = "\n".join(m["content"] for m in messages)
        last_user = next(
            (m["content"] for m in reversed(messages) if m["role"] == "user"), ""
        )
        if "expert in argument mining" in blob:
            review_file = next(
                (m["content"] for m in messages
                 if "### Initial Review Comments:" in m["content"]),
                last_user,
            )
            return self._extraction_reply(review_file)
        if "classify the given comment" in blob.lower():
            return self._classification_reply(last_user)
        if "You are an author." in last_user:
            return self._rebuttal_reply(messages)
        if "area chair" in last_user:
            return self._meta_reply(messages)
        if "You are a reviewer." in last_user:
            return self._review_reply(messages, last_user)
        return "Acknowledged."

    def _reviewer_number(self, prompt: str) -> int:
        for k in (1, 2, 3):
            if f"Reviewer {k}" in prompt:
                return k
        return 1

    def _paper_title(self, messages: list[dict[str, str]]) -> str:
        for m in messages:
            if m["content"].startswith("Title: "):
                return m["content"].splitlines()[0][len("Title: "):]
        return "untitled"

    def _pick_opinions(self, title: str, k: int) -> list[str]:
        base = _stable_hash(self.seed, title, k)
        first = base % len(_MOCK_OPINIONS)
        second = (first + 1 + (base // 7) % (len(_MOCK_OPINIONS) - 1)) % len(_MOCK_OPINIONS)
        return [_MOCK_OPINIONS[first], _MOCK_OPINIONS[second]]

    def _review_reply(self, messages: list[dict[str, str]], prompt: str) -> str:
        k = self._reviewer_number(prompt)
        title = self._paper_title(messages)
        opinions = self._pick_opinions(title, k)
        if "re-evaluate" in prompt:
            lines = [f"After the rebuttal, I maintain that {op[0].lower()}{op[1:]}"
                     for op in opinions]
            return f"Re-evaluation by Reviewer {k}:\n" + "\n".join(f"- {s}" for s in lines)
        rating = 5 + _stable_hash(self.seed, title, k, "rating") % 4
        body = "\n".join(f"- {op}" for op in opinions)
        return f"Overall rating: {rating}\n\nComments:\n{body}"

    def _rebuttal_reply(self, messages: list[dict[str, str]]) -> str:
        lines = []
        reviewer = 0
        for m in messages:
            if m["role"] != "assistant" or "Comments:" not in m["content"]:
                continue
            reviewer += 1
            for line in m["content"].splitlines():
                if line.startswith("- "):
                    op = line[2:]
                    lines.append(
                        f"Response to Reviewer {reviewer}: We will address the point that "
                        f"{op[0].lower()}{op[1:]}"
                    )
        return "Rebuttal:\n" + "\n".join(lines)

    def _meta_reply(self, messages: list[dict[str, str]]) -> str:
        title = self._paper_title(messages)
        score = 4 + _stable_hash(self.seed, title, "meta") % 5
        return f"Score: {score}\n\nSummary: The reviewers discussed {title} in depth."

    # -- extraction -------------------------------------------------------

    def _extraction_reply(self, prompt: str) -> str:
        sections = _split_review_file(prompt)
        reviewer_ops = sections["reviews"]
        responses = sections["responses"]

        ra = []
        for k, ops in sorted(reviewer_ops.items()):
            for op in ops:
                match = next(
                    (r for r in responses if op[0].lower() + op[1:] in r), None
                )
                if match is None:
                    continue
                label = _MOCK_RA_LABELS[_stable_hash(self.seed, op) % len(_MOCK_RA_LABELS)]
                ra.append(f"(Reviewer {k}: '{op}', Author: '{match}', {label})")
        ir = []
        reviewers = sorted(reviewer_ops)
        for a, b in zip(reviewers, reviewers[1:]):
            ops_a, ops_b = reviewer_ops[a], reviewer_ops[b]
            for op_a, op_b in zip(ops_a, ops_b):
                label = _MOCK_IR_LABELS[
                    _stable_hash(self.seed, op_a, op_b) % len(_MOCK_IR_LABELS)
                ]
                ir.append(f"(Reviewer {a}: '{op_a}', Reviewer {b}: '{op_b}', {label})")
        obj = {"Reviewer_Author_Relations": ra, "Inter_Reviewer_Relations": ir}
        return "Here are the extracted relations.\n" + json.dumps(obj, indent=1)

    def _classification_reply(self, prompt: str) -> str:
        marker = "Comment to classify:"
        comment = prompt.split(marker, 1)[-1].strip().lower()
        if "novel" in comment or "method" in comment:
            dim = Dimension.METHODOLOGICAL_NOVELTY
        elif "experiment" in comment or "dataset" in comment or "empirical" in comment:
            dim = Dimension.EXPERIMENTAL_COMPLETENESS
        elif "motivat" in comment:
            dim = Dimension.MOTIVATION_CLARITY
        elif "writ" in comment or "read" in comment or "follow" in comment:
            dim = Dimension.WRITING_FLUENCY
        else:
            dim = Dimension.METHODOLOGICAL_NOVELTY
        return json.dumps({"category": DIMENSION_LABELS[dim]})

    # -- embeddings -------------------------------------------------------

    def _embed_once(self, texts: list[str]) -> list[list[float]]:
        from .synth import unit_embedding

        return [
            unit_embedding(t, self.config.embedding_dim, self.seed).tolist() for t in texts
        ]


def _split_review_file(prompt: str) -> dict:
    """Pull reviewer opinion lines and author response lines out of the
    rendered extraction prompt (mock's own canned formats)."""
    reviews: dict[int, list[str]] = {}
    responses: list[str] = []
    current: list[str] | None = None
    in_responses = False
    for line in prompt.splitlines():
        if line.startswith("## Reviewer "):
            try:
                k = int(line.split()[2].rstrip(":"))
            except (IndexError, ValueError):
                continue
            current = reviews.setdefault(k, [])
            in_responses = False
        elif line.startswith("## Author"):
            current = None
            in_responses = True
        elif line.startswith("### Reviewers' Responses"):
            current = None
            in_responses = False
        elif line.startswith("- ") and current is not None:
            current.append(line[2:])
        elif in_responses and line.startswith("Response to Reviewer "):
            responses.append(line.split(": ", 1)[-1])
    return {"reviews": reviews, "responses": responses}


def make_client(config: EndpointConfig) -> BaseClient:
    if config.mock:
        return MockClient(seed=config.mock_seed, config=config)
    return HttpChatClient(config)


# -- prompt templates -----------------------------------------------------

SIMULATION_SYSTEM = (
    "You are a participant in the paper review and you need to fully understand "
    "the content of the paper."
)

REVIEWER_PROMPT = (
    "You are a helpful assistant. Your role:\n\n"
    "You are a reviewer. You write peer review of academic papers by evaluating "
    "their technical quality, originality, and clarity.\n\n"
    "## Review Guidelines\n\n{guidelines}\n\n"
    "You are Reviewer {k}. Write your initial review."
)

REEVALUATION_PROMPT = (
    "You are a helpful assistant. Your role:\n\n"
    "You are a reviewer. You write peer review of academic papers by evaluating "
    "their technical quality, originality, and clarity.\n\n"
    "You are Reviewer {k}. The author has responded to the reviews. Please "
    "re-evaluate: re-express or refine your opinions in light of the rebuttal."
)

AUTHOR_PROMPT = (
    "You are a helpful assistant. Your role:\n\n"
    "You are an author. You write research papers and submit them to conferences. "
    "During the rebuttal phase, you carefully read the reviews from the reviewers "
    "and respond to each of them.\n\n## Author Guidelines\n\n{guidelines}"
)

SENIOR_PROMPT = (
    "You are a helpful assistant. Your role:\n\n"
    "You are a very knowledgeable and experienced area chair in a top-tier machine "
    "learning conference.\n\nYou evaluate the reviews provided by reviewers and "
    "write metareviews.\n\n## Area Chair Guidelines\n\n{guidelines}"
)

DEFAULT_REVIEW_GUIDELINES = (
    "Recognize the paper's strengths and substantive contributions, then raise "
    "concerns, highlight potential weaknesses, and offer critical analysis."
)
DEFAULT_AUTHOR_GUIDELINES = (
    "Respond point by point: clarify misunderstandings, answer technical "
    "questions, and defend the contributions where challenged."
)
DEFAULT_CHAIR_GUIDELINES = (
    "Aggregate the reviews into a single meta-review; find consensus and respect "
    "the opinion of all the reviewers."
)

EXTRACTION_SYSTEM = (
    "You are an expert in argument mining and peer review analysis.\n\n"
    "You are given a review file that contains:\n"
    "- The initial review comments from three reviewers.\n"
    "- The author's responses to each reviewer.\n"
    "- The reviewers' subsequent responses to the author's replies."
)

EXTRACTION_TASK = """### Task:
Please carefully read the provided text and extract the argumentative relationships in the following two categories:

1. **Reviewer-Author Relationships:**
Identify the relationships between each reviewer's argument sentence and the corresponding author's response.
Use the following relation types:
- Accept: The author fully accepts or agrees with the reviewer's comment.
- Reject: The author disagrees with or does not adopt the reviewer's comment.
- Clarify: The author provides additional explanations or clarifications.
- Compromise: The author partially accepts the reviewer's comment and proposes a middle-ground solution.
- Extend: The author expands or supplements their response based on the reviewer's comment.
- Neutral: The author's response does not clearly express an attitude or is neutral.

2. **Inter-Reviewer Relationships:**
Identify the relationships between argument sentences from different reviewers.
Use the following relation types:
- Agree: The reviewers hold consistent viewpoints or mutually support each other's comments.
- Disagree: The reviewers present conflicting viewpoints or directly refute each other.
- Complement: Reviewers' comments are complementary and cover different but related aspects.
- Progressive: One reviewer's comment builds upon or deepens another's.
- Independent: Reviewers' comments are unrelated and focus on different issues independently.

### Output Format:
Please provide the extracted triples in the following format:
- (Reviewer X: [argument sentence], Author: [argument sentence], [relation type])
- (Reviewer X: [argument sentence], Reviewer Y: [argument sentence], [relation type])

Each triple must directly quote the original sentences without any paraphrasing, summarizing, or abbreviation. Provide the final output in a single JSON object with the keys "Reviewer_Author_Relations" and "Inter_Reviewer_Relations"."""

CLASSIFY_SYSTEM = """### Task:
Your task is to classify the given comment into one of the following categories based on their primary evaluation focus:
1. Methodological Novelty - Is the comment evaluating whether the proposed method is novel, creative, or technically original?
2. Motivation Clarity - Is the comment assessing whether the motivation or problem statement is clear and compelling?
3. Experimental Completeness - Is the comment about the quality, completeness, or reliability of the experiments and empirical evaluation?
4. Writing Fluency - Is the comment about the writing quality, fluency, or readability of the paper?
Return your answer as JSON in the format: {"category": "category_name"}"""


def simulate_debate(paper: PaperInput, client: BaseClient) -> Transcript:
    """Run the reviewer-author conversation and record it verbatim: the paper and its
    attachments, then three initial reviews, one author rebuttal, three re-evaluations and an
    area chair's meta-review; 8 chat requests total."""
    if not paper.body.strip():
        raise EmptyPaper("paper body is empty")

    history: list[dict[str, str]] = [
        {"role": "system", "content": SIMULATION_SYSTEM},
        {"role": "user",
         "content": "The following is the text content, figures and tables of a research paper."},
        {"role": "assistant", "content": "Okay, please provide the content of the research paper."},
        {"role": "user", "content": f"Title: {paper.title}\n\n{paper.body}"},
        {"role": "assistant", "content": "Received the text content of the research paper."},
    ]
    for ref in paper.attachments:
        history.append({"role": "user", "content": ref})
        history.append({"role": "assistant", "content": "Received the figure or table."})

    def turn(prompt: str) -> str:
        """Ask ``prompt`` after the whole conversation so far; the reply joins it."""
        history.append({"role": "user", "content": prompt})
        reply = client.complete(history)
        history.append({"role": "assistant", "content": reply})
        return reply

    reviews = tuple(turn(REVIEWER_PROMPT.format(guidelines=DEFAULT_REVIEW_GUIDELINES, k=k))
                    for k in (1, 2, 3))
    rebuttal = turn(AUTHOR_PROMPT.format(guidelines=DEFAULT_AUTHOR_GUIDELINES))
    re_evaluations = tuple(turn(REEVALUATION_PROMPT.format(k=k)) for k in (1, 2, 3))
    meta_review = turn(SENIOR_PROMPT.format(guidelines=DEFAULT_CHAIR_GUIDELINES))
    return Transcript(paper.paper_id, paper.title, reviews, rebuttal, re_evaluations,
                      meta_review, paper.attachments)


def render_review_file(transcript: Transcript) -> str:
    """Fill the extraction prompt's review-file slots from a transcript.

    The meta-review has no slot and is never shown to the extractor.
    """
    parts = ["### Initial Review Comments:", ""]
    for k, review in enumerate(transcript.reviews, start=1):
        parts += [f"## Reviewer {k}:", review, ""]
    parts += ["### Author's Responses:", "", "## Author:", transcript.rebuttal, ""]
    parts += ["### Reviewers' Responses:", ""]
    for k, re_evaluation in enumerate(transcript.re_evaluations, start=1):
        parts += [f"## Reviewer {k}:", re_evaluation, ""]
    return "\n".join(parts)


_JSON_DECODER = json.JSONDecoder()
_OBJECT_START = re.compile(r'\{\s*["}]')  # a brace that may open a JSON object


def find_json_object(text: str) -> str | None:
    """The longest span of ``text`` that decodes as a JSON object; models often
    wrap JSON in prose. Each ``{`` outside an object already found is tried as
    the start of one, so a brace inside a string or in the prose is no end.
    The search stops at a span nested deeper than the decoder can follow."""
    best: tuple[int, int] | None = None
    found = _OBJECT_START.search(text)
    while found:
        start = found.start()
        try:
            _value, end = _JSON_DECODER.raw_decode(text, start)
        except ValueError:
            end = start + 1
        except RecursionError:
            break
        else:
            if best is None or end - start > best[1] - best[0]:
                best = (start, end)
        found = _OBJECT_START.search(text, end)
    return None if best is None else text[best[0]:best[1]]


def _ask(client: BaseClient, messages: list[dict[str, str]],
         parse: Callable[[str], object], correction: str) -> object:
    """``parse`` of the completion of ``messages``. If ``parse`` raises
    ``ExtractionError``, ask once more with that reply and ``correction``
    appended; if the second reply fails too, raise ``ExtractionFailed``
    listing both errors."""
    errors: list[str] = []
    for _attempt in range(2):
        reply = client.complete(messages)
        try:
            return parse(reply)
        except ExtractionError as exc:
            errors.append(str(exc))
        messages = messages + [{"role": "assistant", "content": reply},
                               {"role": "user", "content": correction}]
    raise ExtractionFailed(errors)


def extract_triples(transcript: Transcript, client: BaseClient) -> TripleBatch:
    """Prompt for opinion triples over the transcript and parse the reply."""
    messages = [
        {"role": "system", "content": EXTRACTION_SYSTEM},
        {"role": "user", "content": render_review_file(transcript)},
        {"role": "assistant", "content": "Received the review contents."},
        {"role": "user", "content": EXTRACTION_TASK},
    ]

    def parse(reply: str) -> TripleBatch:
        span = find_json_object(reply)
        if span is None:
            raise ExtractionError("no JSON object in reply")
        return parse_triple_batch(span, transcript.paper_id)

    return _ask(client, messages, parse, "Your previous reply could not be parsed. "
                                         "Return only the JSON object.")


def classify_dimensions(batch: TripleBatch, client: BaseClient) -> list[DimensionAssignment]:
    """One classification request per distinct reviewer opinion, one at a
    time, each asked once more if its reply does not parse."""
    keys = reviewer_opinion_keys(batch)

    def classify(key: tuple[str, str]) -> tuple[tuple[str, str], Dimension | str]:
        messages = [
            {"role": "system", "content": CLASSIFY_SYSTEM},
            {"role": "user", "content": f"Comment to classify: {key[1]}"},
        ]
        try:
            return key, _ask(client, messages,
                             lambda reply: parse_dimension_reply(find_json_object(reply) or reply),
                             "Return only JSON with one of the four listed categories.")
        except ExtractionFailed as exc:
            return key, exc.errors[-1]

    results = [classify(key) for key in keys]
    failures = [(speaker, text, outcome) for (speaker, text), outcome in results
                if not isinstance(outcome, Dimension)]
    if failures:
        raise ClassificationFailed(failures)
    return [DimensionAssignment(speaker=speaker, text=text, dimension=outcome)
            for (speaker, text), outcome in results]


#: A binary cache file starts with the magic and the vectors' ``dim``.
_CACHE_MAGIC = b"\x89RGEMB1\n"
_CACHE_HEADER = struct.Struct("<8sI")


class EmbeddingCache:
    """Content-hash-keyed store of text embeddings: ``embed_texts`` requests
    only the texts that the cache does not hold. The ``embed`` command starts
    each paper's cache afresh at ``<path>.tmp``, so ``embed --force`` asks for
    every text again; a rerun without it skips the papers whose cache exists.

    A cache file is an 8-byte magic and a little-endian uint32 ``dim``,
    followed by one fixed-size record per text: its 32-byte ``text_key``,
    then ``dim`` little-endian float64 values, so a vector loads back
    bit-identical. The whole file loads with one read and one
    ``np.frombuffer``, and the vectors stay a read-only view of the bytes
    read. A missing file is an empty cache that ``put`` creates, unless
    ``missing_ok`` is false: then the ``open`` raises
    ``FileNotFoundError``. An empty file is an empty cache. A file with no whole
    header, or whose body is not a whole number of records (a torn write),
    raises ``ValueError``, naming no file; one that does not start like the
    magic, such as a cache of the older JSON-lines form, raises ``OlderForm``.
    """

    def __init__(self, path: str | Path, missing_ok: bool = True) -> None:
        self.path = path
        self.dim: int | None = None  # every vector's length, fixed by the first one
        self._rows: dict[bytes, int] = {}  # digest -> row of the vector block
        self._block = np.empty((0, 0))
        self._added: list[np.ndarray] = []  # rows put since the block was last built
        self._pending: list[bytes] | None = None
        self._has_header = False
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            if missing_ok:
                return
            raise
        if data:
            self._load(data)

    def _load(self, data: bytes) -> None:
        if data[:1] != _CACHE_MAGIC[:1]:  # a byte that never starts UTF-8 text
            raise OlderForm("not a binary embedding cache (an older JSON-lines one?)")
        if len(data) < _CACHE_HEADER.size or not data.startswith(_CACHE_MAGIC):
            raise ValueError("damaged or partial embedding-cache header")
        _magic, self.dim = _CACHE_HEADER.unpack_from(data)
        n, torn = divmod(len(data) - _CACHE_HEADER.size, 32 + 8 * self.dim)
        if torn:
            raise ValueError(f"{torn} bytes after {n} whole records of dim {self.dim} "
                             "(torn write)")
        self._has_header = True
        if n:
            # "V32", not "S32": a bytes field would drop a digest's trailing NUL bytes
            records = np.frombuffer(data, offset=_CACHE_HEADER.size, dtype=[
                ("digest", "V32"), ("vector", "<f8", (self.dim,))])
            self._rows = dict(zip(records["digest"].tolist(), range(n)))
            self._block = records["vector"]

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._rows

    def _vectors(self) -> np.ndarray:
        """The vector block: row ``self._rows[d]`` is digest ``d``'s vector."""
        if self._added:
            self._block = np.concatenate([self._block.reshape(-1, self.dim), self._added])
            self._added = []
        return self._block

    def vectors(self, digests: Sequence[bytes]) -> np.ndarray:
        """The vectors of ``digests``, one row each, taken from the block by one
        index; a digest that is not cached raises ``KeyError`` with its position."""
        rows = self._rows
        try:
            return self._vectors()[[rows[d] for d in digests]]
        except KeyError as exc:
            raise KeyError(list(digests).index(exc.args[0])) from None

    def get(self, text: str) -> np.ndarray | None:
        """A copy of ``text``'s vector, or None if it is not cached."""
        row = self._rows.get(text_key(text))
        return None if row is None else self._vectors()[row].copy()

    def put(self, text: str, vector: np.ndarray, key: bytes | None = None) -> None:
        """Store a vector unless its text is cached; its record is appended now,
        or at the end of the enclosing ``put_many``. A caller that has hashed
        the text already passes its digest as ``key``. A vector whose length is
        not the cache's ``dim`` raises ``InconsistentDimension``."""
        d = text_key(text) if key is None else key
        if d in self._rows:
            return
        v = np.asarray(vector, dtype=np.float64)
        if v.ndim != 1 or self.dim not in (None, v.shape[0]):
            raise InconsistentDimension(f"vector of shape {v.shape} for a cache of dim {self.dim}")
        self.dim = v.shape[0]
        self._rows[d] = len(self._block) + len(self._added)
        self._added.append(v)
        record = d + v.astype("<f8").tobytes()
        if self._pending is not None:
            self._pending.append(record)
        else:
            self._write([record])

    def put_many(self, items: Iterable[tuple[str, np.ndarray, bytes]]) -> None:
        """``put`` each (text, vector, digest); their records go out in one
        write. If one raises, the cache is left as it was and nothing is written."""
        rows, n_added, dim = dict(self._rows), len(self._added), self.dim
        self._pending = []
        try:
            for text, vector, key in items:
                self.put(text, vector, key)
            records = self._pending
        except BaseException:
            self._rows, self.dim = rows, dim
            del self._added[n_added:]
            raise
        finally:
            self._pending = None
        self._write(records)

    def _write(self, records: list[bytes]) -> None:
        if not records:
            return
        head = b"" if self._has_header else _CACHE_HEADER.pack(_CACHE_MAGIC, self.dim)
        with open(self.path, "ab") as fh:
            fh.write(head + b"".join(records))
        self._has_header = True

    def __len__(self) -> int:
        return len(self._rows)


def embed_texts(texts: Sequence[str], client: BaseClient, cache: EmbeddingCache
                ) -> list[np.ndarray]:
    """One vector per input text; cached texts are not re-requested. The new
    vectors go into the cache in one ``put_many``, so a vector whose length
    is not the cache's (or its batch's) raises ``InconsistentDimension`` and
    leaves the cache as it was."""
    digests = list(map(text_key, texts))
    missing = {d: t for d, t in zip(digests, texts) if d not in cache}
    fetched = dict(zip(missing, client.embed(list(missing.values())))) if missing else {}
    hits = iter(cache.vectors([d for d in digests if d not in fetched]))
    out = [fetched[d] if d in fetched else next(hits) for d in digests]
    cache.put_many((missing[d], v, d) for d, v in fetched.items())
    return out
