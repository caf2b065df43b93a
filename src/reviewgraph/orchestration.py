"""LLM pipeline stages: debate simulation, triple extraction, dimension
classification, and text embedding, behind a pluggable chat/embedding client.

The HTTP client speaks chat-completion-style JSON; the mock client implements
the same interface with deterministic keyword-rule outputs and never touches
the network, so the whole pipeline runs offline and reproducibly.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
import requests

from .extraction import (
    DimensionAssignment,
    ExtractionError,
    TripleBatch,
    normalize_text,
    parse_dimension_reply,
    parse_triple_batch,
    reviewer_opinion_keys,
)
from .graph import DIMENSION_LABELS, Dimension


class OrchestrationError(Exception):
    pass


class EndpointError(OrchestrationError):
    pass


class EmptyCompletion(OrchestrationError):
    pass


class ExtractionFailed(OrchestrationError):
    pass


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


class IncompleteTranscript(OrchestrationError):
    """A transcript that lacks one of the debate stages extraction reads."""


class CorruptCache(OrchestrationError):
    """An embedding-cache line that does not decode; the message is ``path:line: reason``."""


class TransportError(OrchestrationError):
    """Transient endpoint failure; retried up to the configured limit."""


class AgentRole(Enum):
    REVIEWER_1 = "reviewer_1"
    REVIEWER_2 = "reviewer_2"
    REVIEWER_3 = "reviewer_3"
    AUTHOR = "author"
    SENIOR_REVIEWER = "senior_reviewer"


REVIEWER_ROLES = (AgentRole.REVIEWER_1, AgentRole.REVIEWER_2, AgentRole.REVIEWER_3)


class DebateStage(Enum):
    INITIAL_REVIEW = "initial_review"
    AUTHOR_REBUTTAL = "author_rebuttal"
    RE_EVALUATION = "re_evaluation"
    META_REVIEW = "meta_review"


@dataclass(frozen=True)
class AgentMessage:
    role: AgentRole
    content: str
    attachments: tuple[str, ...] = ()


@dataclass(frozen=True)
class StageRecord:
    stage: DebateStage
    messages: tuple[AgentMessage, ...]


@dataclass(frozen=True)
class Transcript:
    paper_id: str
    title: str
    stages: tuple[StageRecord, ...]

    def stage(self, stage: DebateStage) -> StageRecord | None:
        for s in self.stages:
            if s.stage == stage:
                return s
        return None


def transcript_to_dict(t: Transcript) -> dict:
    return {
        "paper_id": t.paper_id,
        "title": t.title,
        "stages": [
            {
                "stage": s.stage.value,
                "messages": [
                    {
                        "role": m.role.value,
                        "content": m.content,
                        "attachments": list(m.attachments),
                    }
                    for m in s.messages
                ],
            }
            for s in t.stages
        ],
    }


def transcript_from_dict(d: dict) -> Transcript:
    return Transcript(
        paper_id=d["paper_id"],
        title=d["title"],
        stages=tuple(
            StageRecord(
                stage=DebateStage(s["stage"]),
                messages=tuple(
                    AgentMessage(
                        role=AgentRole(m["role"]),
                        content=m["content"],
                        attachments=tuple(m.get("attachments", ())),
                    )
                    for m in s["messages"]
                ),
            )
            for s in d["stages"]
        ),
    )


def save_transcript(t: Transcript, path: str | Path) -> None:
    Path(path).write_text(json.dumps(transcript_to_dict(t), indent=2, sort_keys=True) + "\n")


def load_transcript(path: str | Path) -> Transcript:
    return transcript_from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class PaperInput:
    paper_id: str
    title: str
    body: str
    attachments: tuple[str, ...] = ()


def load_paper(path: str | Path) -> PaperInput:
    d = json.loads(Path(path).read_text())
    return PaperInput(
        paper_id=d["paper_id"],
        title=d["title"],
        body=d["body"],
        attachments=tuple(d.get("attachments", ())),
    )


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
        if self.max_concurrent < 1 or self.retry_limit < 0:
            raise OrchestrationError("need max_concurrent >= 1 and retry_limit >= 0")


class BaseClient:
    """Shared retry/backoff and concurrency bookkeeping for all clients."""

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

    def _track_enter(self) -> None:
        with self._lock:
            self._in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self._in_flight)

    def _track_exit(self) -> None:
        with self._lock:
            self._in_flight -= 1

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
        with self._semaphore:
            self._track_enter()
            try:
                out = self._with_retries(lambda: self._complete_once(messages))
            finally:
                self._track_exit()
        with self._lock:
            self.chat_requests += 1
        if not str(out).strip():
            raise EmptyCompletion("endpoint returned an empty completion")
        return str(out)

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        with self._semaphore:
            self._track_enter()
            try:
                out = self._with_retries(lambda: self._embed_once(list(texts)))
            finally:
                self._track_exit()
        with self._lock:
            self.embed_requests += 1
        return [np.asarray(v, dtype=np.float64) for v in out]

    def _complete_once(self, messages: list[dict[str, str]]) -> str:
        raise NotImplementedError

    def _embed_once(self, texts: list[str]) -> list[list[float]]:
        raise NotImplementedError


class HttpChatClient(BaseClient):
    """Chat-completion-style JSON-over-HTTPS client."""

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _complete_once(self, messages: list[dict[str, str]]) -> str:
        try:
            resp = requests.post(
                f"{self.config.base_url.rstrip('/')}/chat/completions",
                json={"model": self.config.model, "messages": messages},
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
            return resp.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, ValueError) as exc:
            raise EndpointError(f"malformed completion payload: {exc}") from exc

    def _embed_once(self, texts: list[str]) -> list[list[float]]:
        try:
            resp = requests.post(
                f"{self.config.base_url.rstrip('/')}/embeddings",
                json={"model": self.config.model, "input": texts},
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
            data = resp.json()["data"]
            return [row["embedding"] for row in data]
        except (KeyError, TypeError, ValueError) as exc:
            raise EndpointError(f"malformed embedding payload: {exc}") from exc


# deterministic opinion banks for the mock reviewers; every sentence carries a
# keyword the mock classifier maps back to its dimension, and none contains
# characters that would break the triple format
_MOCK_OPINIONS = [
    ("The proposed method offers limited methodological novelty over established approaches.",
     Dimension.METHODOLOGICAL_NOVELTY),
    ("The core idea is novel and clearly differentiated from prior techniques.",
     Dimension.METHODOLOGICAL_NOVELTY),
    ("The experimental evaluation covers too few datasets to support the claims.",
     Dimension.EXPERIMENTAL_COMPLETENESS),
    ("The experiments are thorough and include convincing baseline comparisons.",
     Dimension.EXPERIMENTAL_COMPLETENESS),
    ("The motivation for the central design choice is not clearly articulated.",
     Dimension.MOTIVATION_CLARITY),
    ("The problem motivation is compelling and well grounded in practice.",
     Dimension.MOTIVATION_CLARITY),
    ("The writing is dense and several passages are hard to follow.",
     Dimension.WRITING_FLUENCY),
    ("The paper is well written with a clear and readable structure.",
     Dimension.WRITING_FLUENCY),
]

_MOCK_RA_LABELS = ("Accept", "Clarify", "Compromise", "Extend", "Reject", "Neutral")
_MOCK_IR_LABELS = ("Agree", "Complement", "Independent", "Disagree", "Progressive")


def _stable_hash(*parts: object) -> int:
    digest = hashlib.sha256("\x00".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


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
        return [_MOCK_OPINIONS[first][0], _MOCK_OPINIONS[second][0]]

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


def simulate_debate(
    paper: PaperInput,
    client: BaseClient,
    *,
    include_meta_review: bool = True,
    review_guidelines: str = DEFAULT_REVIEW_GUIDELINES,
    author_guidelines: str = DEFAULT_AUTHOR_GUIDELINES,
    chair_guidelines: str = DEFAULT_CHAIR_GUIDELINES,
) -> Transcript:
    """Run the staged reviewer-author conversation and record it verbatim.

    Stages: three initial reviews, one author rebuttal, three re-evaluations,
    and (optionally) a senior-reviewer meta-review; 8 chat requests total.
    """
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

    initial: list[AgentMessage] = []
    for k, role in enumerate(REVIEWER_ROLES, start=1):
        history.append(
            {"role": "user",
             "content": REVIEWER_PROMPT.format(guidelines=review_guidelines, k=k)}
        )
        review = client.complete(history)
        history.append({"role": "assistant", "content": review})
        initial.append(AgentMessage(role=role, content=review, attachments=paper.attachments
                                    if k == 1 else ()))

    history.append({"role": "user", "content": AUTHOR_PROMPT.format(guidelines=author_guidelines)})
    rebuttal = client.complete(history)
    history.append({"role": "assistant", "content": rebuttal})

    reeval: list[AgentMessage] = []
    for k, role in enumerate(REVIEWER_ROLES, start=1):
        history.append({"role": "user", "content": REEVALUATION_PROMPT.format(k=k)})
        response = client.complete(history)
        history.append({"role": "assistant", "content": response})
        reeval.append(AgentMessage(role=role, content=response))

    stages = [
        StageRecord(DebateStage.INITIAL_REVIEW, tuple(initial)),
        StageRecord(DebateStage.AUTHOR_REBUTTAL,
                    (AgentMessage(AgentRole.AUTHOR, rebuttal),)),
        StageRecord(DebateStage.RE_EVALUATION, tuple(reeval)),
    ]
    if include_meta_review:
        history.append(
            {"role": "user", "content": SENIOR_PROMPT.format(guidelines=chair_guidelines)}
        )
        meta = client.complete(history)
        stages.append(
            StageRecord(DebateStage.META_REVIEW,
                        (AgentMessage(AgentRole.SENIOR_REVIEWER, meta),))
        )
    return Transcript(paper_id=paper.paper_id, title=paper.title, stages=tuple(stages))


def render_review_file(transcript: Transcript) -> str:
    """Fill the extraction prompt's review-file slots from a transcript.

    The meta-review has no slot and is never shown to the extractor.
    """
    initial = transcript.stage(DebateStage.INITIAL_REVIEW)
    rebuttal = transcript.stage(DebateStage.AUTHOR_REBUTTAL)
    reeval = transcript.stage(DebateStage.RE_EVALUATION)
    if initial is None or rebuttal is None or reeval is None:
        raise IncompleteTranscript("transcript is missing a mandatory stage")

    parts = ["### Initial Review Comments:", ""]
    for k, m in enumerate(initial.messages, start=1):
        parts += [f"## Reviewer {k}:", m.content, ""]
    parts += ["### Author's Responses:", ""]
    for m in rebuttal.messages:
        parts += ["## Author:", m.content, ""]
    parts += ["### Reviewers' Responses:", ""]
    for k, m in enumerate(reeval.messages, start=1):
        parts += [f"## Reviewer {k}:", m.content, ""]
    return "\n".join(parts)


def find_json_object(text: str) -> str | None:
    """Longest balanced {...} span; models often wrap JSON in prose."""
    best: tuple[int, int] | None = None
    depth = 0
    start = -1
    for i, ch in enumerate(text):
        if ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}" and depth > 0:
            depth -= 1
            if depth == 0 and start >= 0:
                if best is None or i - start > best[1] - best[0]:
                    best = (start, i + 1)
    if best is None:
        return None
    return text[best[0]:best[1]]


def extract_triples(transcript: Transcript, client: BaseClient) -> TripleBatch:
    """Prompt for opinion triples over the transcript and parse the reply."""
    review_file = render_review_file(transcript)
    messages = [
        {"role": "system", "content": EXTRACTION_SYSTEM},
        {"role": "user", "content": review_file},
        {"role": "assistant", "content": "Received the review contents."},
        {"role": "user", "content": EXTRACTION_TASK},
    ]
    errors = []
    for attempt in range(2):
        reply = client.complete(messages)
        span = find_json_object(reply)
        if span is not None:
            try:
                return parse_triple_batch(span, transcript.paper_id)
            except ExtractionError as exc:
                errors.append(str(exc))
        else:
            errors.append("no JSON object in reply")
        if attempt == 0:
            messages = messages + [
                {"role": "assistant", "content": reply},
                {"role": "user",
                 "content": "Your previous reply could not be parsed. "
                            "Return only the JSON object."},
            ]
    raise ExtractionFailed(f"both attempts unparseable: {errors}")


def classify_dimensions(
    batch: TripleBatch, client: BaseClient, jobs: int = 1
) -> list[DimensionAssignment]:
    """One classification request per distinct reviewer opinion, with one retry."""
    keys = reviewer_opinion_keys(batch)

    def classify(key: tuple[str, str]) -> tuple[tuple[str, str], Dimension | str]:
        speaker, text = key
        messages = [
            {"role": "system", "content": CLASSIFY_SYSTEM},
            {"role": "user", "content": f"Comment to classify: {text}"},
        ]
        last_err = ""
        for attempt in range(2):
            reply = client.complete(messages)
            span = find_json_object(reply) or reply
            try:
                return key, parse_dimension_reply(span)
            except ExtractionError as exc:
                last_err = str(exc)
                messages = messages + [
                    {"role": "assistant", "content": reply},
                    {"role": "user",
                     "content": "Return only JSON with one of the four listed categories."},
                ]
        return key, last_err

    if jobs > 1 and len(keys) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(classify, keys))
    else:
        results = [classify(k) for k in keys]

    assignments: list[DimensionAssignment] = []
    failures: list[tuple[str, str, str]] = []
    for (speaker, text), outcome in results:
        if isinstance(outcome, Dimension):
            assignments.append(DimensionAssignment(speaker=speaker, text=text,
                                                   dimension=outcome))
        else:
            failures.append((speaker, text, outcome))
    if failures:
        raise ClassificationFailed(failures)
    return assignments


class EmbeddingCache:
    """Content-hash-keyed JSONL store; reruns issue no duplicate requests.

    One line per vector: ``{"sha256", "dim", "f64le"}``, where ``f64le`` is the
    base64 of the vector's little-endian float64 bytes, so a vector loads back
    bit-identical without parsing decimal text. Lines in the older
    ``{"sha256", "dim", "vector": [floats]}`` form still load. A line that does
    not decode, including a torn last line, raises ``CorruptCache``.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._store: dict[str, np.ndarray] = {}
        self._pending: list[str] | None = None
        if self.path is not None and self.path.exists():
            data = self.path.read_bytes()
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                lineno = data.count(b"\n", 0, exc.start) + 1
                raise CorruptCache(f"{self.path}:{lineno}: not UTF-8 text") from None
            lines = text.split("\n")
            for lineno, line in enumerate(lines, start=1):
                if line.strip():
                    key, vector = _decode_cache_line(line, self.path, lineno)
                    self._store[key] = vector
            if text and not text.endswith("\n"):
                raise CorruptCache(f"{self.path}:{len(lines)}: last line has no newline "
                                   "(torn write)")

    @staticmethod
    def key(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def get(self, text: str) -> np.ndarray | None:
        return self._store.get(self.key(text))

    def put(self, text: str, vector: np.ndarray) -> None:
        """Store a vector unless its text is cached; its line is appended now,
        or at the end of the enclosing ``put_many``."""
        k = self.key(text)
        if k in self._store:
            return
        v = np.asarray(vector, dtype=np.float64)
        self._store[k] = v
        if self.path is None:
            return
        line = json.dumps({
            "sha256": k, "dim": int(v.shape[0]),
            "f64le": base64.b64encode(v.astype("<f8").tobytes()).decode("ascii"),
        }) + "\n"
        if self._pending is not None:
            self._pending.append(line)
        else:
            self._append([line])

    def put_many(self, items: Iterable[tuple[str, np.ndarray]]) -> None:
        """``put`` each (text, vector) pair; their lines go out in one write."""
        self._pending = []
        try:
            for text, vector in items:
                self.put(text, vector)
        finally:
            lines, self._pending = self._pending, None
            self._append(lines)

    def _append(self, lines: list[str]) -> None:
        if lines:
            with open(self.path, "a") as fh:
                fh.write("".join(lines))

    def __len__(self) -> int:
        return len(self._store)


def _decode_cache_line(line: str, path: Path, lineno: int) -> tuple[str, np.ndarray]:
    """(sha256, vector) of one cache line; errors name ``path:lineno``."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorruptCache(f"{path}:{lineno}: not valid JSON ({exc})") from None
    if not isinstance(rec, dict) or not isinstance(rec.get("sha256"), str):
        raise CorruptCache(f"{path}:{lineno}: missing 'sha256'")
    if "f64le" not in rec and "vector" not in rec:
        raise CorruptCache(f"{path}:{lineno}: missing 'f64le' (and no 'vector')")
    try:
        if "f64le" in rec:
            raw = base64.b64decode(rec["f64le"], validate=True)
            vector = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        else:
            vector = np.array(rec["vector"], dtype=np.float64)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise CorruptCache(f"{path}:{lineno}: vector does not decode ({exc})") from None
    if vector.shape != (rec.get("dim"),):
        raise CorruptCache(
            f"{path}:{lineno}: decoded {vector.size} values but 'dim' is {rec.get('dim')!r}")
    return rec["sha256"], vector


def embed_texts(
    texts: Sequence[str],
    client: BaseClient,
    cache: EmbeddingCache | None = None,
) -> list[np.ndarray]:
    """One vector per input text; cached texts are not re-requested."""
    if cache is None:
        cache = EmbeddingCache()
    missing: list[str] = []
    seen: set[str] = set()
    for t in texts:
        if cache.get(t) is None and t not in seen:
            seen.add(t)
            missing.append(t)
    if missing:
        vectors = client.embed(missing)
        dims = {v.shape[0] for v in vectors}
        if len(dims) > 1:
            raise InconsistentDimension(f"embedding dimensions differ: {sorted(dims)}")
        cache.put_many(zip(missing, vectors))
    out = []
    for t in texts:
        v = cache.get(t)
        assert v is not None
        out.append(v)
    dims = {v.shape[0] for v in out}
    if len(dims) > 1:
        raise InconsistentDimension(f"embedding dimensions differ: {sorted(dims)}")
    return out
