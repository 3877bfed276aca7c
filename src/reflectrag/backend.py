"""Generative backends: constrained decoding with per-candidate logprobs.

The pipeline never touches model weights; it talks to a backend that accepts
a segment-list prompt, an optional vocabulary restriction, and an optional
token budget, and returns emitted tokens with per-step log-probabilities.
Two implementations ship here: a deterministic scripted mock for hermetic
runs, and an HTTP client for a live model server.

Wire protocol (POST {endpoint}/v1/generate)::

    request  {"segments": [{"kind": str, "payload": str}],
              "allowed_tokens": [str] | null, "max_tokens": int | null}
    response {"tokens": [str], "chosen_logprobs": [float],
              "candidates": [{token: logprob}, ...]}

Both halves live here. Client: :class:`RemoteBackend` writes a step's
request body straight from the prompt's segments, the bytes ``json.dumps``
writes for the request object, sends it and validates the response; a
wrong shape or JSON type is a :class:`ProtocolViolationError`. Server:
:func:`serve_generate` runs a request on any backend and returns the
response body; a request of the wrong shape is a
:class:`GenerateRequestError`, answered with HTTP 400. A
well-formed step that the server's backend cannot produce (it raised a
:class:`BackendError`) is answered with HTTP 422 and ``{"error": str}``;
the client raises it as a :class:`BackendError`, so it costs one judgment,
not the sample. Any other 4xx is a :class:`RemoteServiceError`.

A client may pipeline steps: :meth:`RemoteBackend.constrained_generate_each`
deals a sample's relevance judgments over up to four keep-alive connections
and writes them before reading any reply, so a server must answer a
connection's requests in the order they arrived, as HTTP/1.1 requires, and
serves the judgments at once when it serves its connections side by side.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Callable, Iterable, Mapping, Protocol, Sequence

from ._http import MalformedResponseError, RemoteServiceError, ServiceClient, TransportError
from .prompts import PromptSegment, SegmentKind, prompt_fingerprint
from .tokens import CONTROL_TOKENS
from .util import is_json_numbers

logger = logging.getLogger(__name__)

# Constrained single-token steps ought to renormalize over the restricted
# vocabulary, but real servers report slightly unnormalized values; allow a
# small overshoot instead of rejecting them.
PROBABILITY_SUM_SLACK = 1e-2
# A single candidate above this would alone overshoot the slack; rejecting it
# first also keeps ``math.exp`` from overflowing on a huge logprob.
MAX_CANDIDATE_LOGPROB = math.log1p(PROBABILITY_SUM_SLACK)


class BackendError(Exception):
    pass


class ProtocolViolationError(BackendError):
    """Backend emitted a token outside the allowed vocabulary."""


class ConformanceError(BackendError):
    """Backend does not declare all required control tokens."""


class UnscriptedPromptError(BackendError):
    def __init__(self, fingerprint: str, detail: str = ""):
        msg = f"no script registered for prompt fingerprint {fingerprint}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.fingerprint = fingerprint


class ScriptError(BackendError):
    pass


@dataclass(frozen=True)
class GenerationResult:
    """Tokens plus per-step log-probabilities.

    ``candidate_logprobs[i]`` maps each permitted token at step i to its
    log-probability; the chosen token is always present in its step map.
    """

    tokens: tuple[str, ...]
    chosen_logprobs: tuple[float, ...]
    candidate_logprobs: tuple[Mapping[str, float], ...]

    @property
    def text(self) -> str:
        return "".join(self.tokens)


def validate_generation_result(
    result: GenerationResult, allowed: frozenset[str] | None
) -> None:
    if not (len(result.tokens) == len(result.chosen_logprobs) == len(result.candidate_logprobs)):
        raise ProtocolViolationError(
            "tokens, chosen_logprobs and candidates must be aligned"
        )
    for step, (tok, logp, cands) in enumerate(
        zip(result.tokens, result.chosen_logprobs, result.candidate_logprobs)
    ):
        if allowed is not None and tok not in allowed:
            raise ProtocolViolationError(
                f"step {step}: token {tok!r} outside allowed vocabulary"
            )
        if tok not in cands:
            raise ProtocolViolationError(
                f"step {step}: chosen token {tok!r} missing from candidate map"
            )
        if not (math.isfinite(logp) and all(map(math.isfinite, cands.values()))):
            raise ProtocolViolationError(f"step {step}: non-finite logprob")
        top = max(cands.values())
        if top > MAX_CANDIDATE_LOGPROB:
            raise ProtocolViolationError(
                f"step {step}: candidate logprob {top!r} implies a probability above 1"
            )
        total = sum(math.exp(lp) for lp in cands.values())
        if total > 1.0 + PROBABILITY_SUM_SLACK:
            raise ProtocolViolationError(
                f"step {step}: candidate probabilities sum to {total:.4f} > 1"
            )


class GenerativeBackend(Protocol):
    """Shareable across threads; one call per constrained decoding step.

    A backend whose class sets ``deterministic = True`` promises the same
    result for the same (prompt, allowed, max_tokens) step, so the engine
    may answer a sample's repeated step from memory
    (:meth:`~reflectrag.engine.ReflectiveEngine.with_step_memo`). One that
    sets ``in_process = True`` promises that a step never waits outside the
    interpreter (no I/O, no native code that releases the lock), so threads
    cannot overlap its steps and an evaluation runs them on the calling
    thread (:func:`~reflectrag.harness.evaluate_configs`). A backend may also
    take independent steps together, as :func:`generate_each` describes.
    """

    control_tokens: frozenset[str]

    def constrained_generate(
        self,
        prompt: Sequence[PromptSegment],
        allowed: Iterable[str] | None = None,
        max_tokens: int | None = None,
    ) -> GenerationResult: ...


def check_backend_conformance(backend: GenerativeBackend) -> None:
    """All four reflective tokens plus the paragraph markers must be declared."""
    missing = CONTROL_TOKENS - frozenset(backend.control_tokens)
    if missing:
        raise ConformanceError(
            f"backend does not declare control tokens: {sorted(missing)}"
        )


# --------------------------------------------------------------------------
# Scripted mock
# --------------------------------------------------------------------------

PromptMatcher = Callable[[Sequence[PromptSegment]], bool]


def match_fingerprint(fingerprint: str) -> PromptMatcher:
    return lambda prompt: prompt_fingerprint(prompt) == fingerprint


def match_user_text(text: str) -> PromptMatcher:
    return lambda prompt: any(
        s.kind is SegmentKind.USER_TEXT and s.payload == text for s in prompt
    )


def match_user_text_contains(fragment: str) -> PromptMatcher:
    return lambda prompt: any(
        s.kind is SegmentKind.USER_TEXT and fragment in s.payload for s in prompt
    )


def match_passage_contains(fragment: str) -> PromptMatcher:
    return lambda prompt: any(
        s.kind is SegmentKind.PASSAGE_BLOCK and fragment in s.payload for s in prompt
    )


def match_all(*matchers: PromptMatcher) -> PromptMatcher:
    return lambda prompt: all(m(prompt) for m in matchers)


@dataclass(frozen=True)
class ScriptedResponse:
    """What the scripted model 'wants' to emit for a matching prompt.

    ``candidates[i]`` is the step-i distribution over tokens the script knows
    about; omitted steps default to certainty on the scripted token.
    """

    tokens: tuple[str, ...]
    candidates: tuple[Mapping[str, float], ...] | None = None


@dataclass
class _ScriptRule:
    matcher: PromptMatcher
    allowed: frozenset[str] | None  # None = matches any vocabulary restriction
    response: ScriptedResponse | None
    failure: str | None = None


class MockBackend:
    """Deterministic scripted backend for hermetic pipeline runs.

    Rules are tried in registration order; the first whose matcher accepts
    the prompt (and whose ``allowed`` guard, if any, equals the call's
    restriction) wins. Register everything up front: the rule list is
    read-only during generation, so concurrent calls are safe.
    """

    deterministic = True
    in_process = True

    def __init__(self, control_tokens: Iterable[str] = CONTROL_TOKENS):
        self.control_tokens = frozenset(control_tokens)
        self._rules: list[_ScriptRule] = []

    def register_script(
        self,
        matcher: PromptMatcher,
        response: ScriptedResponse,
        allowed: Iterable[str] | None = None,
    ) -> None:
        guard = None if allowed is None else frozenset(allowed)
        self._rules.append(_ScriptRule(matcher, guard, response))

    def register_failure(
        self,
        matcher: PromptMatcher,
        message: str,
        allowed: Iterable[str] | None = None,
    ) -> None:
        """Inject a backend error for matching calls (fault testing)."""
        guard = None if allowed is None else frozenset(allowed)
        self._rules.append(_ScriptRule(matcher, guard, None, failure=message))

    def _find(
        self, prompt: Sequence[PromptSegment], allowed: frozenset[str] | None
    ) -> _ScriptRule:
        for rule in self._rules:
            if rule.allowed is not None and rule.allowed != allowed:
                continue
            if rule.matcher(prompt):
                return rule
        user_texts = [s.payload for s in prompt if s.kind is SegmentKind.USER_TEXT]
        raise UnscriptedPromptError(
            prompt_fingerprint(prompt),
            f"allowed={sorted(allowed) if allowed else None} user_text={user_texts!r}",
        )

    def constrained_generate(
        self,
        prompt: Sequence[PromptSegment],
        allowed: Iterable[str] | None = None,
        max_tokens: int | None = None,
    ) -> GenerationResult:
        allowed_set = None if allowed is None else frozenset(allowed)
        rule = self._find(prompt, allowed_set)
        if rule.failure is not None:
            raise BackendError(rule.failure)
        response = rule.response
        assert response is not None
        limit = len(response.tokens)
        if max_tokens is not None:
            limit = min(limit, max_tokens)
        tokens: list[str] = []
        chosen_logprobs: list[float] = []
        candidate_maps: list[dict[str, float]] = []
        for step in range(limit):
            wanted = response.tokens[step]
            cands = dict(
                response.candidates[step]
                if response.candidates is not None and step < len(response.candidates)
                else {wanted: 0.0}
            )
            if allowed_set is not None:
                cands = {t: lp for t, lp in cands.items() if t in allowed_set}
                if not cands:
                    raise ScriptError(
                        f"step {step}: script candidates are disjoint from the "
                        f"allowed vocabulary {sorted(allowed_set)}"
                    )
            # Server-side constraint enforcement: honor the scripted token if
            # permitted, otherwise fall back to the best permitted candidate
            # (ties resolve to the earliest-listed token).
            chosen = wanted if wanted in cands else max(cands, key=lambda t: cands[t])
            tokens.append(chosen)
            chosen_logprobs.append(cands[chosen])
            candidate_maps.append(cands)
        result = GenerationResult(
            tokens=tuple(tokens),
            chosen_logprobs=tuple(chosen_logprobs),
            candidate_logprobs=tuple(candidate_maps),
        )
        validate_generation_result(result, allowed_set)
        return result


def load_script_file(backend: MockBackend, path: str | Path) -> int:
    """Register scripts from a JSON file; returns the number registered.

    Format: a list of entries ``{"match": {...}, "allowed": [...] | null,
    "tokens": [...], "candidates": [{tok: logprob}, ...] | null}`` where
    ``match`` may combine ``user_text``, ``user_text_contains``,
    ``passage_contains`` and ``fingerprint`` conditions (all must hold).
    A malformed file or entry raises :class:`ScriptError` naming the path and
    the entry's index.
    """
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScriptError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(entries, list):
        raise ScriptError(f"{path}: script file must contain a JSON list")
    for i, entry in enumerate(entries):
        if problem := _script_entry_problem(entry):
            raise ScriptError(f"{path}: entry {i}: {problem}")
        match_spec = entry.get("match", {})
        matchers: list[PromptMatcher] = []
        if "user_text" in match_spec:
            matchers.append(match_user_text(match_spec["user_text"]))
        if "user_text_contains" in match_spec:
            matchers.append(match_user_text_contains(match_spec["user_text_contains"]))
        if "passage_contains" in match_spec:
            matchers.append(match_passage_contains(match_spec["passage_contains"]))
        if "fingerprint" in match_spec:
            matchers.append(match_fingerprint(match_spec["fingerprint"]))
        if not matchers:
            raise ScriptError(f"{path}: entry {i} has no match conditions")
        candidates = entry.get("candidates")
        response = ScriptedResponse(
            tokens=tuple(entry["tokens"]),
            candidates=None
            if candidates is None
            else tuple({k: float(v) for k, v in c.items()} for c in candidates),
        )
        backend.register_script(
            match_all(*matchers), response, allowed=entry.get("allowed")
        )
    return len(entries)


def _script_entry_problem(entry) -> str | None:
    """What is wrong with the shape of a script file's entry, if anything.
    Types are exact, as :func:`_json_typed` checks them."""
    if type(entry) is not dict:
        return "an entry must be a JSON object"
    if type(entry.get("match", {})) is not dict:
        return "match must be a JSON object"
    strs = lambda v: type(v) is list and set(map(type, v)) <= {str}  # noqa: E731
    if not strs(entry.get("tokens")):
        return "tokens must be a list of strings"
    if entry.get("allowed") is not None and not strs(entry["allowed"]):
        return "allowed must be null or a list of strings"
    candidates = entry.get("candidates")
    if candidates is not None and not (
        type(candidates) is list
        and all(type(c) is dict and is_json_numbers([*c.values()]) for c in candidates)
    ):
        return "candidates must be null or a list of objects of JSON numbers"
    return None


# --------------------------------------------------------------------------
# Remote client
# --------------------------------------------------------------------------


def _json_typed(value, *types: type):
    """``value`` if its exact type is one of ``types``, else :class:`TypeError`.

    Exact, so that a JSON ``true`` is not the number 1; ``float()`` would
    also take the string ``"-0.1"``, and raises :class:`OverflowError` on a
    JSON integer beyond the float range.
    """
    if type(value) not in types:
        raise TypeError(f"expected {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


class RemoteBackend:
    """Adapter from the generation protocol to a model server's
    ``/v1/generate`` route.

    Transport failures retry with exponential backoff inside the
    :class:`ServiceClient`. A response containing a token outside the
    allowed set is a protocol violation, never silently accepted.
    """

    def __init__(
        self, client: ServiceClient, control_tokens: Iterable[str] = CONTROL_TOKENS
    ):
        self.client = client
        self.control_tokens = frozenset(control_tokens)

    def constrained_generate(
        self,
        prompt: Sequence[PromptSegment],
        allowed: Iterable[str] | None = None,
        max_tokens: int | None = None,
    ) -> GenerationResult:
        allowed_set = None if allowed is None else frozenset(allowed)
        try:
            body = self.client.post(
                "/v1/generate", _generate_bodies([prompt], allowed_set, max_tokens)[0]
            )
        except RemoteServiceError as exc:
            body = exc
        return _generation_result(body, allowed_set)

    def constrained_generate_each(
        self,
        prompts: Sequence[Sequence[PromptSegment]],
        allowed: Iterable[str] | None = None,
        max_tokens: int | None = None,
    ) -> list[GenerationResult | BackendError]:
        """One step per prompt, pipelined over up to :data:`_http.LANES`
        connections (:meth:`ServiceClient.post_all`); a step the server
        could not produce, or answered malformed, is its
        :class:`BackendError`. Any other error of a step is raised, the
        first in prompt order."""
        allowed_set = None if allowed is None else frozenset(allowed)
        bodies = self.client.post_all(
            "/v1/generate", _generate_bodies(prompts, allowed_set, max_tokens)
        )
        results: list[GenerationResult | BackendError] = []
        for body in bodies:
            try:
                results.append(_generation_result(body, allowed_set))
            except BackendError as exc:
                results.append(exc)
        return results


# Each segment's JSON object up to its payload, as json.dumps writes it.
_SEGMENT_HEADS = {k: '{"kind": %s, "payload": ' % _escape(k.value) for k in SegmentKind}


def _generate_bodies(
    prompts: Iterable[Sequence[PromptSegment]],
    allowed: frozenset[str] | None,
    max_tokens: int | None,
) -> list[bytes]:
    """The request body of each prompt's step: byte for byte what
    ``json.dumps(request, allow_nan=False)`` writes for the request object of
    the wire protocol, with each payload escaped as ``json.dumps`` does."""
    tail = json.dumps(
        {"allowed_tokens": None if allowed is None else sorted(allowed), "max_tokens": max_tokens},
        allow_nan=False,
    )[1:]
    bodies = []
    for prompt in prompts:
        segments = ", ".join([_SEGMENT_HEADS[s.kind] + _escape(s.payload) + "}" for s in prompt])
        bodies.append(f'{{"segments": [{segments}], {tail}'.encode())
    return bodies


def _generation_result(
    body: dict | Exception, allowed: frozenset[str] | None
) -> GenerationResult:
    """The validated result of one ``/v1/generate`` response body, or the
    step's error raised: HTTP 422 as :class:`BackendError`, a malformed body
    as :class:`ProtocolViolationError`, anything else as it is."""
    if isinstance(body, MalformedResponseError):
        raise ProtocolViolationError(f"malformed generation response: {body}") from body
    if isinstance(body, RemoteServiceError) and body.status == 422:
        raise BackendError(f"server could not produce the step: {body}") from body
    if isinstance(body, Exception):
        raise body
    try:
        result = GenerationResult(
            tokens=tuple(_json_typed(t, str) for t in body["tokens"]),
            chosen_logprobs=tuple(
                float(_json_typed(x, int, float)) for x in body["chosen_logprobs"]
            ),
            candidate_logprobs=tuple(
                {k: float(_json_typed(v, int, float)) for k, v in c.items()}
                for c in body["candidates"]
            ),
        )
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolViolationError(f"malformed generation response: {exc}") from exc
    validate_generation_result(result, allowed)
    return result


def generate_each(
    backend: GenerativeBackend,
    prompts: Sequence[Sequence[PromptSegment]],
    allowed: Iterable[str] | None = None,
    max_tokens: int | None = None,
) -> list[GenerationResult | BackendError]:
    """One step per prompt, in order; a step that raised :class:`BackendError`
    is its error, and any other error is raised. A backend with a
    ``constrained_generate_each`` takes all the steps at once."""
    each = getattr(backend, "constrained_generate_each", None)
    if each is not None:
        return each(prompts, allowed, max_tokens)
    results: list[GenerationResult | BackendError] = []
    for prompt in prompts:
        try:
            results.append(backend.constrained_generate(prompt, allowed, max_tokens))
        except BackendError as exc:
            results.append(exc)
    return results


class GenerateRequestError(ValueError):
    """A ``/v1/generate`` request body of the wrong shape; ``field`` names
    the offending part, e.g. ``segments[2].kind``."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"bad /v1/generate request: {field} {problem}")
        self.field = field


def serve_generate(backend: GenerativeBackend, request: dict) -> dict:
    """The server half of ``/v1/generate``, the inverse of
    :meth:`RemoteBackend.constrained_generate`: one decoded request body in,
    one step of ``backend``, the response body out. A missing
    ``allowed_tokens`` or ``max_tokens`` reads as null."""
    if not isinstance(request, dict):
        raise GenerateRequestError("request", "is not a JSON object")
    segments = request.get("segments")
    if not isinstance(segments, list):
        raise GenerateRequestError("segments", "is not a list")
    prompt = []
    for i, seg in enumerate(segments):
        seg = seg if isinstance(seg, dict) else {}
        try:
            kind = SegmentKind(seg.get("kind"))
        except ValueError:
            raise GenerateRequestError(
                f"segments[{i}].kind", f"{seg.get('kind')!r} is not a segment kind"
            ) from None
        if type(seg.get("payload")) is not str:
            raise GenerateRequestError(f"segments[{i}].payload", "is not a string")
        prompt.append(PromptSegment(kind, seg["payload"]))
    allowed = request.get("allowed_tokens")
    if allowed is not None and not (
        isinstance(allowed, list) and all(type(t) is str for t in allowed)
    ):
        raise GenerateRequestError("allowed_tokens", "is neither null nor a list of strings")
    max_tokens = request.get("max_tokens")
    if max_tokens is not None and type(max_tokens) is not int:
        raise GenerateRequestError("max_tokens", "is neither null nor an integer")
    result = backend.constrained_generate(
        prompt, None if allowed is None else frozenset(allowed), max_tokens
    )
    return dict(
        tokens=list(result.tokens),
        chosen_logprobs=list(result.chosen_logprobs),
        candidates=[dict(c) for c in result.candidate_logprobs],
    )


__all__ = [
    "BackendError",
    "ConformanceError",
    "GenerateRequestError",
    "GenerationResult",
    "GenerativeBackend",
    "MockBackend",
    "ProtocolViolationError",
    "RemoteBackend",
    "RemoteServiceError",
    "ScriptError",
    "ScriptedResponse",
    "ServiceClient",
    "TransportError",
    "UnscriptedPromptError",
    "check_backend_conformance",
    "generate_each",
    "load_script_file",
    "match_all",
    "match_fingerprint",
    "match_passage_contains",
    "match_user_text",
    "match_user_text_contains",
    "serve_generate",
    "validate_generation_result",
]
