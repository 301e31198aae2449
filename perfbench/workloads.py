"""The benchmark's three workloads: how each is set up and replayed.

Every workload runs the default ``hybrimoe`` strategy on the paper
testbed with 8-layer model presets at a 25% GPU expert-cache ratio, one
engine per pass. The engine seed (model weights) is fixed; the workload
seed given on the command line reaches only the input generators: the
prompts, their order and the client's decode sampling.

- ``decode-solo`` (qwen2): one client in a closed loop, one request in
  the system at a time, each a ChatGPT-Prompts prompt plus a long decode.
- ``prefill-solo`` (mixtral): prompts from the Fig. 7 buckets 128, 512
  and 1024, datasets mixed, one at a time on a fresh sequence state of
  one warm engine. Each emits one decode token so the gap to the second
  token is defined.
- ``serve-poisson`` (deepseek): open-loop Poisson arrivals on the
  simulated clock into the continuous-batching server (batch 8).

Prompt lengths are stratified (:func:`stratified_lengths`) so that every
seed sees the whole length distribution and percentiles move little
between seeds.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass

import numpy as np

from repro.engine.factory import make_engine, make_serving_engine
from repro.engine.pipeline import SequenceStep
from repro.rng import derive_rng
from repro.serving.engine import requests_from_trace
from repro.workloads.datasets import DATASET_PROFILES, sample_prompt
from repro.workloads.generator import ArrivedWorkload, WorkloadSpec, prefill_workloads

#: Datasets of the mixed-dataset workloads, cycled by request index.
DATASETS = ("mtbench", "vicuna", "chatgpt-prompts")

#: Engine configuration shared by every workload.
ENGINE = {
    "strategy": "hybrimoe",
    "hardware": "paper",
    "num_layers": 8,
    "cache_ratio": 0.25,
    "seed": 0,
}


@dataclass(frozen=True)
class RequestOutcome:
    """Simulated lifecycle of one request sent (times in seconds)."""

    prompt_len: int
    decode_tokens: int
    arrival: float
    prefill_start: float | None
    first_token: float | None
    finish: float
    tbt: tuple[float, ...]
    status: str

    @property
    def finished(self) -> bool:
        return self.status == "finished"


@dataclass
class Probe:
    """The first request's inputs and outputs, for the reference check.

    ``prefill_hidden`` is every prompt row's final hidden state (None
    when the program does not expose it); ``last_hidden`` is the final
    hidden state after the last decode token.
    """

    prompt: np.ndarray
    output_tokens: list[int]
    prefill_hidden: np.ndarray | None
    last_hidden: np.ndarray


@dataclass
class Replay:
    """What one pass produced on the simulated clock."""

    requests: list[RequestOutcome]
    #: ``(start, end)`` of every engine step, in execution order.
    steps: list[tuple[float, float]]
    probe: Probe
    #: Request ids of the records, to check exactly-once termination.
    record_ids: list[int]

    @property
    def tokens(self) -> int:
        """Prompt plus decode tokens simulated for finished requests."""
        return sum(r.prompt_len + r.decode_tokens for r in self.requests if r.finished)

    def fingerprint(self) -> str:
        """Hash of the per-request records and per-step sim durations."""
        digest = hashlib.sha256()
        digest.update(repr(self.requests).encode())
        digest.update(repr([end - start for start, end in self.steps]).encode())
        return digest.hexdigest()[:16]


@dataclass
class Setup:
    """A freshly built engine (or server) plus the workload's inputs."""

    engine: object
    server: object | None
    inputs: list


def stratified_lengths(dataset: str, count: int, rng: np.random.Generator) -> list[int]:
    """Prompt lengths at the midpoints of ``count`` equal-probability strata.

    The lengths are the dataset's length distribution at quantiles
    ``(i + 0.5) / count``, in an order shuffled by ``rng``.
    """
    profile = DATASET_PROFILES[dataset]
    normal = statistics.NormalDist(np.log(profile.median_tokens), profile.sigma)
    lengths = [
        int(np.clip(round(np.exp(normal.inv_cdf((i + 0.5) / count))),
                    profile.min_tokens, profile.max_tokens))
        for i in range(count)
    ]
    return [lengths[i] for i in rng.permutation(count)]


def closed_loop(engine, name: str, seed: int, prompts, decode_tokens: int) -> Replay:
    """One client: send a request when the previous one has finished.

    Each request runs on a fresh sequence state of the one engine. In a
    closed loop a request arrives when its predecessor finishes, which
    is where the engine's compute frontier stands when it is sent.
    """
    model = engine.model
    pipeline = engine.pipeline
    clock = engine.runtime.clock
    outcomes: list[RequestOutcome] = []
    steps: list[tuple[float, float]] = []
    probe = None
    for index, prompt in enumerate(prompts):
        sampler = derive_rng(seed, "perfbench", name, "sampling", index)
        state = model.new_state()
        arrival = clock.compute_frontier
        result = pipeline.run_batch([SequenceStep(prompt, state)], "prefill")
        prefill = result.metrics
        steps.append((prefill.start, prefill.end))
        prefill_hidden = hidden = result.hidden[0]
        last = prefill.end
        tbt: list[float] = []
        tokens: list[int] = []
        for _ in range(decode_tokens):
            token = model.sample_next_token(hidden[-1], sampler)
            tokens.append(token)
            result = pipeline.run_batch([SequenceStep(np.array([token]), state)], "decode")
            metrics = result.metrics
            steps.append((metrics.start, metrics.end))
            tbt.append(metrics.end - last)
            last = metrics.end
            hidden = result.hidden[0]
        if index == 0:
            probe = Probe(prompt, tokens, prefill_hidden, hidden[-1])
        outcomes.append(
            RequestOutcome(
                prompt_len=int(prompt.size),
                decode_tokens=len(tbt),
                arrival=arrival,
                prefill_start=prefill.start,
                first_token=prefill.end,
                finish=last,
                tbt=tuple(tbt),
                status="finished",
            )
        )
    return Replay(outcomes, steps, probe, list(range(len(outcomes))))


def _engine(model: str):
    return make_engine(model=model, **ENGINE)


class DecodeSolo:
    """qwen2, closed loop, ChatGPT-Prompts prompts plus a long decode."""

    name = "decode-solo"
    model = "qwen2"

    def __init__(self, params: dict) -> None:
        self.requests = params["requests"]
        self.decode_tokens = params["decode_tokens"]

    def setup(self, seed: int) -> Setup:
        engine = _engine(self.model)
        dataset = "chatgpt-prompts"
        rng = derive_rng(seed, "perfbench", self.name, "lengths")
        lengths = stratified_lengths(dataset, self.requests, rng)
        prompts = [
            sample_prompt(dataset, engine.model.vocab_size, seed=seed, index=i, length=n)
            for i, n in enumerate(lengths)
        ]
        return Setup(engine, None, prompts)

    def replay(self, setup: Setup, seed: int) -> Replay:
        return closed_loop(setup.engine, self.name, seed, setup.inputs, self.decode_tokens)


class PrefillSolo:
    """mixtral, closed loop, Fig. 7 bucket prompts, one decode token each."""

    name = "prefill-solo"
    model = "mixtral"

    def __init__(self, params: dict) -> None:
        self.buckets = tuple(params["buckets"])
        self.per_bucket = params["prompts_per_bucket"]
        self.decode_tokens = params["decode_tokens"]

    def setup(self, seed: int) -> Setup:
        engine = _engine(self.model)
        vocab = engine.model.vocab_size
        # prefill_workloads cycles the three datasets within a bucket;
        # buckets are interleaved so long and short prompts alternate.
        per_bucket = [
            prefill_workloads(bucket, self.per_bucket, vocab, seed=seed)
            for bucket in self.buckets
        ]
        prompts = [
            specs[i].prompt_tokens for i in range(self.per_bucket) for specs in per_bucket
        ]
        return Setup(engine, None, prompts)

    def replay(self, setup: Setup, seed: int) -> Replay:
        return closed_loop(setup.engine, self.name, seed, setup.inputs, self.decode_tokens)


class ServePoisson:
    """deepseek, continuous batching, open-loop Poisson arrivals."""

    name = "serve-poisson"
    model = "deepseek"

    def __init__(self, params: dict) -> None:
        self.requests = params["requests"]
        self.decode_tokens = params["decode_tokens"]
        self.max_batch_size = params["max_batch_size"]
        self.rate = params["arrival_rate_rps"]
        self.shape_seed = params["shape_seed"]
        self.arrival_block = params["arrival_block"]

    def setup(self, seed: int) -> Setup:
        server = make_serving_engine(
            model=self.model, max_batch_size=self.max_batch_size, **ENGINE
        )
        vocab = server.engine.model.vocab_size
        # The trace's shape, arrival instants and prompt lengths, is one
        # fixed draw (shape_seed); the workload seed varies what the
        # requests say (prompt tokens, decode sampling), and through it
        # routing, caching and step costs. Near the knee, seeded shapes
        # moved TTFT p90 and TBT p99 by 15-50% between seeds.
        #
        # Arrivals are a Poisson process conditioned on its counts: given
        # k arrivals in a window of k / rate seconds, the instants are
        # sorted uniform draws. Pinning every block of k arrivals holds
        # the offered load at the calibrated rate throughout; bursts
        # inside a block are as random as Poisson.
        shape = derive_rng(self.shape_seed, "perfbench", self.name, "shape")
        block = self.arrival_block
        window = block / self.rate
        arrivals = np.concatenate(
            [
                np.sort(shape.uniform(b * window, (b + 1) * window, block))
                for b in range(-(-self.requests // block))
            ]
        )[: self.requests]
        lengths = {
            d: stratified_lengths(d, len(range(i, self.requests, 3)), shape)
            for i, d in enumerate(DATASETS)
        }
        trace = []
        for index, arrival in enumerate(arrivals):
            dataset = DATASETS[index % 3]
            length = lengths[dataset][index // 3]
            tokens = sample_prompt(dataset, vocab, seed=seed, index=index, length=length)
            workload = WorkloadSpec("decode", dataset, tokens, self.decode_tokens)
            trace.append(ArrivedWorkload(float(arrival), workload))
        return Setup(server.engine, server, requests_from_trace(trace))

    def replay(self, setup: Setup, seed: int) -> Replay:
        requests = setup.inputs
        report = setup.server.serve(requests)
        outcomes = [
            RequestOutcome(
                prompt_len=r.prompt_len,
                decode_tokens=r.decode_tokens,
                arrival=r.arrival_time,
                prefill_start=r.prefill_start,
                first_token=r.first_token_time,
                finish=r.finish_time,
                tbt=r.tbt_values,
                status=r.status,
            )
            for r in report.requests
        ]
        steps = set()
        for record in report.requests:
            if record.result is not None:
                for metrics in (record.result.prefill, *record.result.decode_steps):
                    steps.add((metrics.start, metrics.end))
        first = requests[0]
        probe = Probe(first.prompt_tokens, list(first.output_tokens), None, first.last_hidden)
        return Replay(outcomes, sorted(steps), probe, [r.request_id for r in report.requests])


WORKLOADS = {w.name: w for w in (DecodeSolo, PrefillSolo, ServePoisson)}
