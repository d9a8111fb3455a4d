"""Workload definitions and seeded input generators.

Every input the program sees is made here from the workload seed: rosters
and configs. The same seed always gives byte-identical input files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import yaml

POLICIES = ("immediate_acceptor", "fixed_concession", "stonewaller", "mirror", "silent")
LABELS = ("A", "B", "C", "D", "E")
SCRIPTED_EXERCISES = ("chair", "rental", "employment")

# Sentence pool for mirror openers, chat prompts and fake chat replies. It is
# seeded with words from every built-in lexicon (hedges, apologies,
# gratitude, first-person plural, sentiment) plus question marks, so the
# feature checks compare non-zero counts.
SENTENCES = (
    "Thanks for meeting with me today.",
    "I think we can find something fair here.",
    "Sorry, that seems a bit high to me.",
    "Maybe we could meet somewhere in the middle?",
    "I appreciate your patience, this is great.",
    "What would make this work for you?",
    "Our budget is rather limited, I'm afraid.",
    "That would be a terrible deal for us.",
    "We're happy to keep talking; perhaps there is room.",
    "I believe this is a reasonable and generous offer.",
    "Could you explain why that number makes sense?",
    "Thank you, that is helpful and I'm glad we agree.",
    "My apologies, I should have said that earlier.",
    "It's not sure to work, but we'll try our best?",
    "Honestly the price sort of feels unfair.",
    "Excellent, let us settle the remaining points.",
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload ("full", or "smoke" for ``--smoke``)."""

    agents: int
    exercises: tuple[str, ...]
    concurrency_limit: int
    latency_s: float = 0.0  # fake chat transport only

    @property
    def negotiations(self) -> int:
        return self.agents * self.agents * len(self.exercises)


# Sizes and concurrency per workload. The README explains each choice.
WORKLOADS: dict[str, dict[str, Sizes]] = {
    "pipeline_scripted": {
        "full": Sizes(agents=5, exercises=SCRIPTED_EXERCISES, concurrency_limit=1),
        "smoke": Sizes(agents=3, exercises=SCRIPTED_EXERCISES, concurrency_limit=1),
    },
    "tournament_chat": {
        "full": Sizes(
            agents=6, exercises=SCRIPTED_EXERCISES, concurrency_limit=2, latency_s=0.005
        ),
        "smoke": Sizes(
            agents=3, exercises=SCRIPTED_EXERCISES, concurrency_limit=2, latency_s=0.001
        ),
    },
}

STAGES = {
    "pipeline_scripted": ["run", "score", "features", "style", "analyze", "report"],
    "tournament_chat": ["run"],
}


def agent_id(i: int) -> str:
    return f"agent{i:03d}"


def _text(i: int, sentences: int, rng: random.Random) -> str:
    """The words of ``sentences`` pool sentences picked by agent index, in
    seeded order: the seed changes the text but not its length, so it does
    not change how much work the features stage has."""
    words = " ".join(SENTENCES[(i + k) % len(SENTENCES)] for k in range(sentences)).split()
    return " ".join(rng.sample(words, len(words)))


def _scripted_agent(i: int, rng: random.Random) -> dict:
    policy = POLICIES[i % len(POLICIES)]
    params: dict = {"svi_rating": rng.randint(1, 7)}
    if policy == "fixed_concession":
        top = rng.randint(120, 200)
        params["ladder"] = [top, top - rng.randint(5, 30), top - rng.randint(35, 60)]
        start = rng.randint(0, 2)
        params["label_ladder"] = list(LABELS[start : start + rng.randint(2, 3)])
    elif policy == "stonewaller":
        if rng.random() < 0.5:
            params["demand_price"] = rng.randint(50, 190)
    elif policy == "mirror":
        params["opener"] = _text(i, 2, rng)
    return {
        "agent_id": agent_id(i),
        "backend": {"kind": "scripted", "policy_name": policy, "policy_params": params},
    }


def _chat_agent(i: int, rng: random.Random) -> dict:
    return {
        "agent_id": agent_id(i),
        "prompt": _text(i, 3, rng),
        "backend": {
            "kind": "chat_model",
            "model_name": f"fake-model-{i}",
            "endpoint": "fake://bench-transport",
        },
    }


def roster_records(workload: str, sizes: Sizes, seed: int) -> list[dict]:
    rng = random.Random(f"roster:{workload}:{seed}")
    make = _chat_agent if workload == "tournament_chat" else _scripted_agent
    return [make(i, rng) for i in range(sizes.agents)]


def write_inputs(workload: str, sizes: Sizes, seed: int, workdir: Path) -> Path:
    """Write roster.yaml and config.yaml under ``workdir``; returns the
    absolute config path."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"config:{workload}:{seed}")
    (workdir / "roster.yaml").write_text(
        yaml.safe_dump({"agents": roster_records(workload, sizes, seed)}, sort_keys=True)
    )
    config = {
        "roster": "roster.yaml",
        "scenarios": list(sizes.exercises),
        "output_dir": "out",
        "base_seed": rng.randint(1, 10**6),
        "concurrency_limit": sizes.concurrency_limit,
        "style": {"mode": "synthetic", "seed": rng.randint(1, 10**6)},
    }
    config_path = (workdir / "config.yaml").resolve()
    config_path.write_text(yaml.safe_dump(config, sort_keys=True))
    return config_path
