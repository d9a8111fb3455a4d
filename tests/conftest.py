import pytest
import yaml

from parley.agents import agent_from_record
from parley.catalog import load_builtin
from parley.session import Transcript, Utterance


@pytest.fixture(scope="session")
def chair():
    return load_builtin("chair")


@pytest.fixture(scope="session")
def rental():
    return load_builtin("rental")


@pytest.fixture(scope="session")
def employment():
    return load_builtin("employment")


def make_scripted_agent(policy_name, params=None, agent_id=None):
    """A scripted agent, built from the roster record that would declare it,
    through the roster reader's own checks."""
    backend = {"kind": "scripted", "policy_name": policy_name, "policy_params": params or {}}
    return agent_from_record("test roster", {"agent_id": agent_id or policy_name, "backend": backend})


def scripted_agents():
    """Five deterministic agents used across tournament and pipeline tests.

    Questionnaire ratings differ per policy so counterpart-SV analyses see
    variance even at desk scale.
    """
    return [
        make_scripted_agent("immediate_acceptor", {"svi_rating": 6}, agent_id="acceptor"),
        make_scripted_agent(
            "fixed_concession",
            {"ladder": [150, 130, 110], "label_ladder": ["B", "C"], "svi_rating": 5},
            agent_id="ladder",
        ),
        make_scripted_agent("stonewaller", {"svi_rating": 2}, agent_id="wall"),
        make_scripted_agent("mirror", {"svi_rating": 4}, agent_id="echo"),
        make_scripted_agent("silent", agent_id="mute"),
    ]


@pytest.fixture
def roster():
    return scripted_agents()


def write_desk_tournament(directory):
    """The config and roster of criterion 12's desk tournament, written to
    ``directory``: five scripted agents over three scenarios; the config's
    path."""
    roster = {
        "agents": [
            {"agent_id": "acceptor", "backend": {"kind": "scripted", "policy_name": "immediate_acceptor", "policy_params": {"svi_rating": 6}}},
            {
                "agent_id": "ladder",
                "backend": {
                    "kind": "scripted",
                    "policy_name": "fixed_concession",
                    "policy_params": {"ladder": [150, 130, 110], "label_ladder": ["B", "C"], "svi_rating": 5},
                },
            },
            {"agent_id": "wall", "backend": {"kind": "scripted", "policy_name": "stonewaller", "policy_params": {"svi_rating": 2}}},
            {"agent_id": "echo", "backend": {"kind": "scripted", "policy_name": "mirror"}},
            {"agent_id": "mute", "backend": {"kind": "scripted", "policy_name": "silent"}},
        ]
    }
    (directory / "roster.yaml").write_text(yaml.safe_dump(roster))
    config = {
        "roster": "roster.yaml",
        "scenarios": ["chair", "rental", "employment"],
        "output_dir": "out",
        "base_seed": 7,
        "concurrency_limit": 4,
        "style": {"mode": "synthetic", "seed": 11},
    }
    (directory / "config.yaml").write_text(yaml.safe_dump(config))
    return directory / "config.yaml"


FIXTURE_TEXTS = [
    "Hello there. I am selling a chair.",
    "Thank you! I appreciate it. Shall we? What price?",
    "I think maybe we can agree. Great chair. [OFFER price=100]",
    "Sorry, that is terrible. We should trust our plan.",
    "Great great. Final offer one hundred.",
    "I accept your offer of one hundred.",
]


@pytest.fixture
def feature_transcript():
    """Six-utterance conversation behind the hand-computed feature oracle."""
    utterances = [
        Utterance(
            index=i,
            speaker_agent_id="s1" if i % 2 == 0 else "b1",
            role_name="seller" if i % 2 == 0 else "buyer",
            text=text,
        )
        for i, text in enumerate(FIXTURE_TEXTS)
    ]
    return Transcript(
        negotiation_id="fixture6",
        scenario_id="chair",
        role_map={"seller": "s1", "buyer": "b1"},
        utterances=utterances,
        termination="cap_reached",
        seed=0,
    )


def make_transcript(scenario_id, role_map, texts_by_turn, roles, termination, seed=0):
    """Assemble a transcript from alternating (role, text) turns."""
    utterances = [
        Utterance(
            index=i,
            speaker_agent_id=role_map[role],
            role_name=role,
            text=text,
        )
        for i, (role, text) in enumerate(zip(roles, texts_by_turn))
    ]
    return Transcript(
        negotiation_id=f"made-{scenario_id}-{seed}",
        scenario_id=scenario_id,
        role_map=role_map,
        utterances=utterances,
        termination=termination,
        seed=seed,
    )
