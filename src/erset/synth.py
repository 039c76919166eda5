"""Synthetic dirty-dataset generation: duplicated entities with typo/drop
noise, plus planted embeddings with perfect entity structure for testing."""

from __future__ import annotations

import random

import numpy as np

from .model import Attribute, Record

_FIRST = [
    "james", "mary", "robert", "patricia", "john", "jennifer", "michael",
    "linda", "david", "elizabeth", "william", "barbara", "richard", "susan",
    "joseph", "jessica", "thomas", "sarah", "charles", "karen", "nora",
    "lucas", "amelia", "ethan", "sofia", "miguel", "ingrid", "tariq",
]
_LAST = [
    "smith", "johnson", "williams", "brown", "jones", "garcia", "miller",
    "davis", "rodriguez", "martinez", "hernandez", "lopez", "gonzalez",
    "wilson", "anderson", "thomas", "taylor", "moore", "jackson", "martin",
    "okafor", "petrov", "tanaka", "rossi", "dubois", "novak",
]
_STREETS = [
    "oak", "maple", "cedar", "pine", "elm", "walnut", "chestnut", "spruce",
    "birch", "willow", "magnolia", "juniper", "laurel", "sycamore",
]
_STREET_KINDS = ["st", "ave", "rd", "blvd", "ln", "dr"]
_CITIES = [
    "springfield", "riverton", "fairview", "kingston", "ashland", "milton",
    "clayton", "dayton", "lexington", "bristol", "clinton", "salem",
    "georgetown", "arlington", "burlington", "manchester",
]


def _typo(text: str, rng: random.Random) -> str:
    if len(text) < 2:
        return text
    ops = ("swap", "delete", "replace", "insert")
    op = ops[rng.randrange(len(ops))]
    i = rng.randrange(len(text) - 1)
    letters = "abcdefghijklmnopqrstuvwxyz"
    if op == "swap":
        return text[:i] + text[i + 1] + text[i] + text[i + 2 :]
    if op == "delete":
        return text[:i] + text[i + 1 :]
    if op == "replace":
        return text[:i] + rng.choice(letters) + text[i + 1 :]
    return text[:i] + rng.choice(letters) + text[i:]


def _entity_profile(rng: random.Random) -> dict[str, str]:
    return {
        "name": f"{rng.choice(_FIRST)} {rng.choice(_LAST)}",
        "street": (
            f"{rng.randrange(1, 999)} {rng.choice(_STREETS)} "
            f"{rng.choice(_STREET_KINDS)}"
        ),
        "city": rng.choice(_CITIES),
        "phone": "".join(str(rng.randrange(10)) for _ in range(10)),
    }


def generate_dataset(
    n_entities: int,
    dupes_per_entity: int,
    typo_rate: float = 0.1,
    drop_rate: float = 0.05,
    seed: int = 0,
) -> tuple[dict[str, Record], dict[str, str]]:
    """Generate a dirty dataset of n_entities * dupes_per_entity records.

    Each entity gets a base profile; each duplicate perturbs every attribute
    value independently (typo with probability typo_rate, dropped with
    probability drop_rate). A duplicate whose values were all dropped keeps
    its entity's name unperturbed, so every record has a value. Returns
    (records by id, record id -> entity id).
    """
    if n_entities < 1 or dupes_per_entity < 1:
        raise ValueError("n_entities and dupes_per_entity must be positive")
    rng = random.Random(seed)
    profiles = {f"e{i:04d}": _entity_profile(rng) for i in range(n_entities)}

    rows: list[tuple[str, dict[str, str]]] = []
    for entity_id in sorted(profiles):
        for _ in range(dupes_per_entity):
            values = {}
            for name, value in profiles[entity_id].items():
                if rng.random() < drop_rate:
                    values[name] = ""
                    continue
                if rng.random() < typo_rate:
                    value = _typo(value, rng)
                values[name] = value
            if not any(values.values()):
                values["name"] = profiles[entity_id]["name"]
            rows.append((entity_id, values))
    rng.shuffle(rows)

    records: dict[str, Record] = {}
    truth: dict[str, str] = {}
    for i, (entity_id, values) in enumerate(rows):
        rid = f"r{i:05d}"
        records[rid] = Record(
            id=rid,
            attributes=tuple(
                Attribute(name, values[name]) for name in sorted(values)
            ),
        )
        truth[rid] = entity_id
    return records, truth


def planted_embeddings(
    truth: dict[str, str], dim: int = 256, noise: float = 0.0, seed: int = 0
) -> dict[str, np.ndarray]:
    """Unit embeddings clustered exactly by entity: each entity gets a random
    direction, each record that direction plus Gaussian noise, re-normalized.
    With noise 0 same-entity cosine is 1 and cross-entity cosine is near 0."""
    rng = np.random.default_rng(seed)
    directions: dict[str, np.ndarray] = {}
    for entity in sorted(set(truth.values())):
        v = rng.standard_normal(dim)
        directions[entity] = v / np.linalg.norm(v)
    out: dict[str, np.ndarray] = {}
    for rid in sorted(truth):
        v = directions[truth[rid]]
        if noise > 0.0:
            v = v + noise * rng.standard_normal(dim)
        out[rid] = v / np.linalg.norm(v)
    return out
