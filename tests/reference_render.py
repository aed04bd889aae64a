"""Per-entity `random.Random` rendering: a twin of `tabbench.structurer.render`
at the three text levels.

Each entity gets a Random of its own from `rng_for(seed, "render", level,
index, key)` and draws its frame, attribute order, clauses and phrases with
`choice` and `shuffle`. `render` draws the same values from one reseeded
stream through `seeding.Draws`, so the tests compare the two texts byte for
byte.
"""
from __future__ import annotations

from tabbench.relation import Relation
from tabbench.seeding import rng_for
from tabbench.structurer import PhraseBank, StructuringLevel


def reference_render(rel: Relation, level: StructuringLevel, seed: int, bank: PhraseBank) -> str:
    canonical = bank.frames[0]
    lines = []
    for entity_index, row in enumerate(rel.rows):
        key = rel.key_of(row)
        if level is StructuringLevel.TEMPLATE_BASED:
            head, order, pick = canonical.head, canonical.order, lambda seq: seq[0]
        else:
            rng = rng_for(seed, "render", level.value, entity_index, key)
            head, order, pick = rng.choice(bank.frames).head, list(canonical.order), rng.choice
            if level is StructuringLevel.NATURAL:
                rng.shuffle(order)
        parts = [head.replace("{key}", key)]
        for name in order:
            clause = pick(bank.clauses[name])
            phrase = pick(rel.attribute(name).paraphrases)
            parts.append(clause.replace("{value}", row[rel.index(name)]).replace("{phrase}", phrase))
        lines.append(" ".join(parts) + ".")
    return "\n".join(lines)
