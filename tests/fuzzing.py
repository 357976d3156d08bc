"""Adversarial reply generator shared by the agent tests and the acceptance gate."""

from __future__ import annotations

import json
import random
import string

_WORDS = (
    "disclosure", "value", "unit", "topic", "kpi", "target", "action",
    "tonnes", "MWh", "%", "n/a", "yes", "no", "true", "false", "null",
    "12,500", "-3.5", "1e308", "0", "", "Greenhouse Gases", "Energy",
)


def _random_scalar(rng: random.Random) -> object:
    roll = rng.randrange(10)
    if roll == 0:
        return rng.choice([True, False, None])
    if roll == 1:
        return rng.randint(-(10**20), 10**20)
    if roll == 2:
        return rng.choice([float("inf"), float("-inf"), float("nan"), 1e308, -0.0])
    if roll == 3:
        return rng.uniform(-1e6, 1e6)
    if roll == 4:
        return "".join(rng.choice(string.printable) for _ in range(rng.randrange(12)))
    if roll == 5:
        return rng.choice(_WORDS)
    if roll == 6:
        return f"{rng.randint(0, 10**6):,}"
    if roll == 7:
        return f"{rng.uniform(0, 100):.1f}%"
    if roll == 8:
        return f"{rng.randint(1, 100)}-{rng.randint(100, 999)}"
    return " –−" + str(rng.random())


def _random_object(rng: random.Random, depth: int = 0) -> object:
    keys = ["disclosure", "value", "unit", "topic", "kpi", "target", "action"]
    rng.shuffle(keys)
    obj = {}
    for key in keys[: rng.randrange(len(keys) + 1)]:
        if depth < 2 and rng.randrange(8) == 0:
            obj[key] = _random_object(rng, depth + 1)
        else:
            obj[key] = _random_scalar(rng)
    if rng.randrange(6) == 0:
        obj["".join(rng.choice(string.ascii_lowercase) for _ in range(5))] = (
            _random_scalar(rng)
        )
    return obj


def random_reply(rng: random.Random) -> str:
    """One adversarial reply string: prose, JSON fragments, or garbage."""
    roll = rng.randrange(12)
    if roll == 0:
        return ""
    if roll == 1:
        return "".join(rng.choice(string.printable) for _ in range(rng.randrange(200)))
    if roll == 2:
        return "The requested information is not disclosed in the report."
    if roll == 3:
        # truncated JSON
        full = json.dumps(_random_object(rng))
        return full[: rng.randrange(len(full) + 1)]
    if roll == 4:
        return json.dumps([_random_object(rng) for _ in range(rng.randrange(4))])
    if roll == 5:
        parts = [json.dumps(_random_object(rng)) for _ in range(rng.randrange(3) + 1)]
        return " and then ".join(parts)
    if roll == 6:
        return "{" * rng.randrange(30) + "}" * rng.randrange(30)
    if roll == 7:
        return json.dumps({"value": rng.choice(["Infinity", "-Infinity", "NaN"])})
    if roll == 8:
        return '{"disclosure": Infinity, "value": NaN}'
    if roll == 9:
        return "Prose before. " + json.dumps(_random_object(rng)) + " Prose after."
    if roll == 10:
        nested = {"records": [_random_object(rng), [_random_object(rng)]]}
        return json.dumps(nested)
    return "\ud800高\x00" + json.dumps(_random_object(rng))[:-1]


# --- one value of a valid input file replaced by a value of another type ---

# The values a key's value is replaced by: each JSON type, a numeric string,
# a fraction, the non-finite numbers `json` reads, and an int too large for
# a float.
REPLACEMENTS = (True, "7", 2.9, float("nan"), float("inf"), 10**400, None, [], {})


def value_paths(value: object, prefix: tuple = ()) -> list[tuple]:
    """The key path of every value inside `value`, the containers too."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    paths = []
    for key, item in items:
        paths.append((*prefix, key))
        paths.extend(value_paths(item, (*prefix, key)))
    return paths


def replaced(value: object, path: tuple, new: object) -> object:
    """A deep copy of `value` whose value at `path` is `new`."""
    copy = json.loads(json.dumps(value))
    holder = copy
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = new
    return copy
