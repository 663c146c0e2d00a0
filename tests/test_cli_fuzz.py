"""A seeded fuzz of ``cli.handle``: mutated topogen/1 documents for every
command must each answer within a second, with exit code 0, 2 or 3 and no
exception."""

import copy
import json
import random
import signal

import pytest

from topogen.cli import COMMANDS, SUITES, handle

SEED = 2024
DOCS = 2000
LIMIT_S = 1.0

GROUPS = [
    {"family": "SL", "n": 4, "p": 0},
    {"family": "Sp", "n": 4, "p": 2},
    {"family": "Sp", "n": 6, "p": 3},
    {"family": "SO", "n": 6, "p": 0},
    {"family": "SO", "n": 10, "p": 3},
    {"family": "Spin8", "n": 8, "p": 0},
]

# valid documents the mutations start from, one or more per command
CORPUS = [
    ("decide", {"group": GROUPS[0], "classes": [
        {"kind": "semisimple", "order": 3, "ones": 2, "free": [["a", 1], ["b", 1]],
         "relations": {"a": "order:3", "b": "order:3"}},
        {"kind": "unipotent", "partition": [2, 2]},
    ]}),
    ("decide", {"group": GROUPS[1], "classes": [
        {"kind": "unipotent", "order": 2, "decoration": [{"W": 2, "mult": 1}]},
        {"kind": "unipotent", "decoration": [{"V": 2, "mult": 1}, {"W": 1, "mult": 1}]},
        {"kind": "semisimple", "ones": 2, "pairs": [1], "order": 3},
    ]}),
    ("decide", {"group": GROUPS[2], "classes": [
        {"kind": "semisimple", "order": 2, "ones": 4, "minus_ones": 2},
        {"kind": "unipotent", "partition": [3, 3]},
    ]}),
    ("decide", {"group": GROUPS[3], "classes": [
        {"kind": "semisimple", "ones": 1, "pairs": [["l", 1]], "free": [["m", 1]]},
        {"kind": "unipotent", "partition": [2, 1, 1]},
    ]}),
    ("decide", {"group": GROUPS[4], "classes": [
        {"kind": "semisimple", "pairs": [["l", 5]]},
        {"kind": "unipotent", "partition": [2, 2, 2, 2, 1, 1]},
    ]}),
    ("decide", {"group": GROUPS[5], "classes": [
        {"kind": "semisimple", "ones": 4, "minus_ones": 4, "order": 2},
        {"kind": "semisimple", "ones": 4, "minus_ones": 4, "order": 2},
    ], "spin8_profiles": [[4, 4, 4], [4, 4, 4]]}),
    ("classdim", {"group": {"family": "SO", "n": 11, "p": 0}, "class": {"kind": "unipotent", "partition": [3, 2, 2, 2, 2]}}),
    ("classdim", {"group": GROUPS[1], "class": {"kind": "unipotent", "decoration": [{"V": 2, "mult": 2}]}}),
    ("classdim", {"group": GROUPS[0], "class": {"kind": "semisimple", "free": [1, 1, 2]}}),
    ("closure", {"group": GROUPS[1], "upper": {"kind": "unipotent", "decoration": [{"W": 2}]},
                 "lower": {"kind": "unipotent", "decoration": [{"V": 2}, {"W": 1}]}}),
    ("closure", {"group": {"family": "SO", "n": 9, "p": 3}, "upper": {"kind": "unipotent", "partition": [3, 3, 3]},
                 "lower": {"kind": "unipotent", "partition": [2, 2, 2, 2, 1]}}),
    ("closure", {"group": {"family": "SL", "n": 6, "p": 0}, "blocks": 2}),
    ("closure", {"group": GROUPS[2], "dot": True}),
    ("genfree", {"exceptional": "E8", "dimV": 1000, "dimVG": 0}),
    ("genfree", {"group": {"family": "SO", "n": 9, "p": 0}, "dimV": 100, "dimVG": 1}),
    ("maxclass", {"group": {"family": "SL", "n": 5, "p": 0}, "r": 3, "i": 2}),
    ("maxclass", {"group": {"family": "Sp", "n": 8, "p": 0}, "r": 5}),
    ("maxclass", {"group": {"family": "SO", "n": 10, "p": 0}, "r": 2}),
    ("maxclass", {"group": GROUPS[2], "r": 3, "is_p": True}),
    # the maximal class of a huge group is in closed form
    ("maxclass", {"group": {"family": "SL", "n": 10**30, "p": 0}, "r": 3}),
    ("rslimit", {"family": "Sp", "n": 4, "p": 7, "r": 2, "s": 3}),
    # the verify suites are the slow finite-field cross-checks, tested on
    # their own; here only their documents are mutated, never run as valid
    ("verify", {"suite": "no-such-suite"}),
]

VALUES = [
    0, -1, 1, 2, 3, 5, 7, 8, 12, 13, 64, 2**31, 2**63, 10**6, 10**30, -(10**30),
    1.5, True, False, None, "", "x", "0", [], {}, [1, 2], [["a", 2]], {"a": 1},
    "semisimple", "unipotent", "SL", "Sp", "SO", "Spin8", "V", "W", "blocks",
    "square_is_minus_one", "order:3", "order:0", "topogen/0",
]


def _slots(node, path=()):
    """Every (path, key) of a container entry in the document tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path, key
        yield from _slots(value, path + (key,))


def _mutate(rng, doc):
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        slots = list(_slots(doc))
        if not slots:
            break
        path, key = rng.choice(slots)
        parent = doc
        for step in path:
            parent = parent[step]
        move = rng.random()
        if move < 0.6:
            parent[key] = copy.deepcopy(rng.choice(VALUES))
        elif move < 0.75:
            del parent[key]
        elif move < 0.85 and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif isinstance(parent, dict):
            parent[rng.choice(["extra", "p", "n", "order", "ones", "mult"])] = copy.deepcopy(rng.choice(VALUES))
        else:
            parent[key] = copy.deepcopy(rng.choice(VALUES))
    return doc


def _documents():
    rng = random.Random(SEED)
    for k in range(DOCS):
        command, doc = CORPUS[k % len(CORPUS)]
        doc = _mutate(rng, doc)
        if rng.random() < 0.1:
            # a mutated JSON text: cut short, or one character replaced
            text = json.dumps(doc)
            at = rng.randrange(len(text))
            doc = text[:at] if rng.random() < 0.5 else text[:at] + rng.choice('{}[]",:0a') + text[at + 1 :]
        if command == "verify" and isinstance(doc, dict) and isinstance(doc.get("suite"), str) and doc["suite"] in SUITES:
            continue
        yield command, doc


class _TimeLimit(Exception):
    pass


def _raise_time_limit(signum, frame):
    raise _TimeLimit


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, _raise_time_limit)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def test_corpus_covers_every_command():
    assert {command for command, _ in CORPUS} == set(COMMANDS)


def test_mutated_documents(alarm):
    faults = []
    codes = {0: 0, 2: 0, 3: 0}
    for command, doc in _documents():
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        try:
            code, _ = handle(command, doc)
        except _TimeLimit:
            faults.append((command, doc, f"no answer within {LIMIT_S} s"))
            continue
        except Exception as exc:
            faults.append((command, doc, repr(exc)))
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if code not in codes:
            faults.append((command, doc, f"exit {code}"))
            continue
        codes[code] += 1
    assert faults == []
    # every exit code the front end promises shows up
    assert all(codes.values()), codes


M = 10**9
HUGE = [
    # closed-form maximal class, and one refused for its number of labels
    ("maxclass", {"group": {"family": "SL", "n": 10**30, "p": 0}, "r": 3}, 0),
    ("maxclass", {"group": {"family": "Sp", "n": 2 * 10**6, "p": 0}, "r": 1000003}, 3),
    # a decoration or a block count that would expand to 2^31 Jordan blocks
    ("classdim", {"group": {"family": "Sp", "n": 4, "p": 2},
                  "class": {"kind": "unipotent", "decoration": [{"W": 1, "mult": 2**31}]}}, 3),
    ("closure", {"group": {"family": "SL", "n": 10**30, "p": 0}, "blocks": 2**31}, 3),
    # centraliser dimensions from the parts, not from the conjugate partition
    ("classdim", {"group": {"family": "SL", "n": 10**30, "p": 0},
                  "class": {"kind": "unipotent", "partition": [10**30]}}, 0),
    # the SO_2m and SO_2m+1 family cases match partitions with m parts
    *[
        ("decide", {"group": {"family": "SO", "n": n, "p": 3}, "classes": [
            {"kind": "semisimple", "ones": n - 2 * M, "pairs": [["a", M - 1], ["b", 1]]}] * 2}, 0)
        for n in (2 * M, 2 * M + 1)
    ],
]


@pytest.mark.parametrize("command,doc,code", HUGE)
def test_huge_numbers_answer_at_once(alarm, command, doc, code):
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        assert handle(command, doc)[0] == code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
