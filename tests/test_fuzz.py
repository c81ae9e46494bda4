"""Seeded hostile-input fuzzing of the JSON loaders.

Each case mutates the JSON of a built machine, a minimal DFA or a spec
list: deep nesting, integers too large for a float, wrong types,
dropped keys, extra keys and cut-off text. A loader must either load the
file or raise ValueError, and `run`/`table` must exit 0 or 2, printing
one stderr line when they refuse. Plain `random`, so no extra dependency.
"""

import json
import random

import pytest

from qfa_exact import Dfa, Moqfa, build_binary_Nl, build_binary_min_dfa, build_unary, spec_from_dict
from qfa_exact.cli import main

SEED = 8
CASES = 150
HUGE = 10**400  # exact in JSON, too large for a float
SPECS = [{"family": "A", "N": 7, "r_yes": 0, "r_no": 3}, {"family": "B", "l": 4}, {"family": "BN", "N": 15, "l": 5}]
HOSTILE = [HUGE, -HUGE, True, None, 0, -1, 3.5, float("nan"), "3", "x", [], {}, [[[[[1]]]]], {"a": 1}]
# raw JSON text spliced in where a value was: too deep for the decoder,
# unterminated, and an integer literal past the int conversion limit
RAW = ["[" * 100_000, "[" * 5000 + "]" * 5000, '{"a": [1, 2', "1" + "0" * 5000]
SPLICE = "\x00splice\x00"


def _paths(node, path=()):
    """Every path from the root to a node of a decoded JSON tree."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from _paths(child, path + (k,))


def _mutate(rng, data) -> str:
    """The JSON text of `data` after one random hostile edit."""
    data = json.loads(json.dumps(data))
    # a depth first, then a node at it, so matrix entries do not crowd
    # out the top-level fields
    by_depth = {}
    for path in _paths(data):
        by_depth.setdefault(len(path), []).append(path)
    path = rng.choice(by_depth[rng.choice(list(by_depth))])
    if not path:
        return rng.choice([json.dumps(rng.choice(HOSTILE)), rng.choice(RAW), json.dumps(data)[: rng.randrange(40)]])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = rng.choice(["replace", "replace", "splice", "drop", "extra", "wrap"])
    if action == "replace":
        parent[key] = rng.choice(HOSTILE)
    elif action == "splice":
        parent[key] = SPLICE
        return json.dumps(data).replace(json.dumps(SPLICE), rng.choice(RAW))
    elif action == "drop":
        del parent[key]
    elif action == "extra":
        if isinstance(parent, dict):
            parent["extra"] = rng.choice(HOSTILE)
        else:
            parent.append(rng.choice(HOSTILE))
    else:
        parent[key] = [parent[key]]
    return json.dumps(data)


def _cases(base, salt):
    rng = random.Random(f"{SEED}-{salt}")
    return [_mutate(rng, base) for _ in range(CASES)]


def _loads_or_value_error(load, text):
    try:
        load(text)
    except ValueError:
        pass


def _assert_refused_in_one_line(code, out, err):
    assert code in (0, 2), err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "name,machine,word",
    [("unary", build_unary(7, 3), ["--length", "14"]), ("binary", build_binary_Nl(5, 2), ["aabbbb"])],
)
def test_mutated_machine_files_load_or_exit_2(tmp_path, capsys, name, machine, word):
    path = tmp_path / "machine.json"
    for text in _cases(machine.to_dict(), name):
        _loads_or_value_error(Moqfa.from_json, text)
        path.write_text(text)
        code = main(["run", "--machine", str(path), *word])
        _assert_refused_in_one_line(code, *capsys.readouterr())


def test_mutated_dfa_files_load_or_raise_value_error():
    for d in (2, 5):
        for text in _cases(build_binary_min_dfa(d).to_dict(), d):
            _loads_or_value_error(Dfa.from_json, text)


def test_mutated_spec_lists_exit_0_or_2(tmp_path, capsys):
    path = tmp_path / "specs.json"
    for text in _cases(SPECS, "table"):
        path.write_text(text)
        code = main(["table", "--specs", str(path)])
        _assert_refused_in_one_line(code, *capsys.readouterr())


def test_mutated_specs_load_or_raise_value_error():
    rng = random.Random(f"{SEED}-spec")
    for spec in SPECS:
        for _ in range(CASES):
            text = _mutate(rng, spec)
            try:
                data = json.loads(text)
            except (ValueError, RecursionError):
                continue
            _loads_or_value_error(spec_from_dict, data)


def _hostile_files():
    """A file of 100 000 `[`, and a machine whose matrix holds 10**400."""
    machine = build_unary(7, 3).to_dict()
    machine["matrices"]["a"][0][0] = HUGE
    return {"deep": "[" * 100_000, "huge": json.dumps(machine)}


@pytest.mark.parametrize("name", ["deep", "huge"])
def test_deep_and_huge_files_exit_2_in_one_line(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(_hostile_files()[name])
    commands = [["run", "--machine", str(path), "--length", "14"]]
    if name == "deep":
        commands.append(["table", "--specs", str(path)])
    for argv in commands:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: malformed" if name == "deep" else "error: machine JSON")
    for load in (Moqfa.from_json, Dfa.from_json):
        with pytest.raises(ValueError):
            load(path.read_text())
