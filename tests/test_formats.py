from __future__ import annotations

import collections
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loads_instance_reference
from test_cli import JSON_VALUES, _mutated, _paths
from treewave import (
    GenParams,
    InputError,
    Instance,
    SweepSpec,
    generate_instance,
    instances,
    sweep_items,
)
from treewave import formats
from treewave.formats import (
    MAX_DEPTH,
    dumps_coloring,
    dumps_instance,
    loads_coloring,
    loads_instance,
    records_to_csv,
)
from treewave.harness import BenchRecord

SRC = Path(__file__).resolve().parents[1] / "src"


P3_DEMO_JSON = (
    '{"tree":{"vertices":3,"edges":[[0,1],[1,2]]},'
    '"subtrees":[{"root":0,"arcs":[[0,1]]},{"root":1,"arcs":[[1,0]]},'
    '{"root":0,"arcs":[[0,1],[1,2]]}]}\n'
)


def test_instance_round_trip_is_byte_exact(p3_demo):
    text = dumps_instance(p3_demo)
    assert text == P3_DEMO_JSON
    assert dumps_instance(loads_instance(text)) == text


def test_instance_preserves_edge_and_arc_order(star_demo):
    text = dumps_instance(star_demo)
    again = loads_instance(text)
    assert again.tree.edges == star_demo.tree.edges
    for a, b in zip(again.subtrees, star_demo.subtrees):
        assert a.arcs == b.arcs


def test_malformed_instance_rejected():
    with pytest.raises(InputError):
        loads_instance("not json")
    with pytest.raises(InputError):
        loads_instance('{"tree":{"vertices":2}}')
    with pytest.raises(InputError):
        loads_instance('{"tree":{"vertices":2,"edges":[[0,1]]},"subtrees":[{"root":0,"arcs":[]}]}')
    with pytest.raises(InputError):
        loads_instance('{"tree":{"vertices":3,"edges":[[0,1],[0,2],[1,2]]},"subtrees":[]}')


@pytest.mark.parametrize(
    "text, first_bad",
    [
        ('{"tree":{"vertices":"3","edges":[[0,1.5],[1,2]]},"subtrees":[]}', "1.5"),
        ('{"tree":{"vertices":3,"edges":[[0,1],[1,true]]},"subtrees":[]}', "true"),
        ('{"tree":{"vertices":3.0,"edges":[[0,1],[1,2]]},"subtrees":[]}', "3.0"),
        (
            '{"tree":{"vertices":3,"edges":[[0,1],[1,2]]},'
            '"subtrees":[{"root":"0","arcs":[[0,1.0]]}]}',
            '"0"',
        ),
        (
            '{"tree":{"vertices":3,"edges":[[0,1],[1,2]]},'
            '"subtrees":[{"root":0,"arcs":[[0,1],[null,2]]},{"root":false,"arcs":[]}]}',
            "null",
        ),
        (
            '{"tree":{"vertices":3,"edges":[[0,1],[1,2]]},'
            '"subtrees":[{"root":0,"arcs":[[0,1]]},{"root":[1],"arcs":[[1,2.5]]}]}',
            "[1]",
        ),
        (
            '{"tree":{"vertices":"%s","edges":[]},"subtrees":[]}' % ("x" * 38),
            '"%s"' % ("x" * 38),
        ),
        (
            '{"tree":{"vertices":"%s","edges":[]},"subtrees":[]}' % ("x" * 39),
            "a long JSON string",
        ),
    ],
)
def test_first_non_integer_is_reported(text, first_bad):
    """Every value passes the integer rule in document order, edges before
    `vertices` and each root before its arcs, so the first offender is
    the one named, quoted when its JSON takes at most 40 characters and
    named by its type when longer."""
    with pytest.raises(InputError) as e:
        loads_instance(text)
    assert str(e.value) == (
        f"malformed instance document: expected an integer, got {first_bad}"
    )


def test_loaded_instance_holds_both_arc_tables(star_demo, p3_reversed):
    """Loading validates each subtree and numbers its arcs in one walk: both
    arc tables are stored at once and equal the ones a `_trusted` copy
    computes on first use."""
    generated = [item.instance for item in sweep_items(SweepSpec(60, 3))]
    for inst in [star_demo, p3_reversed, *generated]:
        loaded = loads_instance(dumps_instance(inst))
        assert "arc_members" in loaded.__dict__
        assert "arc_positions" in loaded.__dict__
        trusted = Instance._trusted(loaded.tree, loaded.subtrees)
        assert "arc_members" not in trusted.__dict__
        assert loaded.arc_positions == trusted.arc_positions
        assert loaded.arc_members == trusted.arc_members


@pytest.mark.parametrize("first", ["arc_positions", "arc_members"])
def test_trusted_arc_tables_in_either_order(first, star_demo, p3_reversed):
    """Each arc table of a `_trusted` instance has its own builder:
    `arc_positions` read first builds only itself, and whichever table is
    read first, both equal a loaded instance's tables."""
    generated = [item.instance for item in sweep_items(SweepSpec(60, 5))]
    for inst in [star_demo, p3_reversed, *generated]:
        loaded = loads_instance(dumps_instance(inst))
        trusted = Instance._trusted(loaded.tree, loaded.subtrees)
        getattr(trusted, first)
        if first == "arc_positions":
            assert "arc_members" not in trusted.__dict__
        assert trusted.arc_positions == loaded.arc_positions
        assert trusted.arc_members == loaded.arc_members


def _nested_array(levels: int) -> list:
    """An array nested `levels` deep: `[[...]]`."""
    value: list = []
    for _ in range(levels - 1):
        value = [value]
    return value


def _depth(value) -> int:
    """Levels of arrays and objects in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if not isinstance(value, list):
        return 0
    return 1 + max(map(_depth, value), default=0)


def test_nesting_rule_depends_on_the_document_alone(p3_demo):
    """Arrays and objects may nest `MAX_DEPTH` levels: an extra key in the
    document, the tree or a subtree holding a value that reaches the limit
    is ignored as before, one level more is refused, and a 980-deep color
    gets the same message from a fresh interpreter's shallow stack as
    here."""
    for levels, holder in ((1, ()), (2, ("tree",)), (3, ("subtrees", 1))):
        for extra, ok in ((MAX_DEPTH - levels, True), (MAX_DEPTH - levels + 1, False)):
            doc = json.loads(dumps_instance(p3_demo))
            obj = doc
            for key in holder:
                obj = obj[key]
            obj["note"] = _nested_array(extra)
            assert _depth(doc) == MAX_DEPTH + (not ok)
            if ok:
                loaded = loads_instance(json.dumps(doc))
                assert loaded == p3_demo
                assert loaded.arc_positions == p3_demo.arc_positions
            else:
                with pytest.raises(InputError) as e:
                    loads_instance(json.dumps(doc))
                assert str(e.value) == "instance document is nested too deeply"

    deep = '{"colors":[' + "[" * 980 + "]" * 980 + "]}"
    with pytest.raises(InputError) as e:
        loads_coloring(deep)
    script = (
        "import sys\n"
        "from treewave.formats import loads_coloring\n"
        "try:\n"
        "    loads_coloring(sys.stdin.read())\n"
        "except ValueError as e:\n"
        "    print(e)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=deep,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.stdout == f"{e.value}\n" == "coloring document is nested too deeply\n"


def test_invalid_json_nesting_rule_ignores_the_callers_stack():
    """A document that is not valid JSON is nested too deeply when the
    text read up to the parse error opens more than `MAX_DEPTH` arrays,
    whether the loader is called from a fresh interpreter's top level or
    200 frames deeper; `[` repeated 900 times once read `not valid JSON`
    at the top level and `nested too deeply` deeper down."""
    script = (
        "from treewave.formats import loads_coloring, loads_instance\n"
        "def deep(frames, load, text):\n"
        "    if frames:\n"
        "        return deep(frames - 1, load, text)\n"
        "    try:\n"
        "        load(text)\n"
        "    except ValueError as e:\n"
        "        return str(e)\n"
        "for levels in (32, 33, 900):\n"
        "    for load in (loads_instance, loads_coloring):\n"
        "        for frames in (0, 200):\n"
        "            print(deep(frames, load, '[' * levels))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )

    def message(what, levels):
        if levels > MAX_DEPTH:
            return f"{what} document is nested too deeply"
        return f"{what} document is not valid JSON: Expecting value: line 1 column 33 (char 32)"

    loaders = (("instance", loads_instance), ("coloring", loads_coloring))
    assert proc.stdout.splitlines() == [
        message(what, levels)
        for levels in (32, 33, 900)
        for what, _ in loaders
        for _frames in (0, 200)
    ]
    for what, load in loaders:
        for levels in (32, 33, 900):
            with pytest.raises(InputError) as e:
                load("[" * levels)
            assert str(e.value) == message(what, levels)


def _loaded(load, text: str):
    """What `load` gives for `text`: the instance with its tables and the
    exact types of its edges and arcs, or the rejection message."""
    try:
        inst = load(text)
    except InputError as e:
        return str(e)
    types = {type(e) for e in inst.tree.edges} | {
        type(a) for s in inst.subtrees for a in s.arcs
    }
    return inst, inst.arc_positions, inst.arc_members, inst.tree.arcs, types


def _document_mutated(doc, data) -> bytes:
    """`test_cli._mutated`, or `doc` with an extra key (its value up to one
    level past the nesting limit) in one of its objects, an array or object
    emptied or turned into the other, a node wrapped in arrays, or an
    integer set to one from -1 to the vertex count, which can close a
    cycle, move a root or reach past the tree."""
    op = data.draw(st.sampled_from(["mutate", "extra key", "swap", "wrap", "integer"]))
    if op == "mutate":
        return _mutated(doc, data)
    doc = copy.deepcopy(doc)

    def node(path):
        value = doc
        for key in path:
            value = value[key]
        return value

    def put(path, value):
        nonlocal doc
        if path:
            node(path[:-1])[path[-1]] = value
        else:
            doc = value

    if op == "extra key":
        objects = [p for p in _paths(doc) if isinstance(node(p), dict)]
        levels = st.integers(1, MAX_DEPTH + 1).map(_nested_array)
        target = node(data.draw(st.sampled_from(objects)))
        target[data.draw(st.text(max_size=8))] = data.draw(st.one_of(JSON_VALUES, levels))
    elif op == "swap":
        containers = [p for p in _paths(doc) if isinstance(node(p), (dict, list))]
        path = data.draw(st.sampled_from(containers))
        value = node(path)
        if data.draw(st.booleans()):
            put(path, type(value)())
        elif isinstance(value, dict):
            put(path, list(value.values()))
        else:
            put(path, {str(i): v for i, v in enumerate(value)})
    elif op == "wrap":
        path = data.draw(st.sampled_from(list(_paths(doc))))
        value = node(path)
        for _ in range(data.draw(st.integers(1, MAX_DEPTH))):
            value = [value]
        put(path, value)
    else:
        integers = [p for p in _paths(doc) if type(node(p)) is int]
        put(
            data.draw(st.sampled_from(integers)),
            data.draw(st.integers(-1, doc["tree"]["vertices"])),
        )
    return json.dumps(doc).encode()


@settings(max_examples=400, deadline=None)
@given(
    vertices=st.integers(2, 7),
    count=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_loader_equals_reference_on_mutated_documents(vertices, count, seed, data):
    """The one-walk loader gives what the shape pass followed by the tree
    and subtree checks gave: an equal instance with equal arc tables, or
    the same message.  The one difference is the nesting rule: a document
    nested deeper than `MAX_DEPTH` is refused, whatever it holds."""
    inst = generate_instance(GenParams(vertices, 3, count, (1, 3), seed))
    raw = _document_mutated(json.loads(dumps_instance(inst)), data)
    text = raw.decode("utf-8", "replace")
    try:
        too_deep = _depth(json.loads(text)) > MAX_DEPTH
    except ValueError:
        too_deep = False
    if too_deep:
        assert _loaded(loads_instance, text) == "instance document is nested too deeply"
    else:
        assert _loaded(loads_instance, text) == _loaded(loads_instance_reference, text)


def test_valid_document_is_walked_once(monkeypatch):
    """A valid document is read by the one walk alone: the shape helpers,
    `validate_tree` and `_violations` never run, and each subtree is
    walked once.  A bad arc sends the document to the naming pass, whose
    `Instance(...)` checks each subtree up to that one and names the arc."""
    calls: collections.Counter = collections.Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counting(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counting)

    count(formats, "_pair")
    count(formats, "_subtree")
    count(instances, "validate_tree")
    count(instances, "_violations")
    count(instances, "_walk_subtree")
    inst = generate_instance(GenParams(12, 3, 15, (1, 4), seed=3))
    doc = json.loads(dumps_instance(inst))
    assert loads_instance(json.dumps(doc)) == inst
    assert calls == {"_walk_subtree": 15}

    calls.clear()
    tail = doc["subtrees"][6]["arcs"][-1][0]
    doc["subtrees"][6]["arcs"][-1] = [tail, 12]
    with pytest.raises(InputError) as e:
        loads_instance(json.dumps(doc))
    assert str(e.value) == f"invalid subtree 6: arc ({tail},12) is not a host tree edge"
    arcs = sum(len(s.arcs) for s in inst.subtrees)
    assert calls["_subtree"] == 15 and calls["_pair"] == 11 + arcs
    assert calls["_violations"] == 7


def test_coloring_format_plain():
    assert dumps_coloring([1, 1, 2]) == '{"colors":[1,1,2],"num_colors":2}\n'
    colors, original = loads_coloring('{"colors":[1,1,2],"num_colors":2}\n')
    assert colors == [1, 1, 2] and original is None


def test_coloring_format_padded_run():
    text = dumps_coloring([1, 2, 1, 1], original_count=2)
    assert text == (
        '{"colors":[1,2,1,1],"num_colors":2,'
        '"original_colors":[1,2],"original_num_colors":2}\n'
    )
    colors, original = loads_coloring(text)
    assert colors == [1, 2, 1, 1] and original == [1, 2]


def test_coloring_rejects_bad_documents():
    with pytest.raises(InputError):
        loads_coloring("[]")
    with pytest.raises(InputError):
        loads_coloring('{"colors":[0,1]}')
    with pytest.raises(InputError):
        loads_coloring('{"colors":"zzz"}')


def test_csv_shape_and_missing_cells():
    record = BenchRecord(
        instance_id=0,
        seed=None,
        vertices=3,
        subtrees=3,
        padded_subtrees=7,
        load=2,
        lower_bound=2,
        exact_chromatic=None,
        greedy_colors_padded=2,
        greedy_colors_original=2,
        baseline_colors=2,
        ratio_vs_exact=None,
        ratio_vs_lower_bound=1.0,
    )
    text = records_to_csv([record])
    header, row = text.strip().split("\n")
    assert header.startswith("instance_id,seed,vertices")
    assert "wall" not in header
    assert row == "0,,3,3,7,2,2,,2,2,2,,1.000000"
