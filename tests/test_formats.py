from __future__ import annotations

import pytest

from treewave import InputError, Instance, SweepSpec, sweep_items
from treewave.formats import (
    dumps_coloring,
    dumps_instance,
    loads_coloring,
    loads_instance,
    records_to_csv,
)
from treewave.harness import BenchRecord


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
    ],
)
def test_first_non_integer_is_reported(text, first_bad):
    """Every value passes the integer rule in document order, edges before
    `vertices` and each root before its arcs, so the first offender is
    the one named."""
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
