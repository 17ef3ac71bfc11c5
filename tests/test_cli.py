from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewave import (
    GenParams,
    HostTree,
    Instance,
    RootedSubtree,
    generate_instance,
    greedy_color,
    normalize,
)
from treewave.cli import main
from treewave.formats import MAX_DEPTH, dumps_coloring, dumps_instance

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def _run_module(*argv, flags=(), env=(), stdin=None):
    """`python [flags] -m treewave argv` in a fresh interpreter, with
    `env` added to the environment; stdout and stderr stay bytes."""
    return subprocess.run(
        [sys.executable, *flags, "-m", "treewave", *argv],
        input=stdin,
        capture_output=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC), **dict(env)},
    )


@pytest.fixture
def inst_file(tmp_path, p3_demo):
    path = tmp_path / "inst.json"
    path.write_text(dumps_instance(p3_demo), encoding="utf-8")
    return path


def test_gen_writes_instance_and_repeats(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["gen", "--vertices", "7", "--subtrees", "5", "--seed", "9"]
    assert main(argv + ["-o", str(out1)]) == 0
    assert main(argv + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text(encoding="utf-8"))
    assert doc["tree"]["vertices"] == 7
    assert len(doc["subtrees"]) == 5


def test_gen_bad_params_exit_2(tmp_path, capsys):
    assert main(["gen", "--vertices", "1", "--subtrees", "3", "--seed", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bench_negative_max_subtrees_exit_2(capsys):
    assert main(["bench", "--instances", "2", "--max-subtrees", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(
            ["gen", "--vertices", "5", "--subtrees", "3", "--max-arcs", str(10**21),
             "--seed", "1"],
            id="gen_arc_range",
        ),
        pytest.param(
            ["gen", "--vertices", str(2**70), "--subtrees", "3", "--seed", "1"],
            id="gen_vertices",
        ),
        pytest.param(
            ["bench", "--instances", "1", "--max-subtrees", str(2**65)],
            id="bench_request_count",
        ),
        pytest.param(
            ["bench", "--instances", "1", "--max-vertices", str(2**65)],
            id="bench_vertices",
        ),
        pytest.param(
            ["bench", "--instances", "1", "--max-arcs", str(10**21)], id="bench_arc_range"
        ),
        pytest.param(
            ["gen", "--vertices", str(2**63), "--subtrees", "0", "--seed", "1"],
            id="gen_vertices_2_63",
        ),
        pytest.param(
            ["gen", "--vertices", str(2**64), "--subtrees", "0", "--seed", "1"],
            id="gen_vertices_2_64",
        ),
        pytest.param(
            ["gen", "--vertices", "3", "--subtrees", "2", "--seed", "-1"],
            id="gen_seed_negative",
        ),
        pytest.param(
            ["gen", "--vertices", "3", "--subtrees", "2", "--seed", str(2**64)],
            id="gen_seed_2_64",
        ),
        pytest.param(["bench", "--instances", "1", "--seed", "-1"], id="bench_seed_negative"),
        pytest.param(
            ["bench", "--instances", "1", "--seed", str(2**64)], id="bench_seed_2_64"
        ),
    ],
)
def test_ranges_beyond_one_draw_exit_2(capsys, argv):
    """A range the generator would draw from with more than 2**64 values
    is refused before anything is drawn or allocated.  A vertex count
    above `sys.maxsize` but within one draw is refused by the first list
    it would size, before anything is allocated.  A seed outside one
    64-bit word is refused rather than wrapped onto another seed."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_python_dash_m_runs_the_cli(capsys):
    """`python -m treewave` prints what `cli.main` prints and exits with its code."""
    argv = ["gen", "--vertices", "6", "--subtrees", "4", "--seed", "3"]
    code = main(argv)
    expected = capsys.readouterr().out
    proc = _run_module(*argv)
    assert (proc.stdout.decode(), proc.returncode) == (expected, code)


CAFE_TEXT = (
    '{"note":"café","tree":{"vertices":3,"edges":[[0,1],[1,2]]},'
    '"subtrees":[{"root":0,"arcs":[[0,1]]},{"root":1,"arcs":[[1,0]]}]}\n'
)


def test_utf8_document_loads_under_any_locale(tmp_path):
    """Documents are UTF-8 whatever the locale: a non-ASCII value loads
    the same under an ASCII locale with UTF-8 mode off."""
    path = tmp_path / "cafe.json"
    path.write_bytes(CAFE_TEXT.encode("utf-8"))
    plain = {"PYTHONUTF8": "", "PYTHONIOENCODING": ""}
    utf8 = _run_module("color", str(path), env=plain)
    ascii_locale = _run_module(
        "color", str(path), flags=("-X", "utf8=0"), env={**plain, "LC_ALL": "C"}
    )
    assert utf8.returncode == ascii_locale.returncode == 0
    assert utf8.stdout == ascii_locale.stdout
    assert json.loads(utf8.stdout)["original_num_colors"] == 1


def test_color_reads_stdin(tmp_path):
    """`color -` reads the document from stdin as UTF-8 bytes and prints
    what `color FILE` prints."""
    path = tmp_path / "cafe.json"
    path.write_bytes(CAFE_TEXT.encode("utf-8"))
    from_file = _run_module("color", str(path))
    from_stdin = _run_module(
        "color", "-", flags=("-X", "utf8=0"), env={"LC_ALL": "C"},
        stdin=path.read_bytes(),
    )
    assert from_file.returncode == from_stdin.returncode == 0
    assert from_stdin.stdout == from_file.stdout
    assert from_stdin.stderr == b""


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["gen", "--vertices", "6", "--subtrees", "4", "--seed", "3"], id="gen"),
        pytest.param(["color", str(GOLDEN / "star_demo_instance.json")], id="color"),
        pytest.param(["bench", "--instances", "3", "--seed", "1"], id="bench"),
    ],
)
def test_files_never_use_the_locale_encoding(tmp_path, argv):
    """Every file the CLI reads or writes names its encoding: with
    EncodingWarning raised as an error, `gen -o`, `color FILE` and
    `bench --csv FILE` still exit 0."""
    out = ["--csv" if argv[0] == "bench" else "-o", str(tmp_path / "out")]
    proc = _run_module(
        *argv, *out, flags=("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    )
    assert (proc.returncode, proc.stderr.count(b"EncodingWarning")) == (0, 0)
    assert (tmp_path / "out").stat().st_size > 0


def test_out_of_memory_exit_2(monkeypatch, capsys):
    """A MemoryError, which has no message, becomes exit 2 with one."""

    def exhausted(params):
        raise MemoryError

    monkeypatch.setattr("treewave.cli.generate_instance", exhausted)
    assert main(["gen", "--vertices", "5", "--subtrees", "3", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: size too large: out of memory\n"
    assert captured.out == ""


def test_color_default_normalizes(inst_file, tmp_path):
    out = tmp_path / "col.json"
    assert main(["color", str(inst_file), "-o", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["num_colors"] == 2
    assert doc["original_num_colors"] == 2
    assert len(doc["colors"]) == 7
    assert len(doc["original_colors"]) == 3


def test_color_no_normalize_and_baseline(inst_file, tmp_path):
    out = tmp_path / "col.json"
    assert main(["color", str(inst_file), "--no-normalize", "-o", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert "original_colors" not in doc
    assert len(doc["colors"]) == 3
    assert main(["color", str(inst_file), "--algo", "baseline", "-o", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["colors"] == [1, 1, 2]


STAR_DEMO_TRACE = (
    "round 1: edge (0, 1) kind 1 newly_colored=[0, 1, 2, 4, 5, 6] colors=3\n"
    "round 2: edge (0, 2) kind 4 newly_colored=[7, 8, 9] colors=3\n"
    "round 3: edge (0, 3) kind 3 newly_colored=[3, 10, 11, 12] colors=3\n"
    "round 2: scheme 1 won (3 vs 3 colors)\n"
)


def test_color_trace_goes_to_stderr(tmp_path, capsys):
    out = tmp_path / "col.json"
    instance = GOLDEN / "star_demo_instance.json"
    assert main(["color", str(instance), "--trace", "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == STAR_DEMO_TRACE
    assert captured.out == ""


# Fork-round traces past the star demo's, whose scheme 1 opens no color
# and so runs alone: here scheme 1 opens one and scheme 2 runs too.
# Generated by `gen --max-degree 3 --min-arcs 1 --max-arcs 4` at
# --vertices 4 --subtrees 5 --seed 106 and --vertices 5 --subtrees 5 --seed 88.
FORK_TRACES = {
    "fork_scheme2_wins": (
        "round 1: edge (0, 1) kind 1 newly_colored=[1, 2, 3, 4] colors=2\n"
        "round 2: edge (1, 2) kind 4 newly_colored=[0, 5, 6] colors=2\n"
        "round 3: edge (1, 3) kind 3 newly_colored=[7] colors=2\n"
        "round 2: scheme 2 won (3 vs 2 colors)\n"
    ),
    "fork_scheme1_opens_a_color": (
        "round 1: edge (0, 1) kind 1 newly_colored=[0, 1, 3, 4] colors=2\n"
        "round 2: edge (0, 2) kind 4 newly_colored=[2] colors=3\n"
        "round 3: edge (0, 3) kind 3 newly_colored=[5, 6] colors=3\n"
        "round 4: edge (2, 4) kind 2 newly_colored=[7] colors=3\n"
        "round 2: scheme 1 won (3 vs 3 colors)\n"
    ),
}


@pytest.mark.parametrize("name", sorted(FORK_TRACES))
def test_color_trace_of_contested_forks(name, capsys):
    assert main(["color", str(GOLDEN / f"{name}_instance.json"), "--trace"]) == 0
    assert capsys.readouterr().err == FORK_TRACES[name]


def test_exact_and_bound(inst_file, capsys):
    assert main(["exact", str(inst_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["num_colors"] == 2
    assert main(["bound", str(inst_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["load"] == 2
    assert doc["global_lower_bound"] == 2
    assert doc["exact_chromatic"] == 2


def test_exact_and_bound_over_the_limit(inst_file, capsys, p3_demo):
    """`exact` refuses an instance over its limit with exit 2; `bound`
    reports the cheap bounds and leaves the exact ones null."""
    assert main(["exact", str(inst_file), "--limit", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: exact coloring limited to 1 vertices, got {p3_demo.size}\n"
    )
    assert main(["bound", str(inst_file), "--limit", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["load"] == 2
    assert doc["clique_lower_bound"] is None
    assert doc["exact_chromatic"] is None


def test_exact_and_bound_at_raised_limit(tmp_path, capsys):
    """A search deeper than the interpreter's recursion limit still
    finishes: on a 700-vertex path with 1,398 subtrees, first-fit needs 3
    colors and the search must find χ = 2."""
    n = 700
    head = [
        RootedSubtree.of(0, [[0, 1]]),
        RootedSubtree.of(2, [[2, 3], [3, 4]]),
        RootedSubtree.of(0, [[0, 1], [1, 2]]),
        RootedSubtree.of(1, [[1, 2], [2, 3]]),
    ]
    taken = {a for s in head for a in s.arcs}
    singles = [
        RootedSubtree.of(t, [[t, h]])
        for v in range(n - 1)
        for t, h in ((v, v + 1), (v + 1, v))
        if (t, h) not in taken
    ]
    tree = HostTree.of(n, [[v, v + 1] for v in range(n - 1)])
    path = tmp_path / "path.json"
    text = dumps_instance(Instance(tree, tuple(head + singles)))
    path.write_text(text, encoding="utf-8")
    assert main(["exact", str(path), "--limit", "5000"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["num_colors"] == 2
    assert "Traceback" not in captured.err
    assert main(["bound", str(path), "--limit", "5000"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["exact_chromatic"] == 2 and doc["clique_lower_bound"] == 2
    assert "Traceback" not in captured.err


def test_verify_exit_codes(inst_file, tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text('{"colors":[1,1,2],"num_colors":2}\n', encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text('{"colors":[1,1,1],"num_colors":1}\n', encoding="utf-8")
    short = tmp_path / "short.json"
    short.write_text('{"colors":[1],"num_colors":1}\n', encoding="utf-8")
    assert main(["verify", str(inst_file), str(good)]) == 0
    capsys.readouterr()
    assert main(["verify", str(inst_file), str(bad)]) == 1
    assert "violation" in capsys.readouterr().out
    assert main(["verify", str(inst_file), str(short)]) == 2


@pytest.mark.parametrize("colors", [[1, 1], [1, 1, 2, 1]])
def test_verify_wrong_length_message(inst_file, tmp_path, capsys, colors):
    """A coloring one color short or one too long for the three subtrees
    exits 2 with the length in one stderr line and nothing on stdout."""
    col = tmp_path / "col.json"
    col.write_text(json.dumps({"colors": colors, "num_colors": 2}), encoding="utf-8")
    assert main(["verify", str(inst_file), str(col)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: coloring has {len(colors)} entries for 3 subtrees\n"


def test_duplicate_keys_last_wins(tmp_path, capsys):
    """A repeated key takes its last value, as Python's `json` reads it:
    `color` on a document naming two host trees colors the second, with
    the same stdout bytes as the document that names only that one."""
    first = '{"vertices":4,"edges":[[0,1],[1,2],[2,3]]}'
    last = '{"vertices":3,"edges":[[0,1],[1,2]]}'
    subtrees = '[{"root":0,"arcs":[[0,1],[1,2]]},{"root":2,"arcs":[[2,1]]}]'
    outputs = []
    for text in (
        f'{{"tree":{first},"tree":{last},"subtrees":{subtrees}}}',
        f'{{"tree":{last},"subtrees":{subtrees}}}',
    ):
        path = tmp_path / "inst.json"
        path.write_text(text, encoding="utf-8")
        assert main(["color", str(path)]) == 0
        outputs.append(capsys.readouterr().out.encode("utf-8"))
    assert outputs[0] == outputs[1]


def test_verify_accepts_padded_document(inst_file, tmp_path):
    col = tmp_path / "col.json"
    assert main(["color", str(inst_file), "-o", str(col)]) == 0
    assert main(["verify", str(inst_file), str(col)]) == 0


def test_missing_file_exit_2(capsys):
    assert main(["color", "/nonexistent/zz.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


P3_TEXT = (
    '{"tree":{"vertices":3,"edges":[[0,1],[1,2]]},'
    '"subtrees":[{"root":0,"arcs":[[0,1]]},{"root":1,"arcs":[[1,0]]},'
    '{"root":0,"arcs":[[0,1],[1,2]]}]}'
)
HUGE_INT_TEXT = '{"tree":{"vertices":' + "9" * 5000 + ',"edges":[]},"subtrees":[]}'
HUGE_COLOR_TEXT = '{"colors":[' + "9" * 5000 + ",1,2]}"


def _nested(levels: int) -> str:
    """An array nested `levels` deep: `[[...]]`."""
    return "[" * levels + "]" * levels


@pytest.mark.parametrize(
    "command, instance_text, coloring_text",
    [
        pytest.param(
            "color", P3_TEXT.replace("[[0,1],[1,2]]}", "[[0.9,1],[1,2]]}"), None,
            id="float_edge",
        ),
        pytest.param(
            "color", P3_TEXT.replace('"root":1', '"root":"1"'), None, id="string_root"
        ),
        pytest.param(
            "color", P3_TEXT.replace("[[1,0]]", "[[1,false]]"), None, id="bool_arc"
        ),
        pytest.param(
            "verify", P3_TEXT, '{"colors":[1.9,true,2]}', id="float_bool_colors"
        ),
        pytest.param(
            "verify", P3_TEXT, '{"colors":[1,1,2],"original_colors":[1.0]}',
            id="float_original_colors",
        ),
        pytest.param(
            "bound", '{"tree":{"vertices":true,"edges":[]},"subtrees":[]}', None,
            id="bool_vertices",
        ),
        pytest.param("color", b"\xff\xfe{}", None, id="non_utf8_instance"),
        pytest.param("verify", P3_TEXT, b'{"colors":[1,1,2]}\xff', id="non_utf8_coloring"),
        pytest.param("bound", "[" * 1000, None, id="deep_instance"),
        pytest.param(
            "verify", P3_TEXT, '{"colors":' + "[" * 1000 + "]" * 1000 + "}",
            id="deep_coloring",
        ),
        *(
            pytest.param(
                command, HUGE_INT_TEXT, '{"colors":[]}' if command == "verify" else None,
                id=f"huge_int_{command.split()[0]}",
            )
            for command in ("color", "exact", "bound", "verify", "bench --instance")
        ),
        pytest.param("verify", P3_TEXT, HUGE_COLOR_TEXT, id="huge_int_verify_color"),
    ],
)
def test_non_integer_input_exit_2(tmp_path, capsys, command, instance_text, coloring_text):
    """Input values are never coerced: anything but a JSON integer is
    rejected with exit 2 and nothing on stdout, and so are documents that
    are not UTF-8, nest deeper than the JSON parser can follow or hold an
    integer longer than it converts (4,300 digits by default), without
    Python's advice on raising that limit, which no option can act on."""

    def write(path, text):
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        return str(path)

    argv = [*command.split(), write(tmp_path / "inst.json", instance_text)]
    if coloring_text is not None:
        argv.append(write(tmp_path / "col.json", coloring_text))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert "set_int_max_str_digits" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, instance_text, coloring_text, message",
    [
        pytest.param(
            "color", "not json", None,
            "instance document is not valid JSON: Expecting value: line 1 column 1 (char 0)",
            id="bad_json_instance",
        ),
        pytest.param(
            "verify", P3_TEXT, '{"colors":[1,1,2]',
            "coloring document is not valid JSON: "
            "Expecting ',' delimiter: line 1 column 18 (char 17)",
            id="bad_json_coloring",
        ),
        pytest.param(
            "bound", "[" * 100_000, None, "instance document is nested too deeply",
            id="deep_instance",
        ),
        pytest.param(
            "verify", P3_TEXT, '{"colors":' + "[" * 100_000 + "]" * 100_000 + "}",
            "coloring document is nested too deeply", id="deep_coloring",
        ),
        pytest.param(
            "color", HUGE_INT_TEXT, None,
            "instance document holds an integer too long to read", id="huge_int_instance",
        ),
        pytest.param(
            "verify", P3_TEXT, HUGE_COLOR_TEXT,
            "coloring document holds an integer too long to read", id="huge_int_coloring",
        ),
        pytest.param(
            "color", '{"tree":{"vertices":2,"edges":[[0,1]]}}', None,
            "malformed instance document: missing key 'subtrees'", id="missing_subtrees",
        ),
        pytest.param(
            "verify", P3_TEXT, '{"num_colors":2}',
            "malformed coloring document: missing key 'colors'", id="missing_colors",
        ),
        *(
            pytest.param(
                command, text, None, f"malformed instance document: {message}",
                id=f"{name}_{command}",
            )
            for command in ("color", "bound")
            for name, text, message in (
                ("top_level_array", "[[0,1]]", "expected an object, got [[0, 1]]"),
                ("tree_array", '{"tree":[3],"subtrees":[]}', "expected an object, got [3]"),
                (
                    "subtrees_object",
                    '{"tree":{"vertices":2,"edges":[[0,1]]},"subtrees":{"root":0}}',
                    'expected an array, got {"root": 0}',
                ),
                (
                    "edges_empty_object",
                    '{"tree":{"vertices":1,"edges":{}},"subtrees":[]}',
                    "expected an array, got {}",
                ),
                (
                    "edge_triple",
                    '{"tree":{"vertices":3,"edges":[[0,1,2]]},"subtrees":[]}',
                    "expected a pair of integers, got [0, 1, 2]",
                ),
                (
                    "edge_int",
                    '{"tree":{"vertices":2,"edges":[5]},"subtrees":[]}',
                    "expected a pair of integers, got 5",
                ),
                (
                    "arcs_string",
                    '{"tree":{"vertices":2,"edges":[[0,1]]},'
                    '"subtrees":[{"root":0,"arcs":"ab"}]}',
                    'expected an array, got "ab"',
                ),
            )
        ),
        pytest.param(
            "verify", P3_TEXT, '{"colors":5}',
            "malformed coloring document: expected an array, got 5", id="colors_int",
        ),
        pytest.param(
            "verify", P3_TEXT, '{"colors":[1,1,2],"original_colors":7}',
            "malformed coloring document: expected an array, got 7",
            id="original_colors_int",
        ),
        pytest.param(
            "verify", P3_TEXT, '"1,1,2"',
            'malformed coloring document: expected an object, got "1,1,2"',
            id="coloring_string",
        ),
        pytest.param(
            "verify", P3_TEXT, '{"colors":[' + _nested(500) + "]}",
            "coloring document is nested too deeply", id="deep_color",
        ),
        # the document object and the colors array are two levels, the
        # document object, the subtrees array and a subtree object three
        pytest.param(
            "verify", P3_TEXT, '{"colors":[' + _nested(MAX_DEPTH - 1) + "]}",
            "coloring document is nested too deeply", id="color_over_depth_limit",
        ),
        pytest.param(
            "verify", P3_TEXT, '{"colors":[' + _nested(MAX_DEPTH - 2) + "]}",
            "malformed coloring document: expected an integer, got a long JSON array",
            id="color_at_depth_limit",
        ),
        pytest.param(
            "color",
            '{"tree":{"vertices":2,"edges":[[0,1]]},'
            f'"subtrees":[{{"root":{_nested(MAX_DEPTH - 2)},"arcs":[[0,1]]}}]}}',
            None,
            "instance document is nested too deeply",
            id="root_over_depth_limit",
        ),
        pytest.param(
            "bound", P3_TEXT[:-1] + f',"note":{_nested(MAX_DEPTH)}}}', None,
            "instance document is nested too deeply", id="extra_key_over_depth_limit",
        ),
        pytest.param(
            "color",
            '{"tree":{"vertices":2,"edges":[[0,1]]},'
            f'"subtrees":[{{"root":{list(range(2000))},"arcs":[[0,1]]}}]}}',
            None,
            "malformed instance document: expected an integer, got a long JSON array",
            id="long_root",
        ),
    ],
)
def test_document_defect_messages(
    tmp_path, capsys, command, instance_text, coloring_text, message
):
    """Each defect of a document has one fixed message naming the document,
    one short line however long or deep the offending value is, and exits
    2 with nothing on stdout."""
    argv = [command, str(tmp_path / "inst.json")]
    (tmp_path / "inst.json").write_text(instance_text, encoding="utf-8")
    if coloring_text is not None:
        argv.append(str(tmp_path / "col.json"))
        (tmp_path / "col.json").write_text(coloring_text, encoding="utf-8")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert len(message) < 100


# json.dumps writes NaN and Infinity, which json.loads reads back as floats
JSON_SCALARS = st.one_of(
    st.integers(-3, 12), st.floats(), st.text(max_size=3), st.booleans(), st.none()
)
JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.lists(JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=2), JSON_SCALARS, max_size=2),
)


def _paths(node, path=()):
    """Paths (key and index tuples) to every node of a JSON document."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutated(doc, data) -> bytes:
    """`doc` as UTF-8 JSON with one node replaced, deleted or (in a list)
    duplicated, or its bytes cut short at an offset, or a byte that is
    never valid UTF-8 there (the text is ASCII) inserted at one."""
    op = data.draw(
        st.sampled_from(["replace", "delete", "duplicate", "truncate", "non-utf-8"])
    )
    if op in ("truncate", "non-utf-8"):
        raw = json.dumps(doc).encode()
        at = data.draw(st.integers(0, len(raw) - 1))
        if op == "truncate":
            return raw[:at]
        return raw[:at] + bytes([data.draw(st.integers(0x80, 0xFF))]) + raw[at:]
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        doc = data.draw(JSON_VALUES)
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if op == "delete":
            del parent[key]
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = data.draw(JSON_VALUES)
    return json.dumps(doc).encode()


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["color", "bound", "exact", "verify", "bench"]),
    vertices=st.integers(2, 7),
    count=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_mutated_documents_never_raise(command, vertices, count, seed, data):
    """Every input document either works or exits 2 with a message: no
    single-field or single-byte mutation of a valid instance or coloring
    reaches a traceback, and so none reaches the unchecked internal
    paths."""
    inst = generate_instance(GenParams(vertices, 3, count, (1, 3), seed))
    inst_doc = json.loads(dumps_instance(inst))
    norm = normalize(inst)
    col_doc = json.loads(
        dumps_coloring(
            greedy_color(norm.padded).coloring.color_list(norm.padded.size),
            original_count=norm.original_count,
        )
    )
    inst_bytes, col_bytes = json.dumps(inst_doc).encode(), json.dumps(col_doc).encode()
    if command == "verify" and data.draw(st.booleans()):
        col_bytes = _mutated(col_doc, data)
    else:
        inst_bytes = _mutated(inst_doc, data)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = Path(tmp) / "inst.json"
        inst_path.write_bytes(inst_bytes)
        argv = [command, str(inst_path)]
        if command == "verify":
            col_path = Path(tmp) / "col.json"
            col_path.write_bytes(col_bytes)
            argv.append(str(col_path))
        elif command == "bench":
            argv = [command, "--instance", str(inst_path)]
        elif command == "color":
            argv += ["--root", str(data.draw(st.integers(-1, 7)))]
            if data.draw(st.booleans()):
                argv.append("--no-normalize")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert out.getvalue() == ""


SMALL_INTS = st.integers(-2, 6)
NUMERIC_FLAGS = {
    "gen": {
        "--vertices": SMALL_INTS,
        "--max-degree": st.integers(1, 4),
        "--subtrees": SMALL_INTS,
        "--min-arcs": SMALL_INTS,
        "--max-arcs": SMALL_INTS,
        "--seed": SMALL_INTS,
    },
    "bench": {
        "--instances": st.integers(-1, 3),
        "--seed": SMALL_INTS,
        "--max-vertices": SMALL_INTS,
        "--max-degree": st.integers(1, 4),
        "--max-subtrees": SMALL_INTS,
        "--min-arcs": SMALL_INTS,
        "--max-arcs": SMALL_INTS,
        "--root": SMALL_INTS,
        "--exact-limit": st.integers(-2, 16),
    },
    "color": {"--root": SMALL_INTS},
    "exact": {"--limit": st.integers(-2, 16)},
    "bound": {"--limit": st.integers(-2, 16)},
}
# flags always set: gen's required ones, and a bounded bench sweep
REQUIRED = {"--vertices", "--subtrees", "--seed", "--instances"}


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(NUMERIC_FLAGS)), data=st.data())
def test_numeric_flags_never_raise(command, data):
    """Any subset of a subcommand's integer flags, each set to a small value
    (negatives and out-of-range ones included), exits 0, 1 or 2, and exit 2
    comes with an error line and nothing on stdout.  An argparse rejection
    (`--max-degree` outside its choices) is exit 2 through SystemExit."""
    argv = [command]
    if command in ("color", "exact", "bound"):
        argv.append(str(GOLDEN / "star_demo_instance.json"))
    for flag, values in NUMERIC_FLAGS[command].items():
        if flag in REQUIRED or data.draw(st.booleans()):
            argv += [flag, str(data.draw(values))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert code in (0, 1, 2)
    if code == 2:
        assert "error: " in err.getvalue()
        assert out.getvalue() == ""


def test_bench_csv_byte_stable(tmp_path):
    csv1 = tmp_path / "one.csv"
    csv2 = tmp_path / "two.csv"
    argv = ["bench", "--instances", "15", "--seed", "4"]
    assert main(argv + ["--csv", str(csv1)]) == 0
    assert main(argv + ["--csv", str(csv2)]) == 0
    assert csv1.read_bytes() == csv2.read_bytes()
    assert csv1.read_text(encoding="utf-8").count("\n") == 16


def test_bench_csv_summary_bytes(tmp_path, capsys):
    """Under --csv the summary line is stdout: a missing ratio prints as
    `-`, a float with six digits."""
    argv = [
        "bench", "--instances", "10", "--seed", "2", "--solvers", "greedy,bounds",
        "--max-vertices", "40", "--max-subtrees", "60", "--max-arcs", "5",
        "--csv", str(tmp_path / "out.csv"),
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "summary: instances=10 with_exact=0 max_ratio_vs_exact=- "
        "mean_ratio_vs_exact=- max_ratio_vs_lower_bound=1.166667 "
        "mean_ratio_vs_lower_bound=1.024359 failures=0\n"
    )


def test_bench_csv_dash_is_stdout(tmp_path, monkeypatch, capsys):
    """`--csv -` behaves as no `--csv`: the CSV is stdout, the summary
    line is stderr, and no file named `-` is written."""
    monkeypatch.chdir(tmp_path)
    argv = ["bench", "--instances", "6", "--seed", "3"]
    runs = []
    for extra in ([], ["--csv", "-"]):
        assert main(argv + extra) == 0
        out, err = capsys.readouterr()
        runs.append((out, re.sub(r"solver wall time: .*\n", "", err)))
    assert runs[0] == runs[1]
    out, err = runs[1]
    assert out.startswith("instance_id,") and out.count("\n") == 7
    assert err.startswith("summary: instances=6 ")
    assert list(tmp_path.iterdir()) == []


def test_bench_reports_one_wall_time_line(capsys):
    assert main(["bench", "--instances", "3", "--seed", "1"]) == 0
    err = capsys.readouterr().err
    assert len(re.findall(r"^solver wall time: \d+\.\d ms$", err, re.M)) == 1
    assert err.count("solver wall time") == 1


def test_bench_fixed_instance(inst_file, tmp_path, capsys):
    csv = tmp_path / "fixed.csv"
    assert main(["bench", "--instance", str(inst_file), "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "summary:" in out
    rows = csv.read_text(encoding="utf-8").strip().split("\n")
    assert len(rows) == 2


@pytest.fixture
def star4_file(tmp_path):
    """A star whose centre has degree 4, one subtree per arm."""
    star = HostTree.of(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    subtrees = tuple(RootedSubtree.of(0, [[0, v]]) for v in range(1, 5))
    path = tmp_path / "star4.json"
    path.write_text(dumps_instance(Instance(star, subtrees)), encoding="utf-8")
    return path


@pytest.mark.parametrize("root", [[], ["--root", "9"]])
def test_color_rejects_degree_4_before_the_root(star4_file, capsys, root):
    """The degree rule is checked first, so an out-of-range root does not
    change the message."""
    assert main(["color", str(star4_file)] + root) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: greedy coloring requires host tree degree <= 3\n"


def test_degree_agnostic_commands_accept_degree_4(star4_file, capsys):
    assert main(["bound", str(star4_file)]) == 0
    assert json.loads(capsys.readouterr().out)["global_lower_bound"] == 1
    argv = ["bench", "--instance", str(star4_file), "--solvers", "bounds,baseline,exact"]
    assert main(argv) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["exact_chromatic"] == cells["baseline_colors"] == "1"
    assert cells["greedy_colors_padded"] == ""


def test_bench_solver_subset(tmp_path):
    csv = tmp_path / "subset.csv"
    argv = [
        "bench", "--instances", "5", "--seed", "1",
        "--solvers", "greedy,bounds", "--csv", str(csv),
    ]
    assert main(argv) == 0
    header, first = csv.read_text(encoding="utf-8").strip().split("\n")[:2]
    cells = dict(zip(header.split(","), first.split(",")))
    assert cells["exact_chromatic"] == ""
    assert cells["baseline_colors"] == ""
    assert cells["greedy_colors_padded"] != ""
