"""Command line behavior: outputs, exit codes, and report determinism."""

import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

try:
    import tomllib
except ImportError:  # Python 3.10
    tomllib = None

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wienerseq
from conftest import arbitrary_graphs, connected_graphs
from wienerseq import complete, enumerate_maximal_planar, indices, verifier
from wienerseq.cli import main
from wienerseq.enumeration import CONNECTED_MAX_N
from wienerseq.graphs import is_connected, write_graph6
from wienerseq.indices import INDICES

# two trees on seven vertices whose sequences disagree in both directions
INCOMPARABLE = ("FsOGO", "FsO__")

ERROR_PREFIX = {2: "usage error: ", 3: "input error: "}


def test_compute_text_output(capsys):
    code = main(
        ["compute", "--family", "oddcat:6", "--index", "wiener", "--index", "harary"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "graph: n=6 m=5" in out
    assert "distance sequence: 1^5 2^6 3^4" in out
    assert "wiener = 29" in out
    assert "harary = 28/3" in out


def test_compute_json_output(capsys):
    code = main(
        [
            "compute",
            "--family",
            "pk:6,8",
            "--index",
            "variable_wiener:2",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == wienerseq.__version__
    assert doc["config"] == {
        "command": "compute",
        "inputs": [],
        "families": ["pk:6,8"],
        "klass": None,
        "suite": None,
        "indices": ["variable_wiener:2"],
        "fmt": "json",
        "jobs": 1,
        "out": None,
    }
    assert doc["n"] == 6 and doc["m"] == 8
    (entry,) = doc["indices"]
    assert entry["name"] == "variable_wiener" and entry["lambda"] == 2.0


def test_compute_one_vertex_graph_has_empty_sum_and_product(capsys):
    # K1 has no pairs: a sum index is the empty sum, a product the empty one
    argv = ["compute", "--family", "path:1", "--format", "json", "--index", "wiener",
            "--index", "harary", "--index", "mult_wiener"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["distance_sequence"] == []
    assert [(e["name"], e["value"], e["exact_value"]) for e in doc["indices"]] == [
        ("wiener", 0, "0"),
        ("harary", 0, "0"),
        ("mult_wiener", 1, "1"),
    ]


def test_compute_inline_graph6(capsys):
    assert main(["compute", "--input", "D?{"]) == 0
    assert "n=5 m=4" in capsys.readouterr().out


def test_compute_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("D?{\n"))
    assert main(["compute", "--input", "-"]) == 0
    assert "n=5 m=4" in capsys.readouterr().out


def test_compute_edge_list_file(tmp_path, capsys):
    src = tmp_path / "g.el"
    src.write_text("4\n0 1\n1 2\n2 3\n0 3\n")
    assert main(["compute", "--input", str(src)]) == 0
    assert "1^4 2^2" in capsys.readouterr().out


def test_compute_disconnected_names_pair(tmp_path, capsys):
    src = tmp_path / "g.el"
    src.write_text("4\n0 1\n2 3\n")
    assert main(["compute", "--input", str(src)]) == 3
    err = capsys.readouterr().err
    assert "no path between" in err


@pytest.mark.parametrize(
    "text,pair",
    [
        ("1000000\n", (0, 1)),
        ("1000000\n0 1\n", (0, 2)),
        ("5\n1 2\n0 3\n", (0, 4)),
        ("3\n1 2\n", (0, 1)),
    ],
)
@pytest.mark.parametrize("command", ["compute", "compare"])
def test_edge_list_with_isolated_vertex_fails_before_allocating(
    text, pair, command, capsys, monkeypatch
):
    # More declared vertices than twice the edges leaves one on no edge.
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    argv = [command, "--input", "-"] + ["--family", "path:3"] * (command == "compare")
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "no path between %d and %d" % pair in capsys.readouterr().err
    assert peak < 1 << 20


def test_compute_requires_one_graph(capsys):
    assert main(["compute"]) == 2
    assert main(["compute", "--family", "path:4", "--family", "path:5"]) == 2


def test_compute_out_file(tmp_path):
    target = tmp_path / "report.json"
    code = main(
        ["compute", "--family", "path:4", "--format", "json", "--out", str(target)]
    )
    assert code == 0
    assert json.loads(target.read_text())["n"] == 4


def test_compare_comparable_exits_zero(capsys):
    code = main(["compare", "--family", "path:5", "--family", "star:5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "relation: greater" in out


def test_compare_incomparable_exits_one(capsys):
    a, b = INCOMPARABLE
    code = main(["compare", "--input", a, "--input", b, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["relation"] == "incomparable"
    assert doc["less_at"] == 12 and doc["greater_at"] == 17


def test_compare_incomparable_text_names_both_coordinates(capsys):
    a, b = INCOMPARABLE
    assert main(["compare", "--input", a, "--input", b]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2:] == [
        "relation: incomparable",
        "first strictly smaller coordinate: 12",
        "first strictly larger coordinate: 17",
    ]


def test_compare_mixed_orders_is_input_error(capsys):
    assert main(["compare", "--family", "path:4", "--family", "path:5"]) == 3


def test_construct_graph6(capsys):
    assert main(["construct", "--family", "pk:7,9"]) == 0
    assert capsys.readouterr().out == "F~_GG\n"


def test_construct_edge_list(capsys):
    assert main(["construct", "--family", "path:3", "--format", "edgelist"]) == 0
    assert capsys.readouterr().out == "3\n0 1\n1 2\n"


def test_enumerate_to_file(tmp_path, capsys):
    target = tmp_path / "trees.g6"
    code = main(["enumerate", "--class", "k_tree:6,1", "--out", str(target)])
    assert code == 0
    records = target.read_text().split()
    assert len(records) == 6
    summary = json.loads(capsys.readouterr().out)
    assert summary["class"] == "k_tree"
    assert summary["n"] == 6 and summary["params"] == [1]
    assert summary["count"] == 6


def test_enumerate_to_stdout(capsys):
    code = main(["enumerate", "--class", "connected:4"])
    captured = capsys.readouterr()
    assert code == 0
    assert len(captured.out.split()) == 6
    assert json.loads(captured.err)["count"] == 6


def test_enumerate_empty_class_writes_nothing(tmp_path, capsys):
    # No connected graph has 5 vertices and 2 edges: both paths give empty
    # output, not a blank graph6 record.
    target = tmp_path / "none.g6"
    assert main(["enumerate", "--class", "connected:5,2", "--out", str(target)]) == 0
    assert target.read_text() == ""
    assert json.loads(capsys.readouterr().out)["count"] == 0
    assert main(["enumerate", "--class", "connected:5,2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["count"] == 0


# sha256 of `enumerate --class SPEC` stdout.  A change to the labeling or
# the graph6 writer that rewrites these records must re-pin them and say so,
# with the unchanged class sets of test_canonical.OLD_RECORDS beside them.
ENUMERATE_DIGESTS = {
    "connected:7": "d72c0c81caeb24a1eb2d76a49dc78b92edd6ba5ba92a74daeb06c18e61c5956e",
    "k_tree:10,3": "23ce905881cee3027458306b55bc8e02686279511aa836107546e857680f3cae",
    "apollonian:11": "d137a64155ad143f5472ba144cd28996b7b598d911aa3d48bbe3d42784220d33",
    "maximal_planar:9": "74e909e99d923dbdb168a7fbef2e162fb851b8ff670e840f60d0ff1bf0df9f50",
    "odd_tree:14": "7f8afd6c37d49a009c0b45d254e1ef563e40cce21ddc94a544a56e55e708af0f",
}


@pytest.mark.parametrize("spec", sorted(ENUMERATE_DIGESTS))
def test_enumerate_output_is_pinned(spec, capsys):
    assert main(["enumerate", "--class", spec]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DIGESTS[spec]


def test_enumerate_unknown_class(capsys):
    for spec in ("nope:5", "connected", "k_tree:8", "k_tree:8,2,1", "connected:x",
                 "k_tree:8,2,", "connected:5,-3", "connected:5,99",
                 "maximal_k_degenerate:5,0"):
        assert main(["enumerate", "--class", spec]) == 2
        assert "usage error:" in capsys.readouterr().err


def test_verify_json_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["verify", "--suite", "order_size:5", "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["suite"] == "order_size"
    assert doc["graphs_checked"] == 21
    assert doc["violations"] == []
    assert doc["version"] == wienerseq.__version__
    assert doc["config"]["suite"] == "order_size:5"
    assert "PASS" in capsys.readouterr().err


def test_verify_csv(capsys):
    code = main(["verify", "--suite", "deletion:4", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[1].startswith("deletion,n=4,6,0,")


def test_verify_reports_agree_across_sharding(tmp_path):
    keep = ("suite", "params", "graphs_checked", "violations", "equality_witnesses")
    docs = []
    for i, jobs in enumerate(("1", "5")):
        target = tmp_path / ("r%d.json" % i)
        code = main(
            [
                "verify",
                "--suite",
                "connectivity:6,2",
                "--jobs",
                jobs,
                "--out",
                str(target),
            ]
        )
        assert code == 0
        doc = json.loads(target.read_text())
        docs.append({k: doc[k] for k in keep})
    assert docs[0] == docs[1]


def test_verify_rejects_bad_suites(capsys):
    assert main(["verify", "--suite", "nonsense:5"]) == 2
    assert main(["verify", "--suite", "order_size"]) == 2
    assert main(["verify", "--suite", "order_size:%d" % (CONNECTED_MAX_N + 1)]) == 2
    assert main(["verify", "--suite", "connectivity:6,3"]) == 2
    for spec in ("order_size:6,7", "connectivity:6", "order_size:x", "order_size:6,",
                 "k_degenerate:6,2,", "k_degenerate:6,2,k_tree,1"):
        assert main(["verify", "--suite", spec]) == 2
    # the maximal planar search belongs to explore
    assert main(["verify", "--suite", "maximal_planar:6"]) == 2
    assert "unknown suite 'maximal_planar'" in capsys.readouterr().err


def test_explore_flip_and_apollonian(tmp_path, capsys):
    target = tmp_path / "search.json"
    code = main(["explore", "--class", "maximal_planar:6", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 0
    assert "no counterexample at order 6, coverage = complete" in captured.out
    assert json.loads(target.read_text())["coverage"] == "complete"

    code = main(["explore", "--class", "maximal_planar:6", "--apollonian-only"])
    assert code == 0
    assert "coverage = partial" in capsys.readouterr().out


def test_explore_reports_counts_like_verify(capsys):
    # The 2 maximal planar graphs of order 6 pass, and both have 12 edges
    # and diameter 2, so both equal P_6^3's sequence.
    code = main(["explore", "--class", "maximal_planar:6"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "no counterexample at order 6, coverage = complete\n"
    assert re.fullmatch(
        r"PASS maximal_planar:6: 2 graphs, 0 violations, 2 equality witnesses"
        r" \(\d+\.\d\ds\)\n",
        captured.err,
    )


def test_explore_lists_counterexample_candidates(monkeypatch, capsys):
    # Against K_n in place of the cube of the path, both maximal planar
    # graphs of order 6 are undominated: explore lists their records and
    # exits 1.
    monkeypatch.setattr(verifier, "path_power", lambda n, k: complete(n))
    code = main(["explore", "--class", "maximal_planar:6"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    records = sorted(write_graph6(g) for g in enumerate_maximal_planar(6))
    assert out[0] == "counterexample candidates at order 6 (coverage = complete):"
    assert sorted(out[1:]) == ["  " + r for r in records]


def test_compute_evaluates_each_index_once(monkeypatch, capsys):
    # An exact index is evaluated once and its float read off the exact
    # value; an index with a float term is evaluated again as a float.
    calls = []
    real = indices._value

    def counting(defn, runs):
        calls.append(defn.name)
        return real(defn, runs)

    monkeypatch.setattr(indices, "_value", counting)
    argv = ["compute", "--family", "path:5", "--index", "wiener"]
    assert main(argv + ["--index", "variable_wiener:0.5"]) == 0
    assert calls == ["wiener", "variable_wiener", "variable_wiener"]
    assert "wiener = 20" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,code",
    [
        (["construct", "--family", "pk:6"], 2),
        (["construct", "--family", "pk:6,8,"], 2),
        (["compute", "--family", "path:4", "--index", "wiener:2"], 2),
        (["compute", "--family", "path:4", "--index", "variable_wiener:x"], 2),
        (["compute", "--family", "path:4", "--index", "variable_wiener:inf"], 2),
        (["compute", "--family", "path:4", "--index", "gen_hyper_wiener:nan"], 2),
        (["explore", "--class", "maximal_planar"], 2),
        (["explore", "--class", "maximal_planar:x"], 2),
        (["explore", "--class", "maximal_planar:6,7"], 2),
        (["explore", "--class", "connected:6"], 2),
        (["compute", "--family", "path:1", "--index", "diameter"], 3),
        (["compute", "--input", "@", "--index", "diameter"], 3),
        (["compute", "--family", "path:3", "--index", "variable_wiener:5000"], 3),
        (["compute", "--family", "path:3", "--index", "gen_hyper_wiener:3000"], 3),
        (["compute", "--family", "path:3", "--index", "variable_wiener:-20000"], 3),
        (["compute", "--family", "cycle:7", "--index", "gen_hyper_wiener:-20000"], 3),
        (["compute", "--family", "cycle:7", "--index", "gen_hyper_wiener:-20000",
          "--format", "json"], 3),
        (["compare", "--family", "path:4"], 2),
        (["compare", "--family", "path:4", "--family", "path:4", "--family", "path:4"], 2),
        (["construct"], 2),
        (["construct", "--family", "pathpow:1,0"], 2),
    ],
)
def test_bad_spec_or_input_exit_code(argv, code, capsys):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(ERROR_PREFIX[code]), err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--family", "path:3", "--format", "csv"],
        ["compare", "--family", "path:3", "--family", "star:3", "--format", "edgelist"],
        ["construct", "--family", "path:3", "--format", "json"],
        ["verify", "--suite", "deletion:3", "--format", "xml"],
        ["enumerate", "--class", "connected:3", "--format", "json"],
        ["explore", "--class", "maximal_planar:4", "--format", "json"],
        ["verify", "--suite", "deletion:3", "--seed", "1"],
        ["verify", "--suite", "deletion:3", "--shards", "2"],
        ["explore", "--class", "maximal_planar:4", "--shards", "2"],
        ["enumerate", "--class", "connected:3", "--max-n", "6"],
        ["verify", "--suite", "deletion:3", "--max-n", "6"],
        ["explore", "--class", "maximal_planar:4", "--max-n", "6"],
        ["construct", "--input", "D?{"],
    ],
)
def test_unsupported_option_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_jobs_flag_validation(capsys):
    assert main(["verify", "--suite", "deletion:3", "--jobs", "0"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "deletion:4"],
        ["compute", "--family", "path:4"],
        ["enumerate", "--class", "connected:3"],
        ["explore", "--class", "maximal_planar:4"],
    ],
)
def test_unwritable_out_path_is_input_error(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(argv + ["--out", str(target)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: [Errno 2] ")
    assert str(target) in err


def test_undecodable_input_exits_three(tmp_path, capsys, monkeypatch):
    # A UTF-16 byte order mark is not UTF-8, from a file or from stdin.
    src = tmp_path / "g.el"
    src.write_bytes(b"\xff\xfe4\x00\n\x000\x00 \x001\x00\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"))
    for source in (str(src), "-"):
        assert main(["compute", "--input", source]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: 'utf-8' codec can't decode byte 0xff"), err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "lam",
    [sign + x for x in ("1e308", "8.98846567431158e307", "1.7976931348623157e308")
     for sign in ("", "-")],
)
def test_gen_hyper_wiener_largest_exponents_on_diameter_one(lam, capsys):
    # 2 * lambda overflows to inf here, yet every distance of K_4 is 1
    argv = ["compute", "--family", "complete:4", "--index", "gen_hyper_wiener:" + lam]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(" = 6")


@st.composite
def graph_documents(draw):
    """(document, graph): a graph6 record or edge list of a drawn graph, or
    arbitrary text or bytes with graph None."""
    form = draw(st.sampled_from(("graph6", "edgelist", "text", "bytes")))
    if form == "bytes":
        # mostly not UTF-8: a file or stdin that cannot be decoded
        return draw(st.binary(max_size=64)), None
    if form == "text":
        # Up to 64 characters, room for a first line of 10^60 vertices:
        # an edge list that declares more than twice as many vertices as
        # it has edges must fail as disconnected before allocating.
        return draw(st.text(max_size=64)), None
    g = draw(st.one_of(arbitrary_graphs(max_n=8), connected_graphs(max_n=8)))
    if form == "graph6":
        return write_graph6(g), g
    return "\n".join([str(g.n)] + ["%d %d" % e for e in g.edges]) + "\n", g


# |lambda| <= 1e4 keeps the exact values of these graphs of at most 8
# vertices under the size bound, so most drawn specs are evaluated.
exponents = st.integers(-10**4, 10**4) | st.floats(-1e4, 1e4)
parametric = sorted(name for name, entry in INDICES.items() if entry.args)
index_specs = st.one_of(
    st.sampled_from(sorted(INDICES)),
    st.builds("{}:{!r}".format, st.sampled_from(sorted(INDICES)), exponents),
    # valid exponents come up often only with a branch of their own
    st.builds("{}:{!r}".format, st.sampled_from(parametric), exponents),
)


def _decodes(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@given(
    graph_documents(),
    st.sampled_from(("inline", "stdin", "file")),
    st.lists(index_specs, max_size=3),
)
@settings(deadline=None, max_examples=200)
def test_compute_input_paths_map_bad_input_to_exit_codes(document, via, specs):
    text, g = document
    data = text if isinstance(text, bytes) else text.encode()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        # every path gets the document on stdin, so an inline "-" reads it too
        mp.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        # an argument carries undecodable bytes as surrogates
        source = {"inline": data.decode("utf-8", "surrogateescape"), "stdin": "-"}.get(via)
        if via == "file":
            source = os.path.join(tmp, "graph.txt")
            with open(source, "wb") as fh:
                fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["compute", "--input=" + source] + ["--index=" + s for s in specs])
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith(ERROR_PREFIX[code]), err.getvalue()
    # a file or stdin that is not UTF-8 fails as input before any spec is read
    if via != "inline" and not _decodes(data):
        assert code == 3, err.getvalue()
    # a drawn graph survives every path that reads its form
    if g is not None and (via != "inline" or text == write_graph6(g)):
        if not specs:
            assert code == (0 if is_connected(g) else 3), err.getvalue()
        if code == 0:
            assert out.getvalue().startswith("graph: n=%d m=%d\n" % (g.n, g.m))


def test_large_exponent_overflow_exits_three_under_optimize(capsys):
    # every distance of K_4 is 1, so a large exponent stays finite there
    assert main(["compute", "--family", "complete:4", "--index", "variable_wiener:5000"]) == 0
    assert "variable_wiener:5000 = 6" in capsys.readouterr().out
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "wienerseq", "compute",
         "--family", "path:3", "--index", "variable_wiener:5000"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("input error: index variable_wiener:5000")
    assert "Traceback" not in proc.stderr


def test_oversized_exact_value_exits_three_at_once(capsys):
    # cycle:7 has distances up to 3, and 3^(10^8) alone would take minutes
    # to compute exactly; the library refuses it before taking any power.
    for spec, shown in (
        ("variable_wiener:100000000", "variable_wiener:1e+08"),
        ("gen_hyper_wiener:-200000", "gen_hyper_wiener:-200000"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "wienerseq", "compute",
             "--family", "cycle:7", "--index", spec],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("input error: index %s: " % shown)
        assert "over the bound" in proc.stderr
    # A smaller negative exponent is cheap on C_7 and still evaluated.
    assert main(["compute", "--family", "cycle:7", "--index", "gen_hyper_wiener:-2000"]) == 0
    assert "gen_hyper_wiener:-2000 = " in capsys.readouterr().out


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _declared_entry_point(pyproject: Path) -> str:
    text = pyproject.read_text()
    if tomllib is not None:
        return tomllib.loads(text)["project"]["scripts"]["wienerseq"]
    # Python 3.10 has no tomllib: find the line inside [project.scripts]
    section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert section, "pyproject.toml declares no [project.scripts]"
    entry = re.search(r'^wienerseq\s*=\s*"([^"]*)"\s*$', section.group(1), re.M)
    assert entry, "[project.scripts] declares no wienerseq entry"
    return entry.group(1)


def _child_env() -> dict:
    # the child loads the package this process imported, wherever it lives
    package_root = str(Path(wienerseq.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def test_console_script_version(tmp_path):
    """The declared ``wienerseq`` script is ``wienerseq.cli:main`` and prints
    the version, run as pip's wrapper runs it, as ``python -m wienerseq`` and,
    where one is installed, as the executable on PATH."""
    entry = _declared_entry_point(Path(__file__).parents[1] / "pyproject.toml")
    assert entry == "wienerseq.cli:main"
    module, func = entry.split(":")
    # what pip's generated wrapper does, with the declared target
    wrapper = (
        "import sys; from %s import %s as main; "
        "sys.argv = ['wienerseq', '--version']; sys.exit(main())" % (module, func)
    )
    commands = [
        [sys.executable, "-c", wrapper],
        [sys.executable, "-m", "wienerseq", "--version"],
    ]
    installed = shutil.which("wienerseq")
    if installed:
        commands.append([installed, "--version"])

    for cmd in commands:
        out = subprocess.run(
            cmd, capture_output=True, text=True, cwd=tmp_path, env=_child_env(), timeout=60
        )
        why = "%s exited %d, printed %r: %s" % (
            cmd, out.returncode, out.stdout, out.stderr
        )
        assert out.returncode == 0, why
        assert out.stdout.strip() == "wienerseq %s" % wienerseq.__version__, why
