"""The one range rule that every integer argument is held to."""

import re

import pytest

from wienerseq.cli import main
from wienerseq.enumeration import enumerate_k_connected
from wienerseq.families import (
    cycle,
    end_vertex_sequence_path_power,
    odd_caterpillar,
    path,
    path_complete,
)
from wienerseq.graphs import (
    Graph,
    degeneracy_check,
    graph_power,
    is_cut_vertex,
    is_k_connected,
)
from wienerseq.indices import order_size_lower_bound, wiener
from wienerseq.sequences import deletion_bound_check, vertex_distance_sequence
from wienerseq.verifier import verify_connectivity, verify_order_size

RANGE_MESSAGE = re.compile(
    r"^\w[\w ]* must be in -?\d+\.\.(-?\d+)?( step \d+)?, got -?\d+$"
)

# (id, call that must break the rule), one row per range check.
OUT_OF_RANGE = [
    ("Graph order", lambda: Graph(0)),
    ("degree low", lambda: path(3).degree(-1)),
    ("degree high", lambda: path(3).degree(3)),
    ("neighbors low", lambda: path(3).neighbors(-1)),
    ("neighbors high", lambda: path(3).neighbors(3)),
    ("has_edge first", lambda: path(3).has_edge(-1, 1)),
    ("has_edge second", lambda: path(3).has_edge(0, -1)),
    ("has_edge high", lambda: path(3).has_edge(0, 3)),
    ("is_cut_vertex", lambda: is_cut_vertex(path(3), 3)),
    ("is_k_connected", lambda: is_k_connected(path(3), 0)),
    ("degeneracy_check", lambda: degeneracy_check(path(3), 0)),
    ("graph_power", lambda: graph_power(path(3), 0)),
    ("vertex_distance_sequence", lambda: vertex_distance_sequence(path(3), -1)),
    ("deletion_bound_check", lambda: deletion_bound_check(path(3), 3)),
    ("cycle", lambda: cycle(2)),
    ("path_complete low", lambda: path_complete(5, 3)),
    ("path_complete high", lambda: path_complete(5, 11)),
    ("end_vertex_sequence_path_power", lambda: end_vertex_sequence_path_power(5, 5)),
    ("odd_caterpillar parity", lambda: odd_caterpillar(5)),
    ("odd_caterpillar low", lambda: odd_caterpillar(2)),
    ("order_size_lower_bound", lambda: order_size_lower_bound(wiener(), 5, 11)),
    ("jobs", lambda: verify_order_size(4, jobs=0)),
    ("connectivity kappa", lambda: verify_connectivity(6, 3)),
    ("connectivity order", lambda: verify_connectivity(4, 4)),
    ("k_connected kappa", lambda: next(enumerate_k_connected(5, 0))),
]


@pytest.mark.parametrize(
    "call", [call for _, call in OUT_OF_RANGE], ids=[name for name, _ in OUT_OF_RANGE]
)
def test_every_range_check_states_one_rule(call):
    with pytest.raises(ValueError) as caught:
        call()
    assert RANGE_MESSAGE.match(str(caught.value)), str(caught.value)


@pytest.mark.parametrize("family", ["oddcat:3", "cyclepow:5,0"])
def test_an_argument_out_of_range_is_a_usage_error(family, capsys):
    assert main(["construct", "--family", family]) == 2
    message = capsys.readouterr().err.strip().removeprefix("usage error: ")
    assert RANGE_MESSAGE.match(message), message
