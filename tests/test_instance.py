import pytest

from sensched.errors import InputError, ParseError
from sensched.instance import (
    build_coverage,
    build_graph,
    build_problem,
    parse_instance,
    resolve_sensors,
    resolve_targets,
)

GOOD = """\
# four-node path
nodes: 1, 2, 3, 4
edges: 1-2, 2-3, 3-4
sensors: 2, 3
targets: all-edges
lambda: 1
k: 2
sigma: 1
objective: detection
"""


def test_parse_good_instance():
    spec = parse_instance(GOOD)
    assert spec.nodes == ("1", "2", "3", "4")
    assert spec.edges == (("1", "2"), ("2", "3"), ("3", "4"))
    assert spec.sensors == ("2", "3")
    assert spec.targets == ("all-edges",)
    assert (spec.range_limit, spec.k, spec.sigma) == (1, 2, 1)
    assert spec.objective == "detection"


def test_build_problem_from_good_instance():
    g, inst = build_problem(parse_instance(GOOD))
    assert g.node_count == 4
    assert inst.coverage.n_x == 2 and inst.coverage.n_y == 3


def test_continuation_lines():
    text = GOOD.replace("edges: 1-2, 2-3, 3-4", "edges: 1-2,\n  2-3, 3-4")
    assert parse_instance(text).edges == (("1", "2"), ("2", "3"), ("3", "4"))


def test_sensors_all_and_explicit_targets():
    text = GOOD.replace("sensors: 2, 3", "sensors: all").replace(
        "targets: all-edges", "targets: 1, 3-4"
    )
    spec = parse_instance(text)
    g = build_graph(spec)
    assert resolve_sensors(spec, g) == [0, 1, 2, 3]
    targets = resolve_targets(spec, g)
    assert {(t.kind, t.id) for t in targets} == {("node", 0), ("edge", 2)}


def test_isolation_objective():
    text = GOOD.replace("objective: detection", "objective: isolation")
    spec = parse_instance(text)
    g = build_graph(spec)
    cov = build_coverage(spec, g)
    assert cov.objective == "isolation" and cov.n_y == 3


def test_parse_error_reports_line_numbers():
    bad = GOOD.replace("edges: 1-2, 2-3, 3-4", "edges: 1-2, 2+3")
    with pytest.raises(ParseError) as err:
        parse_instance(bad)
    assert "line 3" in str(err.value) and "2+3" in str(err.value)


def test_parse_rejects_unknown_key():
    with pytest.raises(ParseError) as err:
        parse_instance(GOOD + "bogus: 1\n")
    assert "bogus" in str(err.value)


def test_parse_rejects_duplicate_key():
    with pytest.raises(ParseError):
        parse_instance(GOOD + "k: 3\n")


def test_parse_rejects_bad_name():
    with pytest.raises(ParseError):
        parse_instance(GOOD.replace("nodes: 1, 2, 3, 4", "nodes: 1, 2, a b, 4"))


def test_parse_rejects_sigma_above_k():
    # the rule spans two keys; the message names the sigma line
    with pytest.raises(ParseError) as err:
        parse_instance(GOOD.replace("sigma: 1", "sigma: 3"))
    assert str(err.value) == "line 8: sigma (3) must not exceed k (2)"
    assert err.value.line_no == 8


def test_parse_rejects_nonpositive_values():
    with pytest.raises(ParseError):
        parse_instance(GOOD.replace("lambda: 1", "lambda: 0"))
    with pytest.raises(ParseError):
        parse_instance(GOOD.replace("k: 2", "k: nope"))


@pytest.mark.parametrize("text, line_no, message", [
    pytest.param("  1, 2\n" + GOOD, 1, "continuation line before any key",
                 id="continuation-first"),
    pytest.param(GOOD + "oops\n", 10, "expected `key: value`, got 'oops'", id="no-colon"),
    pytest.param(GOOD.replace("nodes: 1, 2, 3, 4", "nodes:"), 2, "node list is empty",
                 id="no-nodes"),
    pytest.param(GOOD.replace("objective: detection", "objective: coverage"), 9,
                 "objective must be detection or isolation, got 'coverage'",
                 id="bad-objective"),
])
def test_parse_rejects_malformed_lines(text, line_no, message):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == f"line {line_no}: {message}"
    assert err.value.line_no == line_no


def test_missing_required_key():
    # no line is at fault, so the message carries no line number
    with pytest.raises(ParseError) as err:
        parse_instance("nodes: a, b\n")
    assert str(err.value) == "missing required key 'edges'"
    assert err.value.line_no is None


def test_unresolved_edge_endpoints_listed():
    # each unknown name once, sorted, whatever its position in the edge list
    text = GOOD.replace("edges: 1-2, 2-3, 3-4", "edges: z9-1, 2-9, 8-4, 2-z9, 9-8")
    with pytest.raises(InputError) as err:
        build_graph(parse_instance(text))
    assert str(err.value) == "edge endpoints not in node list: 8, 9, z9"


def test_unresolved_sensor_and_target_names():
    spec = parse_instance(GOOD.replace("sensors: 2, 3", "sensors: 2, zz"))
    with pytest.raises(InputError) as err:
        resolve_sensors(spec, build_graph(spec))
    assert "zz" in str(err.value)

    spec = parse_instance(GOOD.replace("targets: all-edges", "targets: 1-4, 7"))
    with pytest.raises(InputError) as err:
        resolve_targets(spec, build_graph(spec))
    assert "1-4" in str(err.value) and "7" in str(err.value)


def test_many_listed_sensors_resolve_in_listed_order():
    n = 4000
    names = [f"n{i}" for i in range(n)]
    edges = ", ".join(f"{a}-{b}" for a, b in zip(names, names[1:]))
    listed = names[::-1]
    text = (GOOD.replace("nodes: 1, 2, 3, 4", "nodes: " + ", ".join(names))
            .replace("edges: 1-2, 2-3, 3-4", "edges: " + edges)
            .replace("sensors: 2, 3", "sensors: " + ", ".join(listed)))
    spec = parse_instance(text)
    g = build_graph(spec)
    assert resolve_sensors(spec, g) == list(range(n - 1, -1, -1))

    spec = parse_instance(text.replace("sensors: ", "sensors: zz, m7, zz, "))
    with pytest.raises(InputError) as err:
        resolve_sensors(spec, g)
    assert str(err.value) == "unknown sensor names: m7, zz"


def test_graph_only_instance_supports_lifetime_use():
    spec = parse_instance("nodes: a, b, c\nedges: a-b, b-c\n")
    g = build_graph(spec)
    assert g.node_count == 3
    with pytest.raises(InputError):
        build_problem(spec)


def test_shipped_instances_parse():
    from pathlib import Path

    base = Path(__file__).resolve().parent.parent / "instances"
    for name in ("path4", "star5", "petersen", "water1_standin", "water2_standin"):
        spec = parse_instance((base / f"{name}.instance").read_text())
        g, inst = build_problem(spec)
        assert inst.coverage.n_x >= 1
