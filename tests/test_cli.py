import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

import lpalattice
from lpalattice import OMEGA, Bundle, Graph
from lpalattice.cli import ParseFailure, _statements, main, parse_graph
from lpalattice.graph import MAX_CYCLE_CLOSURES

import helpers
from helpers import format_graph

TOEPLITZ_TEXT = """\
# loop plus sink
vertices u,v;
edge e: u->u;
edge f: u->v;
"""


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _split(statements, text):
    """The statements and positions read from text, then the error line if any."""
    out = []
    try:
        out.extend(statements(text))
    except ParseFailure as exc:
        out.append(str(exc))
    return out


class TestGraphParsing:
    def test_toeplitz(self):
        g = parse_graph(TOEPLITZ_TEXT)
        assert g == helpers.toeplitz()

    def test_single_vertex(self):
        assert parse_graph("vertices v;") == Graph(["v"], [])

    def test_omega_bundle(self):
        g = parse_graph("vertices w,a; bundle g: w->a * inf;")
        assert g == Graph(["w", "a"], [Bundle("g", "w", "a", OMEGA)])
        assert g.is_infinite_emitter("w")

    def test_finite_bundle(self):
        g = parse_graph("vertices u;\nbundle e: u->u * 3;")
        assert g.bundles[0].multiplicity == 3

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ParseFailure) as err:
            parse_graph("vertices u,u;")
        assert "duplicate" in str(err.value)

    def test_dangling_reference_rejected(self):
        with pytest.raises(ParseFailure):
            parse_graph("vertices u;\nedge e: u->zz;")

    def test_error_carries_position(self):
        with pytest.raises(ParseFailure) as err:
            parse_graph("vertices u;\n  edgy e: u->u;")
        assert "line 2, col 3" in str(err.value)

    def test_missing_semicolon(self):
        with pytest.raises(ParseFailure):
            parse_graph("vertices u")

    def test_statements_match_the_character_scanner(self):
        rng = random.Random(8)
        alphabet = "ab ;#\n\t\r\x0b\x1c\x85"
        for _ in range(20000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(32)))
            assert _split(_statements, text) == _split(helpers.scan_statements, text), repr(text)

    def test_a_long_run_of_spaces_parses_in_linear_time(self):
        started = time.perf_counter()
        g = parse_graph("vertices" + " " * 10**6 + "u;")
        assert time.perf_counter() - started < 1.0
        assert g == Graph(["u"], [])

    def test_round_trip_on_catalog(self):
        for g in (
            helpers.toeplitz(),
            helpers.fork(),
            helpers.omega_fork(),
            helpers.double_loop(),
            helpers.single_vertex(),
        ):
            assert parse_graph(format_graph(g)) == g


class TestCommands:
    def test_pairs_toeplitz(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        result = runner.invoke(main, ["pairs", "--graph", gfile])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["{}", "{v}", "{u,v}"]

    def test_pairs_json_is_byte_stable(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        outs = [
            runner.invoke(main, ["pairs", "--graph", gfile, "--json"]).output
            for _ in range(2)
        ]
        assert outs[0] == outs[1]
        assert json.loads(outs[0]) == {"pairs": ["{}", "{v}", "{u,v}"]}

    def test_pairs_dot(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        result = runner.invoke(main, ["pairs", "--graph", gfile, "--dot"])
        assert result.exit_code == 0
        assert result.output.startswith("digraph")
        assert '"{v}" -> "{u,v}"' in result.output

    def test_closure_and_saturate(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        assert runner.invoke(main, ["closure", "--graph", gfile, "u"]).output.strip() == "u,v"
        assert runner.invoke(main, ["closure", "--graph", gfile, "v"]).output.strip() == "v"
        fork = _write(tmp_path, "f.graph", "vertices u,v,w; edge a: u->v; edge b: u->w;")
        out = runner.invoke(main, ["saturate", "--graph", fork, "--set", "v,w"]).output
        assert out.strip() == "u,v,w"

    def test_cycles_command(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        result = runner.invoke(main, ["cycles", "--graph", gfile, "--json"])
        data = json.loads(result.output)
        assert data["cycles"][0]["cycle"] == "e.0"
        assert data["cycles"][0]["exclusive"] is True
        assert data["cycles"][0]["exit_closure"] == ["v"]

    def test_lattice_product_reproduces_prime_example(self, runner, tmp_path):
        gtext = "vertices v,w; edge e1: v->v; edge e2: v->v; edge f: v->w;"
        gfile = _write(tmp_path, "g.graph", gtext)
        left = _write(tmp_path, "a.json", json.dumps({"f": {"{w}": "(1)", "{v,w}": "(0)"}}))
        right = _write(tmp_path, "b.json", json.dumps({"f": {"{w}": "(2)", "{v,w}": "(4)"}}))
        result = runner.invoke(
            main,
            ["lattice-op", "--graph", gfile, "--ring", "Z", "product", left, right],
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["f"] == {"{w}": "(2)", "{v,w}": "(0)"}

    def test_graded_and_largest_graded(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        pair = _write(
            tmp_path,
            "p.json",
            json.dumps({"f": {"{v}": "(2)", "{u,v}": "(4)"}, "g": {"e.0": "<4, 2x+2>"}}),
        )
        assert (
            runner.invoke(
                main, ["graded", "--graph", gfile, "--ring", "Z", pair]
            ).output.strip()
            == "not graded"
        )
        result = runner.invoke(
            main, ["largest-graded", "--graph", gfile, "--ring", "Z", pair]
        )
        assert json.loads(result.output)["g"] == {"e.0": "<4>"}

    def test_prime_command(self, runner, tmp_path):
        gtext = "vertices v,w; edge e1: v->v; edge e2: v->v; edge f: v->w;"
        gfile = _write(tmp_path, "g.graph", gtext)
        pair = _write(tmp_path, "p.json", json.dumps({"f": {"{w}": "(2)", "{v,w}": "(0)"}}))
        result = runner.invoke(main, ["prime", "--graph", gfile, "--ring", "Z", pair, "--json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["passes"] is True

    def test_prime_command_on_a_large_value_is_fast(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", "vertices v;")
        pair = _write(tmp_path, "p.json", json.dumps({"f": {"{v}": "(1000000000000000003)"}}))
        started = time.perf_counter()
        result = runner.invoke(main, ["prime", "--graph", gfile, "--ring", "Z", pair, "--json"])
        assert time.perf_counter() - started < 1.0
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["passes"] is True and data["value_failures"] == []

    def test_prime_command_refuses_values_beyond_exact_primality(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", "vertices v;")
        pair = _write(tmp_path, "p.json", json.dumps({"f": {"{v}": f"({10**25 + 13})"}}))
        result = runner.invoke(main, ["prime", "--graph", gfile, "--ring", "Z", pair])
        assert result.exit_code == 1
        assert result.output.startswith("error:domain: ") and result.output.count("\n") == 1

    def test_prime_command_refuses_the_whole_algebra(self, runner, tmp_path):
        # a prime ideal is proper; the unit ideal at the top pair is everything
        gfile = _write(tmp_path, "g.graph", "vertices u,v; edge e: u->v;")
        top = _write(tmp_path, "top.json", json.dumps({"f": {"{u,v}": "(1)"}}))
        result = runner.invoke(main, ["prime", "--graph", gfile, "--ring", "Z", top])
        assert result.exit_code == 0
        assert result.output.splitlines()[-2:] == [
            "the ideal is the whole algebra, so it is not proper",
            "fails necessary conditions",
        ]
        result = runner.invoke(main, ["prime", "--graph", gfile, "--ring", "Z", top, "--json"])
        data = json.loads(result.output)
        assert (data["passes"], data["proper"], data["verdict"]) == (
            False, False, "fails necessary conditions"
        )
        zero = _write(tmp_path, "zero.json", json.dumps({"f": {"{u,v}": "(0)"}}))
        result = runner.invoke(main, ["prime", "--graph", gfile, "--ring", "Z", zero, "--json"])
        data = json.loads(result.output)
        assert (data["passes"], data["proper"]) == (True, True)
        result = runner.invoke(main, ["prime", "--graph", gfile, "--ring", "Z", zero])
        assert "not proper" not in result.output

    def test_cycles_on_a_large_loop_bundle_is_fast(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", "vertices v; bundle e: v->v * 2000;")
        started = time.perf_counter()
        result = runner.invoke(main, ["cycles", "--graph", gfile])
        assert time.perf_counter() - started < 2.0
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 2000 and lines[1999].startswith("e.1999  exclusive=no")

    def test_pair_budget_refusal_is_one_domain_line(self, runner, tmp_path):
        verts = ",".join(f"v{i}" for i in range(17))
        gfile = _write(tmp_path, "g.graph", f"vertices {verts};")
        result = runner.invoke(main, ["pairs", "--graph", gfile])
        assert result.exit_code == 1
        assert result.output == "error:domain: the admissible-pair lattice has more than 65536 pairs\n"

    def test_oversized_algebra_is_refused_before_it_is_built(self, runner, tmp_path):
        # 1885 paths end at the sink d, so the algebra is M_1885(F2): its
        # matrix units are never listed, and one sink gives two ideals
        gfile = _write(
            tmp_path,
            "g.graph",
            "vertices a,b,c,d; bundle x: a->b * 12; bundle y: b->c * 12; bundle z: c->d * 12;",
        )
        started = time.perf_counter()
        result = runner.invoke(main, ["crosscheck", "--graph", gfile, "--ring", "F2"])
        assert time.perf_counter() - started < 1.0
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == "crosscheck PASSED"

    def test_crosscheck_with_too_many_ideals_is_refused(self, runner, tmp_path):
        # five sinks over Z/8: 4^5 = 1024 ideals, whose pairwise checks ran for minutes
        gfile = _write(tmp_path, "g.graph", "vertices a,b,c,d,e;")
        started = time.perf_counter()
        result = runner.invoke(main, ["crosscheck", "--graph", gfile, "--ring", "Z/8"])
        assert time.perf_counter() - started < 1.0
        assert result.exit_code == 1
        assert result.output == "error:domain: crosscheck would compare 1024 ideals, more than 256\n"
        # 1000 isolated vertices over F2: the ideals are counted before any
        # per-vertex work
        gfile = _write(tmp_path, "g.graph", "vertices " + ",".join(f"v{i}" for i in range(1000)) + ";")
        started = time.perf_counter()
        result = runner.invoke(main, ["crosscheck", "--graph", gfile, "--ring", "F2"])
        assert time.perf_counter() - started < 1.0
        assert result.exit_code == 1
        assert result.output == f"error:domain: crosscheck would compare {2 ** 1000} ideals, more than 256\n"

    def test_enumerate_budget_refusal_is_one_domain_line(self, runner, tmp_path):
        # six sinks over Z/30: 8^6 = 262144 ideals of 63 values each
        gfile = _write(tmp_path, "g.graph", "vertices a,b,c,d,e,f;")
        started = time.perf_counter()
        result = runner.invoke(main, ["enumerate", "--graph", gfile, "--ring", "Z/30"])
        assert time.perf_counter() - started < 1.0
        assert result.exit_code == 1
        assert result.output == (
            "error:domain: cannot enumerate: there are more than 4161 graded ideals, "
            "and 63 values each would pass the 262144-value budget\n"
        )

    def test_enumerate_dot_has_the_crosscheck_bound(self, runner, tmp_path):
        # four sinks over Z/30: 8^4 = 4096 ideals are listed but not drawn
        gfile = _write(tmp_path, "g.graph", "vertices a,b,c,d;")
        listed = runner.invoke(main, ["enumerate", "--graph", gfile, "--ring", "Z/30"])
        assert listed.exit_code == 0 and listed.output.startswith("4096 ideals\n")
        started = time.perf_counter()
        drawn = runner.invoke(main, ["enumerate", "--graph", gfile, "--ring", "Z/30", "--dot"])
        assert time.perf_counter() - started < 2.0
        assert drawn.exit_code == 1
        assert drawn.output == "error:domain: cannot draw: 4096 graded ideals, more than 256\n"

    @pytest.mark.parametrize(
        "spec, code, line",
        [
            ("F8", 1, "error:domain: 8 is not prime"),
            ("Z/1", 1, "error:domain: modulus must be >= 2, got 1"),
            (
                "F10000000000000000000000013",
                1,
                "error:domain: primality of 10000000000000000000000013 is only decided "
                "exactly below 3317044064679887385961981",
            ),
            ("GF5", 2, "error:parse: unknown ring spec 'GF5'"),
            ("Z/x", 2, "error:parse: bad ring spec 'Z/x'"),
        ],
    )
    def test_ring_spec_errors_keep_their_reason(self, runner, tmp_path, spec, code, line):
        gfile = _write(tmp_path, "g.graph", "vertices v;")
        started = time.perf_counter()
        result = runner.invoke(main, ["crosscheck", "--graph", gfile, "--ring", spec])
        assert time.perf_counter() - started < 1.0
        assert result.exit_code == code
        assert result.output == line + "\n"

    def test_enumerate_dot_draws_the_covers(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", "vertices u,v,w; edge a: u->v; edge b: u->w;")
        result = runner.invoke(main, ["enumerate", "--graph", gfile, "--ring", "Z/4", "--dot"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        nodes = [line[3:-2] for line in lines if line.startswith('  "') and "->" not in line]
        edges = [line for line in lines if "->" in line]
        gens = {n: json.loads(n.replace("'", '"')) for n in nodes}

        def contains(a, b):
            # over Z/4 the ideal (x) contains (y) when x divides y; (0) only itself
            return a != b and all(
                int(gens[b][k][1:-1]) % int(gens[a][k][1:-1]) == 0 if gens[a][k] != "(0)"
                else gens[b][k] == "(0)"
                for k in gens[a]
            )

        expected = [
            f'  "{a}" -> "{b}";' for a in nodes for b in nodes
            if contains(b, a) and not any(contains(b, c) and contains(c, a) for c in nodes)
        ]
        assert len(nodes) == 9 and edges == expected

    def test_generators_round_trip(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        pair_doc = {"f": {"{v}": "(2)", "{u,v}": "(4)"}, "g": {"e.0": "<4, 2x+2>"}}
        pair = _write(tmp_path, "p.json", json.dumps(pair_doc))
        gens = runner.invoke(
            main, ["generators", "--graph", gfile, "--ring", "Z", pair]
        )
        assert gens.exit_code == 0
        gens_file = _write(tmp_path, "gens.json", gens.output)
        back = runner.invoke(
            main, ["from-generators", "--graph", gfile, "--ring", "Z", gens_file]
        )
        assert back.exit_code == 0
        data = json.loads(back.output)
        assert data["f"] == pair_doc["f"]
        assert data["g"] == {"e.0": "<4, 2 + 2x>"}

    def test_enumerate(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", "vertices u,v; edge e: u->v;")
        result = runner.invoke(
            main, ["enumerate", "--graph", gfile, "--ring", "Z/4", "--json"]
        )
        assert json.loads(result.output)["count"] == 3

    def test_crosscheck_command(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", "vertices u,v; edge e: u->v;")
        result = runner.invoke(main, ["crosscheck", "--graph", gfile, "--ring", "Z/4"])
        assert result.exit_code == 0
        assert "PASSED" in result.output

    def test_out_option_writes_file(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        target = tmp_path / "out.json"
        result = runner.invoke(
            main, ["pairs", "--graph", gfile, "--json", "--out", str(target)]
        )
        assert result.exit_code == 0
        assert json.loads(target.read_text())["pairs"] == ["{}", "{v}", "{u,v}"]

    def test_out_option_to_a_directory_is_one_parse_line(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        result = runner.invoke(main, ["pairs", "--graph", gfile, "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.output.startswith(f"error:parse: cannot write {tmp_path}: ")
        assert len(result.output.splitlines()) == 1


class TestExitCodes:
    def test_parse_error_is_2(self, runner, tmp_path):
        gfile = _write(tmp_path, "bad.graph", "vertices u\nedge e: u->u;")
        result = runner.invoke(main, ["pairs", "--graph", gfile])
        assert result.exit_code == 2
        assert result.output == "" or "error:parse:" in result.output

    @pytest.mark.parametrize(
        "text, line",
        [
            ("vertices u;\n  edgy e: u->u;", "line 2, col 3: cannot parse statement 'edgy e: u->u'"),
            ("vertices u;\nedge e: u->u", "line 2, col 1: missing ';' after 'edge e: u->u'"),
        ],
    )
    def test_graph_parse_error_is_one_positioned_line(self, runner, tmp_path, text, line):
        gfile = _write(tmp_path, "bad.graph", text)
        result = runner.invoke(main, ["pairs", "--graph", gfile])
        assert result.exit_code == 2
        assert result.output == f"error:parse: {line}\n"

    def test_domain_error_is_1(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        result = runner.invoke(main, ["enumerate", "--graph", gfile, "--ring", "Z/4"])
        assert result.exit_code == 1

    def test_unknown_vertex_in_closure_is_domain_error(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        result = runner.invoke(main, ["closure", "--graph", gfile, "zz"])
        assert result.exit_code == 1

    def test_unknown_vertex_in_a_breaking_generator_is_one_domain_line(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TWO_BREAKERS_TEXT)
        gens = _write(tmp_path, "g.json", json.dumps([{"kind": "breaking", "r": "2", "w": "a", "H": ["zz"]}]))
        result = runner.invoke(main, ["from-generators", "--graph", gfile, "--ring", "Z", gens])
        assert result.exit_code == 1
        assert result.output == "error:domain: unknown vertex id(s) ['zz']\n"

    def test_infinite_ring_enumeration_refused(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", "vertices u,v; edge e: u->v;")
        result = runner.invoke(main, ["enumerate", "--graph", gfile, "--ring", "Z"])
        assert result.exit_code == 1

    def test_enumerate_graded_flag_allows_cycles(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        result = runner.invoke(
            main, ["enumerate", "--graph", gfile, "--ring", "F2", "--graded", "--json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["count"] == 3

    @pytest.mark.parametrize(
        "command, doc, line",
        [
            ("from-generators", [1], "generator 1 is not an object"),
            (
                "from-generators",
                [{"kind": "vertex", "r": "1"}],
                "vertex generator has a missing or malformed 'v'",
            ),
            ("graded", {"f": ["x"]}, 'pair file "f" must map labels to ideal literals'),
            ("graded", {"f": {"{v}": 2}}, 'pair file "f" must map labels to ideal literals'),
            (
                "graded",
                {"f": {"{v}": "(2)"}, "g": {"e.0": 5}},
                'pair file "g" must map labels to ideal literals',
            ),
        ],
    )
    def test_malformed_file_is_one_parse_line(self, runner, tmp_path, command, doc, line):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        doc_file = _write(tmp_path, "doc.json", json.dumps(doc))
        result = runner.invoke(main, [command, "--graph", gfile, "--ring", "Z", doc_file])
        assert result.exit_code == 2
        assert result.output == f"error:parse: {line}\n"

    @pytest.mark.parametrize("bad", ["directory", "not utf-8"])
    @pytest.mark.parametrize("role", ["graph", "pair", "generators"])
    def test_unreadable_file_is_one_parse_line(self, runner, tmp_path, role, bad):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        path = tmp_path / "bad"
        if bad == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfevertices u;")
        args = {
            "graph": ["pairs", "--graph", str(path)],
            "pair": ["graded", "--graph", gfile, "--ring", "Z", str(path)],
            "generators": ["from-generators", "--graph", gfile, "--ring", "Z", str(path)],
        }[role]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.output.startswith(f"error:parse: cannot read {path}: ")
        assert len(result.output.splitlines()) == 1

    def test_invalid_pair_file_is_domain_error(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        pair = _write(
            tmp_path, "p.json", json.dumps({"f": {"{v}": "(4)", "{u,v}": "(2)"}, "g": {"e.0": "<2>"}})
        )
        result = runner.invoke(main, ["graded", "--graph", gfile, "--ring", "Z", pair])
        assert result.exit_code == 1

    # Python refuses to convert a string of more than 4300 digits to an int
    @pytest.mark.parametrize(
        "command, graph_text, doc, code, start",
        [
            (
                "graded", TOEPLITZ_TEXT, {"f": {"{v}": "(" + "1" * 5000 + ")"}},
                2, "error:parse: bad ring ideal literal '(111",
            ),
            (
                "pairs", "vertices u,v; bundle b: u->v * " + "1" * 5000 + ";", None,
                2, "error:parse: line 1, col 15: cannot parse statement 'bundle b: u->v * 111",
            ),
            (
                "from-generators", TOEPLITZ_TEXT, [{"kind": "cycle", "p": "x^" + "1" * 5000, "c": "e.0"}],
                1, "error:domain: bad polynomial term 'x^111",
            ),
        ],
        ids=["pair-literal", "multiplicity", "exponent"],
    )
    def test_an_integer_past_the_conversion_limit_is_one_error_line(
        self, runner, tmp_path, command, graph_text, doc, code, start
    ):
        args = [command, "--graph", _write(tmp_path, "g.graph", graph_text)]
        if doc is not None:
            args += ["--ring", "Z", _write(tmp_path, "doc.json", json.dumps(doc))]
        result = runner.invoke(main, args)
        assert result.exit_code == code
        assert result.output.startswith(start)
        assert len(result.output.splitlines()) == 1

    # the JSON decoder raises a plain ValueError past 4300 digits and a
    # RecursionError past the nesting limit
    @pytest.mark.parametrize(
        "command, text, start",
        [
            (
                "from-generators", '[{"kind": "vertex", "r": ' + "7" * 5000 + ', "v": "u"}]',
                "error:parse: bad generators file: Exceeds the limit",
            ),
            ("graded", '{"f": {"{v}": ' + "7" * 5000 + "}}", "error:parse: bad pair file: Exceeds the limit"),
            ("graded", "[" * 200000, "error:parse: bad pair file: maximum recursion depth exceeded"),
            ("from-generators", "[" * 200000, "error:parse: bad generators file: maximum recursion depth exceeded"),
        ],
        ids=["generators-digits", "pair-digits", "pair-depth", "generators-depth"],
    )
    def test_json_past_the_digit_or_nesting_limit_is_one_parse_line(self, tmp_path, command, text, start):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        result = _run_cli([command, "--graph", gfile, "--ring", "Z", _write(tmp_path, "doc.json", text)])
        assert result.returncode == 2
        assert result.stderr.startswith(start)
        assert len(result.stderr.splitlines()) == 1 and result.stdout == ""

    # a pair file's "ring" is read as --ring is, and must name the ring of --ring
    @pytest.mark.parametrize(
        "ring, spec, code, line",
        [
            ("F2", "Z/12", 1, "error:domain: the pair file is over Z/12, not F2"),
            ("Q", "Z/12", 1, "error:domain: the pair file is over Z/12, not Q"),
            ("Z", "Z/12", 1, "error:domain: the pair file is over Z/12, not Z"),
            ("Z/12", 12, 2, 'error:parse: pair file "ring" must be a ring spec such as "Z/12"'),
            ("Z/12", "Z/x", 2, "error:parse: pair file \"ring\": bad ring spec 'Z/x'"),
            ("Z/12", "Z/1", 2, 'error:parse: pair file "ring": modulus must be >= 2, got 1'),
            ("Z/12", " Z/12 ", 0, None),
        ],
        ids=["F2", "Q", "Z", "not-a-string", "no-such-spec", "refused", "same-ring"],
    )
    def test_a_pair_file_over_another_ring_is_refused(self, runner, tmp_path, ring, spec, code, line):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        doc = {"f": {"{u,v}": "(4)", "{v}": "(1)"}, "g": {"e.0": "<4, 1 + x>"}, "ring": spec}
        pair = _write(tmp_path, "p.json", json.dumps(doc))
        result = runner.invoke(main, ["lattice-op", "--graph", gfile, "--ring", ring, "join", pair, pair])
        assert result.exit_code == code
        if line is None:
            assert json.loads(result.output) == {**doc, "ring": "Z/12"}
        else:
            assert result.output == line + "\n"

# each command's own options, on top of --graph, --out and --json, and
# whether it takes --ring
COMMAND_OPTIONS = {
    "closure": (False, ["--saturated"]),
    "saturate": (False, ["--set", "--absorb"]),
    "pairs": (False, ["--dot"]),
    "cycles": (False, []),
    "lattice-op": (True, []),
    "graded": (True, []),
    "largest-graded": (True, []),
    "prime": (True, []),
    "generators": (True, []),
    "from-generators": (True, []),
    "enumerate": (True, ["--dot", "--graded"]),
    "crosscheck": (True, []),
}


class TestUsage:
    """How argv is read: a usage error is one error:parse: line with exit 2,
    options may come anywhere, and --help exits 0."""

    @pytest.fixture
    def files(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        gens = [{"kind": "vertex", "r": "2", "v": "v"}, {"kind": "cycle", "p": "3+x", "c": "e.0"}]
        made = runner.invoke(
            main, ["from-generators", "--graph", gfile, "--ring", "Z", _write(tmp_path, "g.json", json.dumps(gens))]
        )
        assert made.exit_code == 0
        return gfile, _write(tmp_path, "a.json", made.output), _write(tmp_path, "b.json", made.output)

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(["pairs"], id="missing --graph"),
            pytest.param(["graded", "--graph", "G", "A"], id="missing --ring"),
            pytest.param([], id="missing command"),
            pytest.param(["frobnicate", "--graph", "G"], id="unknown command"),
            pytest.param(["pairs", "--graph", "G", "--frob"], id="unknown option"),
            pytest.param(["cycles", "--graph", "G", "--ring", "Z"], id="--ring on a command without a ring"),
            pytest.param(["pairs", "--graph"], id="option with no value"),
            pytest.param(["pairs", "--graph", "G", "--json=yes"], id="flag with a value"),
            pytest.param(["graded", "--graph", "G", "--ring", "Z", "A", "B"], id="too many arguments"),
            pytest.param(["lattice-op", "--graph", "G", "--ring", "Z", "join", "A"], id="too few arguments"),
            pytest.param(["pairs", "--graph", "G", "extra"], id="argument to a command without any"),
            pytest.param(["lattice-op", "--graph", "G", "--ring", "Z", "union", "A", "B"], id="unknown operator"),
        ],
    )
    def test_usage_error_is_one_parse_line(self, runner, files, args):
        names = dict(zip("GAB", files))
        result = runner.invoke(main, [names.get(a, a) for a in args])
        assert result.exit_code == 2
        assert result.output.startswith("error:parse: ")
        assert len(result.output.splitlines()) == 1

    @pytest.mark.parametrize("role", ["graph", "pair"])
    def test_missing_file_is_one_parse_line(self, runner, files, tmp_path, role):
        gfile, a, _ = files
        missing = str(tmp_path / "missing.json")
        args = {
            "graph": ["pairs", "--graph", missing],
            "pair": ["lattice-op", "--graph", gfile, "--ring", "Z", "meet", a, missing],
        }[role]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.output.startswith(f"error:parse: cannot read {missing}: ")
        assert len(result.output.splitlines()) == 1

    def test_options_anywhere_in_either_form(self, runner, files):
        gfile, a, b = files
        plain = runner.invoke(main, ["lattice-op", "--graph", gfile, "--ring", "Z", "meet", a, b])
        assert plain.exit_code == 0
        for args in (
            ["lattice-op", "meet", a, b, "--graph", gfile, "--ring=Z"],
            ["lattice-op", "meet", "--ring=Z", a, f"--graph={gfile}", b],
            ["lattice-op", "--ring", "Q", "--graph", gfile, "--ring", "Z", "--", "meet", a, b],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 0
            assert result.stdout == plain.stdout

    def test_a_closed_pipe_ends_quietly(self, tmp_path):
        # 8192 pairs, more text than a pipe holds, so the write meets the closed pipe
        gfile = _write(tmp_path, "g.graph", "vertices " + ",".join(f"v{i}" for i in range(13)) + ";")
        src = os.path.dirname(os.path.dirname(lpalattice.__file__))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "lpalattice.cli", "pairs", "--graph", gfile],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_help_lists_every_command(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        listed = [line.split()[0] for line in result.output.split("Commands:\n")[1].splitlines()]
        assert listed == sorted(COMMAND_OPTIONS)
        assert "  lattice-op       Meet, join, or product of two classified ideals.\n" in result.output

    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_command_help_names_its_options(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        assert result.output.startswith(f"Usage: lpalattice {command} [OPTIONS]")
        ring, own = COMMAND_OPTIONS[command]
        for option in ["--graph", "--out", "--json", "--help"] + ["--ring"] * ring + own:
            assert f"  {option} " in result.output
        assert ("  --ring " in result.output) == ring
        assert "stable JSON output" in result.output

    def test_command_help_keeps_the_option_help(self, runner):
        assert "also close under saturation" in runner.invoke(main, ["closure", "--help"]).output
        assert "{meet|join|product} LEFT RIGHT" in runner.invoke(main, ["lattice-op", "--help"]).output


def _chain_text(n):
    verts = ",".join(f"v{i}" for i in range(n))
    return f"vertices {verts};\n" + "".join(f"edge e{i}: v{i}->v{i + 1};\n" for i in range(n - 1))


class TestGraphLayerWallClock:
    """Wall-clock bounds on the pair-lattice build, parsing included."""

    def _timed(self, runner, args):
        started = time.perf_counter()
        result = runner.invoke(main, args)
        return result, time.perf_counter() - started

    def test_a_2000_vertex_chain_answers_pairs(self, runner, tmp_path):
        gfile = _write(tmp_path, "chain.graph", _chain_text(2000))
        result, took = self._timed(runner, ["pairs", "--graph", gfile])
        assert took < 0.2
        assert result.exit_code == 0
        top = "{" + ",".join(sorted(f"v{i}" for i in range(2000))) + "}"
        assert result.output == "{}\n" + top + "\n"

    def test_a_100000_vertex_chain_answers_or_is_refused(self, runner, tmp_path):
        gfile = _write(tmp_path, "chain.graph", _chain_text(100_000))
        result, took = self._timed(runner, ["pairs", "--graph", gfile])
        assert took < 5.0
        if result.exit_code != 0:
            assert result.exit_code == 1
            assert result.output.startswith("error:domain: ")
            assert len(result.output.splitlines()) == 1

    def test_the_3200_vertex_ladder_is_refused(self, runner, tmp_path):
        # 1600 rungs, each with its own sink: at least 2^1600 pairs
        n = 1600
        verts = ",".join([f"v{i}" for i in range(n)] + [f"s{i}" for i in range(n)])
        text = f"vertices {verts};\n"
        text += "".join(f"edge a{i}: v{i}->v{i + 1};\n" for i in range(n - 1))
        text += "".join(f"edge b{i}: v{i}->s{i};\n" for i in range(n))
        gfile = _write(tmp_path, "ladder.graph", text)
        result, took = self._timed(runner, ["pairs", "--graph", gfile])
        assert took < 0.5
        assert result.exit_code == 1
        assert result.output == "error:domain: the admissible-pair lattice has more than 65536 pairs\n"

    def test_pairs_dot_on_11_isolated_vertices(self, runner, tmp_path):
        verts = ",".join(f"v{i}" for i in range(11))
        gfile = _write(tmp_path, "g.graph", f"vertices {verts};")
        result, took = self._timed(runner, ["pairs", "--dot", "--graph", gfile])
        assert took < 1.0
        assert result.exit_code == 0
        # 2^11 subsets, each covered by its 11 - |H| one-larger supersets
        assert result.output.count(" -> ") == 11 * 2 ** 10


TWO_BREAKERS_TEXT = format_graph(helpers.two_breakers())
TWO_BREAKERS_DOT = """\
digraph lattice {
  rankdir=BT;
  "{}";
  "{u}";
  "{u}|{a}";
  "{u}|{a,b}";
  "{u}|{b}";
  "{x}";
  "{u,x}";
  "{a,u,x}";
  "{b,u,x}";
  "{a,b,u,x}";
  "{}" -> "{u}";
  "{}" -> "{x}";
  "{u}" -> "{u}|{a}";
  "{u}" -> "{u}|{b}";
  "{u}" -> "{u,x}";
  "{u}|{a}" -> "{u}|{a,b}";
  "{u}|{a}" -> "{a,u,x}";
  "{u}|{a,b}" -> "{a,b,u,x}";
  "{u}|{b}" -> "{u}|{a,b}";
  "{u}|{b}" -> "{b,u,x}";
  "{x}" -> "{u,x}";
  "{u,x}" -> "{a,u,x}";
  "{u,x}" -> "{b,u,x}";
  "{a,u,x}" -> "{a,b,u,x}";
  "{b,u,x}" -> "{a,b,u,x}";
}
"""


def _respelled(doc, spelling):
    return {**doc, "f": {spelling.get(k, k): v for k, v in doc["f"].items()}}


class TestPairLabels:
    @pytest.mark.parametrize(
        "graph_text, gens, spelling",
        [
            (
                TOEPLITZ_TEXT,
                [{"kind": "vertex", "r": "2", "v": "v"}, {"kind": "cycle", "p": "3+x", "c": "e.0"}],
                {"{v}": "{ v }", "{u,v}": "{v,u}"},
            ),
            (
                TWO_BREAKERS_TEXT,
                [
                    {"kind": "vertex", "r": "6", "v": "x"},
                    {"kind": "breaking", "r": "2", "w": "a", "H": ["u"]},
                    {"kind": "breaking", "r": "3", "w": "b", "H": ["u"]},
                ],
                {"{u}|{b}": "{u} | {b}", "{u}|{a,b}": " {u}|{ b , a } ", "{a,b,u,x}": "{x,u,b,a}"},
            ),
        ],
    )
    def test_other_spellings_give_the_same_output(self, runner, tmp_path, graph_text, gens, spelling):
        gfile = _write(tmp_path, "g.graph", graph_text)
        made = runner.invoke(
            main, ["from-generators", "--graph", gfile, "--ring", "Z", _write(tmp_path, "g.json", json.dumps(gens))]
        )
        assert made.exit_code == 0
        doc = json.loads(made.output)
        assert set(spelling) <= set(doc["f"])
        canonical = _write(tmp_path, "a.json", json.dumps(doc))
        spelled = _write(tmp_path, "b.json", json.dumps(_respelled(doc, spelling)))
        for op in ("meet", "join", "product"):
            want = runner.invoke(main, ["lattice-op", "--graph", gfile, "--ring", "Z", op, canonical, canonical])
            got = runner.invoke(main, ["lattice-op", "--graph", gfile, "--ring", "Z", op, spelled, spelled])
            assert want.exit_code == got.exit_code == 0
            assert got.output == want.output

    @pytest.mark.parametrize(
        "label, line",
        [
            ("{a", "bad pair label '{a'"),
            ("{}", "the bottom pair carries no value"),
            ("{a}", "{a} is not an admissible pair of this graph"),
            ("{zz}", "{zz} is not an admissible pair of this graph"),
            ("{u}|{x}", "{u}|{x} is not an admissible pair of this graph"),
            ("{u}|{u}", "{u}|{u} is not an admissible pair of this graph"),
            ("{a,b,u,x}|{a}", "{a,b,u,x}|{a} is not an admissible pair of this graph"),
            ("{}|{a}", "{}|{a} is not an admissible pair of this graph"),
        ],
    )
    def test_label_errors_are_one_domain_line(self, runner, tmp_path, label, line):
        gfile = _write(tmp_path, "g.graph", TWO_BREAKERS_TEXT)
        pair = _write(tmp_path, "p.json", json.dumps({"f": {"{u}": "(2)", label: "(2)"}}))
        result = runner.invoke(main, ["lattice-op", "--graph", gfile, "--ring", "Z", "join", pair, pair])
        assert result.exit_code == 1
        assert result.output == f"error:domain: invalid pair: {line}\n"

    def test_pairs_dot_is_pinned(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TWO_BREAKERS_TEXT)
        result = runner.invoke(main, ["pairs", "--dot", "--graph", gfile])
        assert result.exit_code == 0
        assert result.output == TWO_BREAKERS_DOT


def _ladder_text(n):
    """n diamonds in a row, v(3i) -> v(3i+1), v(3i+2) -> v(3i+3): no cycle,
    and 2^n paths from v0 to the last vertex."""
    text = "vertices " + ",".join(f"v{i}" for i in range(3 * n + 1)) + ";\n"
    for i in range(n):
        a, b, c, d = (f"v{3 * i + k}" for k in range(4))
        text += f"edge l{i}: {a}->{b}; edge r{i}: {a}->{c}; edge s{i}: {b}->{d}; edge t{i}: {c}->{d};\n"
    return text


def _run_cli(args, preexec_fn=None):
    """The command line run in a fresh interpreter, killed after 10 s."""
    src = os.path.dirname(os.path.dirname(lpalattice.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run(
        [sys.executable, "-m", "lpalattice.cli", *args],
        capture_output=True, text=True, env=env, timeout=10, preexec_fn=preexec_fn,
    )


class TestCyclesOffTheComponents:
    """No ideal command and no crosscheck lists the cycles of a graph, so a
    long chain or a ladder of diamonds, which has exponentially many paths
    but no cycle, answers at once."""

    @pytest.mark.parametrize(
        "n, text", [(3000, _chain_text(3000)), (121, _ladder_text(40))], ids=["chain", "ladder"]
    )
    def test_generators_and_join_answer(self, tmp_path, n, text):
        gfile = _write(tmp_path, "g.graph", text)
        pairs = []
        for name, gens in [("a", {"r": "2", "v": "v0"}), ("b", {"r": "3", "v": "v1"})]:
            doc = _write(tmp_path, f"{name}.gens", json.dumps([{"kind": "vertex", **gens}]))
            pairs.append(str(tmp_path / f"{name}.json"))
            made = _run_cli(["from-generators", "--graph", gfile, "--ring", "Z", "--out", pairs[-1], doc])
            assert (made.returncode, made.stderr) == (0, "")
        joined = _run_cli(["lattice-op", "--graph", gfile, "--ring", "Z", "join", *pairs])
        assert (joined.returncode, joined.stderr) == (0, "")
        doc = json.loads(joined.stdout)
        assert doc["g"] == {} and doc["ring"] == "Z"
        top = "{" + ",".join(sorted(f"v{i}" for i in range(n))) + "}"
        assert doc["f"][top] == "(1)"

    @pytest.mark.parametrize("text", [_chain_text(3000), _ladder_text(40)], ids=["chain", "ladder"])
    def test_cycles_prints_no_cycles(self, tmp_path, text):
        result = _run_cli(["cycles", "--graph", _write(tmp_path, "g.graph", text)])
        assert (result.returncode, result.stdout, result.stderr) == (0, "no cycles\n", "")

    def test_crosscheck_on_a_5000_vertex_chain_is_one_domain_line(self, tmp_path):
        gfile = _write(tmp_path, "g.graph", _chain_text(5000))
        result = _run_cli(["crosscheck", "--graph", gfile, "--ring", "F2"])
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error:domain: ")
        assert len(result.stderr.splitlines()) == 1


def _complete_text(n):
    """The complete digraph on n vertices, e<k> the k-th edge v<i> -> v<j>
    with i before j: e0 is v0 -> v1 and e<n-1> is v1 -> v0."""
    edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    text = "vertices " + ",".join(f"v{i}" for i in range(n)) + ";\n"
    return text + "".join(f"edge e{k}: v{i}->v{j};\n" for k, (i, j) in enumerate(edges))


class TestCycleLabelsAndBudgets:
    """A cycle label is checked by walking its own steps, and only `cycles`
    lists cycles, up to MAX_CYCLES: the complete digraph on 12 vertices
    and a 2-cycle of two 1000-edge bundles are refused at once, and a pair
    or generators file naming a non-exclusive cycle of the first answers."""

    @pytest.mark.parametrize(
        "text",
        [_complete_text(12), "vertices u,v; bundle a: u->v * 1000; bundle b: v->u * 1000;"],
        ids=["K12", "m1000"],
    )
    def test_cycles_past_the_budget_is_one_domain_line(self, tmp_path, text):
        result = _run_cli(["cycles", "--graph", _write(tmp_path, "g.graph", text)])
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith("error:domain: ") and result.stderr.count("\n") == 1

    def test_a_ring_of_120_vertices_lists_its_one_cycle(self, tmp_path):
        names = [f"v{i:03d}" for i in range(120)]
        text = "vertices " + ",".join(names) + ";\n"
        text += "".join(f"edge e{i}: {v}->{names[i - 119]};\n" for i, v in enumerate(names))
        result = _run_cli(["cycles", "--graph", _write(tmp_path, "g.graph", text)])
        label = "-".join(f"e{i}.0" for i in range(120))
        closure = ",".join(names)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == f"{label}  exclusive=yes  closure={{{closure}}}  exits={{}}\n"

    def test_a_ring_of_8000_vertices_answers_at_once(self, tmp_path):
        # the search starts from the least vertex of each component only, so
        # the ring costs one walk round it, not one walk from every vertex
        n = 8000
        text = "vertices " + ",".join(f"v{i}" for i in range(n)) + ";\n"
        text += "".join(f"edge e{i}: v{i}->v{(i + 1) % n};\n" for i in range(n))
        result = _run_cli(["cycles", "--graph", _write(tmp_path, "g.graph", text)])
        assert (result.returncode, result.stderr) == (0, "")
        lines = result.stdout.splitlines()
        assert len(lines) == 1 and "  exclusive=yes  " in lines[0]

    def test_a_non_exclusive_cycle_of_k12_is_read_off_its_label(self, tmp_path):
        gfile = _write(tmp_path, "g.graph", _complete_text(12))
        gen = {"kind": "cycle", "p": "x - 3", "c": "e0.0-e11.0"}
        gens = _write(tmp_path, "a.gens", json.dumps([gen]))
        made = _run_cli(["from-generators", "--graph", gfile, "--ring", "Z", gens])
        assert (made.returncode, made.stderr) == (0, "")
        doc = json.loads(made.stdout)
        assert doc["g"] == {} and list(doc["f"].values()) == ["(1)"]
        doc["g"] = {"e0.0-e11.0": "<x - 3>"}
        pair = _write(tmp_path, "p.json", json.dumps(doc))
        result = _run_cli(["graded", "--graph", gfile, "--ring", "Z", pair])
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (
            "error:domain: invalid pair: cycle e0.0-e11.0 is not exclusive; its value is forced\n"
        )


class TestCycleClosureBudget:
    """`cycles` prints each cycle's vertex and exit closures, so the listed
    closures are summed before any text is built: K7 feeding a 3000-vertex
    chain has 2365 cycles whose closures each hold 3007 vertices, past
    MAX_CYCLE_CLOSURES, and K7 alone is listed."""

    @staticmethod
    def _k7_feeding_a_chain(n):
        text = _complete_text(7).replace(";\n", "," + ",".join(f"c{i}" for i in range(n)) + ";\n", 1)
        return text + "edge f: v0->c0;\n" + "".join(f"edge g{i}: c{i}->c{i + 1};\n" for i in range(n - 1))

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_k7_feeding_a_chain_is_one_domain_line(self, tmp_path, flags):
        gfile = _write(tmp_path, "g.graph", self._k7_feeding_a_chain(3000))
        result = _run_cli(["cycles", *flags, "--graph", gfile])
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (
            "error:domain: cannot list the cycles: their closures hold more than "
            f"{MAX_CYCLE_CLOSURES} vertices\n"
        )

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_k7_alone_is_listed(self, tmp_path, flags):
        result = _run_cli(["cycles", *flags, "--graph", _write(tmp_path, "g.graph", _complete_text(7))])
        assert (result.returncode, result.stderr) == (0, "")
        if flags:
            assert len(json.loads(result.stdout)["cycles"]) == 2365
        else:
            assert len(result.stdout.splitlines()) == 2365


def _limit_memory():
    """Limit the address space of the process to 1 GB."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestNumberBudgets:
    """A polynomial spanning more than MAX_EXPONENT_SPAN powers of x is
    refused when it is read, and a result holding one, or an integer too
    long for str(), is refused before anything is written."""

    def test_a_wide_cycle_generator_is_one_domain_line(self, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        gen = {"kind": "cycle", "p": "x^1000000000 - 2", "c": "e.0"}
        gens = _write(tmp_path, "a.gens", json.dumps([gen]))
        result = _run_cli(["from-generators", "--graph", gfile, "--ring", "Z", gens], _limit_memory)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "error:domain: polynomial 'x^1000000000 - 2' spans more than 1024 powers of x\n"

    def test_a_wide_cycle_value_is_one_parse_line(self, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        doc = {"f": {"{u,v}": "(1)", "{v}": "(1)"}, "g": {"e.0": "<x^1000000000 - 2>"}}
        pair = _write(tmp_path, "p.json", json.dumps(doc))
        result = _run_cli(["graded", "--graph", gfile, "--ring", "Z", pair], _limit_memory)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error:parse: polynomial 'x^1000000000 - 2' spans more than 1024 powers of x\n"

    def test_a_product_past_the_span_budget_is_one_domain_line(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        pairs = []
        for name, p in (("a", "x^600 + 3x^7 - 2"), ("b", "x^600 - 5x + 7")):
            gens = _write(tmp_path, name + ".gens", json.dumps([{"kind": "cycle", "p": p, "c": "e.0"}]))
            pairs.append(str(tmp_path / (name + ".json")))
            made = runner.invoke(main, ["from-generators", "--graph", gfile, "--ring", "Z", "--out", pairs[-1], gens])
            assert (made.exit_code, made.output) == (0, "")
        out = tmp_path / "out.json"
        args = ["lattice-op", "--graph", gfile, "--ring", "Z", "--out", str(out), "product", *pairs]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.output == "error:domain: cannot write the result: a cycle value spans more than 1024 powers of x\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "gen",
        [{"kind": "vertex", "r": "7" * 3000, "v": "v"}, {"kind": "cycle", "p": "7" * 3000 + "x + 1", "c": "e.0"}],
        ids=["vertex", "cycle"],
    )
    def test_a_product_past_the_digit_limit_is_one_domain_line(self, runner, tmp_path, gen):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        gens = _write(tmp_path, "a.gens", json.dumps([gen]))
        pair = str(tmp_path / "a.json")
        made = runner.invoke(main, ["from-generators", "--graph", gfile, "--ring", "Z", "--out", pair, gens])
        assert (made.exit_code, made.output) == (0, "")
        out = tmp_path / "out.json"
        args = ["lattice-op", "--graph", gfile, "--ring", "Z", "--out", str(out), "product", pair, pair]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.output == "error:domain: cannot write the result: it holds an integer too long to print\n"
        assert not out.exists()


def _prime_graphs():
    """The law-suite graphs and random row-finite graphs with condition (K)."""
    rng = random.Random(43)
    graphs = [g for _, g, _ in helpers.law_suite_graphs()]
    while len(graphs) < 56:
        g = helpers.random_graph(rng, max_v=6, max_b=8, allow_omega=False)
        if lpalattice.has_condition_k(g):
            graphs.append(g)
    return graphs


class TestPrimeOnJoinIrreducibles:
    """prime reads each value's supremum off J and directedness off the
    strongly connected components, and prints what the reference that scans
    every pair and closes the values under intersection prints."""

    def test_output_matches_the_reference(self, tmp_path, runner, monkeypatch):
        from lpalattice import cli

        rng = random.Random(47)
        rings = [lpalattice.ZZ, lpalattice.IntegersMod(12), lpalattice.PrimeField(2)]
        compared = failed = 0
        for n, g in enumerate(_prime_graphs()):
            gfile = _write(tmp_path, f"g{n}.graph", format_graph(g))
            for ring in rings:
                ctx = lpalattice.context(g, ring)
                for k in range(3):
                    pair = helpers.random_classified(ctx, rng)
                    pfile = _write(tmp_path, f"p{n}-{k}.json", json.dumps(helpers.dump_ideal(pair)))
                    for flags in ([], ["--json"]):
                        args = ["prime", "--graph", gfile, "--ring", str(ring), *flags, pfile]
                        got = runner.invoke(main, args)
                        with monkeypatch.context() as m:
                            m.setattr(cli, "prime_report", helpers.prime_report)
                            want = runner.invoke(main, args)
                        assert (got.exit_code, got.output) == (want.exit_code, want.output), args
                        compared += 1
                        failed += "fails necessary" in got.output or '"passes": false' in got.output
        assert compared == 56 * 3 * 3 * 2 and 0 < failed < compared

    def test_thirteen_isolated_vertices_answer(self, tmp_path):
        # 8192 pairs, each with its own value: the reference takes about 45 s
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
        gfile = _write(tmp_path, "g.graph", "vertices " + ",".join(f"v{i}" for i in range(13)) + ";\n")
        gens = [{"kind": "vertex", "r": str(p), "v": f"v{i}"} for i, p in enumerate(primes)]
        gens_file = _write(tmp_path, "a.gens", json.dumps(gens))
        pair = str(tmp_path / "a.json")
        made = _run_cli(["from-generators", "--graph", gfile, "--ring", "Z", "--out", pair, gens_file])
        assert (made.returncode, made.stderr) == (0, "")
        done = _run_cli(["prime", "--graph", gfile, "--ring", "Z", pair])
        lines = done.stdout.splitlines()
        assert (done.returncode, done.stderr, lines[-1]) == (0, "", "fails necessary conditions")
        # every value but the 13 primes fails, and each of the 8191 values
        # and the whole ring is checked for directedness
        assert len(lines) == (8191 - 13) + 8192 + 1


class TestExclusiveCycleLookup:
    """Each cycle named in a generators or pair file is found by one lookup
    of its label, not by comparing it with every exclusive cycle."""

    def test_cycle_comparisons_are_linear(self, monkeypatch):
        from lpalattice import cli

        # v_i loops on l_i and e_i: v_i -> v_{i+1}: n exclusive cycles
        n = 200
        text = "vertices " + ",".join(f"v{i}" for i in range(n + 1)) + ";\n"
        text += "".join(f"edge l{i}: v{i}->v{i}; edge e{i}: v{i}->v{i + 1};\n" for i in range(n))
        ctx = lpalattice.context(parse_graph(text), lpalattice.ZZ)
        assert len(ctx.cycles) == n
        # generators on the last cycles; the pair file names every cycle
        gens = json.dumps([{"kind": "cycle", "p": "x - 2", "c": f"l{i}.0"} for i in range(n - 5, n)])
        compared = []
        eq = lpalattice.CycleClass.__eq__
        monkeypatch.setattr(lpalattice.CycleClass, "__eq__", lambda a, b: compared.append(1) or eq(a, b))
        pair = lpalattice.from_generators(ctx, cli.load_generators(ctx, gens))
        made = len(compared)
        vals, rest, g_table = cli.load_ideal_tables(ctx, cli.pair_json(pair))
        assert len(g_table) == n
        assert cli.validate_tables(ctx, rest, g_table, vals) == pair
        # finding a cycle by comparison took about 2n comparisons per generator
        # and n^2 for the pair file
        assert made <= n and len(compared) - made <= n, (made, len(compared) - made)


class TestLaurentOverTheRationals:
    """The gcd over Q makes each remainder monic, so its coefficients stay
    small: with the remainders left as they fall, the degree-200 join and
    meet below ran past a minute."""

    def test_degree_200_join_and_meet_answer(self, tmp_path):
        rng = random.Random(200)
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        polys, pairs = [], []
        for name, deg in (("a", 200), ("b", 199)):
            polys.append(" + ".join(f"{rng.randint(1, 9)}x^{i}" for i in range(deg + 1)))
            doc = _write(tmp_path, f"{name}.gens", json.dumps([{"kind": "cycle", "p": polys[-1], "c": "e.0"}]))
            pairs.append(str(tmp_path / f"{name}.json"))
            made = _run_cli(["from-generators", "--graph", gfile, "--ring", "Q", "--out", pairs[-1], doc])
            assert (made.returncode, made.stderr) == (0, "")
        a, b = (lpalattice.parse_poly(lpalattice.QQ, p) for p in polys)
        want = {
            "join": lpalattice.LaurentIdeal.unit(lpalattice.QQ),
            "meet": lpalattice.LaurentIdeal.from_polys(lpalattice.QQ, [a * b]),
        }
        for op, ideal in want.items():
            done = _run_cli(["lattice-op", "--graph", gfile, "--ring", "Q", op, *pairs])
            assert (done.returncode, done.stderr) == (0, "")
            assert json.loads(done.stdout)["g"] == {"e.0": str(ideal)}


TWO_LOOPS_TEXT = "vertices v,w; edge e1: v->v; edge e2: v->v; edge f: v->w;"


class TestInputMemos:
    """The CLI decodes each graph text, and each pair file text in a context,
    once per process; a rewritten file is a new key and a failure is not
    kept."""

    @pytest.fixture
    def memos(self):
        from lpalattice import cli

        memos = (cli.parse_graph, cli._decode_pair)
        for memo in memos:
            memo.cache_clear()
        yield memos
        for memo in memos:
            memo.cache_clear()

    def test_a_rewritten_pair_file_gives_the_new_answer(self, runner, tmp_path, memos):
        gfile = _write(tmp_path, "g.graph", TWO_LOOPS_TEXT)
        left = _write(tmp_path, "a.json", json.dumps({"f": {"{w}": "(6)", "{v,w}": "(0)"}}))
        right = _write(tmp_path, "b.json", json.dumps({"f": {"{w}": "(4)", "{v,w}": "(0)"}}))
        args = ["lattice-op", "--graph", gfile, "--ring", "Z", "join", left, right]
        first = runner.invoke(main, args)
        assert json.loads(first.output)["f"] == {"{w}": "(2)", "{v,w}": "(0)"}
        _write(tmp_path, "b.json", json.dumps({"f": {"{w}": "(3)", "{v,w}": "(9)"}}))
        second = runner.invoke(main, args)
        assert second.exit_code == 0
        assert json.loads(second.output)["f"] == {"{w}": "(3)", "{v,w}": "(9)"}

    @pytest.mark.parametrize("role", ["pair", "graph"])
    def test_a_failure_is_not_kept(self, runner, tmp_path, memos, role):
        good_graph = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        bad_graph = _write(tmp_path, "bad.graph", "vertices u;\n  edgy e: u->u;")
        pair = _write(
            tmp_path, "p.json", json.dumps({"f": {"{v}": "(4)", "{u,v}": "(2)"}, "g": {"e.0": "<2>"}})
        )
        gfile = bad_graph if role == "graph" else good_graph
        args = ["graded", "--graph", gfile, "--ring", "Z", pair]
        results = [runner.invoke(main, args) for _ in range(2)]
        code, start = (2, "error:parse: line 2") if role == "graph" else (1, "error:domain: invalid pair")
        for result in results:
            assert result.exit_code == code
            assert result.output.startswith(start) and len(result.output.splitlines()) == 1
        assert results[0].output == results[1].output
        parse_graph_memo, pair_memo = memos
        assert pair_memo.cache_info().currsize == 0
        assert parse_graph_memo.cache_info().currsize == (role == "pair")

    @pytest.mark.parametrize(
        "command",
        [
            ["lattice-op", "join"],
            ["lattice-op", "meet"],
            ["lattice-op", "product"],
            ["graded"],
            ["largest-graded"],
            ["prime"],
            ["generators"],
        ],
        ids=lambda c: "-".join(c),
    )
    def test_a_memo_hit_prints_what_a_fresh_decode_prints(self, runner, tmp_path, memos, command):
        if command == ["prime"]:  # prime asks for condition (K)
            gfile = _write(tmp_path, "g.graph", TWO_LOOPS_TEXT)
            docs = [{"f": {"{w}": "(2)", "{v,w}": "(0)"}}]
        else:
            gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
            docs = [
                {"f": {"{v}": "(2)", "{u,v}": "(4)"}, "g": {"e.0": "<4, 2x+2>"}},
                {"f": {"{v}": "(3)", "{u,v}": "(9)"}, "g": {"e.0": "<9, 3x - 3>"}},
            ]
        files = [_write(tmp_path, f"p{i}.json", json.dumps(doc)) for i, doc in enumerate(docs)]
        pair_files = files if command[0] == "lattice-op" else files[:1]
        args = [command[0], "--graph", gfile, "--ring", "Z", *command[1:], *pair_files]
        parse_graph_memo, pair_memo = memos
        first = runner.invoke(main, args)
        assert first.exit_code == 0, first.output
        hits = parse_graph_memo.cache_info().hits, pair_memo.cache_info().hits
        hit = runner.invoke(main, args)
        assert parse_graph_memo.cache_info().hits > hits[0]
        assert pair_memo.cache_info().hits > hits[1]
        for memo in memos:
            memo.cache_clear()
        fresh = runner.invoke(main, args)
        assert pair_memo.cache_info().hits == 0
        assert (hit.exit_code, hit.stdout) == (fresh.exit_code, fresh.stdout) == (0, first.stdout)

    def test_a_graph_text_gives_one_graph(self, memos):
        assert parse_graph(TOEPLITZ_TEXT) is parse_graph(TOEPLITZ_TEXT)
        assert parse_graph(TOEPLITZ_TEXT + " ") is not parse_graph(TOEPLITZ_TEXT)

    def test_the_memos_keep_at_most_their_size(self, memos):
        from lpalattice import cli

        parse_graph_memo, pair_memo = memos
        ctx = lpalattice.context(parse_graph(TOEPLITZ_TEXT), lpalattice.ZZ)
        for i in range(cli.GRAPH_MEMO_SIZE + 3):
            parse_graph(f"vertices v{i};")
        for i in range(cli.PAIR_MEMO_SIZE + 3):
            pair = pair_memo(ctx, json.dumps({"f": {"{v}": f"({i})", "{u,v}": f"({i})"}, "g": {"e.0": f"<{i}>"}}))
            assert pair.f.vals[0] == i
        assert parse_graph_memo.cache_info().currsize <= parse_graph_memo.cache_info().maxsize
        assert pair_memo.cache_info().currsize <= pair_memo.cache_info().maxsize
        assert (parse_graph_memo.cache_info().maxsize, pair_memo.cache_info().maxsize) == (
            cli.GRAPH_MEMO_SIZE,
            cli.PAIR_MEMO_SIZE,
        )


class TestAsciiNumerals:
    """Every numeral the command line reads is ASCII digits, after a '-'
    where the grammar has one.  int() and the regex class \\d alone also
    read '_', '+', inner spaces and other scripts' digits, and so ran such
    an input as another; each is now the one line its file gives for a bad
    numeral."""

    @pytest.mark.parametrize("spec", ["Z/1_2", "Z/ 12", "Z/+12", "F٣"])
    def test_a_ring_spec(self, runner, tmp_path, spec):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        result = runner.invoke(main, ["enumerate", "--graded", "--graph", gfile, "--ring", spec])
        assert result.exit_code == 2
        assert result.output == f"error:parse: bad ring spec {spec!r}\n"

    def test_a_bundle_multiplicity(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", "vertices u,v;\nbundle f: u->v * ٣;\n")
        result = runner.invoke(main, ["pairs", "--graph", gfile])
        assert result.exit_code == 2
        assert result.output == "error:parse: line 2, col 1: cannot parse statement 'bundle f: u->v * ٣'\n"

    def test_a_ring_ideal_literal(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        pair = _write(tmp_path, "p.json", json.dumps({"f": {"{v}": "(٦)"}, "g": {"e.0": "<>"}}))
        result = runner.invoke(main, ["graded", "--graph", gfile, "--ring", "Z", pair])
        assert result.exit_code == 2
        assert result.output == "error:parse: bad ring ideal literal '(٦)'; expected like (2)\n"

    @pytest.mark.parametrize("r", ["1_2", "+12", "1 2", "١٢"])
    def test_a_generator_coefficient(self, runner, tmp_path, r):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        gens = _write(tmp_path, "g.json", json.dumps([{"kind": "vertex", "r": r, "v": "v"}]))
        result = runner.invoke(main, ["from-generators", "--graph", gfile, "--ring", "Z", gens])
        assert result.exit_code == 1
        assert result.output == f"error:domain: bad element {r!r} for Z\n"

    @pytest.mark.parametrize("p, term", [("٣x - 1", "٣x"), ("x^٣ - 1", "x^٣")])
    def test_a_polynomial_term(self, runner, tmp_path, p, term):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        gens = _write(tmp_path, "g.json", json.dumps([{"kind": "cycle", "p": p, "c": "e.0"}]))
        result = runner.invoke(main, ["from-generators", "--graph", gfile, "--ring", "Z", gens])
        assert result.exit_code == 1
        assert result.output == f"error:domain: bad polynomial term {term!r} in {p!r}\n"

    def test_a_spaced_numeral_in_a_generators_file(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        gens = _write(tmp_path, "g.json", json.dumps([{"kind": "cycle", "p": "1 2x", "c": "e.0"}]))
        result = runner.invoke(main, ["from-generators", "--graph", gfile, "--ring", "Z", gens])
        assert result.exit_code == 1
        assert result.output == "error:domain: bad polynomial term '1 2x' in '1 2x'\n"

    def test_a_spaced_numeral_in_a_pair_file(self, runner, tmp_path):
        gfile = _write(tmp_path, "g.graph", TOEPLITZ_TEXT)
        pair = _write(tmp_path, "p.json", json.dumps({"f": {}, "g": {"e.0": "<x^1 0>"}}))
        result = runner.invoke(main, ["graded", "--graph", gfile, "--ring", "Z", pair])
        assert result.exit_code == 2
        assert result.output == "error:parse: bad polynomial term 'x^1 0' in 'x^1 0'\n"

    def test_minus_signs_and_leading_zeros_read_as_before(self, runner, tmp_path):
        def run(graph_text, ring, r, literal):
            gfile = _write(tmp_path, "g.graph", graph_text)
            gens = _write(tmp_path, "g.json", json.dumps([{"kind": "vertex", "r": r, "v": "v"}]))
            made = runner.invoke(main, ["from-generators", "--graph", gfile, "--ring", ring, gens])
            pair = _write(tmp_path, "p.json", json.dumps({**json.loads(made.output), "f": {"{u,v}": literal}}))
            read = runner.invoke(main, ["lattice-op", "--graph", gfile, "--ring", ring, "join", pair, pair])
            return made.exit_code, read.exit_code, made.output, read.output

        want = run("vertices u,v; bundle f: u->v * 3;", "Z/12", "8", "(8)")
        assert want[:2] == (0, 0)
        assert run("vertices u,v; bundle f: u->v * 03;", "Z/012", "-04", "(-04)") == want


class TestImportContract:
    def test_the_command_line_loads_no_dataclasses_or_inspect(self):
        # modules loaded before the import do not count, so what site loads
        # on a given machine does not either
        code = (
            "import sys; before = set(sys.modules); import lpalattice.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules) - before))"
        )
        src = os.path.dirname(os.path.dirname(lpalattice.__file__))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10)
        assert (result.returncode, result.stderr, result.stdout) == (0, "", "[]\n")
