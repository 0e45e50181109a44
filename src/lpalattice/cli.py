"""Command-line front end: graph parsing, command dispatch, stable output.

Exit codes: 0 success, 1 domain error, 2 parse/usage error.  Errors print a
single machine-parsable line ``error:<kind>: <message>`` on stderr.
"""

from __future__ import annotations

import functools
import json
import re
import sys

import click

from .concrete import MAX_CROSSCHECK_IDEALS, OracleError, crosscheck
from .graph import (
    Bundle,
    Graph,
    GraphError,
    OMEGA,
    covering_pairs,
    cycle_vertex_closure,
    cycles,
    exclusive_cycles,
    exit_closure,
    find_cycle,
    hereditary_closure,
    hereditary_saturated_closure,
    pair_lattice,
    saturated_closure,
)
from .ideals import (
    ClassificationError,
    CyclePoly,
    ClassifiedIdeal,
    ScaledBreaking,
    ScaledVertex,
    context,
    from_generators,
    graded_lattice,
    pair_json,
    prime_report,
    to_generators,
    validate_tables,
)
from .laurent import LaurentIdeal, parse_poly
from .rings import RingError, RingIdeal, ring_constructor


class ParseFailure(ValueError):
    pass


# -- graph text format -------------------------------------------------------

_VERTICES_RE = re.compile(r"vertices\s+([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")
_EDGE_RE = re.compile(r"edge\s+([A-Za-z0-9_]+)\s*:\s*([A-Za-z0-9_]+)\s*->\s*([A-Za-z0-9_]+)")
_BUNDLE_RE = re.compile(
    r"bundle\s+([A-Za-z0-9_]+)\s*:\s*([A-Za-z0-9_]+)\s*->\s*([A-Za-z0-9_]+)\s*\*\s*(\d+|inf)"
)


# a comment runs to the end of its line, so deleting it moves no statement;
# the statement pattern is greedy, since a lazy one with a `\s*(;|\Z)`
# lookahead is quadratic in a run of spaces
_COMMENT_RE = re.compile(r"#[^\n]*")
_STATEMENT_RE = re.compile(r"[^;\s][^;]*")


def _statements(text: str):
    """Semicolon-terminated statements with their (line, col) positions.

    Each whitespace character inside a statement reads as one space.
    """
    text = _COMMENT_RE.sub("", text)
    line, line_start, last = 1, 0, 0
    for m in _STATEMENT_RE.finditer(text):
        start = m.start()
        newlines = text.count("\n", last, start)  # only since the last match
        if newlines:
            line += newlines
            line_start = text.rfind("\n", last, start) + 1
        last = start
        stmt = re.sub(r"\s", " ", m.group().rstrip())
        col = start - line_start + 1
        if m.end() == len(text):
            raise ParseFailure(f"line {line}, col {col}: missing ';' after {stmt!r}")
        yield stmt, (line, col)


def parse_graph(text: str) -> Graph:
    vertices = set()
    bundles = []
    for stmt, (line, col) in _statements(text):
        where = f"line {line}, col {col}"
        m = _VERTICES_RE.fullmatch(stmt)
        if m:
            for vid in (s.strip() for s in m.group(1).split(",")):
                if vid in vertices:
                    raise ParseFailure(f"{where}: duplicate vertex id {vid!r}")
                vertices.add(vid)
            continue
        m = _EDGE_RE.fullmatch(stmt)
        if m:
            bundles.append(Bundle(m.group(1), m.group(2), m.group(3), 1))
            continue
        m = _BUNDLE_RE.fullmatch(stmt)
        if m:
            mult = OMEGA if m.group(4) == "inf" else int(m.group(4))
            bundles.append(Bundle(m.group(1), m.group(2), m.group(3), mult))
            continue
        raise ParseFailure(f"{where}: cannot parse statement {stmt!r}")
    try:
        return Graph(vertices, bundles)
    except GraphError as exc:
        raise ParseFailure(str(exc)) from exc


def format_graph(g: Graph) -> str:
    lines = []
    if g.vertices:
        lines.append("vertices " + ",".join(sorted(g.vertices)) + ";")
    for b in g.bundles:
        if b.multiplicity == 1:
            lines.append(f"edge {b.name}: {b.source}->{b.target};")
        else:
            mult = "inf" if b.is_infinite else str(b.multiplicity)
            lines.append(f"bundle {b.name}: {b.source}->{b.target} * {mult};")
    return "\n".join(lines) + "\n"


# -- pair and generator files --------------------------------------------------


def _parse_ring_ideal(ring, text: str) -> RingIdeal:
    text = text.strip()
    m = re.fullmatch(r"\((-?\d+)\)", text)
    if not m:
        raise ParseFailure(f"bad ring ideal literal {text!r}; expected like (2)")
    return RingIdeal(ring, int(m.group(1)))


def load_ideal_tables(ring, text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"bad pair file: {exc}") from exc
    if not isinstance(doc, dict) or "f" not in doc:
        raise ParseFailure('pair file must be an object with an "f" table')
    for key in ("f", "g"):
        table = doc.get(key, {})
        if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
            raise ParseFailure(f'pair file "{key}" must map labels to ideal literals')
    try:
        # a table repeats few distinct literals; each is parsed once
        literals = {v: _parse_ring_ideal(ring, v) for v in dict.fromkeys(doc["f"].values())}
        f_table = {k: literals[v] for k, v in doc["f"].items()}
        g_table = {
            k: LaurentIdeal.parse(ring, v) for k, v in doc.get("g", {}).items()
        }
    except RingError as exc:
        raise ParseFailure(str(exc)) from exc
    return f_table, g_table


# the fields of each generator kind and their JSON types; "r" is read as a
# ring element, so a number is accepted as well as a string
_GENERATOR_FIELDS = {
    "vertex": {"r": (str, int), "v": str},
    "breaking": {"r": (str, int), "w": str, "H": list},
    "cycle": {"p": str, "c": str},
}


def _generator_kind(item) -> str:
    if not isinstance(item, dict):
        raise ParseFailure(f"generator {item!r} is not an object")
    kind = item.get("kind")
    fields = _GENERATOR_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ParseFailure(f"unknown generator kind {kind!r}")
    for name, types in fields.items():
        value = item.get(name)
        if not isinstance(value, types) or (
            types is list and not all(isinstance(v, str) for v in value)
        ):
            raise ParseFailure(f"{kind} generator has a missing or malformed {name!r}")
    return kind


def load_generators(ctx, text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"bad generators file: {exc}") from exc
    if not isinstance(doc, list):
        raise ParseFailure("generators file must be a list")
    atoms = []
    for item in doc:
        kind = _generator_kind(item)
        if kind == "vertex":
            atoms.append(ScaledVertex(ctx.ring.parse_element(str(item["r"])), item["v"]))
        elif kind == "breaking":
            atoms.append(
                ScaledBreaking(
                    ctx.ring.parse_element(str(item["r"])),
                    item["w"],
                    frozenset(item["H"]),
                )
            )
        else:
            atoms.append(
                CyclePoly(parse_poly(ctx.ring, item["p"]), find_cycle(ctx.graph, item["c"]))
            )
    return atoms


def dump_generators(atoms) -> list:
    out = []
    for a in atoms:
        if isinstance(a, ScaledVertex):
            out.append({"kind": "vertex", "r": str(a.r), "v": a.v})
        elif isinstance(a, ScaledBreaking):
            out.append({"kind": "breaking", "r": str(a.r), "w": a.w, "H": sorted(a.H)})
        else:
            out.append({"kind": "cycle", "p": str(a.p), "c": a.c.label()})
    return out


# -- output helpers ------------------------------------------------------------


def _emit(payload, as_json: bool, out):
    if isinstance(payload, str) and not as_json:
        text = payload if payload.endswith("\n") else payload + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseFailure(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        click.echo(text, nl=False)


def _dot(nodes, edges) -> str:
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for n in nodes:
        lines.append(f'  "{n}";')
    for a, b in edges:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_ring_spec(spec):
    try:
        build = ring_constructor(spec)
    except RingError as exc:
        raise ParseFailure(str(exc)) from exc
    return build()  # a refused ring is a domain error


def _read(path) -> str:
    """The text of a file; one that cannot be read or decoded is a parse error."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc


def _load_pair(ctx, pair_file) -> ClassifiedIdeal:
    f_table, g_table = load_ideal_tables(ctx.ring, _read(pair_file))
    result = validate_tables(ctx, f_table, g_table)
    if isinstance(result, list):
        raise ClassificationError("invalid pair: " + "; ".join(result))
    return result


@click.group()
def main():
    """Exact ideal-lattice computations for Leavitt path algebras."""


def _command(name=None, ring=False):
    """Register a command on main with --graph, --ring if ring, --out and
    --json before its own options; the body gets the parsed graph g (and the
    ring), and an error becomes one error:parse: or error:domain: line."""

    def register(fn):
        @functools.wraps(fn)
        def run(graph_file, ring_spec=None, **kwargs):
            try:
                kwargs["g"] = parse_graph(_read(graph_file))
                if ring:
                    kwargs["ring"] = _parse_ring_spec(ring_spec)
                return fn(**kwargs)
            except ParseFailure as exc:
                click.echo(f"error:parse: {exc}", err=True)
                sys.exit(2)
            except (GraphError, RingError, ClassificationError, OracleError) as exc:
                click.echo(f"error:domain: {exc}", err=True)
                sys.exit(1)

        # click lists the option applied last first
        run = click.option("--json", "as_json", is_flag=True, help="stable JSON output")(run)
        run = click.option("--out", "out", type=click.Path(), default=None)(run)
        if ring:
            run = click.option("--ring", "ring_spec", required=True, help="Z, Q, Z/12, F7")(run)
        run = click.option("--graph", "graph_file", required=True, type=click.Path(exists=True))(run)
        return main.command(name=name)(run)

    return register


@_command()
@click.option("--saturated", is_flag=True, help="also close under saturation")
@click.argument("vertices")
def closure(g, as_json, out, saturated, vertices):
    """Hereditary closure of a set of vertices."""
    seed = frozenset(v.strip() for v in vertices.split(",") if v.strip())
    if saturated:
        result = hereditary_saturated_closure(g, seed)
    else:
        result = hereditary_closure(g, seed)
    payload = {"closure": sorted(result)} if as_json else ",".join(sorted(result)) or "{}"
    _emit(payload, as_json, out)


@_command()
@click.option("--set", "base", required=True, help="hereditary vertex set, comma separated")
@click.option("--absorb", default="", help="vertices to absorb once their targets are inside")
def saturate(g, as_json, out, base, absorb):
    """Saturation of a hereditary set, absorbing chosen infinite emitters."""
    h = frozenset(v.strip() for v in base.split(",") if v.strip())
    s = frozenset(v.strip() for v in absorb.split(",") if v.strip())
    result = saturated_closure(g, h, s)
    payload = {"saturation": sorted(result)} if as_json else ",".join(sorted(result)) or "{}"
    _emit(payload, as_json, out)


@_command()
@click.option("--dot", "as_dot", is_flag=True, help="emit a Hasse diagram")
def pairs(g, as_json, out, as_dot):
    """List the admissible pairs of a graph."""
    lat = pair_lattice(g)
    if as_dot:
        _emit(_dot([p.label() for p in lat], [(a.label(), b.label()) for a, b in lat.hasse_edges()]), False, out)
        return
    labels = [p.label() for p in lat]
    _emit({"pairs": labels} if as_json else "\n".join(labels), as_json, out)


@_command(name="cycles")
def cycles_cmd(g, as_json, out):
    """List the cycles of a graph and their closures."""
    exclusive = set(exclusive_cycles(g))
    rows = []
    for c in cycles(g):
        rows.append(
            {
                "cycle": c.label(),
                "vertices": sorted(c.vertices()),
                "exclusive": c in exclusive,
                "vertex_closure": sorted(cycle_vertex_closure(g, c)),
                "exit_closure": sorted(exit_closure(g, c)),
            }
        )
    if as_json:
        _emit({"cycles": rows}, True, out)
    else:
        lines = [
            "{cycle}  exclusive={exclusive}  closure={{{vc}}}  exits={{{ec}}}".format(
                cycle=r["cycle"],
                exclusive="yes" if r["exclusive"] else "no",
                vc=",".join(r["vertex_closure"]),
                ec=",".join(r["exit_closure"]),
            )
            for r in rows
        ]
        _emit("\n".join(lines) if lines else "no cycles", False, out)


@_command(name="lattice-op", ring=True)
@click.argument("op", type=click.Choice(["meet", "join", "product"]))
@click.argument("left", type=click.Path(exists=True))
@click.argument("right", type=click.Path(exists=True))
def lattice_op(g, ring, as_json, out, op, left, right):
    """Meet, join, or product of two classified ideals."""
    ctx = context(g, ring)
    a = _load_pair(ctx, left)
    b = _load_pair(ctx, right)
    result = {"meet": a.meet, "join": a.join, "product": a.product}[op](b)
    _emit(pair_json(result), False, out)


@_command(ring=True)
@click.argument("pair_file", type=click.Path(exists=True))
def graded(g, ring, as_json, out, pair_file):
    """Whether a classified ideal is graded."""
    pair = _load_pair(context(g, ring), pair_file)
    result = pair.is_graded()
    _emit({"graded": result} if as_json else ("graded" if result else "not graded"), as_json, out)


@_command(name="largest-graded", ring=True)
@click.argument("pair_file", type=click.Path(exists=True))
def largest_graded(g, ring, as_json, out, pair_file):
    """The largest graded ideal inside a classified ideal."""
    pair = _load_pair(context(g, ring), pair_file)
    _emit(pair_json(pair.largest_graded()), False, out)


@_command(ring=True)
@click.argument("pair_file", type=click.Path(exists=True))
def prime(g, ring, as_json, out, pair_file):
    """Necessary conditions for a classified ideal to be prime."""
    pair = _load_pair(context(g, ring), pair_file)
    report = prime_report(pair)
    if as_json:
        _emit(
            {
                "passes": report.passes,
                "verdict": report.verdict,
                "value_failures": [
                    {"pair": label, "value": f"({gen})"} for label, gen in report.value_failures
                ],
                "directed_checks": [
                    {"value": f"({gen})", "complement": sorted(comp), "directed": ok}
                    for gen, comp, ok in report.directed_checks
                ],
            },
            True,
            out,
        )
    else:
        _emit("\n".join(report.lines()), False, out)


@_command(ring=True)
@click.argument("pair_file", type=click.Path(exists=True))
def generators(g, ring, as_json, out, pair_file):
    """A generating set for a classified ideal."""
    pair = _load_pair(context(g, ring), pair_file)
    _emit(dump_generators(to_generators(pair)), True, out)


@_command(name="from-generators", ring=True)
@click.argument("gens_file", type=click.Path(exists=True))
def from_generators_cmd(g, ring, as_json, out, gens_file):
    """The classified ideal generated by the listed elements."""
    ctx = context(g, ring)
    atoms = load_generators(ctx, _read(gens_file))
    _emit(pair_json(from_generators(ctx, atoms)), False, out)


@_command(ring=True)
@click.option("--dot", "as_dot", is_flag=True, help="emit a Hasse diagram")
@click.option(
    "--graded",
    "graded_only",
    is_flag=True,
    help="allow graphs with exclusive cycles; lists only the graded ideals",
)
def enumerate(g, ring, as_json, out, as_dot, graded_only):
    """Enumerate the ideal lattice (graded ideals) over a finite ring."""
    if not ring.is_finite:
        raise RingError(
            f"cannot enumerate: {ring} has infinitely many ideals, so the lattice is infinite"
        )
    if exclusive_cycles(g) and not graded_only:
        raise GraphError(
            "cannot enumerate: the graph has exclusive cycles, so non-graded ideals "
            "form infinite families over every supported ring; pass --graded to list "
            "the graded ideals only"
        )
    fns = graded_lattice(g, ring)
    labels = context(g, ring).lattice.star_labels()
    rows = [{label: f"({v})" for label, v in zip(labels, f.vals)} for f in fns]
    if as_dot:
        # drawing compares every pair of ideals, as crosscheck does
        if len(fns) > MAX_CROSSCHECK_IDEALS:
            raise GraphError(
                f"cannot draw: {len(fns)} graded ideals, more than {MAX_CROSSCHECK_IDEALS}"
            )
        names = [json.dumps(r, sort_keys=True).replace('"', "'") for r in rows]

        def leq(i, j):
            return all(ring.gen_contains(y, x) for x, y in zip(fns[i].vals, fns[j].vals))

        edges = [(names[i], names[j]) for i, j in covering_pairs(len(fns), leq)]
        _emit(_dot(names, edges), False, out)
        return
    if as_json:
        _emit({"count": len(fns), "ideals": rows}, True, out)
    else:
        lines = [f"{len(fns)} ideals"] + [
            " ".join(f"{label}:({v})" for label, v in zip(labels, f.vals)) for f in fns
        ]
        _emit("\n".join(lines), False, out)


@_command(name="crosscheck", ring=True)
def crosscheck_cmd(g, ring, as_json, out):
    """Cross-validate the classification against the explicit algebra."""
    report = crosscheck(g, ring)
    if as_json:
        _emit(
            {
                "ok": report.ok,
                "lattice_size": report.lattice_size,
                "concrete_size": report.concrete_size,
                "mismatches": report.mismatches,
            },
            True,
            out,
        )
    else:
        _emit("\n".join(report.lines()), False, out)
    if not report.ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
