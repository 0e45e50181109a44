"""Command-line front end: graph parsing, command dispatch, stable output.

Each command is registered by ``_command`` in a table of its positional
arguments, value options and flags; ``_parse`` reads argv against that table.
Exit codes: 0 success, 1 domain error, 2 parse or usage error.  Errors print
a single machine-parsable line ``error:<kind>: <message>`` on stderr.
"""

from __future__ import annotations

import json
import os
import re
import sys
from functools import lru_cache

from .concrete import MAX_CROSSCHECK_IDEALS, OracleError, crosscheck
from .graph import (
    MAX_CYCLE_CLOSURES,
    Bundle,
    Graph,
    GraphError,
    OMEGA,
    covering_pairs,
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
from .rings import RingError, ring_constructor


class ParseFailure(ValueError):
    pass


# Each input text is decoded once per process.  The graph memo keeps the
# Graph of each of the most recent graph texts, so their requests share one
# Graph and all that is built on it; the pair memo keeps the validated pair
# of each of the most recent (context, pair file text) keys.  A text that
# fails is not kept, and files are read on every request, so a rewritten
# file is a new key.
GRAPH_MEMO_SIZE = 4
PAIR_MEMO_SIZE = 4


# -- graph text format -------------------------------------------------------

_VERTICES_RE = re.compile(r"vertices\s+([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")
_EDGE_RE = re.compile(r"edge\s+([A-Za-z0-9_]+)\s*:\s*([A-Za-z0-9_]+)\s*->\s*([A-Za-z0-9_]+)")
# int() converts at most 4300 digits; a longer number is a statement that does not parse
_BUNDLE_RE = re.compile(
    r"bundle\s+([A-Za-z0-9_]+)\s*:\s*([A-Za-z0-9_]+)\s*->\s*([A-Za-z0-9_]+)\s*\*\s*([0-9]{1,4300}|inf)"
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


@lru_cache(maxsize=GRAPH_MEMO_SIZE)
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


# -- pair and generator files --------------------------------------------------


def _must_map(doc, *keys):
    for key in keys or ("f", "g"):
        table = doc.get(key, {})
        if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
            raise ParseFailure(f'pair file "{key}" must map labels to ideal literals')


def _check_ring(ctx, spec):
    """A pair file's "ring", read as --ring is, must be ctx's ring; one that
    is not a string or names no ring makes the file unreadable."""
    if not isinstance(spec, str):
        raise ParseFailure('pair file "ring" must be a ring spec such as "Z/12"')
    try:
        ring = ring_constructor(spec)()
    except RingError as exc:
        raise ParseFailure(f'pair file "ring": {exc}') from exc
    if ring != ctx.ring:
        raise RingError(f"the pair file is over {ring}, not {ctx.ring}")


def load_ideal_tables(ctx, text: str):
    """Read a pair file in one pass over its f table: the star-indexed
    values at its canonical labels, the values at its other labels, which
    validate_tables checks and adds, and its g table.  A table that maps a
    label to anything but a string is reported before a bad literal, and a
    file over another ring is refused."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # past the digit or nesting limit too
        raise ParseFailure(f"bad pair file: {exc}") from exc
    if not isinstance(doc, dict) or "f" not in doc:
        raise ParseFailure('pair file must be an object with an "f" table')
    if "ring" in doc:
        _check_ring(ctx, doc["ring"])
    if not isinstance(doc["f"], dict):
        _must_map(doc, "f")
    index, vals, rest, gens = ctx.lattice.star_label_index(), [0] * ctx.size, {}, {}
    for label, literal in doc["f"].items():
        gen = gens.get(literal) if isinstance(literal, str) else _must_map(doc)
        if gen is None:  # each distinct literal is parsed once
            # int() converts at most 4300 digits; a longer literal is a bad one
            m = re.fullmatch(r"\((-?[0-9]{1,4300})\)", literal.strip())
            if not m:
                _must_map(doc)
                raise ParseFailure(f"bad ring ideal literal {literal.strip()!r}; expected like (2)")
            gen = gens[literal] = ctx.ring.gen_normalize(int(m.group(1)))
        i = index.get(label)
        if i is None:
            rest[label] = gen
        else:
            vals[i] = gen
    _must_map(doc, "g")
    try:
        return vals, rest, {k: LaurentIdeal.parse(ctx.ring, v) for k, v in doc.get("g", {}).items()}
    except RingError as exc:
        raise ParseFailure(str(exc)) from exc


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
    except (ValueError, RecursionError) as exc:
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
            i = ctx.cycle_position.get(item["c"])
            c = find_cycle(ctx.graph, item["c"]) if i is None else ctx.cycles[i]
            atoms.append(CyclePoly(parse_poly(ctx.ring, item["p"]), c))
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
        sys.stdout.write(text)


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


@lru_cache(maxsize=PAIR_MEMO_SIZE)
def _decode_pair(ctx, text: str) -> ClassifiedIdeal:
    vals, rest, g_table = load_ideal_tables(ctx, text)
    result = validate_tables(ctx, rest, g_table, vals)
    if isinstance(result, list):
        raise ClassificationError("invalid pair: " + "; ".join(result))
    return result


def _load_pair(ctx, pair_file) -> ClassifiedIdeal:
    return _decode_pair(ctx, _read(pair_file))


# -- command table and dispatch --------------------------------------------------

_COMMANDS = {}  # name -> (body, positional names, options)
_COMMON = {
    "--graph": ("graph_file", ..., "graph file"),
    "--ring": ("ring_spec", ..., "Z, Q, Z/12, F7"),
    "--out": ("out", None, "write the output to this file"),
    "--json": ("as_json", False, "stable JSON output"),
}


def _command(name=None, ring=False, args=(), options=None):
    """Register a command.  args are its positional names, a (name, choices)
    tuple for a choice; options map "--name" to (parameter, default, help),
    where a default of ... makes the option required and a default of False
    makes it a flag.  --graph, --ring if ring, --out and --json come first;
    the body gets the parsed graph g (and the ring)."""

    def register(fn):
        common = {k: v for k, v in _COMMON.items() if ring or k != "--ring"}
        _COMMANDS[name or fn.__name__] = (fn, args, {**common, **(options or {})})
        return fn

    return register


def _help(prog: str, name=None) -> str:
    if name is None:
        rows = [(n, c[0].__doc__.splitlines()[0]) for n, c in sorted(_COMMANDS.items())]
        head = f"Usage: {prog} COMMAND [OPTIONS] [ARGS]\n\n{main.__doc__}\n\nCommands:\n"
    else:
        fn, args, options = _COMMANDS[name]
        rows = [(o, h + " (required)" * (d is ...)) for o, (_, d, h) in options.items()]
        rows.append(("--help", "show this message"))
        args = "".join(" {" + "|".join(a[1]) + "}" if isinstance(a, tuple) else " " + a.upper() for a in args)
        head = f"Usage: {prog} {name} [OPTIONS]{args}\n\n{fn.__doc__}\n\nOptions:\n"
    return head + "".join(f"  {o:<16} {h}\n" for o, h in rows)


def _parse(prog: str, argv: list):
    """The body of the command argv names and its keyword arguments.
    Options may come anywhere, as --name value or --name=value, the last of
    a repeated option wins, and -- ends the options."""
    name = argv[0] if argv else None
    if name == "--help":
        sys.stdout.write(_help(prog))
        sys.exit(0)
    if name not in _COMMANDS:
        raise ParseFailure(f"no such command {name!r}; see --help" if argv else "missing command; see --help")
    fn, params, options = _COMMANDS[name]
    kwargs = {p: d for p, d, _ in options.values()}
    args, tokens = [], iter(argv[1:])
    for tok in tokens:
        opt, eq, value = tok.partition("=")
        spec = options.get(opt)
        if tok == "--":
            args.extend(tokens)
        elif tok[:1] != "-" or tok == "-":
            args.append(tok)
        elif tok == "--help":
            sys.stdout.write(_help(prog, name))
            sys.exit(0)
        elif spec is None or spec[1] is False and eq:
            raise ParseFailure(f"no such option {tok!r} for {name}")
        elif spec[1] is False:
            kwargs[spec[0]] = True
        else:
            value = value if eq else next(tokens, None)
            if value is None:
                raise ParseFailure(f"option {opt} needs a value")
            kwargs[spec[0]] = value
    for opt, (p, _, _) in options.items():
        if kwargs[p] is ...:
            raise ParseFailure(f"missing option {opt} for {name}")
    if len(args) != len(params):
        raise ParseFailure(f"{name} takes {len(params)} argument(s), got {len(args)}")
    for p, value in zip(params, args):
        if isinstance(p, tuple):
            if value not in p[1]:
                raise ParseFailure(f"{p[0]} must be one of {', '.join(p[1])}, not {value!r}")
            p = p[0]
        kwargs[p] = value
    return fn, kwargs


def _run(argv: list, prog: str):
    """Parse argv, read the graph and the ring, and run the command; an error
    becomes one error:parse: line (exit 2) or error:domain: line (exit 1),
    and a closed output pipe or Ctrl-C exits 1."""
    try:
        fn, kwargs = _parse(prog, argv)
        kwargs["g"] = parse_graph(_read(kwargs.pop("graph_file")))
        if "ring_spec" in kwargs:
            kwargs["ring"] = _parse_ring_spec(kwargs.pop("ring_spec"))
        fn(**kwargs)
    except ParseFailure as exc:
        sys.stderr.write(f"error:parse: {exc}\n")
        sys.exit(2)
    except (GraphError, RingError, ClassificationError, OracleError) as exc:
        sys.stderr.write(f"error:domain: {exc}\n")
        sys.exit(1)
    except BrokenPipeError:  # the reader left, as `| head` does; the final flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        sys.stderr.write("\nAborted!\n")
        sys.exit(1)


def main(args=None, prog_name=None, standalone_mode=True):
    """Exact ideal-lattice computations for Leavitt path algebras."""
    _run(sys.argv[1:] if args is None else list(args), prog_name or main.name)
    if standalone_mode:
        sys.exit(0)


# called as a click command is: main() by the console script, and
# main.main(args, ...) by click.testing.CliRunner and the benchmark
main.main, main.name = main, "lpalattice"


@_command(args=("vertices",), options={"--saturated": ("saturated", False, "also close under saturation")})
def closure(g, as_json, out, saturated, vertices):
    """Hereditary closure of a set of vertices."""
    seed = frozenset(v.strip() for v in vertices.split(",") if v.strip())
    if saturated:
        result = hereditary_saturated_closure(g, seed)
    else:
        result = hereditary_closure(g, seed)
    payload = {"closure": sorted(result)} if as_json else ",".join(sorted(result)) or "{}"
    _emit(payload, as_json, out)


@_command(options={
    "--set": ("base", ..., "hereditary vertex set, comma separated"),
    "--absorb": ("absorb", "", "vertices to absorb once their targets are inside"),
})
def saturate(g, as_json, out, base, absorb):
    """Saturation of a hereditary set, absorbing chosen infinite emitters."""
    h = frozenset(v.strip() for v in base.split(",") if v.strip())
    s = frozenset(v.strip() for v in absorb.split(",") if v.strip())
    result = saturated_closure(g, h, s)
    payload = {"saturation": sorted(result)} if as_json else ",".join(sorted(result)) or "{}"
    _emit(payload, as_json, out)


@_command(options={"--dot": ("as_dot", False, "emit a Hasse diagram")})
def pairs(g, as_json, out, as_dot):
    """List the admissible pairs of a graph."""
    lat = pair_lattice(g)
    labels = ["{}", *lat.star_labels()]
    if as_dot:
        _emit(_dot(labels, [(labels[i], labels[j]) for i, j in lat.hasse_edges()]), False, out)
        return
    _emit({"pairs": labels} if as_json else "\n".join(labels), as_json, out)


@_command(name="cycles")
def cycles_cmd(g, as_json, out):
    """List the cycles of a graph and their closures."""
    # a cycle's vertex closure is the hs-closure of its strongly connected
    # component, and so is the exit closure of a non-exclusive cycle, which
    # has an exit into that component: only an exclusive cycle has an exit
    # closure of its own, so each closure is taken, sorted and joined once
    exclusive = set(exclusive_cycles(g))
    component = {v: comp for comp in g.components for v in comp}
    shared = {}  # component -> its sorted hs-closure and their joined text

    def listed(vs):
        vs = sorted(vs)
        return vs, ",".join(vs)

    rows = []
    for c in cycles(g):
        comp = component[c.base]
        if comp not in shared:
            shared[comp] = listed(hereditary_saturated_closure(g, comp))
        rows.append((c, shared[comp], listed(exit_closure(g, c)) if c in exclusive else shared[comp]))
    # a closure holds its cycle's vertices, so this also bounds the labels
    if sum(len(closure[0]) + len(exits[0]) for _, closure, exits in rows) > MAX_CYCLE_CLOSURES:
        raise GraphError(f"cannot list the cycles: their closures hold more than {MAX_CYCLE_CLOSURES} vertices")
    if as_json:
        doc = [
            {
                "cycle": c.label(),
                "vertices": sorted(c.vertices()),
                "exclusive": c in exclusive,
                "vertex_closure": closure[0],
                "exit_closure": exits[0],
            }
            for c, closure, exits in rows
        ]
        _emit({"cycles": doc}, True, out)
    else:
        lines = [
            f"{c.label()}  exclusive={'yes' if c in exclusive else 'no'}"
            f"  closure={{{closure[1]}}}  exits={{{exits[1]}}}"
            for c, closure, exits in rows
        ]
        _emit("\n".join(lines) if lines else "no cycles", False, out)


@_command(name="lattice-op", ring=True, args=(("op", ("meet", "join", "product")), "left", "right"))
def lattice_op(g, ring, as_json, out, op, left, right):
    """Meet, join, or product of two classified ideals."""
    ctx = context(g, ring)
    a = _load_pair(ctx, left)
    b = _load_pair(ctx, right)
    result = {"meet": a.meet, "join": a.join, "product": a.product}[op](b)
    _emit(pair_json(result), False, out)


@_command(ring=True, args=("pair_file",))
def graded(g, ring, as_json, out, pair_file):
    """Whether a classified ideal is graded."""
    pair = _load_pair(context(g, ring), pair_file)
    result = pair.is_graded()
    _emit({"graded": result} if as_json else ("graded" if result else "not graded"), as_json, out)


@_command(name="largest-graded", ring=True, args=("pair_file",))
def largest_graded(g, ring, as_json, out, pair_file):
    """The largest graded ideal inside a classified ideal."""
    pair = _load_pair(context(g, ring), pair_file)
    _emit(pair_json(pair.largest_graded()), False, out)


@_command(ring=True, args=("pair_file",))
def prime(g, ring, as_json, out, pair_file):
    """Necessary conditions for a classified ideal to be prime."""
    pair = _load_pair(context(g, ring), pair_file)
    report = prime_report(pair)
    if as_json:
        _emit(
            {
                "passes": report.passes,
                "proper": report.proper,
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


@_command(ring=True, args=("pair_file",))
def generators(g, ring, as_json, out, pair_file):
    """A generating set for a classified ideal."""
    pair = _load_pair(context(g, ring), pair_file)
    _emit(dump_generators(to_generators(pair)), True, out)


@_command(name="from-generators", ring=True, args=("gens_file",))
def from_generators_cmd(g, ring, as_json, out, gens_file):
    """The classified ideal generated by the listed elements."""
    ctx = context(g, ring)
    atoms = load_generators(ctx, _read(gens_file))
    _emit(pair_json(from_generators(ctx, atoms)), False, out)


@_command(ring=True, options={
    "--dot": ("as_dot", False, "emit a Hasse diagram"),
    "--graded": ("graded_only", False, "allow graphs with exclusive cycles; lists only the graded ideals"),
})
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
        # drawing compares every pair of ideals, pointwise on J, as crosscheck does
        if len(fns) > MAX_CROSSCHECK_IDEALS:
            raise GraphError(
                f"cannot draw: {len(fns)} graded ideals, more than {MAX_CROSSCHECK_IDEALS}"
            )
        names = [json.dumps(r, sort_keys=True).replace('"', "'") for r in rows]

        def leq(i, j):
            return all(ring.gen_contains(y, x) for x, y in zip(fns[i].jv, fns[j].jv))

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
