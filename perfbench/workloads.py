"""The three request streams and the checks on every request's output.

A stream is a series of rounds, each a list of requests, each request one
CLI invocation on files written when its round is built.  Requests come
in chains: later requests of a chain read the pair files that earlier ones
printed, which the runner saves between requests.  Every request carries a
check that looks only at what the CLI printed, using this module's own
arithmetic on ideal generators.
"""

from __future__ import annotations

import functools
import json
import os
import random

import inputs

WORKLOADS = ("lattice", "oracle", "laurent")

# A run ends at the first round boundary after its time is up and after
# MIN_REQUESTS requests.
MIN_REQUESTS = 100


class Request:
    """One CLI invocation and the check on its outcome."""

    __slots__ = ("chain", "kind", "args", "save", "check")

    def __init__(self, chain, kind, args, save=None, check=None):
        self.chain = chain
        self.kind = kind
        self.args = args
        self.save = save  # where the runner saves stdout for later requests
        self.check = check


class Outcome:
    """What a request produced: exit code and captured streams, or the
    error that kept it from finishing."""

    __slots__ = ("code", "stdout", "stderr", "error")

    def __init__(self, code, stdout, stderr, error=None):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.error = error


# -- ideal generators, with this module's own divisibility arithmetic -------


def modulus(ring: str) -> int:
    """0 for Z, n for Z/n; the benchmark only uses these two kinds of ring
    in lattice operations."""
    if ring == "Z":
        return 0
    if ring.startswith("Z/"):
        return int(ring[2:])
    raise ValueError(f"no divisibility arithmetic for {ring}")


def parse_gen(text: str) -> int:
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad ring ideal {text!r}")
    return int(text[1:-1])


def contained(n: int, a: int, b: int) -> bool:
    """Whether the ideal (a) lies inside (b), in Z (n = 0) or in Z/n.

    In Z/n the canonical generators are divisors of n with 0 standing for
    the zero ideal, so 0 is read as n before testing divisibility."""
    if n:
        a, b = a or n, b or n
    if b == 0:
        return a == 0
    return a % b == 0


def table_violations(n: int, small: dict, big: dict, what: str) -> list:
    """Pairs where the f table small is not inside the f table big."""
    if small.keys() != big.keys():
        return [f"{what}: the two f tables cover different pairs"]
    return [
        f"{what}: at {label} ({small[label]}) is not inside ({big[label]})"
        for label in sorted(small)
        if not contained(n, parse_gen(small[label]), parse_gen(big[label]))
    ]


# -- checks ---------------------------------------------------------------------


def _exit_ok(o: Outcome):
    if o.error is not None:
        return o.error
    if o.code != 0:
        return f"exit {o.code}: {o.stderr.strip()[:200]}"
    if o.stderr:
        return f"unexpected stderr: {o.stderr.strip()[:200]}"
    return None


def _load(o: Outcome):
    try:
        return json.loads(o.stdout)
    except (TypeError, ValueError) as exc:
        return exc


class ChainState:
    """Pair files a chain produced so far, parsed once for the later checks."""

    def __init__(self, ring: str):
        self.ring = ring
        self.n = modulus(ring) if ring == "Z" or ring.startswith("Z/") else None
        self.docs = {}
        self.sizes = {}


def check_pair(state: ChainState, name: str, star: int = None, cycles=None,
               below=(), above=()):
    """A pair file: exit 0, the expected coverage, and the order relations
    "name <= each of below" and "each of above <= name" on the f tables."""

    def check(o: Outcome):
        bad = _exit_ok(o)
        if bad:
            return bad
        doc = _load(o)
        if isinstance(doc, Exception) or not isinstance(doc, dict) or "f" not in doc:
            return f"output is not a pair file: {doc!r}"[:200]
        if doc.get("ring") != state.ring:
            return f"ring {doc.get('ring')!r}, expected {state.ring!r}"
        if star is not None and len(doc["f"]) != star:
            return f"f table has {len(doc['f'])} pairs, expected {star}"
        if cycles is not None and sorted(doc.get("g", {})) != sorted(cycles):
            return f"g table covers {sorted(doc.get('g', {}))}, expected {sorted(cycles)}"
        state.docs[name] = doc
        problems = []
        for other in below:
            problems += table_violations(state.n, doc["f"], state.docs[other]["f"], f"{name}<={other}")
        for other in above:
            problems += table_violations(state.n, state.docs[other]["f"], doc["f"], f"{other}<={name}")
        return "; ".join(problems[:3]) or None

    return check


def check_same_pair(state: ChainState, name: str, ref: str, f_only=False):
    """A pair file equal to an earlier one (all of it, or its f table)."""

    def check(o: Outcome):
        bad = check_pair(state, name)(o)
        if bad:
            return bad
        got, want = state.docs[name], state.docs[ref]
        if f_only:
            return None if got["f"] == want["f"] else f"{name}: f table differs from {ref}"
        return None if got == want else f"{name} differs from {ref}"

    return check


def check_generators(o: Outcome):
    bad = _exit_ok(o)
    if bad:
        return bad
    doc = _load(o)
    if not isinstance(doc, list) or not all(isinstance(a, dict) and "kind" in a for a in doc):
        return "output is not a generators list"
    return None


def check_domain_error(o: Outcome):
    """Exit 1 with exactly one ``error:domain:`` line and nothing on stdout."""
    if o.error is not None:
        return o.error
    lines = o.stderr.splitlines()
    if o.code != 1 or o.stdout or len(lines) != 1 or not lines[0].startswith("error:domain: "):
        return f"expected one error:domain line and exit 1, got exit {o.code}: {o.stderr[:200]!r}"
    return None


PRIME_VERDICTS = (
    "passes necessary conditions (primeness NOT decided)",
    "fails necessary conditions",
)


def check_prime(expect=None):
    def check(o: Outcome):
        bad = _exit_ok(o)
        if bad:
            return bad
        lines = o.stdout.splitlines()
        if not lines or lines[-1] not in PRIME_VERDICTS:
            return f"no prime verdict in {o.stdout[-200:]!r}"
        if expect is not None and lines[-1] != expect:
            return f"verdict {lines[-1]!r}, expected {expect!r}"
        return None

    return check


def check_crosscheck(state: ChainState, ring: str):
    def check(o: Outcome):
        bad = _exit_ok(o)
        if bad:
            return bad
        doc = _load(o)
        if not isinstance(doc, dict) or doc.get("ok") is not True or doc.get("mismatches"):
            return f"crosscheck not ok: {str(doc)[:200]}"
        if doc["lattice_size"] != doc["concrete_size"]:
            return "lattice and explicit algebra differ in size"
        state.sizes[ring] = doc["lattice_size"]
        return None

    return check


def check_enumerate(state: ChainState, ring: str):
    def check(o: Outcome):
        bad = _exit_ok(o)
        if bad:
            return bad
        doc = _load(o)
        if not isinstance(doc, dict) or doc.get("count") != len(doc.get("ideals", ())):
            return "enumerate output is inconsistent"
        if doc["count"] != state.sizes.get(ring):
            return f"enumerate found {doc['count']} ideals, crosscheck {state.sizes.get(ring)}"
        return None

    return check


# -- stream construction --------------------------------------------------------


class Writer:
    """Writes a stream's input files below one directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def write(self, name: str, text: str) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            fh.write(text)
        return path


def probe_requests(w: Writer) -> list:
    """Three tiny fixed requests that open every run, so that every layer
    (the explicit algebra, prime reports, Laurent ideals and the Groebner
    engine) is entered at least once on every workload."""
    fork = inputs.GraphSpec(
        ["pa", "pb", "pc"], [("pe", "pa", "pb", 1), ("pf", "pa", "pc", 1)]
    )
    edge = inputs.GraphSpec(["qa", "qb"], [("qe", "qa", "qb", 1)])
    loop = inputs.laurent_spec("loop_sink", "r")
    fork_g = w.write("probe_fork.graph", fork.text())
    edge_g = w.write("probe_edge.graph", edge.text())
    loop_g = w.write("probe_loop.graph", loop.text())
    pair = w.write("probe_edge_pair.json", inputs.dumps({"f": {"{qa,qb}": "(6)"}}))
    gens = w.write(
        "probe_loop_gens.json", inputs.dumps([inputs.cycle_gen("2 - 3x^2", "re.0")])
    )
    s_cross, s_z = ChainState("F2"), ChainState("Z")
    return [
        Request("probe", "crosscheck",
                ["crosscheck", "--graph", fork_g, "--ring", "F2", "--json"],
                check=check_crosscheck(s_cross, "F2")),
        Request("probe", "prime",
                ["prime", "--graph", edge_g, "--ring", "Z", pair],
                check=check_prime("fails necessary conditions")),
        Request("probe", "from-generators",
                ["from-generators", "--graph", loop_g, "--ring", "Z", gens],
                check=check_pair(s_z, "probe", star=2, cycles=["re.0"])),
    ]


def _pair_requests(w, chain, graph, ring, a, b, state, star, cycles=None):
    """lattice-op join, meet and product of the pair files a and b; the
    join and meet are saved as J and M for later requests."""
    out = []
    for op, name, below, above in (
        ("join", "J", (), (a, b)),
        ("meet", "M", (a, b), ()),
        ("product", "P", ("M",), ()),
    ):
        out.append(Request(
            chain, f"lattice-op {op}",
            ["lattice-op", "--graph", graph, "--ring", ring, op,
             w.path(f"{chain}.{a}.json"), w.path(f"{chain}.{b}.json")],
            save=None if name == "P" else w.path(f"{chain}.{name}.json"),
            check=check_pair(state, name, star=star, cycles=cycles, below=below, above=above),
        ))
    return out


def _from_generators(w, chain, graph, ring, gens, name, check):
    path = w.path(f"{chain}.{name}.json")
    return Request(chain, "from-generators",
                   ["from-generators", "--graph", graph, "--ring", ring, gens],
                   save=path, check=check)


# One round of the lattice workload: the component multisets of its
# chains' graphs, one per pair count, all counts different, so that request
# times spread evenly and no percentile falls into a gap between two sizes.
# The multisets are the same in every round and for every seed; the seed
# orders the components and picks the generators.  Rounds then ask for the
# same work, and a run's figures do not depend on which shapes its seed
# drew: with shapes drawn by the seed, the median latency of runs of 20 s
# spread by 20 % across seeds.  Sizes stop at 432 pairs: one request on a
# 648-pair lattice takes seconds, a sizeable share of a run.  Rings go
# round in the same order in every round.
LATTICE_ROUND = (
    ("fork", "ifork", "sink"),  # 48 pairs, 7 vertices
    ("dloop", "fork", "fork", "ifork"),  # 288, 11
    ("fork", "fork", "sink", "sink"),  # 64, 8
    ("dloop", "edge", "fork", "fork", "sink"),  # 192, 11
    ("dloop", "fork", "ifork"),  # 72, 8
    ("dloop", "fork", "ifork", "ifork"),  # 432, 11
    ("edge", "edge", "fork", "ifork"),  # 96, 10
    ("ifork", "ifork", "ifork"),  # 216, 9
    ("dloop", "dloop", "dloop", "fork"),  # 108, 9
    ("dloop", "dloop", "dloop", "dloop", "edge"),  # 162, 10
    ("edge", "fork", "fork", "fork"),  # 128, 11
    ("dloop", "dloop", "fork", "fork"),  # 144, 10
)
LATTICE_RINGS = ("Z", "Z/12", "Z/30")
LATTICE_MAX_R = {"Z": 12, "Z/12": 11, "Z/30": 29}


def lattice_round(rng: random.Random, w: Writer, r: int) -> list:
    """Twelve chains on fresh graphs, each a disjoint union of the
    components LATTICE_ROUND gives for its place, in a seeded order."""
    requests = []
    for pos, shape in enumerate(LATTICE_ROUND):
        kinds = list(shape)
        rng.shuffle(kinds)
        chain, tag = f"lat{r}x{pos}", f"g{r}x{pos}"
        spec = inputs.component_union(kinds, tag)
        ring = LATTICE_RINGS[pos % len(LATTICE_RINGS)]
        top = LATTICE_MAX_R[ring]
        graph = w.write(f"{chain}.graph", spec.text())
        # two generators per file, so every chain joins the same number of atoms
        vgens = [inputs.vertex_gen(rng.randint(2, top), v) for v in rng.sample(spec.vertices, 2)]
        forks = [i for i, kind in enumerate(kinds) if kind == "ifork"]
        bgens = [
            inputs.breaking_gen(rng.randint(2, top), f"{tag}c{i}w", [f"{tag}c{i}x"])
            for i in rng.sample(forks, min(2, len(forks)))
        ]
        bgens += [inputs.vertex_gen(rng.randint(2, top), v)
                  for v in rng.sample(spec.vertices, 2 - len(bgens))]
        ga = w.write(f"{chain}.ga.json", inputs.dumps(vgens))
        gb = w.write(f"{chain}.gb.json", inputs.dumps(bgens))
        state = ChainState(ring)
        star = spec.pairs - 1
        requests.append(_from_generators(w, chain, graph, ring, ga, "A",
                                         check_pair(state, "A", star=star)))
        requests.append(_from_generators(w, chain, graph, ring, gb, "B",
                                         check_pair(state, "B", star=star)))
        requests += _pair_requests(w, chain, graph, ring, "A", "B", state, star)
        requests.append(Request(
            chain, "prime", ["prime", "--graph", graph, "--ring", ring, w.path(f"{chain}.J.json")],
            check=check_domain_error if spec.infinite else check_prime(),
        ))
    return requests


ORACLE_RINGS = ("F2", "F3", "Z/4", "Z/6")


def oracle_round(rng: random.Random, w: Writer, family: list, r: int) -> list:
    """The whole criterion-5 family in a seeded order: crosschecks over four
    rings per graph, then an enumerate over one of them.

    A round is the whole family because crosscheck times spread over three
    orders of magnitude; any smaller sample would make a run's time depend
    on which graphs its seed drew.  For the same reason the enumerate ring
    of a graph follows from its place in the family, not from the seed:
    enumerating over Z/6 costs far more than over F2.  Every graph gets
    fresh vertex names, so no request finds a lattice cached by another
    graph's requests, while the five requests on one graph share its pair
    lattice."""
    requests = []
    for k, i in enumerate(rng.sample(range(len(family)), len(family))):
        n, edges = family[i]
        chain = f"orc{r}x{k}"
        graph = w.write(f"{chain}.graph", inputs.acyclic_spec(n, edges, f"o{r}x{k}").text())
        state = ChainState("F2")
        for ring in ORACLE_RINGS:
            requests.append(Request(
                chain, "crosscheck", ["crosscheck", "--graph", graph, "--ring", ring, "--json"],
                check=check_crosscheck(state, ring),
            ))
        ring = ORACLE_RINGS[i % len(ORACLE_RINGS)]
        requests.append(Request(
            chain, "enumerate", ["enumerate", "--graph", graph, "--ring", ring, "--json"],
            check=check_enumerate(state, ring),
        ))
    return requests


# The coefficient-swell request: small inputs, a 35-bit result, and
# intermediates far larger.  It opens every laurent run.
SWELL_LEFT = {"f": {"{v}": "(1)", "{u,v}": "(0)"}, "g": {"e.0": "<19x^7+19x-4>"}}
SWELL_RIGHT = {"f": {"{v}": "(1)", "{u,v}": "(0)"}, "g": {"e.0": "<4x^5+3>"}}

# Random polynomials keep to exponents in [-3, 3].  At [-4, 4] about one
# random pair of ideals in 1000 to 2000 took over 5 s to intersect, one of
# them 235 s, so whether a run met one would depend on its seed; the swell
# shows in every run through the fixed request above instead.
LAURENT_MAX_EXP = 3


def swell_request(w: Writer) -> Request:
    graph = w.write("swell.graph", inputs.laurent_spec("loop_sink", "").text())
    left = w.write("swell.A.json", inputs.dumps(SWELL_LEFT))
    right = w.write("swell.B.json", inputs.dumps(SWELL_RIGHT))
    state = ChainState("Z")
    state.docs["A"], state.docs["B"] = SWELL_LEFT, SWELL_RIGHT
    return Request(
        "swell", "lattice-op meet",
        ["lattice-op", "--graph", graph, "--ring", "Z", "meet", left, right],
        check=check_pair(state, "M", star=2, cycles=["e.0"], below=("A", "B")),
    )


# One round of the laurent workload: twelve chains, the graph shapes and
# rings in a fixed rotation, one in four chains over Z/12.  The three
# graphs are shared by all chains; the Laurent ideals are what changes.
LAURENT_ROUND = 12


def laurent_round(rng: random.Random, w: Writer, r: int) -> list:
    requests = []
    for pos in range(LAURENT_ROUND):
        shape = inputs.LAURENT_SHAPES[pos % len(inputs.LAURENT_SHAPES)]
        spec = inputs.laurent_spec(shape, "k")
        ring = "Z/12" if pos % 4 == 3 else "Z"
        chain = f"lau{r}x{pos}"
        graph = w.path(f"{shape}.graph")
        if not os.path.exists(graph):
            w.write(f"{shape}.graph", spec.text())
        gens = {}
        for name in ("ga", "gb"):
            doc = [inputs.cycle_gen(inputs.random_laurent(rng, max_exp=LAURENT_MAX_EXP), c)
                   for c in spec.cycles for _ in range(rng.randint(1, 2))]
            gens[name] = w.write(f"{chain}.{name}.json", inputs.dumps(doc))
        state = ChainState(ring)
        star, cycles = spec.pairs - 1, spec.cycles
        requests.append(_from_generators(w, chain, graph, ring, gens["ga"], "A",
                                         check_pair(state, "A", star=star, cycles=cycles)))
        requests.append(_from_generators(w, chain, graph, ring, gens["gb"], "B",
                                         check_pair(state, "B", star=star, cycles=cycles)))
        requests += _pair_requests(w, chain, graph, ring, "A", "B", state, star, cycles)
        requests.append(Request(
            chain, "largest-graded",
            ["largest-graded", "--graph", graph, "--ring", ring, w.path(f"{chain}.J.json")],
            check=check_same_pair(state, "LG", "J", f_only=True),
        ))
        gm = w.path(f"{chain}.GM.json")
        requests.append(Request(
            chain, "generators",
            ["generators", "--graph", graph, "--ring", ring, w.path(f"{chain}.M.json")],
            save=gm, check=check_generators,
        ))
        requests.append(_from_generators(w, chain, graph, ring, gm, "M2",
                                         check_same_pair(state, "M2", "M")))
    return requests


def rounds(workload: str, seed: int, root: str):
    """The workload's stream, without end: first the opening requests, then
    round 0, 1, ... .  A round's input files are written below root when
    the round is asked for, so a run writes only the rounds it sends."""
    rng = random.Random(f"{workload}:{seed}")
    w = Writer(root)
    opening = probe_requests(w)
    if workload == "lattice":
        make = functools.partial(lattice_round, rng, w)
    elif workload == "oracle":
        make = functools.partial(oracle_round, rng, w, inputs.acyclic_family())
    elif workload == "laurent":
        opening.append(swell_request(w))
        make = functools.partial(laurent_round, rng, w)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    yield opening
    r = 0
    while True:
        yield make(r)
        r += 1
