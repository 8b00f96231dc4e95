"""Seeded job lists for the two workloads, plus the plain-data helpers the
worker and the checker share.

``library`` holds three parts that each stress other layers: ``numbers``
(the stream and the number routes), ``plans`` (planners, plan files and
replay) and ``search`` (breadth-first search); ``cli`` runs the command line.

Nothing here imports gfshanoi: the program receives only the inputs made
here.  A job is a tuple whose first item names its kind.

Each list has a fixed size profile and seeded details.  Sizes are drawn
stratified (one draw per stratum) or from a fixed table, so that the total
work of a pass moves little from seed to seed, while the families, pegs,
endpoints, corruptions and budgets come from the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("library", "cli")


def make_jobs(workload: str, seed: int) -> list[tuple]:
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng)


def digest(items) -> str:
    """Short hash of a sequence of items, compared in place of long results."""
    h = hashlib.sha256()
    for item in items:
        h.update(str(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:24]


def term_text(value: int, exponents) -> str:
    return f"{value}:{','.join(map(str, exponents))}"


def _stratified_log(rng: random.Random, count: int, lo: float, hi: float) -> list[int]:
    """``count`` integers, log-uniform on [lo, hi], one per equal-width stratum."""
    a, b = math.log(lo), math.log(hi)
    return [round(math.exp(a + (b - a) * (i + rng.random()) / count)) for i in range(count)]


# --- numbers -------------------------------------------------------------

# (kind, jobs per pass); n is log-uniform on [1e2, 1e5], tables stay small.
NUMBER_KINDS = (
    ("gfs_fast", 27),
    ("gfs_diff", 18),
    ("optimal_split", 18),
    ("split_indices_up_to", 9),
    ("smooth_stream", 18),
    ("table", 10),
)
# Classic K4..K8 (every pair (2, 1)) and random families of widths 2..5.
FAMILY_CLASSES = (("classic", 2), ("random", 2), ("classic", 3), ("random", 3), ("classic", 4),
                  ("random", 4), ("classic", 5), ("random", 5), ("classic", 6))


def _family(rng: random.Random, cls: tuple[str, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A family of the class: classic, or random bases 2..7 and weights 1..4."""
    kind, width = cls
    if kind == "classic":
        return (2,) * width, (1,) * width
    return (tuple(rng.randint(2, 7) for _ in range(width)),
            tuple(rng.randint(1, 4) for _ in range(width)))


def _numbers(rng: random.Random) -> list[tuple]:
    jobs = []
    for k, (kind, count) in enumerate(NUMBER_KINDS):
        lo, hi = (20, 400) if kind == "table" else (1e2, 1e5)
        # Stratum i always gets the same family class, so the cost order of
        # the jobs, and with it the latency percentiles, barely moves with
        # the seed; the seed picks n within each stratum and random bases.
        for i, n in enumerate(_stratified_log(rng, count, lo, hi)):
            cls = FAMILY_CLASSES[(2 * i + k) % len(FAMILY_CLASSES)]
            jobs.append((kind, *_family(rng, cls), n))
    rng.shuffle(jobs)
    return jobs


# --- plans ---------------------------------------------------------------

P3_ENDS = ((1, 3), (3, 1))
P3_MIDDLE = ((1, 2), (2, 1), (2, 3), (3, 2))
P3_PAIRS = P3_ENDS + P3_MIDDLE
CORRUPTIONS = ("repeat-move", "self-loop", "bad-move-line", "bad-header", "predicted+1")
HEADER_FIELDS = ("k", "n", "src", "dst", "predicted")


def _plan_endpoints(rng: random.Random, graph: str) -> tuple[int, int]:
    if graph.startswith("S"):
        leaves = int(graph[1:])
        src, dst = rng.sample(range(2, leaves + 2), 2)
    else:
        src, dst = rng.sample(range(1, int(graph[1:]) + 1), 2)
    return src, dst


def _plans(rng: random.Random) -> list[tuple]:
    groups: list[list[tuple[str, int, int, int]]] = []
    # Few disks, many moves: K3 up to 2^16 - 1 moves, P3 up to 3^10 - 1.
    groups.append([("K3", n, *_plan_endpoints(rng, "K3")) for n in (2, 4, 6, 8, 10, 11, 12, 13, 14, 16)])
    p3 = [("P3", n, *rng.choice(P3_ENDS if n % 2 else P3_MIDDLE)) for n in range(3, 10)]
    p3.append(("P3", 10, *rng.choice(P3_ENDS)))
    p3.append(("P3", 10, *rng.choice(P3_MIDDLE)))
    groups.append(p3)
    # Many disks, few moves: split lookups at every recursion node, O(n) replay.
    for graph, hi in (("K6", 180), ("K7", 220), ("K8", 260)):
        groups.append([(graph, n, *_plan_endpoints(rng, graph))
                       for n in _stratified_log(rng, 6, 100, hi)])
    # The middle: more pegs than three, moderate sizes, stars.
    for graph, lo, hi, count in (("K4", 10, 60, 12), ("K5", 20, 120, 12), ("S2", 2, 8, 10),
                                 ("S3", 5, 20, 10), ("S4", 5, 30, 10), ("S5", 5, 40, 10)):
        groups.append([(graph, n, *_plan_endpoints(rng, graph))
                       for n in _stratified_log(rng, count, lo, hi)])
    jobs = []
    for group in groups:
        # Every fifth job of each group in size order is corrupted, so the
        # corrupted share and the sizes it hits are the same for every seed.
        group.sort(key=lambda job: job[1])
        for i, (graph, n, src, dst) in enumerate(group):
            corruption = None
            if i % 5 == 2:
                kind = rng.choice(CORRUPTIONS)
                detail = rng.choice(HEADER_FIELDS) if kind == "bad-header" else rng.random()
                corruption = (kind, detail)
            jobs.append(("plan", graph, n, src, dst, corruption))
    rng.shuffle(jobs)
    return jobs


def corrupt_plan_text(text: str, corruption) -> str:
    """Apply one corruption to a serialized plan (header on line 0, move i
    on line i + 1).  Move corruptions need at least two moves."""
    kind, detail = corruption
    lines = text.split("\n")
    if kind in ("repeat-move", "self-loop", "bad-move-line"):
        index = move_index(len(lines) - 2, detail)
        if kind == "repeat-move":
            lines[index + 1] = lines[index]
        elif kind == "self-loop":
            lines[index + 1] = "1>1"
        else:
            lines[index + 1] = lines[index + 1].replace(">", "->")
    else:
        fields = lines[0].split("; ")
        for j, field in enumerate(fields):
            key, _, value = field.partition("=")
            if kind == "bad-header" and key == detail:
                fields[j] = f"{key}={value}x"
            elif kind == "predicted+1" and key == "predicted":
                fields[j] = f"{key}={int(value) + 1}"
        lines[0] = "; ".join(fields)
    return "\n".join(lines)


def move_index(moves: int, fraction: float) -> int:
    """The corrupted move's 0-based index: never the first move, so a
    repeated move always has a predecessor."""
    return 1 + int(fraction * (moves - 1))


# --- search --------------------------------------------------------------

# (graph family, n, jobs per pass).  Pegs**n runs from 1,024 to 177,147.
# P3e goes end to end, where the goal is the farthest state, and P3m starts
# or ends on the middle peg.  The profile has blocks of similar cost: 20
# refusals, 42 small searches (about 10 ms each), 36 medium ones (about
# 30 ms) and 5 large ones, so that the median and the 90th percentile fall
# inside a block and do not jump between blocks from seed to seed.
SEARCH_PROFILE = (
    ("K3", 7, 7), ("P3e", 7, 7), ("P3m", 7, 7), ("K4", 5, 7), ("S3", 5, 7), ("R4", 5, 7),
    ("K3", 8, 4), ("P3e", 8, 4), ("P3m", 8, 4), ("K4", 6, 4), ("S3", 6, 4), ("R4", 6, 4),
    ("K5", 5, 4), ("S4", 5, 4), ("R5", 5, 4),
    ("P3e", 11, 1), ("K4", 7, 1), ("R4", 7, 1), ("K5", 6, 1), ("R5", 6, 1),
)
SEARCH_REFUSED = 20
SEARCH_FAMILIES = ("K3", "P3", "K4", "S3", "R4", "K5", "S4", "R5")


def _random_graph(rng: random.Random, pegs: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """A seeded connected graph: a random spanning tree plus random extra edges."""
    order = list(range(1, pegs + 1))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], rng.choice(order[:i])))) for i in range(1, pegs)}
    for u in range(1, pegs + 1):
        for v in range(u + 1, pegs + 1):
            if rng.random() < 0.35:
                edges.add((u, v))
    return pegs, tuple(sorted(edges))


def _search_instance(rng: random.Random, family: str, n: int) -> tuple:
    if family[0] == "R":
        graph = ("edges",) + _random_graph(rng, int(family[1:]))
        src, dst = rng.sample(range(1, graph[1] + 1), 2)
    elif family.startswith("P3"):
        graph = ("named", "P3")
        src, dst = rng.choice({"P3e": P3_ENDS, "P3m": P3_MIDDLE}.get(family, P3_PAIRS))
    else:
        graph = ("named", family)
        src, dst = _plan_endpoints(rng, family)
    return graph, n, src, dst


def search_pegs(graph: tuple) -> int:
    """Peg count of a search graph: ("edges", pegs, edges) or ("named", name)."""
    if graph[0] == "edges":
        return graph[1]
    return _family_pegs(graph[1])


def _family_pegs(family: str) -> int:
    if family.startswith("P3"):
        return 3
    return int(family[1:]) + (family[0] == "S")  # a star has a center peg


def _search(rng: random.Random) -> list[tuple]:
    jobs = []
    for family, n, count in SEARCH_PROFILE:
        for _ in range(count):
            graph, n, src, dst = _search_instance(rng, family, n)
            space = search_pegs(graph) ** n
            # A budget at or above the state space must let the search run.
            jobs.append(("bfs", graph, n, src, dst, space + rng.randint(0, space)))
    for i in range(SEARCH_REFUSED):
        family = SEARCH_FAMILIES[i % len(SEARCH_FAMILIES)]
        pegs = _family_pegs(family)
        n = math.ceil(math.log(10 ** rng.uniform(5, 7)) / math.log(pegs))
        graph, n, src, dst = _search_instance(rng, family, n)
        space = pegs**n
        jobs.append(("bfs", graph, n, src, dst, rng.randint(max(1, space // 100), space - 1)))
    rng.shuffle(jobs)
    return jobs


# --- cli -----------------------------------------------------------------

CLI_MIX = (("compute", 24), ("sequence", 16), ("plan", 12), ("validate", 14),
           ("pipe", 10), ("bfs", 16), ("verify", 8))


def k3_plan_text(n: int, src: int, dst: int) -> str:
    """A K3 plan file written by the textbook recursion, independently of
    the package's planner and serializer."""
    spare = 6 - src - dst
    moves: list[str] = []

    def hanoi(m: int, a: int, b: int, c: int) -> None:
        if m:
            hanoi(m - 1, a, c, b)
            moves.append(f"{a}>{b}")
            hanoi(m - 1, c, b, a)

    hanoi(n, src, dst, spare)
    header = f"hanoi-plan v1; graph=K3; k=3; n={n}; src={src}; dst={dst}; predicted={2**n - 1}"
    return "\n".join([header] + moves) + "\n"


def _cli_command(rng: random.Random, kind: str) -> tuple:
    fmt = rng.choice(("plain", "csv", "json"))
    if kind == "compute":
        width = rng.randint(1, 3)
        pairs = [(rng.randint(1 if width > 1 else 2, 5), rng.randint(1, 4)) for _ in range(width)]
        hi = rng.randint(0, 40)
        argv = ["compute", "--n", f"{rng.randint(0, hi)}..{hi}", "--format", fmt]
        for p, q in pairs:
            argv += ["--pq", f"{p}:{q}"]
        if width > 1 and rng.random() < 0.6:
            argv.append("--splits")
        if rng.random() < 0.4:
            argv.append("--oracle")
        return ("cli", argv, None)
    if kind == "sequence":
        width = rng.randint(1, 3)
        bases = ",".join(str(rng.randint(2, 5)) for _ in range(width))
        argv = ["sequence", "--bases", bases, "--count", str(rng.randint(1, 60)), "--format", fmt]
        if width > 1 and rng.random() < 0.6:
            argv.append("--splits")
        return ("cli", argv, None)
    if kind in ("plan", "pipe"):
        graph = rng.choice(("K3", "K4", "K5", "P3", "S3"))
        n = rng.randint(1, 6)
        src, dst = rng.choice(P3_PAIRS) if graph == "P3" else _plan_endpoints(rng, graph)
        argv = ["plan", "--graph", graph, "--n", str(n), "--src", str(src), "--dst", str(dst)]
        if kind == "plan":
            return ("cli", argv, None)
        return ("pipe", argv, ["validate", "--format", rng.choice(("plain", "json"))])
    if kind == "validate":
        n = rng.randint(2, 7)
        src, dst = rng.sample((1, 2, 3), 2)
        text = k3_plan_text(n, src, dst)
        roll = rng.random()
        if roll < 0.3:
            text = corrupt_plan_text(text, ("repeat-move", rng.random()))
        elif roll < 0.5:
            text = corrupt_plan_text(text, ("bad-header", rng.choice(HEADER_FIELDS)))
        return ("cli", ["validate", "--format", rng.choice(("plain", "json"))], text)
    if kind == "bfs":
        graph, n, src, dst = _search_instance(rng, rng.choice(SEARCH_FAMILIES), rng.randint(1, 4))
        spec = graph[1] if graph[0] == "named" else \
            f"{graph[1]}; " + ",".join(f"{u}-{v}" for u, v in graph[2])
        argv = ["bfs", "--graph", spec, "--n", str(n), "--src", str(src), "--dst", str(dst),
                "--format", rng.choice(("plain", "json"))]
        if rng.random() < 0.3:
            argv += ["--budget", str(max(1, search_pegs(graph) ** n // 2))]
        return ("cli", argv, None)
    return ("cli", ["verify", "--max-n", str(rng.randint(1, 3)), "--seed", str(rng.randint(0, 9999))],
            None)


def _cli(rng: random.Random) -> list[tuple]:
    jobs = [_cli_command(rng, kind) for kind, count in CLI_MIX for _ in range(count)]
    rng.shuffle(jobs)
    return jobs


def normalize_cli_stdout(argv: list[str], stdout: bytes) -> bytes:
    """``verify`` reports wall-clock times; drop them before comparing."""
    if argv[0] != "verify":
        return stdout
    report = json.loads(stdout)
    for check in report["checks"]:
        check.pop("elapsed_ms")
    return json.dumps(report, sort_keys=True).encode()


def _library(rng: random.Random) -> list[tuple]:
    """Every in-process job in one list: numbers, plans and searches."""
    jobs = _numbers(rng) + _plans(rng) + _search(rng)
    rng.shuffle(jobs)
    return jobs


def job_group(job: tuple) -> str:
    """Which part of the library list a job belongs to."""
    return {"plan": "plans", "bfs": "search"}.get(job[0], "numbers")


_MAKERS = {"library": _library, "cli": _cli}
