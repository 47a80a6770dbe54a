"""ide-edit: one editor client against ``repro serve FILE --port 0``.

The server runs as a subprocess on a seeded ~1000-line program.  One client
on one TCP connection runs a closed loop of query groups.  A group is the
per-function mix the program's own load generator uses for an IDE session
(:func:`repro.eval.load.build_query_plan`): one ``analyze`` of a seeded
function, then for each of two of its variables a backward ``slice`` and a
``focus``.  The second ``focus`` of a group is sent as a JSON-RPC
``repro/focus`` at that variable's cursor, on the same connection.  After
every ``GROUPS_PER_EDIT`` groups comes an ``update`` that edits one
function body, followed by an ``analyze`` of that function.  Edits
alternate between applying and reverting a one-line change in a few seeded
functions, so the line count never changes and cursor positions stay
valid.

A run is made of rounds.  A round serves each of ``PROGRAMS`` seeded
programs with a fresh server for one tour: every function's group once,
with an edit after every ``GROUPS_PER_EDIT`` groups.  The run makes as
many whole rounds as fit in ``--seconds``, at least one, so the mix of
first touches and warm reads, of small and large functions, does not
depend on how fast the machine or the program is.  The client takes a
calibration sample after every read and every edit.

Every response is checked after the loop: its canonical digest
(:func:`repro.eval.load.result_digest`) must equal the one a reference
:class:`~repro.service.session.AnalysisSession` on the same source gives.
The reference empties its store before each request, so none of its
answers is decoded from the store.
"""

from __future__ import annotations

import itertools
import json
import random
import socket
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import calibration
import inputs
import report
from common import (
    BENCH_DIR,
    PY,
    Outcome,
    import_cost_ms,
    read_first_line,
    spawn,
    stop,
    time_until_line,
    vm_hwm_mb,
    work_dir,
)

# Programs per round, each served by its own server.  The read median sits
# where the reads of small functions end and those of entry functions
# begin, so it moves with the programs' structure: over six seeds it spread
# by 15% with three programs per round.  Six average that out further.
PROGRAMS = 6
# Reads per group: analyze, then a slice and a focus for each of two
# variables (build_query_plan's max_variables_per_function).
GROUP_READS = 5
# Groups per edit.  The repository holds no measured edit rate.  Two keeps
# a round's ~85 edits, and its time, what they were with three programs
# and an edit after every group.
GROUPS_PER_EDIT = 2
EDITED_FUNCTIONS = 5
SETUP_PROBES = 5
# The traced run's fixed plan: this many groups on one program.
TRACE_GROUPS = 24
# The tails.  See README.md ("The ide-edit tails") for where the
# percentiles of this mix land: p90 for reads, p85 for the ~84 edits.
TAIL_PCT = 90
UPDATE_TAIL_PCT = 85
# The server's default SummaryStore capacity (`repro serve --max-entries`).
MAX_ENTRIES = 4096
IO_TIMEOUT_S = 60.0


@dataclass
class Op:
    kind: str  # "read" (NDJSON), "rpc" (JSON-RPC focus) or "edit"
    version: Optional[str]  # None: the base source; else the edited function
    request: dict
    follow_up: Optional[dict] = None  # the read after an update


@dataclass
class Catalogue:
    """What the client may ask, derived from the base source before timing."""

    source: str
    # Per function, the two variables its groups query, and the second
    # one's cursor, 0-based as JSON-RPC positions are.
    variables: Dict[str, List[str]]
    cursors: Dict[str, Tuple[int, int]]
    # The edited functions and their edit sites (see inputs.edit_sites).
    edits: Dict[str, Tuple[int, str]]
    reference: "Reference" = field(repr=False, default=None)

    def source_of(self, version: Optional[str]) -> str:
        if version is None:
            return self.source
        return inputs.apply_edit(self.source, self.edits[version])


class Reference:
    """Canonical answers from one session per source version.

    The session's store is emptied before every request, and a request its
    store answers is refused, so each reference answer is computed by the
    engine rather than decoded from a cached record or focus table.
    """

    def __init__(self, catalogue: Catalogue):
        self.catalogue = catalogue
        self._dialects: Dict[Optional[str], tuple] = {}
        self._memo: Dict[tuple, str] = {}

    def dialects(self, version: Optional[str]) -> tuple:
        if version not in self._dialects:
            from repro.focus.server import FocusServer
            from repro.service.protocol import AnalysisService
            from repro.service.session import AnalysisSession

            session = AnalysisSession()
            session.open_unit("main", self.catalogue.source_of(version))
            self._dialects[version] = (AnalysisService(session), FocusServer(session))
        return self._dialects[version]

    def digest(self, version: Optional[str], request: dict) -> str:
        key = (version, json.dumps({k: v for k, v in request.items() if k != "id"},
                                   sort_keys=True))
        if key not in self._memo:
            ndjson, jsonrpc = self.dialects(version)
            dialect = jsonrpc if request.get("jsonrpc") == "2.0" else ndjson
            store = ndjson.session.store
            store.clear()
            hits = store.stats.hits
            response = dialect.handle(dict(request))
            if store.stats.hits != hits:
                raise RuntimeError(f"reference answered {request} from its store")
            self._memo[key] = response_digest(response)
        return self._memo[key]


def response_digest(response: dict) -> str:
    from repro.eval.load import result_digest

    if response.get("ok") is False or "error" in response or "result" not in response:
        return "error:" + json.dumps(response.get("error"), sort_keys=True)
    return result_digest(response["result"])


def build_catalogue(source: str, seed: int) -> Catalogue:
    from repro.service.session import AnalysisSession

    rng = random.Random(seed)
    catalogue = Catalogue(source=source, variables={}, cursors={}, edits={})
    catalogue.reference = Reference(catalogue)
    session = AnalysisSession()
    session.open_unit("main", source)
    for fn_name in session.function_names():
        names = sorted(session.variables_of(fn_name))
        rng.shuffle(names)
        # The second variable must have a cursor: its definition's span,
        # which must resolve back to this function.
        for at_cursor in names[1:]:
            span = session.focus(function=fn_name, variable=at_cursor)["seed_span"]
            if span is None:
                continue
            if session.focus(line=span[0], col=span[1])["function"] == fn_name:
                catalogue.variables[fn_name] = [names[0], at_cursor]
                catalogue.cursors[fn_name] = (span[0] - 1, span[1] - 1)
                break
    sites = inputs.edit_sites(source)
    chosen = rng.sample(sorted(sites), min(EDITED_FUNCTIONS, len(sites)))
    catalogue.edits = {fn_name: sites[fn_name] for fn_name in chosen}
    if not catalogue.edits or not catalogue.variables:
        raise RuntimeError("ide-edit input has no editable function or no cursor")
    return catalogue


def plan(catalogue: Catalogue, seed: int) -> Iterator[Op]:
    """The seeded, endless operation sequence (identical for a seed).

    The groups visit the functions in seeded tours: every function once per
    tour, in a new order each time.  So a run queries small and large
    functions in the program's own proportion; drawing each group's function
    independently moved the read median across the gap between them.
    """
    rng = random.Random(seed * 7919 + 1)
    functions = sorted(catalogue.variables)
    version: Optional[str] = None
    ident = itertools.count(1)
    cycle = 0
    edited_functions = sorted(catalogue.edits)
    tour: List[str] = []
    for group in itertools.count(1):
        if not tour:
            tour = rng.sample(functions, len(functions))
        fn_name = tour.pop()
        yield Op("read", version, {"id": next(ident), "method": "analyze",
                                   "params": {"function": fn_name}})
        by_name, at_cursor = catalogue.variables[fn_name]
        line, character = catalogue.cursors[fn_name]
        yield Op("read", version, {
            "id": next(ident), "method": "slice",
            "params": {"function": fn_name, "variable": by_name, "direction": "backward"}})
        yield Op("read", version, {
            "id": next(ident), "method": "focus",
            "params": {"function": fn_name, "variable": by_name, "direction": "both"}})
        yield Op("read", version, {
            "id": next(ident), "method": "slice",
            "params": {"function": fn_name, "variable": at_cursor, "direction": "backward"}})
        yield Op("rpc", version, {
            "jsonrpc": "2.0", "id": next(ident), "method": "repro/focus",
            "params": {"position": {"line": line, "character": character},
                       "direction": "both"}})
        if group % GROUPS_PER_EDIT:
            continue
        # Apply an edit, then revert it at the next one.
        edited = edited_functions[(cycle // 2) % len(edited_functions)]
        version = edited if cycle % 2 == 0 else None
        cycle += 1
        yield Op(
            "edit",
            version,
            {"id": next(ident), "method": "update",
             "params": {"unit": "main", "source": catalogue.source_of(version)}},
            {"id": next(ident), "method": "analyze", "params": {"function": edited}},
        )


def operations(groups: int) -> int:
    """How many operations of the plan make its first ``groups`` groups."""
    return groups * GROUP_READS + groups // GROUPS_PER_EDIT


class Client:
    """One NDJSON connection; both dialects share it."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self.rfile.readline()  # the connection hello

    def call(self, payload: bytes) -> bytes:
        self.sock.sendall(payload)
        line = self.rfile.readline()
        if not line:
            raise RuntimeError("server closed the connection")
        return line

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def encode(request: dict) -> bytes:
    return (json.dumps(request) + "\n").encode("utf-8")


@dataclass
class Session:
    """What the client saw during one server lifetime."""

    log: List[tuple] = field(default_factory=list)
    # (when sent, ms) per read and per edit
    reads_ms: List[Tuple[float, float]] = field(default_factory=list)
    edits_ms: List[Tuple[float, float]] = field(default_factory=list)
    wall_s: float = 0.0  # the loop's wall time, calibration excluded
    calibration_s: List[calibration.Sample] = field(default_factory=list)
    setup_s: Tuple[float, float] = (0.0, 0.0)  # (when spawned, seconds)
    peak_rss_mb: float = 0.0
    store_entries: int = 0

    @property
    def requests(self) -> int:
        return len(self.reads_ms) + 2 * len(self.edits_ms)

    @property
    def client_s(self) -> float:
        return sum(ms for _, ms in self.reads_ms + self.edits_ms) / 1e3


def drive(port: int, ops: Iterator[Op], count: int, stats: bool = True) -> Session:
    """Run the closed loop over the first ``count`` operations of the plan.

    With ``stats`` a final ``stats`` request (outside the loop) reads the
    store's entry count, the working set.
    """
    out = Session()
    client = Client(port)
    clock = time.perf_counter
    try:
        started = clock()
        for op in itertools.islice(ops, count):
            payload = encode(op.request)
            if op.kind == "edit":
                follow = encode(op.follow_up)
                sent = clock()
                first = client.call(payload)
                second = client.call(follow)
                out.edits_ms.append((sent, (clock() - sent) * 1e3))
            else:
                sent = clock()
                first = client.call(payload)
                out.reads_ms.append((sent, (clock() - sent) * 1e3))
                second = None
            out.log.append((op, first, second))
            calibration.sample(out.calibration_s, 1)
        out.wall_s = clock() - started - calibration.spent(out.calibration_s)
        if stats:
            response = json.loads(client.call(encode({"id": 0, "method": "stats"})))
            out.store_entries = int(response["result"]["store_entries"])
    finally:
        client.close()
    return out


def one_session(command: List[str], catalogue: Catalogue, seed: int, count: int,
                stats: bool = True) -> Session:
    """Start a server, run ``count`` operations of the plan against it, stop it."""
    started = time.perf_counter()
    proc = spawn(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        port = int(json.loads(read_first_line(proc))["port"])
        setup_s = (started, time.perf_counter() - started)
        session = drive(port, plan(catalogue, seed), count, stats)
        session.setup_s = setup_s
        session.peak_rss_mb = vm_hwm_mb(proc.pid)
    finally:
        stop(proc)
    return session


def check(outcome: Outcome, session: Session, reference: Reference, tamper: bool) -> None:
    for index, (op, first, second) in enumerate(session.log):
        response = json.loads(first)
        if op.kind == "edit":
            result = response.get("result") or {}
            fn_name = op.follow_up["params"]["function"]
            ok = response.get("ok") is True and result.get("body_changed") == [fn_name]
            got = response_digest(json.loads(second))
            want = reference.digest(op.version, op.follow_up)
            outcome.check(ok and got == want, f"edit of {fn_name} (version {op.version})")
        else:
            got = response_digest(response)
            if tamper and index == 0:
                got = "tampered"
            want = reference.digest(op.version, op.request)
            outcome.check(got == want and not want.startswith("error:"),
                          f"{op.request.get('method')} {op.request.get('params')}")


def run(seed: int, seconds: float, trace: bool, tamper: bool = False, tiny: bool = False) -> Outcome:
    outcome = Outcome()
    seeds = [seed * 10 + index for index in range(1 if trace or tiny else PROGRAMS)]
    sources = [inputs.program(program_seed, tiny) for program_seed in seeds]
    outcome.properties.update(inputs.properties([("main", source) for source in sources]))
    catalogues = [build_catalogue(source, program_seed)
                  for source, program_seed in zip(sources, seeds)]
    with work_dir() as work:
        serve = []
        for index, source in enumerate(sources):
            path = work / f"ide{index}.mrs"
            path.write_text(source, encoding="utf-8")
            serve.append(["serve", str(path), "--port", "0"])
        plain = [[PY, "-m", "repro.cli"] + args for args in serve]
        if trace:
            count = operations(6 if tiny else TRACE_GROUPS)
            baseline = one_session(plain[0], catalogues[0], seeds[0], count=count)
            trace_path = work / "ide-trace.json"
            traced = one_session(
                [PY, str(BENCH_DIR / "serve_child.py"), str(trace_path)] + serve[0],
                catalogues[0], seeds[0], count=count, stats=False,
            )
            with open(trace_path, encoding="utf-8") as handle:
                spans = json.load(handle)
            sessions = [(baseline, catalogues[0]), (traced, catalogues[0])]
        else:
            probes: list = []
            setup = time_until_line(plain[0], SETUP_PROBES, probes)
            # Whole rounds while the last round's length still fits.
            sessions = []
            started = time.perf_counter()
            round_s = 0.0
            while not sessions or time.perf_counter() - started + round_s <= seconds:
                round_started = time.perf_counter()
                for command, catalogue, program_seed in zip(plain, catalogues, seeds):
                    tour = operations(len(catalogue.variables))
                    sessions.append(
                        (one_session(command, catalogue, program_seed, tour), catalogue))
                round_s = time.perf_counter() - round_started
            sessions[0][0].calibration_s += probes
            setup += [session.setup_s for session, _ in sessions]
    for index, (session, catalogue) in enumerate(sessions):
        check(outcome, session, catalogue.reference, tamper and index == 0)
    outcome.properties["input.working_set_share"] = sessions[0][0].store_entries / MAX_ENTRIES
    outcome.calibrate([sample for session, _ in sessions for sample in session.calibration_s])

    if trace:
        extra = dict(outcome.properties)
        traced_s = traced.client_s
        # The two sessions run one after the other, so each is scaled by its
        # own calibration samples before they are compared.
        extra["trace.overhead"] = (
            traced_s * calibration.factor(traced.calibration_s)
            / (baseline.client_s * calibration.factor(baseline.calibration_s))
        )
        handled = spans["incl_s"].get("service.protocol", 0.0)
        extra["service.wire_ms"] = (traced_s - handled) * 1e3 / max(spans["units"], 1)
        extra["cli.import_ms"] = import_cost_ms()
        outcome.metrics = report.layer_metrics(spans, extra, outcome.scale)
        return outcome

    sessions = [session for session, _ in sessions]
    reads = [read for session in sessions for read in session.reads_ms]
    edits = [edit for session in sessions for edit in session.edits_ms]
    requests = sum(session.requests for session in sessions)
    outcome.put_times("setup_s", setup, 50, "s")
    outcome.put("peak_rss_mb", max(session.peak_rss_mb for session in sessions), "MB",
                len(sessions))
    outcome.put_rate("throughput_per_s", requests / sum(session.wall_s for session in sessions),
                     reads + edits)
    outcome.put_times("latency_p50_ms", reads, 50, "ms")
    outcome.put_times("latency_tail_ms", reads, TAIL_PCT, "ms")
    outcome.put_times("update_p50_ms", edits, 50, "ms")
    outcome.put_times("update_tail_ms", edits, UPDATE_TAIL_PCT, "ms")
    return outcome
