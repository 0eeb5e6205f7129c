"""The four workloads: inputs made in set-up, and one round of measured work.

Every workload runs the same stages over its own inputs, so every
end-to-end metric exists on every workload; what differs is the input
and how much of each stage a round holds (see README.md).

- verdict: ``parse`` then ``check`` of each source text;
- serialize: ``serialize`` of each parsed model;
- runs: seeded ``run`` + ``format_trace`` per configuration, written to
  a JSONL file;
- enumerate: ``enumerate_outcomes`` per configuration;
- export: ``project`` + ``to_dot`` for each view;
- cli: ``python -m fmaf.cli`` subprocesses, then ``fmaf.cli.main``
  in-process on the same arguments.

The first round checks every output in full and keeps a digest of it;
later rounds check that each digest repeats.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from fmaf import casestudy, checker, cli, dsl, simulator, viewgen

import synth
from speed import Speed
from checks import check_dot, check_trace, expect, finding_keys

#: Graph-size bound passed to enumerate_outcomes for generated models: the
#: branch count, not the graph size, is what limits them.
ENUM_BOUND = 10**6
FOCUSED_VIEWS = ("tcv", "ftcv", "fav", "recovery", "erroneous-process")


@dataclass
class Family:
    """Seeded runs of one configuration."""

    label: str
    config: simulator.SimConfig
    seeds: list[int]
    kind: str  # "fault", "nominal" or "blocked" (checker refuses the chain)
    expect: dict | None = None  # hand-written sidecar record
    cover: set | None = None  # the summaries the seeds must reach, exactly
    fails: bool = False  # the kept failure: trigger never fires
    seen: set = field(default_factory=set)


@dataclass
class Enumeration:
    label: str
    config: simulator.SimConfig
    bound: int
    expected: set | None  # predicted by the generator
    contains: list[Family] = field(default_factory=list)


@dataclass
class Input:
    name: str
    text: str
    path: str
    reference: object  # the model parsing must give; None for the kept failure
    findings: list
    forked: bool
    model: object = None
    families: list[Family] = field(default_factory=list)
    enumerations: list[Enumeration] = field(default_factory=list)
    views: list[tuple[str, str | None]] = field(default_factory=list)
    trace: object = None  # feeds the erroneous-scenario view


@dataclass
class Round:
    speed: Speed
    ops: list = field(default_factory=list)  # (stage, start, end)
    t: dict = field(default_factory=dict)  # stage -> scaled seconds
    n: dict = field(default_factory=dict)  # stage -> operations timed
    cli_ms: list = field(default_factory=list)  # scaled, per command
    cli_wall_ms: list = field(default_factory=list)  # unscaled, per command
    attempted: int = 0
    failed: int = 0
    layers: tuple | None = None  # traced rounds: (self seconds, calls, counts, cli.main ms)
    tracer: object = None  # traced rounds: the installed spans.Tracer
    passes: dict = field(default_factory=dict)  # repeatable stage -> passes per round

    def add(self, stage: str, start: float) -> None:
        """Record an operation that began at ``start`` and ends now."""
        self.ops.append((stage, start, perf_counter()))
        self.speed.maybe_sample()

    def untraced(self, kept_failure: bool):
        """Keep a kept failure's calls out of the per-layer figures too."""
        if kept_failure and self.tracer is not None:
            return self.tracer.pause()
        return contextlib.nullcontext()

    def finish(self) -> None:
        for stage, start, end in self.ops:
            seconds = (end - start) * self.speed.scale(start, end)
            if stage == "cli":
                self.cli_ms.append(seconds * 1000.0)
                self.cli_wall_ms.append((end - start) * 1000.0)
            else:
                seconds /= self.passes.get(stage.split("_")[0], 1)
                self.t[stage] = self.t.get(stage, 0.0) + seconds
                self.n[stage] = self.n.get(stage, 0) + 1


PIPELINE = ("verdict_flat", "verdict_forked", "serialize", "fault", "nominal",
            "blocked", "enumerate", "export")


class Env:
    """Paths and the environment of CLI subprocesses."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self.child_env = dict(os.environ)
        self.child_env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.child_env["PYTHONPATH"] = str(root / "src")
        self.child_env["PYTHONPYCACHEPREFIX"] = str(root / ".bench_build" / "pycache")

    def cli(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "fmaf.cli", *argv], cwd=self.root, env=self.child_env,
            capture_output=True, text=True, timeout=120,
        )

    def warm(self) -> None:
        """Fill the bytecode cache and confirm which package the CLI runs."""
        proc = subprocess.run(
            [sys.executable, "-c", "import fmaf.cli; print(fmaf.__file__)"], cwd=self.root,
            env=self.child_env, capture_output=True, text=True, timeout=300,
        )
        want = str(self.root / "src" / "fmaf" / "__init__.py")
        expect(proc.returncode == 0 and proc.stdout.strip() == want,
               f"CLI subprocess imports {proc.stdout.strip() or proc.stderr[-200:]!r}, not {want}")

    def write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return str(path.relative_to(self.root))


#: Stages a round may repeat; their metrics are per pass.
REPEATABLE = ("verdict", "serialize", "enumerate", "export")


class Workload:
    def __init__(self, env: Env, inputs: list[Input], commands: list[tuple],
                 passes: dict[str, int] | None = None) -> None:
        self.env = env
        self.inputs = inputs
        self.commands = commands  # (argv, exit code, lines stdout must hold)
        # Light stages run several passes per round so that their medians
        # rest on more than a few milliseconds of work.
        self.passes = {stage: 1 for stage in REPEATABLE} | (passes or {})
        self.digests: dict = {}
        self.jsonl = open(env.work / "runs.jsonl", "w", encoding="utf-8")

    def close(self) -> None:
        self.jsonl.close()

    def _same(self, key, text: str, first: bool) -> bool:
        """Store the first round's digest; afterwards require it again."""
        digest = hashlib.sha256(text.encode()).digest()
        if first:
            self.digests[key] = digest
        else:
            expect(self.digests[key] == digest, f"{key}: output differs from the first round")
        return first

    def round(self, rec: Round, first: bool) -> None:
        self.jsonl.seek(0)
        self.jsonl.truncate()
        rec.passes = self.passes
        for p in range(self.passes["verdict"]):
            for inp in self.inputs:
                self._verdict(inp, rec, first and not p)
        for p in range(self.passes["serialize"]):
            for inp in self.inputs:
                if inp.model is None:
                    continue
                rec.attempted += 1
                start = perf_counter()
                text = dsl.serialize(inp.model)
                rec.add("serialize", start)
                if self._same((inp.name, "serialize"), text, first and not p):
                    expect(dsl.parse(text).model == inp.model, f"{inp.name}: parse(serialize(m)) != m")
        for inp in self.inputs:
            for fam in inp.families:
                self._runs(inp, fam, rec, first)
        for _ in range(self.passes["enumerate"]):
            for inp in self.inputs:
                for en in inp.enumerations:
                    rec.attempted += 1
                    start = perf_counter()
                    got = simulator.enumerate_outcomes(inp.model, en.config, bound=en.bound)
                    rec.add("enumerate", start)
                    if en.expected is not None:
                        expect(got == en.expected,
                               f"{inp.name} {en.label}: enumerated {got}, predicted {en.expected}")
                    for fam in en.contains:
                        expect(fam.seen <= got, f"{inp.name} {fam.label}: seeded {fam.seen - got} not enumerated")
        for p in range(self.passes["export"]):
            for inp in self.inputs:
                for view, focus in inp.views:
                    rec.attempted += 1
                    start = perf_counter()
                    graph = viewgen.project(inp.model, view, focus=focus,
                                            trace=inp.trace if view == "erroneous-scenario" else None)
                    dot = viewgen.to_dot(graph)
                    rec.add("export", start)
                    if self._same((inp.name, view, focus), dot, first and not p):
                        check_dot(inp.model, view, focus, dot, f"{inp.name} {view} {focus}")
        for argv, code, lines in self.commands:
            self._cli(argv, code, lines, rec)

    def _verdict(self, inp: Input, rec: Round, first: bool) -> None:
        rec.attempted += 1
        start = perf_counter()
        try:
            with rec.untraced(inp.reference is None):
                result = dsl.parse(inp.text)
                findings = checker.check(result.model) if result.model is not None else None
        except RecursionError:
            # The kept failure: the zero-time-cycle search in build_model
            # recurses once per activity.  Only the input made for it may hit it.
            expect(inp.reference is None, f"{inp.name}: parse raised RecursionError")
            rec.failed += 1
            return
        rec.add("verdict_forked" if inp.forked else "verdict_flat", start)
        expect(result.model is not None, f"{inp.name}: parse failed: {result.diagnostics[:3]}")
        expect(finding_keys(findings) == inp.findings,
               f"{inp.name}: findings {finding_keys(findings)} != planted {inp.findings}")
        if first and inp.reference is not None:
            expect(result.model == inp.reference, f"{inp.name}: parsed model differs from the generated one")

    def _runs(self, inp: Input, fam: Family, rec: Round, first: bool) -> None:
        fam.seen = set()
        for seed in fam.seeds:
            config = dataclasses.replace(fam.config, seed=seed)
            where = f"{inp.name} {fam.label} seed {seed}"
            rec.attempted += 1
            start = perf_counter()
            try:
                with rec.untraced(fam.fails):
                    trace = simulator.run(inp.model, config)
            except simulator.ModelViolationsError as exc:
                rec.add("blocked", start)
                rules = {f.rule_id for f in exc.findings}
                expect(fam.kind == "blocked" and rules == {fam.expect["rule"]},
                       f"{where}: refused with {sorted(rules)}")
                continue
            except simulator.SimulationError as exc:
                # The kept failure: a probabilistic activation whose draws all
                # fail raises instead of giving an outcome.
                expect(fam.fails and "never fired" in str(exc), f"{where}: {exc}")
                rec.failed += 1
                continue
            text = simulator.format_trace(trace)
            self.jsonl.write(text)
            rec.add(fam.kind, start)
            expect(fam.kind != "blocked", f"{where}: checker did not refuse the chain")
            if self._same((inp.name, fam.label, seed), text, first):
                check_trace(inp.model, config, trace, where)
            summary = (trace.outcome.by, trace.outcome.kind)
            fam.seen.add(summary)
            if fam.expect is not None:
                want = fam.expect
                expect(trace.outcome.kind == want["outcome"] and trace.outcome.by == want.get("by")
                       and trace.outcome.recovery == want.get("recovery")
                       and all(trace.metrics.get(k) == v for k, v in want.get("metrics", {}).items()),
                       f"{where}: {trace.outcome} {trace.metrics} != sidecar {want}")
        if fam.cover is not None:
            expect(fam.seen == fam.cover, f"{inp.name} {fam.label}: seeds reached {fam.seen}, predicted {fam.cover}")

    def _cli(self, argv: list[str], code: int, lines: list[str], rec: Round) -> None:
        rec.attempted += 2
        rec.speed.sample()
        start = perf_counter()
        proc = self.env.cli(argv)
        rec.add("cli", start)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = cli.main(list(argv))
        where = "fmaf " + " ".join(argv)
        expect(proc.returncode == code and got == code,
               f"{where}: exit {proc.returncode} (in-process {got}), expected {code}: {proc.stderr[-300:]}")
        expect(proc.stdout == out.getvalue(), f"{where}: subprocess and in-process output differ")
        have = proc.stdout.splitlines()
        for line in lines:
            expect(any(h.startswith(line) for h in have), f"{where}: no line starting {line!r}")


# ---------------------------------------------------------------------------
# Set-up of each workload


def _views(model) -> list[tuple[str, str | None]]:
    out: list[tuple[str, str | None]] = [("fts", None), ("fef", None), ("erroneous-scenario", None)]
    for cid, chain in model.chains.items():
        for view in FOCUSED_VIEWS:
            if view in ("fav", "erroneous-process") and chain.origin not in model.constituents:
                continue
            out.append((view, cid))
    return out


def _has_fork(model) -> bool:
    return any(a.kind.value == "fork" for g in model.processes.values() for a in g.nodes.values())


def _bundles() -> list:
    """Load the four bundles; every workload's set-up does this first."""
    return [casestudy.load_bundle(name) for name in casestudy.BUNDLE_NAMES]


def _sidecar_gate(bundles) -> None:
    """Each runnable sidecar scenario gives its hand-written outcome: the
    program under test is the one the references were written for."""
    for bundle in bundles:
        for sname, config in bundle.scenarios.items():
            want = bundle.expected[sname]
            if want["outcome"] == "checker-violation":
                continue
            trace = simulator.run(bundle.model, config)
            expect((trace.outcome.kind, trace.outcome.by) == (want["outcome"], want.get("by")),
                   f"bundle {bundle.name} {sname}: {trace.outcome} != sidecar {want}")


def _synth_input(env: Env, s: synth.Synth, seeds: dict, enumerated, cover: bool = False,
                 parse: bool = True) -> Input:
    """An Input over a generated model; ``seeds`` maps run kinds to seed lists.

    ``Early`` configurations named in ``enumerated`` are also enumerated;
    their seeded runs must lie in the enumerated set, and with ``cover``
    they run as many seeds as :func:`synth.seeds_to_cover` asks and must
    reach the whole predicted set.  With ``parse`` the runs use the model
    parsed here, in set-up; without, they use the generator's own model
    and only the rounds parse.
    """
    path = env.write(f"{s.name}.fmaf", s.text)
    inp = Input(s.name, s.text, path, s.model, sorted(s.findings, key=repr), s.forked,
                model=dsl.parse(s.text).model if parse else s.model)
    expect(inp.model is not None, f"{s.name}: generated source does not parse")
    for c in s.early:
        config = c.sim()
        fam = Family(c.name, config, seeds["early"], "fault")
        if c.name in enumerated:
            if cover:
                expect(synth.seeds_to_cover(c.predicted) <= synth.COVER_SEEDS,
                       f"{s.name} {c.name}: an outcome is rarer than the generator allows")
                first = seeds["early"][0]
                fam.seeds = list(range(first, first + synth.COVER_SEEDS))
                fam.cover = set(c.predicted)
            inp.enumerations.append(Enumeration(c.name, config, ENUM_BOUND, set(c.predicted), [fam]))
        inp.families.append(fam)
    for c in s.faults:
        inp.families.append(Family(c.name, c.sim(), seeds["fault"], "fault"))
    for c in s.nominals:
        inp.families.append(Family(c.name, c.sim(), seeds["nominal"], "nominal"))
    inp.views = _views(inp.model)
    inp.trace = simulator.run(inp.model, s.early[0].sim())
    return inp


def _synth_commands(inp: Input, early: synth.Config, seed: int) -> list[tuple]:
    violations = [f for f in inp.findings if f[1] == "violation"]
    check_lines = [f"{rule} {sev} {subject}:" for rule, sev, subject, _ in inp.findings] or ["no findings"]
    sim_argv = ["simulate", inp.path, "--scenario", "Early", "--seed", str(seed),
                "--horizon", str(synth.HORIZON)]
    if early.enabled is not None:
        sim_argv += ["--detectors", ",".join(early.enabled)]
    for node, label in early.guards.items():
        sim_argv += ["--guard", f"{node}={label}"]
    trace = simulator.run(inp.model, early.sim(seed))
    outcome = ["outcome: " + trace.outcome.kind]
    expect((trace.outcome.by, trace.outcome.kind) in early.predicted,
           f"{inp.name}: Early run outside the predicted set")
    return [
        (["check", inp.path], 1 if violations else 0, check_lines),
        (sim_argv, 0, outcome),
        (["export", inp.path, "--view", "fts"], 0, ["digraph fts {"]),
    ]


def setup_casestudy(env: Env, seed: int) -> Workload:
    bundles = _bundles()
    seeds = list(range(50 * seed, 50 * seed + 50))
    inputs = []
    for bundle in bundles:
        text = bundle.model_file.read_text(encoding="utf-8")
        blocked = [(want["rule"], "violation", bundle.scenarios[s].scenario, bundle.scenarios[s].scenario)
                   for s, want in bundle.expected.items() if want["outcome"] == "checker-violation"]
        inp = Input(bundle.name, text, str(bundle.model_file.relative_to(env.root)), bundle.model,
                    sorted(blocked, key=repr), forked=_has_fork(bundle.model), model=bundle.model)
        for sname, config in bundle.scenarios.items():
            want = bundle.expected[sname]
            if want["outcome"] == "checker-violation":
                inp.families.append(Family(sname, config, [config.seed], "blocked", expect=want))
                continue
            kind = "nominal" if config.scenario is None else "fault"
            sidecar = Family(sname, config, [config.seed], kind, expect=want)
            seeded = Family(f"{sname}/seeds", config, seeds, kind)
            inp.families += [sidecar, seeded]
            inp.enumerations.append(Enumeration(sname, config, 12, None, [sidecar, seeded]))
        inp.views = _views(bundle.model)
        first = next(f for f in inp.families if f.kind != "blocked")
        inp.trace = simulator.run(bundle.model, first.config)
        inputs.append(inp)
    fault2 = "src/fmaf/models/fault2.fmaf"
    fault3 = "src/fmaf/models/fault3.fmaf"
    commands = [
        (["check", fault3], 1, ["R2 violation F3.1:"]),
        (["simulate", fault2, "--scenario", "F2.1", "--seed", "0", "--horizon", "120",
          "--detectors", "ERU,CallCentre", "--guard", "NextAction=transport", "--guard", "cause=broken-down"],
         0, ["outcome: recovered", "detected-by: ERU", "recovery: R2.1_ERU", "  TimeToDetect: 2"]),
        (["simulate", fault3, "--scenario", "F3.1", "--seed", "1", "--horizon", "120"], 1, []),
        (["export", fault2, "--view", "fav", "--focus", "F2.1"], 0, ["digraph fav {"]),
    ]
    return Workload(env, inputs, commands, {stage: 4 for stage in REPEATABLE})


def setup_seed_sweep(env: Env, seed: int) -> Workload:
    _sidecar_gate(_bundles())
    shape = synth.Shape(spokes=4, length=70, forks=0.55, fork_depth=2,
                        decisions=0.2, telemetry=0.2, reliability=0.8, lossy_before_fault=2,
                        third_party=2, spoke_chains=4)
    mid = synth.generate("Sweep", seed, shape)
    base = 1000 * seed
    inp = _synth_input(env, mid, {
        "early": list(range(base, base + 10)),
        "fault": list(range(base, base + 8)),
        "nominal": list(range(base, base + 6)),
    }, {"Early/all/ok", "Early/third-only/ok", "Early/no-hub/abort"})
    fixture = synth.probabilistic_fixture()
    fix = Input("Fixture", fixture.text, env.write("Fixture.fmaf", fixture.text), fixture.model,
                [], False, model=dsl.parse(fixture.text).model)
    fix.families = [
        Family("Maybe/never-fires", synth.Config("", "Maybe").sim(),
               [synth.PROB_FIXTURE_SEED], "fault", fails=True),
        Family("fixture/nominal", synth.Config("", None).sim(),
               list(range(base, base + 6)), "nominal"),
    ]
    fix.views = _views(fix.model)
    fix.trace = simulator.run(fix.model, synth.Config("", None).sim())
    return Workload(env, [inp, fix], _synth_commands(inp, mid.early[0], base),
                    {"verdict": 3, "serialize": 4, "enumerate": 4, "export": 4})


def setup_oracle(env: Env, seed: int) -> Workload:
    _sidecar_gate(_bundles())
    inputs = []
    base = 1000 * seed
    plans = (
        (3, 1, 0.0, ("Early/all/ok", "Early/third-only/ok", "Early/no-hub/abort", "Early/off")),
        (5, 2, 0.4, ("Early/all/ok", "Early/third-only/abort", "Early/off")),
        (7, 1, 0.0, ("Early/all/ok", "Early/no-hub/ok")),
        (8, 2, 0.4, ("Early/all/ok",)),
    )
    for i, (lossy, third, forks, enumerated) in enumerate(plans):
        shape = synth.Shape(spokes=3, length=16, forks=forks, fork_depth=1, lossy_before_fault=lossy,
                            third_party=third, spoke_chains=1)
        s = synth.generate(f"Oracle{i}", seed * 10 + i, shape)
        inputs.append(_synth_input(env, s, {
            "early": list(range(base, base + 5)),
            "fault": list(range(base, base + 5)),
            "nominal": list(range(base, base + 5)),
        }, set(enumerated), cover=True))
    return Workload(env, inputs, _synth_commands(inputs[-1], s.early[0], base),
                    {"verdict": 8, "serialize": 8, "export": 8})


def setup_frontend(env: Env, seed: int) -> Workload:
    _sidecar_gate(_bundles())
    inputs = []
    base = 1000 * seed
    planted = (("R1", "R5", "R8"), ("R2", "R3", "R7"), (), ("R1", "R2", "R3", "R5", "R7", "R8"))
    corpus = [("Flat", n, synth.Shape(spokes=2, length=n, forks=0.0, decisions=0.25,
                                       lossy_before_fault=2, defects=d))
              for n, d in zip((10, 40, 120, 300), planted)]
    corpus += [("Forked", n, synth.Shape(spokes=3, length=n, forks=0.8, fork_depth=2,
                                          decisions=0.1, lossy_before_fault=2, defects=d))
               for n, d in zip((24, 40, 70, 120), reversed(planted))]
    chosen = None
    for i, (kind, n, shape) in enumerate(corpus):
        s = synth.generate(f"{kind}{n}", seed * 10 + i, shape)
        inp = _synth_input(env, s, {
            "early": [base, base + 1], "fault": [base + k for k in range(6)], "nominal": [base],
        }, {c.name for c in s.early}, parse=False)
        inputs.append(inp)
        if kind == "Flat" and n == 120:
            chosen = (inp, s.early[0])
    deep = synth.zero_time_chain(2000)
    inputs.append(Input("Deep", deep, env.write("Deep.fmaf", deep), None, [], False))
    return Workload(env, inputs, _synth_commands(chosen[0], chosen[1], base),
                    {"verdict": 2, "serialize": 12, "enumerate": 2})


SETUPS = {
    "casestudy": setup_casestudy,
    "seed-sweep": setup_seed_sweep,
    "oracle": setup_oracle,
    "frontend": setup_frontend,
}
