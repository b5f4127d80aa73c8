"""The SEMSIM SPICE-like input format (Example Input File 1).

The paper drives the simulator from a text deck::

    #SET component definitions
    junc 1 1 4 1e-6 1e-18
    junc 2 2 4 1e-6 1e-18
    cap 3 4 3e-18
    charge 4 0.0

    #Input source information
    vdc 1 0.02
    vdc 2 -0.02
    vdc 3 0.0
    symm 1

    #Overall node information
    num j 2
    num ext 3
    num nodes 4

    #Simulation specific information
    temp 5
    cotunnel
    record 1 2 2
    jumps 100000 1
    sweep 2 0.02 0.00005

Directive semantics (documented here because the paper only shows the
example):

``junc <id> <node1> <node2> <G_S> <C_F>``
    Tunnel junction with conductance in siemens (the example's ``1e-6``
    for a 1 MOhm junction) and capacitance in farads.
``cap <node1> <node2> <C_F>`` / ``charge <node> <q/e>`` / ``vdc <node> <V>``
    Capacitor, island background charge, DC source.
``symm <node>``
    Symmetric-bias mode: when the sweep drives its target node to
    ``V``, node ``<node>`` is driven to ``-V`` (the paper's Fig. 1
    setup, giving a total drain-source swing of twice the sweep range).
``super <delta0_eV> <tc_K>``
    Declare the whole circuit superconducting.
``num j|ext|nodes <n>``
    Declared counts, validated against the parsed component lists.
``temp <K>`` / ``cotunnel``
    Temperature and second-order cotunneling enable.
``record <j_first> <j_last> <interval>``
    Junctions (1-based id range) whose current is recorded, sampled
    every ``interval`` events.
``jumps <count> <runs>``
    Tunnel events per operating point and number of independent runs.
``sweep <node> <max_V> <step_V>``
    Sweep the source on ``node`` from ``-max`` to ``+max`` inclusive.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.circuit.builder import CircuitBuilder
from repro.circuit.circuit import Circuit
from repro.circuit.components import Superconductor
from repro.constants import EV
from repro.core.config import SimulationConfig
from repro.core.engine import MonteCarloEngine
from repro.core.sweep import IVCurve, sweep_iv
from repro.errors import FrozenCircuitError, NetlistError, SimulationError
from repro.monitor.ledger import run_scope
from repro.parallel import ensemble_iv
from repro.telemetry import registry as _telemetry

if TYPE_CHECKING:
    from repro.campaign.store import CampaignStore
    from repro.recovery.policy import ExecutionPolicy


@dataclasses.dataclass
class SweepSpec:
    node: str
    maximum: float
    step: float

    def values(self) -> np.ndarray:
        n = int(round(2.0 * self.maximum / self.step)) + 1
        return np.linspace(-self.maximum, self.maximum, n)


@dataclasses.dataclass
class RecordSpec:
    first_junction: int
    last_junction: int
    interval: int


@dataclasses.dataclass
class SemsimDeck:
    """Parsed SEMSIM input file."""

    junctions: list[tuple[str, str, str, float, float]]
    capacitors: list[tuple[str, str, float]]
    charges: list[tuple[str, float]]
    sources: list[tuple[str, float]]
    symmetric_node: str | None = None
    superconductor: Superconductor | None = None
    temperature: float = 4.2
    cotunnel: bool = False
    record: RecordSpec | None = None
    jumps: int = 100_000
    runs: int = 1
    sweep: SweepSpec | None = None
    declared_junctions: int | None = None
    declared_external: int | None = None
    declared_nodes: int | None = None
    #: source line of each directive, keyed e.g. ``"junc 1"``, ``"num j"``,
    #: ``"vdc 2"``, ``"sweep"``; populated by :func:`parse_semsim` so
    #: post-parse validation can report locations.  Excluded from
    #: equality so written-then-reparsed decks still compare equal.
    directive_lines: dict[str, int] = dataclasses.field(
        default_factory=dict, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    def line_of(self, directive: str) -> int | None:
        """Source line of a directive key, if the deck came from text."""
        return self.directive_lines.get(directive)

    def validation_problems(self) -> list[tuple[str, int | None]]:
        """Cross-check declared counts against the parsed components.

        Returns ``(message, line_number)`` pairs instead of raising, so
        the static analyzer can report *every* mismatch; line numbers
        point at the offending ``num``/``junc`` directive when the deck
        was parsed from text.
        """
        problems: list[tuple[str, int | None]] = []
        if not self.junctions:
            problems.append(("deck contains no junctions", None))
        if self.declared_junctions is not None and (
            self.declared_junctions != len(self.junctions)
        ):
            problems.append((
                f"'num j {self.declared_junctions}' but {len(self.junctions)} "
                "junctions defined",
                self.line_of("num j"),
            ))
        if self.declared_external is not None and (
            self.declared_external != len(self.sources)
        ):
            problems.append((
                f"'num ext {self.declared_external}' but {len(self.sources)} "
                "sources defined",
                self.line_of("num ext"),
            ))
        nodes = set()
        for name, a, b, _, _ in self.junctions:
            nodes.update((a, b))
        for a, b, _ in self.capacitors:
            nodes.update((a, b))
        nodes.discard("0")
        if self.declared_nodes is not None and self.declared_nodes != len(nodes):
            problems.append((
                f"'num nodes {self.declared_nodes}' but {len(nodes)} "
                "non-ground nodes referenced",
                self.line_of("num nodes"),
            ))
        return problems

    def validate(self) -> None:
        """Raise :class:`NetlistError` (with a location when known) for
        the first cross-check failure; see :meth:`validation_problems`."""
        problems = self.validation_problems()
        if problems:
            message, line = problems[0]
            raise NetlistError(message, line)

    def build_circuit(self, strict: bool = False) -> Circuit:
        """Materialise the deck as a frozen circuit.

        With ``strict=True`` the deck is first run through the static
        analyzer (:func:`repro.lint.lint_deck`) and a
        :class:`repro.errors.LintError` is raised if any error-severity
        diagnostics are found — catching defects like floating islands
        *before* the electrostatics backend hits a singular matrix.
        """
        if strict:
            from repro.lint import require_clean_deck

            require_clean_deck(self)
        self.validate()
        return self.unchecked_circuit()

    def unchecked_circuit(self) -> Circuit:
        """Materialise the deck without running the deck cross-checks.

        Used by the static analyzer, which has already reported count
        mismatches as diagnostics and still wants a circuit to run the
        topology/physics passes on.  The builder's own invariants
        (positive values, sane sources) still apply.
        """
        builder = CircuitBuilder()
        for name, a, b, conductance, capacitance in self.junctions:
            builder.add_junction(f"j{name}", a, b, 1.0 / conductance, capacitance)
        for i, (a, b, capacitance) in enumerate(self.capacitors):
            builder.add_capacitor(f"c{i+1}", a, b, capacitance)
        for node, q in self.charges:
            if q:
                builder.add_background_charge(node, q)
        for node, voltage in self.sources:
            builder.add_voltage_source(f"v{node}", node, voltage)
        builder.set_superconductor(self.superconductor)
        return builder.build()

    def config(self, solver: str = "adaptive", seed: int = 0) -> SimulationConfig:
        return SimulationConfig(
            temperature=self.temperature,
            solver=solver,
            include_cotunneling=self.cotunnel,
            seed=seed,
        )

    # ------------------------------------------------------------------
    def recorded_junctions(self, circuit: Circuit) -> list[int]:
        """Indices of the junctions named by the record directive."""
        if self.record is None:
            return [0]
        out = []
        for jid in range(self.record.first_junction, self.record.last_junction + 1):
            out.append(circuit.junction_index(f"j{jid}"))
        return out

    def run(
        self,
        solver: str = "adaptive",
        seed: int = 0,
        jobs: int = 1,
        chunks: int = 1,
        dsan: bool = False,
        policy: "ExecutionPolicy | None" = None,
        campaign: "CampaignStore | None" = None,
    ) -> IVCurve:
        """Execute the deck: sweep if requested, one point otherwise.

        The returned curve carries the cumulative
        :class:`repro.core.base.SolverStats` of the run in its
        ``stats`` field.

        A sweep runs through :func:`repro.core.sweep.sweep_iv`, or, for
        a deck asking for several independent runs (``jumps <count>
        <runs>`` with ``runs > 1``), through
        :func:`repro.parallel.ensemble_iv`, whose replicas are averaged
        into the returned curve.  ``jobs`` distributes the work over
        worker processes and ``chunks`` splits the sweep into
        independently seeded voltage chunks; the result depends on
        ``chunks``, never on ``jobs``.  A frozen sweep point (every
        rate zero, e.g. deep blockade at T = 0) records 0 A.

        ``dsan`` enables the runtime determinism sanitizer's
        event-stream hash: every solver maintains an order-sensitive
        digest of its realised events, and the per-shard digests fold
        into the returned curve's ``event_hash``.  Arm
        :func:`repro.dsan.runtime.dsan_mode` around the call to
        additionally verify the pool boundary.

        ``policy`` (an :class:`repro.recovery.ExecutionPolicy`) adds
        per-shard retry/timeout fault tolerance.  ``campaign`` (a
        :class:`repro.campaign.CampaignStore`) consults the durable
        content-addressed result store before simulating: sweep shards
        already in the store are replayed, fresh ones are persisted as
        they land.  It forces event-stream hashing, and it is how an
        interrupted run resumes: rerun it on the same store, and the
        arrays and combined event hash come out bit-identical to an
        uninterrupted run.
        """
        with _telemetry.span("deck.build", category="deck"):
            circuit = self.build_circuit()
        config = self.config(solver, seed)
        if dsan:
            config = config.replace(event_hash=True)
        with run_scope("deck.run") as recorder:
            curve = self._execute_deck(
                circuit, config, jobs=jobs, chunks=chunks,
                policy=policy, campaign=campaign,
            )
            if recorder is not None:
                recorder.commit(
                    circuit=circuit, config=config,
                    values=self.sweep.values() if self.sweep is not None else None,
                    jumps_per_point=self.jumps, label=curve.label,
                    solver=solver, seed=seed, jobs=jobs, chunks=chunks,
                    replicas=self.runs if self.runs > 1 else None,
                    event_hash=curve.event_hash,
                )
        return curve

    def _execute_deck(
        self,
        circuit: Circuit,
        config: SimulationConfig,
        jobs: int,
        chunks: int,
        policy: "ExecutionPolicy | None" = None,
        campaign: "CampaignStore | None" = None,
    ) -> IVCurve:
        """The deck's execution body (see :meth:`run`), factored out so
        the run-ledger scope wraps every path uniformly."""
        junctions = self.recorded_junctions(circuit)
        # series junctions through one island alternate orientation;
        # infer each junction's sign from its position relative to the
        # first recorded junction's island
        orientations = _series_orientations(circuit, junctions)
        if self.sweep is None:
            if campaign is not None:
                raise SimulationError(
                    "--campaign needs a sweep deck: an operating-point "
                    "deck runs as a single unsharded measurement"
                )
            engine = MonteCarloEngine(circuit, config)
            with _telemetry.span("deck.run", category="deck", points=1):
                try:
                    current = engine.measure_current(
                        junctions, self.jumps, orientations=orientations
                    )
                except FrozenCircuitError:
                    # frozen at this bias: no current, as at a frozen
                    # point of any sweep
                    current = 0.0
            return IVCurve(
                np.zeros(1), np.array([current]), "operating point",
                stats=dataclasses.replace(engine.solver.stats),
                event_hash=engine.event_hash(),
            )
        values = self.sweep.values()
        setter = DeckSweepSetter(
            f"v{self.sweep.node}",
            f"v{self.symmetric_node}" if self.symmetric_node is not None else None,
        )
        label = f"sweep node {self.sweep.node}"
        with _telemetry.span(
            "deck.run", category="deck",
            points=len(values), jobs=jobs, chunks=chunks, runs=self.runs,
        ):
            if self.runs > 1:
                ensemble = ensemble_iv(
                    circuit, values, self.runs, config,
                    jumps_per_point=self.jumps,
                    measure_junctions=junctions,
                    orientations=orientations,
                    source_setter=setter,
                    label=label,
                    jobs=jobs,
                    policy=policy,
                    campaign=campaign,
                )
                return ensemble.mean_curve()
            return sweep_iv(
                circuit, values, config,
                jumps_per_point=self.jumps,
                measure_junctions=junctions,
                orientations=orientations,
                source_setter=setter,
                label=label,
                chunks=chunks,
                jobs=jobs,
                policy=policy,
                campaign=campaign,
            )


@dataclasses.dataclass
class DeckSweepSetter:
    """Picklable source setter for a deck sweep: drives the swept node
    and, in ``symm`` mode, its mirror node to the opposite voltage."""

    source: str
    symmetric_source: str | None = None

    def __call__(self, v: float) -> dict:
        targets = {self.source: float(v)}
        if self.symmetric_source is not None:
            targets[self.symmetric_source] = -float(v)
        return targets


def _series_orientations(circuit: Circuit, junctions: list[int]) -> list[int]:
    """Orient series junctions so their device currents add coherently.

    Walks the recorded junctions as a transport chain starting from the
    first junction's ``node_a``: a junction traversed ``a -> b`` along
    the chain keeps +1, one traversed ``b -> a`` gets -1.  For the
    paper's ``record 1 2`` SET idiom this yields (+1, -1), so both
    series junctions measure the same device current instead of
    cancelling.
    """
    resolved = circuit.resolved_junctions()
    orientations: list[int] = []
    current = resolved[junctions[0]].ref_a
    for j in junctions:
        rj = resolved[j]
        if rj.ref_a == current:
            orientations.append(+1)
            current = rj.ref_b
        elif rj.ref_b == current:
            orientations.append(-1)
            current = rj.ref_a
        else:
            # not chained to the previous junction; measure it as-is
            orientations.append(+1)
            current = rj.ref_b
    return orientations


def parse_semsim(
    text: str, strict: bool = False, *, validate: bool = True
) -> SemsimDeck:
    """Parse a SEMSIM input deck from text.

    With ``strict=True`` the parsed deck is additionally run through
    the static analyzer and a :class:`repro.errors.LintError` is raised
    if any error-severity diagnostics are found.  ``validate=False``
    skips the post-parse count cross-checks (used by the static
    analyzer, which reports them as ``SEM002`` diagnostics instead of
    raising on the first one).
    """
    deck = SemsimDeck([], [], [], [])
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword, args = fields[0].lower(), fields[1:]
        try:
            _dispatch(deck, keyword, args, line_number)
        except (ValueError, IndexError) as exc:
            raise NetlistError(f"bad {keyword!r} directive: {exc}", line_number)
        except NetlistError as exc:
            if exc.line_number is None:
                raise NetlistError(str(exc), line_number) from None
            raise
    if validate:
        deck.validate()
    if strict:
        from repro.lint import require_clean_deck

        require_clean_deck(deck)
    return deck


def _dispatch(
    deck: SemsimDeck, keyword: str, args: list[str], line: int | None = None
) -> None:
    def remember(key: str) -> None:
        if line is not None:
            deck.directive_lines.setdefault(key, line)

    if keyword == "junc":
        name, a, b = args[0], args[1], args[2]
        conductance, capacitance = float(args[3]), float(args[4])
        if conductance <= 0.0:
            raise NetlistError(f"junction {name}: conductance must be > 0")
        deck.junctions.append((name, a, b, conductance, capacitance))
        remember(f"junc {name}")
    elif keyword == "cap":
        deck.capacitors.append((args[0], args[1], float(args[2])))
        remember(f"cap {len(deck.capacitors)}")
    elif keyword == "charge":
        deck.charges.append((args[0], float(args[1])))
        remember(f"charge {args[0]}")
    elif keyword == "vdc":
        deck.sources.append((args[0], float(args[1])))
        remember(f"vdc {args[0]}")
    elif keyword == "symm":
        deck.symmetric_node = args[0]
        remember("symm")
    elif keyword == "super":
        deck.superconductor = Superconductor(float(args[0]) * EV, float(args[1]))
        remember("super")
    elif keyword == "num":
        value = int(args[1])
        if args[0] == "j":
            deck.declared_junctions = value
        elif args[0] == "ext":
            deck.declared_external = value
        elif args[0] == "nodes":
            deck.declared_nodes = value
        else:
            raise NetlistError(f"unknown 'num' kind {args[0]!r}")
        remember(f"num {args[0]}")
    elif keyword == "temp":
        deck.temperature = float(args[0])
        remember("temp")
    elif keyword == "cotunnel":
        deck.cotunnel = True
        remember("cotunnel")
    elif keyword == "record":
        deck.record = RecordSpec(int(args[0]), int(args[1]), int(args[2]))
        remember("record")
    elif keyword == "jumps":
        deck.jumps = int(args[0])
        deck.runs = int(args[1]) if len(args) > 1 else 1
        remember("jumps")
    elif keyword == "sweep":
        deck.sweep = SweepSpec(args[0], float(args[1]), float(args[2]))
        remember("sweep")
    else:
        raise NetlistError(f"unknown directive {keyword!r}")
