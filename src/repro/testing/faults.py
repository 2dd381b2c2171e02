"""Seedable fault injection for chaos testing.

Named *sites* are threaded through the production code paths that can
fail in a real deployment — the store read path (``store.read``), the
instant between writing a replacement file and renaming it into place
(``store.commit``, in :func:`repro.storage.atomic_write`: an ``error``
there is a crash just before a store's or a bundle's commit point), the
service worker pool (``service.worker``), mutation-log replay
(``log.replay``), and the network server (``net.accept``, ``net.read``,
``net.write``). Each site costs one module-global ``None`` check when
no injector is installed, so the instrumented paths stay effectively
free in production.

An installed :class:`FaultInjector` holds :class:`FaultRule` entries —
``(site, kind, probability, param, max_fires)`` — and decides, with its
own seeded RNG, whether a given site firing produces a fault. Kinds:

``error``
    Raise :class:`~repro.utils.errors.FaultError` at the site (the
    sync helper :func:`check` raises it; async sites raise it
    themselves). Surfaces like a real subsystem failure: a clean typed
    error.
``delay``
    Sleep ``param`` seconds at the site (``check`` sleeps
    synchronously; async sites should ``await asyncio.sleep``).
``drop``
    Only meaningful at network sites: the server tears the connection
    down mid-exchange. :func:`check` ignores it.

Sites match rules by exact name or prefix: the rule site ``net.*``
matches ``net.read`` and ``net.write``. The environment hook::

    REPRO_FAULTS="store.read:error:0.05,net.read:drop:0.02,service.worker:delay:0.1:0.05"
    REPRO_FAULTS_SEED=1234

configures ``site:kind:probability[:param]`` rules, comma-separated;
:func:`install_from_env` is called by the CLI ``serve``/``client``
commands and by the chaos CI step.

The chaos invariant this framework exists to prove: with faults
enabled at every site, every request returns either a result
bit-identical to the fault-free oracle or a clean typed error — never
a wrong answer, never a hang.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field

from repro.utils.errors import FaultError, ReproError

#: Fault kinds a rule may carry.
KINDS = ("error", "delay", "drop")


@dataclass
class FaultRule:
    """One injection rule: where, what, how often, how many times.

    Attributes
    ----------
    site:
        Site name the rule applies to — exact (``store.read``) or a
        ``*``-suffixed prefix (``net.*``).
    kind:
        One of :data:`KINDS`.
    probability:
        Per-firing probability in ``[0, 1]``.
    param:
        Kind parameter: the delay in seconds for ``delay`` rules;
        unused otherwise.
    max_fires:
        Cap on how many times this rule may fire (``None`` = unlimited).
        Lets a chaos case inject "the first read fails" determinism.
    fires:
        How many times the rule has fired so far.
    """

    site: str
    kind: str
    probability: float = 1.0
    param: float = 0.0
    max_fires: int | None = None
    fires: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )

    def matches(self, site: str) -> bool:
        if self.site.endswith("*"):
            return site.startswith(self.site[:-1])
        return site == self.site


@dataclass(frozen=True)
class FaultAction:
    """What an armed site should do: ``kind`` plus its parameter."""

    site: str
    kind: str
    param: float = 0.0


class FaultInjector:
    """A seeded registry of fault rules, safe for concurrent sites.

    One RNG (seeded) drives every decision; the per-site fire counts
    are kept for assertions (``injector.fired``). Thread-safe: sites
    fire from worker threads, the asyncio loop, and test threads at
    once.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self.rules: list[FaultRule] = []
        #: ``{site: times a fault actually fired there}``.
        self.fired: dict[str, int] = {}
        #: ``{site: times the site was evaluated}``.
        self.evaluated: dict[str, int] = {}

    def add(
        self,
        site: str,
        kind: str,
        probability: float = 1.0,
        param: float = 0.0,
        max_fires: int | None = None,
    ) -> "FaultInjector":
        """Register one rule; returns ``self`` for chaining."""
        with self._lock:
            self.rules.append(
                FaultRule(site, kind, probability, param, max_fires)
            )
        return self

    def fire(self, site: str) -> FaultAction | None:
        """Decide whether ``site`` faults now; ``None`` = proceed clean.

        The first matching rule that passes its probability draw (and
        has fires remaining) wins.
        """
        with self._lock:
            self.evaluated[site] = self.evaluated.get(site, 0) + 1
            for rule in self.rules:
                if not rule.matches(site):
                    continue
                if rule.max_fires is not None and rule.fires >= rule.max_fires:
                    continue
                if rule.probability < 1.0 and (
                    self._rng.random() >= rule.probability
                ):
                    continue
                rule.fires += 1
                self.fired[site] = self.fired.get(site, 0) + 1
                return FaultAction(site, rule.kind, rule.param)
        return None

    def total_fired(self) -> int:
        """Faults fired across all sites."""
        with self._lock:
            return sum(self.fired.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(seed={self.seed}, rules={len(self.rules)}, "
            f"fired={self.total_fired()})"
        )


#: The installed injector (``None`` = fault injection disabled; every
#: site then costs one global read + ``is None`` check).
_INJECTOR: FaultInjector | None = None


def install(injector: FaultInjector) -> FaultInjector:
    """Activate ``injector`` process-wide; returns it."""
    global _INJECTOR
    _INJECTOR = injector
    return injector


def uninstall() -> None:
    """Deactivate fault injection (idempotent)."""
    global _INJECTOR
    _INJECTOR = None


def get_injector() -> FaultInjector | None:
    """The installed injector, or ``None``."""
    return _INJECTOR


def fire(site: str) -> FaultAction | None:
    """Evaluate ``site`` against the installed injector (fast path)."""
    injector = _INJECTOR
    if injector is None:
        return None
    return injector.fire(site)


def check(site: str) -> FaultAction | None:
    """Synchronous site helper: sleep on ``delay``, raise on ``error``.

    Returns the action for kinds the call site must interpret itself
    (``drop``), or ``None`` when the site stays clean. Async sites
    (the net server) call :func:`fire` directly so delays do not block
    the event loop.
    """
    action = fire(site)
    if action is None:
        return None
    if action.kind == "delay":
        time.sleep(action.param)
        return None
    if action.kind == "error":
        raise FaultError(f"injected fault at {site}")
    return action


def parse_env(spec: str, seed: int = 0) -> FaultInjector:
    """Build an injector from a ``REPRO_FAULTS``-style spec string.

    Format: comma-separated ``site:kind:probability[:param]`` rules,
    e.g. ``"store.read:error:0.05,service.worker:delay:0.1:0.05"``.
    """
    injector = FaultInjector(seed=seed)
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (3, 4):
            raise ReproError(
                f"bad REPRO_FAULTS rule {chunk!r}: expected "
                "site:kind:probability[:param]"
            )
        site, kind, probability = parts[0], parts[1], float(parts[2])
        param = float(parts[3]) if len(parts) == 4 else 0.0
        injector.add(site, kind, probability, param)
    return injector


def install_from_env(environ=None) -> FaultInjector | None:
    """Install an injector from ``REPRO_FAULTS`` if the variable is set.

    ``REPRO_FAULTS_SEED`` (default 0) seeds the injector's RNG so chaos
    runs are reproducible. Returns the installed injector or ``None``
    when the variable is absent/empty.
    """
    environ = environ if environ is not None else os.environ
    spec = environ.get("REPRO_FAULTS", "").strip()
    if not spec:
        return None
    seed = int(environ.get("REPRO_FAULTS_SEED", "0"))
    return install(parse_env(spec, seed=seed))
