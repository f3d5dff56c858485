"""EM²-RA: the hybrid architecture (Figure 3, executable).

Every non-local access consults a per-core decision procedure:

* MIGRATE — identical to pure EM² (context moves to the home core);
* REMOTE — a request travels on the remote-access virtual subnetwork
  ("separate from the subnetworks used for migrations ... requiring
  six virtual channels in total", §3), the home core performs the
  access against its own cache hierarchy, and the data (read) or ack
  (write) returns to the requesting core, where execution continues.

The decision scheme is any :class:`~repro.core.decision.DecisionScheme`
— including a replayed optimal sequence from the DP, which is how the
"how close to optimal is this scheme" experiments run.
"""

from __future__ import annotations

from repro.arch.noc import Message, VirtualNetwork
from repro.arch.noc.deadlock import VC_PLAN_EM2RA
from repro.arch.config import SystemConfig
from repro.arch.topology import Topology
from repro.core.decision.base import Decision, DecisionScheme
from repro.core.machine import MigrationMachineBase, ThreadState
from repro.placement.base import Placement
from repro.registry import MACHINES
from repro.trace.events import MultiTrace


class EM2RAMachine(MigrationMachineBase):
    """Hybrid migration / remote-cache-access machine."""

    name = "em2-ra"
    vc_plan = VC_PLAN_EM2RA

    def __init__(
        self,
        trace: MultiTrace,
        placement: Placement,
        config: SystemConfig,
        scheme: DecisionScheme,
        topology: Topology | None = None,
        cache_detail: bool = True,
        faults=None,
        fast_path: bool = True,
    ) -> None:
        super().__init__(
            trace, placement, config, topology, cache_detail,
            faults=faults, fast_path=fast_path,
        )
        # one scheme instance per thread: the hardware unit is core-local,
        # but its history follows the thread's perspective
        self._schemes = [scheme.clone() for _ in range(trace.num_threads)]
        for s in self._schemes:
            s.reset()
        # index-addressed replay (DP plans) answers by access index
        self._replay = hasattr(scheme, "decision_for")
        self._c_remote = self.stats.counters.cell("remote_accesses")
        self._ra_fixed = config.cost.remote_access_fixed
        # request: address + opcode, plus the data word on a write;
        # reply: an ack on a write, the data word on a read
        self._req_bits = (64 + 8, 64 + 8 + config.word_bits)
        self._rep_bits = (config.word_bits, 8)

    def _handle_nonlocal(
        self, th: ThreadState, addr: int, write: bool, home: int, delay: float
    ) -> None:
        scheme = self._schemes[th.tid]
        if self._replay:
            decision = scheme.decision_for(th.tid, th.idx)
        else:
            decision = scheme.decide(th.core, home, addr, write)
            scheme.observe(th.core, home, addr, write, decision)
        if decision == Decision.MIGRATE:
            self._migrate(th, home, after_delay=delay)
            return
        self._remote_access(th, addr, write, home, delay)

    # -- remote access round trip ----------------------------------------
    # Four transport hops — request departure, request delivery, reply
    # departure, reply delivery — then the thread's next step. Fault-free
    # runs carry all four on the thread's one transport event and its
    # recycled request/reply messages (see ThreadState._tx_ev).
    def _remote_access(
        self, th: ThreadState, addr: int, write: bool, home: int, delay: float
    ) -> None:
        self._c_remote.n += 1
        msg = th._ra_req
        if msg is None:
            msg = Message(
                src=th.core,
                dst=home,
                payload_bits=self._req_bits[write],
                vnet=VirtualNetwork.RA_REQUEST,
                kind="ra-request",
                body=(th, addr, write),
            )
            if self._recycle:
                th._ra_req = msg
        else:
            msg.src = th.core
            msg.dst = home
            msg.payload_bits = self._req_bits[write]
            msg.body = (th, addr, write)
        self._send_later(th, delay + self._ra_fixed, msg, self._ra_at_home)

    def _ra_at_home(self, msg: Message) -> None:
        th, addr, write = msg.body
        home = msg.dst
        # the home core performs the access against its own caches
        lat = self._access_latency(home, addr, write)
        reply = th._ra_rep
        if reply is None:
            reply = Message(
                src=home,
                dst=msg.src,
                payload_bits=self._rep_bits[write],
                vnet=VirtualNetwork.RA_REPLY,
                kind="ra-reply",
                body=th,
            )
            if self._recycle:
                th._ra_rep = reply
        else:
            reply.src = home
            reply.dst = msg.src
            reply.payload_bits = self._rep_bits[write]
        self._send_later(th, lat, reply, self._ra_done)

    def _ra_done(self, msg: Message) -> None:
        th: ThreadState = msg.body
        th.idx += 1  # the access completed remotely
        self._push_step(th, self._ra_fixed)
        # the thread is evictable again: a migrant stalled behind this
        # core's pinned guests may now displace it
        if not self.contexts[th.core].is_native(th.tid):
            self._admit_waiter_if_any(th.core)


@MACHINES.register("em2ra", "hybrid migration / remote-access machine (detailed DES)")
def _run_em2ra(trace, placement, config, scheme=None, topology=None, **params):
    if scheme is None:
        from repro.util.errors import ConfigError

        raise ConfigError("machine 'em2ra' requires a decision scheme")
    m = EM2RAMachine(trace, placement, config, scheme, topology=topology, **params)
    m.run()
    return m.results()
