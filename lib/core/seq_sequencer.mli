(** Sequentially consistent memory via a sequencer node (partial
    replication, "fast reads / slow writes", after Attiya–Welch).

    All writes are funnelled through one extra infrastructure node that
    stamps them with a global sequence number and forwards each to the
    variable's replica holders; every process applies updates in global
    order (its channel from the sequencer is FIFO).  A writer blocks until
    its own write has been applied locally, which is what makes the
    combination with local reads sequentially consistent.  Reads are local
    and wait-free.

    Cost profile: every write pays a round trip to the sequencer (2 hops to
    reach replicas), the sequencer is a throughput bottleneck, and writes
    block — the latency the weaker criteria exist to avoid (paper §3.3).

    Because [write] suspends, application code must run inside
    {!Repro_msgpass.Fiber} (the {!Runner} does this). *)

val create :
  ?latency:Repro_msgpass.Latency.t ->
  ?transport:Repro_transport.Transport.factory ->
  dist:Repro_sharegraph.Distribution.t ->
  seed:int ->
  unit ->
  Memory.t
(** The sequencer is node [n], after the [n] processes.  To make the
    centralization bottleneck measurable, pass a simulator whose nodes
    rate-limit their intake ({!Repro_transport.Transport.sim}'s
    [service_time]): under write load the sequencer is the hot spot. *)
