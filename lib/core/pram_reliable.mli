(** PRAM memory over {e unreliable} channels.

    The paper's model (§1) assumes a message-passing system "with a certain
    quality of service in terms of ordering and reliability"; the plain
    {!Pram_partial} inherits both from the simulator.  This variant runs
    the same protocol over links that lose and duplicate messages, and
    gets that quality of service back from the {!Repro_transport.Session}
    layer: per-link sequence numbers, cumulative acks, retransmission and
    duplicate suppression below the protocol.

    The memory semantics is exactly PRAM, and {e no update is ever lost}:
    after quiescence every replica has applied every relevant write.  The
    protocol lane — messages, control and payload bytes, applied updates,
    the mention audit — is {!Pram_partial}'s; the price of reliability
    (headers, retransmitted copies, acks) is reported apart, in
    [overhead_bytes]. *)

val create :
  ?plan:Repro_msgpass.Fault.Plan.t ->
  ?latency:Repro_msgpass.Latency.t ->
  ?transport:Repro_transport.Transport.factory ->
  dist:Repro_sharegraph.Distribution.t ->
  seed:int ->
  unit ->
  Memory.t
(** Builds [transport] (default: the simulator with [latency] and [seed])
    → {!Repro_transport.Chaos.wrap} [~plan] → {!Repro_transport.Session}
    → {!Pram_partial}, via {!Repro_transport.Session.stack}.  [plan]
    defaults to clean links.  The instance is named ["pram-reliable"] and
    has no checkpoint support: the session windows are not part of the
    protocol snapshot. *)
