(** One live replica: a whole protocol instance hosted in this process,
    with only node [self] active.

    Protocols allocate all-[n] state, but node [p]'s behaviour depends
    only on its own state slice plus incoming messages — so a process
    builds the full instance over a [Node self] transport, runs its
    workload slice as a fiber, and the other nodes' arrays simply stay
    at their initial values.

    The transport stack grows inward from the wire:
    [Live] backend → {!Repro_transport.Chaos} (when a plan is given) →
    {!Repro_transport.Session} (when [session], forced on under chaos) →
    protocol.  Chaos is injected {e below} the session layer, so injected
    drops and duplicates exercise the retransmission machinery exactly as
    wire faults would. *)

type result = {
  node : int;
  incarnation : int;  (** 0 first launch; [k] after the [k]-th respawn. *)
  ops : Repro_core.Runner.entry list;  (** program order *)
  finals : (int * Repro_history.Op.value) list;
      (** The workload's [final_vars], read after the drain. *)
  metrics : Repro_core.Memory.metrics;
      (** This node's share of the accounting: its sends, its deliveries,
          its declared control/payload bytes.  Under a session layer these
          are protocol-level numbers (first transmissions only);
          reliability traffic is in [metrics.overhead_bytes] and the
          [wire] counters. *)
  wire : Repro_msgpass.Net.stats;
      (** Wire-level view: injected drops/duplicates folded in, session
          retransmits / suppressed duplicates, live-link reconnects. *)
  session_stats : Repro_transport.Session.stats option;
      (** Full session-layer counters (frames, piggybacked acks,
          coalescing) when a session layer ran; [None] otherwise. *)
  client_ops : int;
      (** Operations served through the client front door (batch ops
          counted individually). *)
  wall_ms : int;
  wal_stats : Repro_durable.Wal.stats option;
      (** Append/sync/rotation counters when the durability tier ran. *)
  recovered_ops : int;
      (** Ops seeded by recovery (checkpoint + WAL tail); 0 on a first
          incarnation. *)
  recovered_digest : string option;
      (** On a respawned node: {!Oplog.digest} over the recovered
          prefix of [ops] as actually replayed — the supervisor compares it
          against an independent decode of the surviving WAL files. *)
}

exception Crash of string
(** {!Supervisor.Crash}.  Raised on timeout (peers missing, program
    stuck), protocol rejection (blocking protocols need a node for every
    fiber they suspend on), a chaos plan this node does not apply, a
    [dcrash] schedule for this node or a positive [incarnation] without
    [durable], fingerprint mismatch, a corrupt stream, or replay
    divergence during crash recovery. *)

val run :
  self:int ->
  listen_fd:Unix.file_descr ->
  peers:Unix.sockaddr array ->
  protocol:Repro_core.Registry.spec ->
  workload:Workload_spec.t ->
  seed:int ->
  ?run_timeout_ms:int ->
  ?quiet_ms:int ->
  ?chaos:Repro_msgpass.Fault.Plan.t ->
  ?session:bool ->
  ?coalesce:int ->
  ?incarnation:int ->
  ?durable:string * Repro_durable.Wal.fsync_policy ->
  unit ->
  result
(** Peers must all say hello within 10 s.  Defaults: 60 s run timeout,
    150 ms quiet window (raised to ≥600 ms under chaos — the quiet window
    must outlast a full retransmission backoff).  A dead peer is redialed
    until the run timeout.  The [seed] stamps the fingerprint and seeds
    the session layer's jitter; workload scripts were already drawn when
    [workload] was built.  [coalesce > 1] sets the session layer's flush
    budget (forcing the session layer on); peers with different budgets
    still interoperate — the wire type is unchanged.

    Every node serves the client front door: [Creq] frames on any accepted
    connection are answered with [Cresp] on the same connection, reads and
    writes applied to this replica's memory.  Client traffic stays outside
    the peer mesh and its protocol-level accounting.

    [durable = (dir, policy)] gives the node a write-ahead log in [dir],
    its only persistence: every recorded op is appended (fsynced per the
    group-commit [policy]), and a checkpoint — protocol state, session
    windows and the op prefix — compacts the log through the crash-safe
    rotation protocol ({!Repro_durable.Wal}) before traffic opens, every
    100 ms after, and when the program finishes.  Each checkpoint is
    followed by [Session.mark_stable], so peers' acks never cover state a
    crash would roll back.  With [incarnation > 0] the node recovers as
    checkpoint + WAL-tail replay: reads return logged values, writes in
    the checkpointed prefix are suppressed (their effects are in the
    snapshot) and tail writes are re-applied to memory, and the first live
    op waits until session redeliveries reach the delivery watermark the
    last tail record logged.  Requires a protocol with snapshot/restore
    support, and [durable]: without a log there is nothing to recover
    from, and {!Crash} comes before any socket is touched.  When the
    chaos plan carries a [dcrash] schedule for this node, the named crash
    point is armed inside the WAL write path (first incarnation only);
    such a plan without [durable] raises {!Crash} before any socket is
    touched.

    A scheduled crash from the chaos plan escapes as
    {!Repro_transport.Chaos.Injected_crash}; the caller decides whether to
    respawn (the cluster harness maps it to exit code 42).

    The plan goes through {!Repro_msgpass.Fault.Plan.check} first: a
    plan with a [join=] or [leave=] clause, or a node id out of range for
    the workload's [n], raises {!Crash} naming it, before any socket is
    touched. *)
