(** Local cluster harness: fork one OS process per node over loopback
    TCP, run a named workload, reassemble the recorded history, and check
    it with the saturation engine.

    The parent pre-binds every node's listener on 127.0.0.1 (kernel-chosen
    ports, {!Supervisor.loopback}) {e before} forking, so no child can
    race another for an address; children keep only their own listen
    socket ({!Supervisor.spawn_node}), run {!Node.run}, and report their
    results through the {!Supervisor}, which drains every report pipe in
    one [select], respawns crashed nodes and runs the watchdog.

    With a chaos plan the harness validates the plan, keeps every
    listener open (a peer redialing a crashed node lands in the backlog;
    the respawned child re-inherits the same socket), freezes a crashed
    node's WAL and restarts it with [incarnation + 1] to recover from that
    log, and accounts the recovery traffic separately from the paper's
    control/payload bytes.

    Forking must precede any OCaml 5 domain creation, so this module
    checks histories with the sequential {!Repro_history.Checker.check} —
    never the domain-pool parallel variant. *)

type outcome = {
  protocol : string;
  workload : string;
  n : int;
  seed : int;
  history : Repro_history.History.t;
      (** All nodes' recorded operations, node [p] as process [p].  A
          restarted node contributes each operation exactly once: the
          recovered prefix plus its post-replay continuation. *)
  criterion : Repro_history.Checker.criterion;
      (** The protocol's advertised guarantee, what [verdict] judges. *)
  verdict : Repro_history.Checker.verdict;
  history_checked : bool;
      (** False when the workload's history is not differentiated
          (Bellman-Ford): the checker then answers [Undecidable] by
          construction and [finals] carries the acceptance instead. *)
  finals : (unit, string) result;
      (** The workload's application-level acceptance (e.g. Bellman-Ford
          distances against the reference). *)
  node_results : Node.result array;
  messages_sent : int;  (** Summed over nodes; each node counts its own. *)
  control_bytes : int;
  payload_bytes : int;
  overhead_bytes : int;
      (** Reliability traffic (segment headers, retransmitted copies,
          acks), summed — kept apart from the paper's control bytes. *)
  retransmits : int;
  dups_suppressed : int;
  dropped_frames : int;  (** Injected drops plus broken-link losses. *)
  reconnects : int;  (** Live-link redials that succeeded. *)
  restarts : int;  (** Nodes respawned after an injected crash. *)
  chaos : string;  (** Canonical plan text; [""] when fault-free. *)
  session : bool;
  wall_ms : int;  (** Slowest node, hello to close. *)
  durable : bool;
      (** Nodes ran a WAL: the caller asked for the durability tier, or
          the chaos plan schedules a [crash]. *)
  wal_parity : bool;
      (** For every crashed node: the supervisor froze the WAL files the
          crash left behind, decoded them independently, and the respawned
          node's {!Node.result.recovered_digest} matched bit-for-bit.
          Vacuously [true] without crashes; [false] also when a frozen log
          fails to decode. *)
  wal_dir : string option;
      (** The WAL root kept on disk for post-mortem inspection ([repro
          wal]); [None] when the harness used (and removed) a tmp dir. *)
}

val run :
  n:int ->
  protocol:Repro_core.Registry.spec ->
  workload:string ->
  seed:int ->
  ?deadline_ms:int ->
  ?chaos:Repro_msgpass.Fault.Plan.t ->
  ?session:bool ->
  ?durable:Repro_durable.Wal.fsync_policy ->
  ?wal_dir:string ->
  unit ->
  (outcome, string) result
(** [Error] reports node crashes ({!Supervisor.outcome}: one line per
    node that did not finish, with its message) and configuration
    mistakes (unknown workload, blocking protocol, a chaos plan that
    fails {!Repro_msgpass.Fault.Plan.check}, which refuses
    [join=]/[leave=] clauses as only {!Reconfig} applies them); a
    consistency violation is {e not} an [Error] —
    it comes back as the [verdict] for the caller to judge.  [session] is
    forced on whenever a chaos plan is given (lossy links need the
    reliable session layer); an injected crash whose plan schedules no
    restart is an [Error].

    [deadline_ms] overrides the supervisor watchdog (default 90 s: the
    nodes' 60 s run timeout plus 30 s).  A run the watchdog has to put
    down returns an [Error] prefixed ["wedged: "] — the CLI maps it to a
    distinct exit code.

    [durable] engages the durability tier: each node gets its own WAL
    directory under [wal_dir] (kept afterwards) or a tmp root (removed),
    with the given group-commit policy.  A plan that schedules a [crash]
    engages it with [Wal.Never] when [durable] is absent, so every node
    that can crash recovers from its log; a plan's [dcrash] clauses
    require an explicit [durable].  After each injected crash the
    supervisor freezes the on-disk log before the respawn and gates
    [wal_parity] on the recovered digest. *)

type baseline = {
  history : Repro_history.History.t;
  metrics : Repro_core.Memory.metrics;
}

val sim_baseline :
  ?chaos:Repro_msgpass.Fault.Plan.t ->
  ?session:bool ->
  n:int ->
  protocol:Repro_core.Registry.spec ->
  workload:string ->
  seed:int ->
  unit ->
  (baseline, string) result
(** The same [(protocol, workload, n, seed)] run whole-instance on the
    deterministic simulator.  Workload scripts are drawn eagerly from the
    seed, and every non-blocking protocol's per-write fan-out is
    timing-independent, so live message and payload-byte totals must
    equal this baseline's exactly — including under a chaos plan, since
    the session layer's protocol-level stats count first transmissions
    only.  Control-byte totals match too, except where a message's
    control information depends on what its writer had applied when it
    wrote, which delivery timing decides: causal-adhoc's dependency
    summaries and causal-delta's clock deltas.  With [chaos]/[session]
    the stack order matches a live node (backend → chaos → session →
    protocol), making a plan's simulator run bit-reproducible: same plan,
    same seed, same history and stats every time. *)

val accepted : outcome -> bool
(** The run's acceptance: the verdict is consistent, or undecidable on a
    non-differentiated history, and the workload's finals check passes.
    WAL digest parity is judged apart ([wal_parity]). *)

val sim_parity :
  protocol:Repro_core.Registry.spec ->
  outcome ->
  ((string * int * int) list, string) result
(** [(counter, live, sim)] for messages, control bytes and payload bytes:
    the outcome's totals against the fault-free {!sim_baseline} of the
    same [(protocol, workload, n, seed)]; [protocol] is the spec the run
    used.  Parity holds when every pair is equal.  [Error] when the
    baseline fails to run. *)

(** {1 Reports}: the outcome as {!Repro_util.Record} rows, shared by the
    CLI's [cluster] and bench's cluster and chaos tiers. *)

val summary : outcome -> Repro_util.Record.metric list
(** Both byte lanes, retransmits, duplicates, drops, reconnects, restarts,
    the slowest node's wall time ([node_wall]) and the verdict. *)

val nodes_table : outcome -> Repro_util.Record.table
(** A row per node, with session columns when the session layer ran and
    WAL columns when the nodes ran a WAL. *)

val gates : outcome -> Repro_util.Record.gate list
(** ["accepted"] ({!accepted}), and ["WAL digest parity"] ([wal_parity])
    when the nodes ran a WAL. *)
