(** The reconfiguration control plane: a live cluster whose membership
    changes while it runs.

    Forks [n] {!Member} processes through the {!Supervisor} (all [n] keep
    listeners and a full mesh; {e ring membership} is the thing that
    changes) and drives the epoch-fenced protocol over the supervisor's
    control connections ({!Supervisor.send}, and [Pong]s through
    [on_control]), in {!Repro_transport.Control} messages:

    + heartbeat [Ping]/[Pong] doubles as failure detector and readiness
      poll — a member silent past [demote_after_ms] is demoted by a
      superseding proposal that excludes it;
    + a scripted [join=]/[leave=] event (from the chaos plan) or a
      demotion produces a {e proposal} (a [Propose] carrying the new
      member set and the down set) broadcast to every process;
    + when every member of the proposed set reports ready (migration
      complete), the supervisor broadcasts the {e commit} ([Commit]) and
      the new epoch takes effect — stragglers are fenced at the
      transport seam; [Finish] ends the run;
    + crashed children (exit 42) are respawned by the supervisor with a
      bumped incarnation and recover from their WAL; a node that ends
      as an injected crash with no restart scheduled has its operations
      {e salvaged} from its surviving WAL so the reassembled history
      stays closed under reads.

    A watchdog deadline fails a wedged run with an error prefixed
    ["wedged:"] ({!Supervisor.outcome}) that ends naming the stuck stage,
    [(epoch E committed, P pending)] — the CLI maps it to a distinct exit
    code. *)

module Fault = Repro_msgpass.Fault
module History = Repro_history.History
module Checker = Repro_history.Checker

type event = {
  ev_epoch : int;
  ev_kind : string;  (** ["join"], ["leave"] or ["demote"] *)
  ev_node : int;
  ev_members : int list;  (** committed member set after the event *)
  ev_keys_moved : int;  (** (variable, member) assignments that moved *)
  ev_rebalance_ms : int;  (** proposal broadcast → commit broadcast *)
}

type outcome = {
  n : int;
  k : int;
  vnodes : int;
  seed : int;
  n_vars : int;
  committed_epoch : int;
  members : int list;  (** final committed member set *)
  events : event list;  (** in commit order *)
  history : History.t;
  verdict : Checker.verdict;  (** the advertised criterion: {!Checker.Cache} *)
  pram : Checker.verdict;
      (** informational: PRAM holds in static phases but is not
          guaranteed across a migration (see DESIGN.md) *)
  stale_epochs : int;  (** fence rejections summed over all nodes *)
  restarts : int;
  salvaged : int list;  (** nodes whose ops came from a surviving WAL *)
  keys_moved_total : int;
  max_keys_moved : int;
  moved_gate : int;  (** [2 * k * n_vars / n_members] per single change *)
  moved_ok : bool;
  unavail_ms : int;  (** worst per-node proposal→ready window *)
  transfers : int;  (** migration records applied, summed *)
  init_fallbacks : int;
  writes_total : int;
  reads_total : int;
  node_results : Member.result array;
  chaos : string;
  wall_ms : int;
}

val run :
  n:int ->
  k:int ->
  vnodes:int ->
  n_vars:int ->
  seed:int ->
  ?writes:int ->
  ?deadline_ms:int ->
  ?demote_after_ms:int ->
  ?chaos:Fault.Plan.t ->
  ?wal_dir:string ->
  unit ->
  (outcome, string) result
(** Initial ring membership is [0..n-1] minus the plan's scheduled
    joiners.  The WAL tier is always on (an anonymous temp root unless
    [wal_dir] names one to keep for post-mortem).  [deadline_ms]
    (default 90 s: the members' 60 s run timeout plus 30 s) is the
    supervisor watchdog; on expiry the error starts with ["wedged:"].
    Any error from the run itself lists each node that did not finish
    (after salvage) and ends with the committed and pending epochs.  A
    plan with link-fault or partition clauses ([drop], [dup], [reorder],
    [delay], [link], [part]) is an [Error]: member traffic does not pass
    through {!Repro_transport.Chaos}. *)

(** {1 Reports}: the outcome as {!Repro_util.Record} rows, shared by the
    CLI's [reconfig] and bench's reconfig tier. *)

val summary : outcome -> Repro_util.Record.metric list
(** Epoch, worst rebalance time, keys moved (total, worst change, gate),
    unavailability, restarts, stale frames, transfers, init fallbacks,
    writes, reads, the cache and PRAM verdicts, members, salvaged nodes
    and wall time. *)

val events_table : outcome -> Repro_util.Record.table
(** A row per committed epoch ([epoch N]). *)

val nodes_table : outcome -> Repro_util.Record.table

val gates : outcome -> Repro_util.Record.gate list
(** ["cache consistent"], ["keys moved per change within the 2kK/n
    gate"]. *)
