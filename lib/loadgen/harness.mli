(** Forked open-loop load experiment: [n] replica daemons plus a client
    fleet, one process each, over loopback sockets.

    Nodes run {!Repro_cluster.Node.run} on the no-op ["load"] /
    ["load-full"] workload (the peer mesh comes up, the protocol serves
    the client front door, programs issue nothing themselves), with the
    session layer on so coalescing and ack piggybacking are in play.
    Clients replay deterministic {!Client.plan} schedules.

    Every child forks through {!Repro_cluster.Supervisor}, which drains
    the marshalled reports in one [select] (reports can exceed a pipe
    buffer) and puts the run down at a watchdog deadline.  The clients
    are forked first and each builds its plan in its own process — a
    plan is large, and the parent's heap would be copied into every node
    forked after it.  The nodes are forked only once every client has
    reported its plan ready (a node leaves after a 1 s quiet window, so a
    plan still being built would find no one to send to), and a go byte
    then starts the clients' clocks. *)

type config = {
  protocol : Repro_core.Registry.spec;  (** Must be non-blocking. *)
  n : int;  (** Replica count. *)
  clients : int;  (** Fleet size; offered rate is split evenly. *)
  rate : float;  (** Aggregate offered ops/sec across the fleet. *)
  duration_ms : int;
  mix : Mix.t;
  seed : int;  (** Seeds distribution, sessions and client plans. *)
  coalesce : int;  (** Session flush budget; 1 = coalescing off. *)
  drain_plan : bool;
      (** Submit whole plans regardless of duration (byte-identity mode,
          see {!Client.run}). *)
}

type result = {
  protocol : string;
  workload : string;
  n : int;
  clients : int;
  mix : string;
  rate : float;
  duration_ms : int;
  seed : int;
  coalesce : int;
  drain_plan : bool;
  attempted_ops : int;
  completed_ops : int;
  failed_ops : int;
  unsent : int;
  timeouts : int;
  bytes_out : int;  (** Client-side socket bytes (requests). *)
  bytes_in : int;  (** Client-side socket bytes (responses). *)
  span_us : int;  (** Longest per-client submission span. *)
  ops_per_sec : float;
      (** Completed ops over the longest client completion span (last
          reply, or grace expiry).  Unsaturated this tracks the offered
          rate; saturated it converges on cluster capacity. *)
  lat_us : Repro_util.Stats.t;  (** Fleet-merged latency sketch, µs. *)
  read_us : Repro_util.Stats.t;
  write_us : Repro_util.Stats.t;
  scan_us : Repro_util.Stats.t;
  client_ops_served : int;  (** Front-door ops summed over nodes. *)
  messages_sent : int;  (** Protocol lane, summed over nodes. *)
  control_bytes : int;
  payload_bytes : int;
  overhead_bytes : int;  (** Overhead lane (headers, acks, retransmits). *)
  frames_sent : int;  (** Session frames (coalescing shrinks this). *)
  segs_sent : int;
  acks_sent : int;  (** Standalone ack frames. *)
  acks_piggybacked : int;
  retransmits : int;
  node_wall_ms : int;
  node_cpu_s : float;  (** Fleet node CPU (user+sys), seconds. *)
  ops_per_node_cpu_s : float;
      (** Completed client ops per node CPU-second — the
          scheduler-noise-immune efficiency measure: wall-clock ops/sec
          on a contended box swings with CPU grants, but CPU time is
          attributed to the process that burned it, so a protocol that
          sends more replication traffic per op scores strictly lower. *)
}

val run : config -> (result, string) Stdlib.result
(** Fork, load, collect, aggregate.  [Error] on invalid config or when
    any child fails (the first child that failed on its own is reported
    before any the supervisor put down). *)

(** {1 Reports}: the result as {!Repro_util.Record} rows, shared by the
    CLI's [load] and bench's load tier. *)

val summary : result -> Repro_util.Record.metric list
(** Ops attempted, completed, failed, unsent, timed out and served, and
    both throughputs. *)

val latency : result -> Repro_util.Record.table
(** Latency in µs per kind ([all], [read], [write], [scan]): count, mean,
    sd, min, p50, p95, p99, max; [nan] for a kind with no sample. *)

val lanes : result -> Repro_util.Record.metric list
(** Protocol and overhead lanes, session frames and acks, client socket
    bytes, and the nodes' wall time and CPU. *)
