(** The Memory Consistency System interface.

    A {!t} is one running MCS instance: [n] MCS processes on top of a
    simulated network, each managing replicas of the variables its
    application process accesses (the distribution), and exposing the
    paper's two operations — [read] and [write] — to application code.

    Every protocol implementation in this library produces this record
    (each is a {!Machine.t} hosted by {!Machine.memory}), so applications,
    the runner, the tests and the benchmarks are all protocol-generic.

    {b Accounting.}  Besides raw message/byte counts, every instance keeps
    the {e mention audit}: for each variable [x], the set of processes that
    have received any message carrying information about [x] (a value or
    metadata).  Theorem 1 is about exactly this set — an implementation is
    {e efficient} for [x] when the audit never leaves [C(x)]. *)

module Distribution = Repro_sharegraph.Distribution

type value = Repro_history.Op.value

type metrics = {
  messages_sent : int;
  messages_delivered : int;
  control_bytes : int;
      (** Total consistency-metadata bytes shipped (vector clocks, sequence
          numbers, dependency summaries). *)
  payload_bytes : int;  (** Total application-data bytes shipped. *)
  overhead_bytes : int;
      (** Reliability-layer bytes (session headers, retransmitted copies,
          acks) — kept apart from [control_bytes] so the paper's
          control-information accounting is unchanged by a lossy substrate. *)
  mentioned_at : Repro_util.Bitset.t array;
      (** [mentioned_at.(x)]: processes that received a message mentioning
          variable [x]. *)
  applied_writes : int;  (** Remote updates applied across all processes. *)
}

type t = {
  name : string;
  dist : Distribution.t;
  read : proc:int -> var:int -> value;
      (** Wait-free local read of a replica.
          @raise Invalid_argument when [proc] does not hold [var], or when
          this instance's transport does not host [proc] (a live node
          hosts only itself). *)
  write : proc:int -> var:int -> value -> unit;
      (** Write; local application is immediate for the non-blocking
          protocols.  Blocking protocols (sequencer, primary-copy) must be
          called from inside a {!Repro_msgpass.Fiber} — see
          [blocking_writes].
          @raise Invalid_argument as [read] does. *)
  step : unit -> bool;  (** Process one network event. *)
  quiesce : unit -> unit;  (** Run the network until no event is pending. *)
  now : unit -> int;  (** Simulation time. *)
  schedule : delay:int -> (unit -> unit) -> unit;
      (** Scheduler hook, suitable for {!Repro_msgpass.Fiber.spawn}. *)
  metrics : unit -> metrics;
  blocking_writes : bool;
      (** True when [write] suspends the calling fiber until the update is
          ordered (sequencer / primary protocols). *)
  blocking_reads : bool;
      (** True when [read] suspends the calling fiber (primary-copy
          protocol); all other protocols serve reads locally, wait-free. *)
  set_tracing : bool -> unit;
      (** Record the network trace (off by default). *)
  msc : unit -> string;
      (** Message sequence chart of the trace recorded so far (empty
          without tracing), with protocol-specific message labels. *)
  snapshot : (unit -> string) option;
      (** Marshalled protocol state (replica stores, sequence cursors, the
          mention audit), for checkpoint-restart recovery.  [None] when the
          protocol does not support checkpointing. *)
  restore : (string -> unit) option;
      (** Inverse of [snapshot]; must run before any traffic. *)
}

val value_bytes : int
(** Wire size we charge for one value (8). *)

val mentions_outside_clique : t -> var:int -> int list
(** Processes outside [C(x)] that nevertheless received information about
    [x] — the inefficiency witness of §3.3.  Ascending. *)

val total_offclique_mentions : t -> int
(** Sum over variables of [|mentions_outside_clique|]. *)
