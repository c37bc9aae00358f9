(** One open-loop load-generator client.

    A client builds a {e deterministic} arrival schedule (pure function of
    its seed, mix, distribution, rate and duration — asserted by tests),
    connects to every node, and replays the schedule against the wall
    clock: requests go out when due regardless of outstanding replies
    (open loop), pipelined over one connection per node, and replies are
    matched back by request id whenever the sockets have them.  When the
    offered rate exceeds cluster capacity, completions approach capacity
    and the latency percentiles show the queueing — exactly the curves the
    load tier records. *)

type event = { at_us : int; target : int; request : Repro_transport.Rpc.request }
(** One scheduled request: fire at [at_us] (µs since client start) against
    node [target]. *)

val client_src : int -> int
(** Wire [src] id for a client (node ids with the 0x8000 bit set).
    @raise Invalid_argument outside [0, 0x7FFF]. *)

val plan :
  mix:Mix.t ->
  dist:Repro_sharegraph.Distribution.t ->
  rate:float ->
  duration_ms:int ->
  seed:int ->
  event array
(** Poisson arrivals at [rate] ops/sec (seeded exponential gaps) over
    [duration_ms]; operation kinds drawn from [mix]; each single
    read/write targets a uniformly drawn variable and a uniformly drawn
    holder of it, scans target one replica's own consecutive variables.
    Same arguments → identical array.
    @raise Invalid_argument when [rate <= 0]. *)

type report = {
  attempted_ops : int;  (** Ops actually written to a socket. *)
  completed_ops : int;  (** Ops whose outcome came back. *)
  failed_ops : int;  (** Outcomes that were [Failed]. *)
  unsent : int;  (** Plan events never submitted (cutoff or dead node). *)
  timeouts : int;  (** Requests still unanswered when grace expired. *)
  bytes_out : int;
  bytes_in : int;
  send_span_us : int;  (** Elapsed µs when the last request was sent. *)
  completion_span_us : int;
      (** Elapsed µs when the last reply arrived (or grace expired) —
          the fair throughput denominator under saturation, when replies
          trail the submission window. *)
  lat_us : Repro_util.Stats.t;  (** Per-request latency sketch, µs. *)
  read_us : Repro_util.Stats.t;
  write_us : Repro_util.Stats.t;
  scan_us : Repro_util.Stats.t;
}

val run :
  client_id:int ->
  peers:Unix.sockaddr array ->
  events:event array ->
  drain_plan:bool ->
  duration_ms:int ->
  grace_ms:int ->
  report
(** Dial every node in [peers], retrying refused dials for up to 10 s,
    then replay [events].  With [drain_plan] false the client stops submitting
    at [duration_ms] (open-loop measurement window); with it true the
    whole plan is submitted however long that takes — the mode the
    coalescing comparison uses, so both runs offer byte-identical op
    multisets.  After submission, in-flight requests get [grace_ms] to
    complete.  Latency sketches are {!Repro_util.Stats.create_sketch}
    accumulators: bounded memory at any op count. *)
