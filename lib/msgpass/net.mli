(** Deterministic discrete-event message-passing network.

    This is the substrate the paper assumes: a set of [n] nodes exchanging
    point-to-point messages over reliable channels, here simulated so that
    every run is reproducible from a seed and so that message and
    control-information volumes can be counted exactly.

    Channels are FIFO by default (delivery order per directed link matches
    send order), matching the quality of service the protocols in
    {!Repro_dsm} are designed against; [~fifo:false] lets messages race.
    The network never loses or duplicates a message: injected faults are a
    {!Fault.Plan} applied above it, at the transport seam. *)

type 'msg t

type 'msg envelope = {
  src : int;
  dst : int;
  send_time : int;
  deliver_time : int;
      (** [send_time] plus the latency draw, held back to the link's FIFO
          horizon and the destination's service horizon: the time the
          message is delivered.  A [Sent] trace event carries the same
          value. *)
  control_bytes : int;
      (** Bytes of consistency metadata carried, as declared by the sender.
          The efficiency experiments aggregate this field. *)
  payload_bytes : int;  (** Bytes of application data carried. *)
  msg : 'msg;
}

val create :
  ?fifo:bool ->
  ?service_time:int ->
  n:int ->
  latency:Latency.t ->
  seed:int ->
  unit ->
  'msg t
(** [create ~n ~latency ~seed ()] builds an [n]-node network.  Handlers
    default to ignoring messages; real nodes install theirs with
    {!set_handler}.

    [fifo] (default [true]) keeps each directed link in send order; with
    [false] every message arrives after its own latency draw, so later
    sends may overtake earlier ones.

    [service_time] (default 0) makes each node a queueing server: at most
    one delivery every [service_time] ticks per destination, later arrivals
    waiting in line.  This is how centralization bottlenecks (e.g. a
    sequencer) become visible in completion times. *)

val n_nodes : 'msg t -> int

val now : 'msg t -> int
(** Current simulation time (ticks). *)

val set_handler : 'msg t -> int -> ('msg envelope -> unit) -> unit
(** [set_handler t node f] installs the delivery callback for [node].
    Handlers run inside {!step}; they may send messages and set timers. *)

val send :
  'msg t ->
  src:int ->
  dst:int ->
  control_bytes:int ->
  payload_bytes:int ->
  'msg ->
  unit
(** Enqueue a message.  Self-sends are allowed and still travel through the
    event queue (no synchronous shortcut), so a node's own updates interleave
    with remote ones exactly as the protocol schedules them.  The byte
    counts are required labels so the per-message path boxes no options;
    a send allocates its envelope and one queue entry, nothing else. *)

val at : 'msg t -> delay:int -> (unit -> unit) -> unit
(** [at t ~delay f] schedules [f] to run at [now t + delay].
    @raise Invalid_argument if [delay < 0]. *)

val step : 'msg t -> bool
(** Process the single earliest pending event; events of one time run in
    the order they were sent or scheduled.  Returns [false] when the queue
    is empty.  Popping allocates nothing ({!Repro_util.Eventq}). *)

val run : ?max_events:int -> 'msg t -> unit
(** Run until quiescence (empty queue) or until [max_events] (default
    10_000_000) events have been processed.
    @raise Failure when the event budget is exhausted, which indicates a
    livelock such as an unbounded polling loop. *)

val run_until : ?max_events:int -> 'msg t -> int -> unit
(** [run_until t deadline] processes events with time ≤ [deadline], then
    advances the clock to [deadline] if it is ahead of the last event.
    Like {!run}, it is bounded by [max_events] (default 10_000_000).
    @raise Failure when the event budget is exhausted, which indicates a
    livelock such as an unbounded polling loop. *)

(** {1 Accounting} *)

type stats = {
  sent : int;
  delivered : int;
  dropped : int;  (** Fault-injected losses ({!Fault.Plan}); 0 on [Net]. *)
  duplicated : int;  (** Fault-injected copies; 0 on [Net]. *)
  total_control_bytes : int;
  total_payload_bytes : int;
  retransmits : int;
      (** Session-layer retransmissions (0 on the bare simulator). *)
  dups_suppressed : int;
      (** Duplicate segments discarded by a session layer. *)
  reconnects : int;  (** Live-backend peer reconnections. *)
  overhead_bytes : int;
      (** Reliability-layer bytes (session headers, retransmitted copies,
          acks) — accounted separately from the paper's control bytes. *)
  per_node_sent : int array;
  per_node_received : int array;
}

val stats : 'msg t -> stats
(** A snapshot; arrays are fresh copies. *)

(** {1 Tracing} *)

type 'msg event = Sent of 'msg envelope | Delivered of 'msg envelope

val set_tracing : 'msg t -> bool -> unit
(** Off by default; when on, every send and delivery is appended to the
    trace. *)

val trace : 'msg t -> 'msg event list
(** Trace in chronological (processing) order. *)
