(** Pluggable message transport for the protocol layer.

    Every protocol in [lib/core] is written against one {!t} record: point
    messages with declared control/payload accounting, per-node delivery
    handlers, timers, a step/quiesce event loop and a clock.  Two backends
    produce the record:

    - {!sim} wraps the deterministic discrete-event simulator
      ({!Repro_msgpass.Net}) — every run reproducible from a seed, all [n]
      nodes hosted in one address space.  This is the default and is
      byte-for-byte identical to the pre-seam behaviour.
    - {!Live.factory} (see {!Live}) speaks length-prefixed binary frames
      over Unix TCP sockets; the record then represents {e one} node of a
      multi-process cluster and [scope] is [Node self].

    Handlers receive {!Repro_msgpass.Net.envelope} values in both cases, so
    protocol code is backend-agnostic. *)

module Net = Repro_msgpass.Net

type scope =
  | All_nodes  (** one address space hosts every node (simulator) *)
  | Node of int  (** this process is node [i] of a live cluster *)

type 'msg t = {
  n_nodes : int;
  scope : scope;
  send :
    src:int -> dst:int -> control_bytes:int -> payload_bytes:int -> 'msg -> unit;
      (** Declared byte counts feed the accounting, exactly as in
          {!Net.send}.  Live backends additionally refuse [src] other than
          their own node. *)
  set_handler : int -> ('msg Net.envelope -> unit) -> unit;
      (** Install node [i]'s delivery callback.  Live backends silently
          ignore installs for remote nodes (protocols install all [n]). *)
  schedule : delay:int -> (unit -> unit) -> unit;
      (** Run a thunk [delay] ticks from now (simulated ticks, or
          milliseconds on the live backend). *)
  step : unit -> bool;
      (** Process one batch of pending work.  [false] means nothing is
          currently pending — final on the simulator, transient on a live
          backend (a socket may become readable later). *)
  quiesce : unit -> unit;
      (** Simulator: run to the empty queue.  Live: drain whatever is
          immediately available without blocking. *)
  now : unit -> int;
  stats : unit -> Net.stats;
      (** Same counters in both backends; a live node counts its own sends
          (and the declared bytes they carry) and its own deliveries. *)
  set_tracing : bool -> unit;
  trace : unit -> 'msg Net.event list;
}

type factory = { create : 'msg. ?codec:'msg Codec.t -> int -> 'msg t }
(** A backend constructor: [create ?codec n] builds the transport for an
    [n]-node instance.  Polymorphic in the protocol's message type so
    one factory value can build any registered protocol.  The optional
    {!Codec.t} is the protocol's strict binary message codec: the live
    backend encodes frame bodies in place with it and refuses to build
    without one, wrappers ({!Session}, {!Chaos}) thread it through, and
    the simulator ignores it — sim behaviour is byte-identical with or
    without one. *)

val of_net : 'msg Net.t -> 'msg t
(** View an existing simulator network as a transport. *)

val sim :
  ?fifo:bool ->
  ?service_time:int ->
  latency:Repro_msgpass.Latency.t ->
  seed:int ->
  unit ->
  factory
(** The simulator backend: reliable channels, FIFO unless [~fifo:false]
    (see {!Repro_msgpass.Net.create}).  Faults are injected above it with
    {!Chaos.wrap}. *)
