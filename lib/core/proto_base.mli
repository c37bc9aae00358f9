(** Shared scaffolding for protocol implementations: a transport plus the
    accounting every protocol must keep (byte counters are per-message
    inputs; the mention audit and applied-update counter are maintained
    here).

    Protocols are written against this module only — never against a
    concrete backend — so the same protocol code runs whole-instance on
    the deterministic simulator (the default) or as one node of a live
    socket cluster when a {!Repro_transport.Transport.factory} is
    supplied. *)

module Net = Repro_msgpass.Net
module Latency = Repro_msgpass.Latency
module Transport = Repro_transport.Transport
module Codec = Repro_transport.Codec
module Distribution = Repro_sharegraph.Distribution

(** {1 Shared wire-format helpers}

    Building blocks for the per-protocol {!Codec.t} values: every protocol
    message carries a {!Memory.value}, and the causal family carries vector
    clocks.  One layout each, shared by all protocols. *)

val value_size : Memory.value -> int
(** [Init] is 1 byte (tag), [Val v] is 9 (tag + i64). *)

val emit_value : Bytes.t -> int -> Memory.value -> int
val parse_value : Bytes.t -> int -> int -> Memory.value * int

val ts_size : int array -> int
(** u16 length prefix + one i32 per entry. *)

val emit_ts : Bytes.t -> int -> int array -> int
val parse_ts : Bytes.t -> int -> int -> int array * int

type 'msg t

val create :
  ?service_time:int ->
  ?extra_nodes:int ->
  ?transport:Transport.factory ->
  ?codec:'msg Codec.t ->
  dist:Distribution.t ->
  latency:Latency.t ->
  seed:int ->
  unit ->
  'msg t
(** One network node per MCS process, plus [extra_nodes] infrastructure
    nodes (e.g. a sequencer) numbered after the processes.

    Without [transport] this builds the reliable FIFO simulator backend
    from [service_time], [latency] and [seed] — byte-identical to the
    historical direct [Net.create].  With [transport], those three
    parameters are ignored (a live backend has real latency and real
    loss).

    [codec] is the protocol's strict binary message codec, forwarded to the
    backend factory; the live backend uses it to serialise frame bodies in
    place of [Marshal], the simulator ignores it. *)

val dist : 'msg t -> Distribution.t

val n_procs : 'msg t -> int
(** MCS process count (excludes extra nodes). *)

val scope : 'msg t -> Transport.scope
(** [All_nodes] on the simulator; [Node i] when this process hosts only
    node [i] of a live cluster. *)

val set_handler : 'msg t -> int -> ('msg Net.envelope -> unit) -> unit
(** Install node [i]'s delivery callback.  On a live backend, installs for
    nodes other than the hosted one are ignored. *)

val at : 'msg t -> delay:int -> (unit -> unit) -> unit
(** Schedule a thunk [delay] transport ticks from now. *)

val send :
  'msg t ->
  src:int ->
  dst:int ->
  control_bytes:int ->
  payload_bytes:int ->
  mentions:int list ->
  'msg ->
  unit
(** Send and record that [dst] will learn about the [mentions] variables.
    (The audit marks at send time; protocols use reliable channels, so
    every sent message is eventually delivered.) *)

val count_apply : 'msg t -> unit
(** Record one remote update applied to a replica. *)

val metrics : 'msg t -> Memory.metrics

val finish :
  'msg t ->
  name:string ->
  read:(proc:int -> var:int -> Memory.value) ->
  write:(proc:int -> var:int -> Memory.value -> unit) ->
  blocking_writes:bool ->
  ?blocking_reads:bool ->
  ?label:('msg -> string) ->
  ?state:(unit -> string) * (string -> unit) ->
  unit ->
  Memory.t
(** Assemble the {!Memory.t} record: [step]/[quiesce]/[now]/[schedule] are
    wired to the transport, and [read]/[write] are wrapped with
    {!Memory.check_access}.  Traced envelopes alias the messages they
    carry, so protocols must never mutate a message (or an array it holds,
    such as a vector-clock stamp) after sending it.

    [state] is the protocol's own [(snapshot, restore)] pair for
    checkpoint-restart recovery; when given, the resulting memory's
    [snapshot]/[restore] wrap it together with the base accounting (the
    applied-update counter and the mention audit).  Protocol [restore]
    implementations must copy into the arrays their closures captured,
    never replace them. *)
