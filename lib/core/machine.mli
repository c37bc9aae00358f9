(** Protocols as per-process machines.

    In the paper's model (§2) each application process has its own MCS
    process, and MCS processes talk only by messages.  A machine is one
    such MCS process: its own state, how it serves its application
    process's reads and writes, and what it does when a message arrives.
    Nothing in a machine reaches another process's state.

    {!memory} hosts a machine as a {!Memory.t}: one state per node on the
    simulator (transport scope [All_nodes]), or node [self]'s alone over a
    live [Node self] transport.  It does, once for every protocol, the
    holder check, the mention audit, the applied-update count, the
    metrics, the MSC labels, handler installation and checkpoint
    accounting. *)

module Transport = Repro_transport.Transport
module Codec = Repro_transport.Codec
module Distribution = Repro_sharegraph.Distribution

type 'msg port = {
  send :
    dst:int ->
    control_bytes:int ->
    payload_bytes:int ->
    mentions:int list ->
    'msg ->
    unit;
      (** Send from this node, and record that [dst] learns about the
          [mentions] variables (the audit marks at send time: channels are
          reliable).  Traced envelopes alias the messages they carry, so a
          machine must never mutate a message, or an array it holds such
          as a stamp, after sending it. *)
  applied : unit -> unit;  (** Count one remote update applied here. *)
}
(** A node's callbacks into its host, {!memory}. *)

type ('state, 'msg) t = {
  name : string;  (** Also prefixes the holder-check error. *)
  codec : 'msg Codec.t option;
      (** The wire codec a live backend needs; [None] for a protocol that
          never runs live. *)
  label : 'msg -> string;  (** MSC label. *)
  extra_nodes : int;
      (** Infrastructure nodes after the [n] processes (a sequencer is
          node [n]). *)
  blocking_reads : bool;
  blocking_writes : bool;  (** As in {!Memory.t}. *)
  checkpoint : (('state -> string) * ('state -> string -> unit)) option;
      (** [(snapshot, restore)] of one node's state; [restore] runs before
          any traffic. *)
  init : Distribution.t -> self:int -> 'msg port -> 'state;
      (** Node [self]'s initial state. *)
  read : 'state -> var:int -> Memory.value;
  write : 'state -> var:int -> Memory.value -> unit;
      (** Called only for a variable the node's process holds. *)
  deliver : 'state -> src:int -> 'msg -> unit;
}
(** The machine signature: one MCS process of a protocol, with its state
    type ['state] and message type ['msg]. *)

val memory :
  ?transport:Transport.factory ->
  dist:Distribution.t ->
  latency:Repro_msgpass.Latency.t ->
  seed:int ->
  ('state, 'msg) t ->
  Memory.t
(** Host the machine over [transport], by default the reliable FIFO
    simulator built from [latency] and [seed] (both ignored when
    [transport] is given).

    [read]/[write] raise [Invalid_argument] when the process does not
    hold the variable (["<name>: process p does not hold variable xv"]),
    or when the transport does not host that process.  [snapshot] and
    [restore] exist when the machine has a [checkpoint]; the blob carries
    every hosted state and the host's accounting (the applied-update
    count and the mention audit). *)

val value_text : Memory.value -> string
(** A value as MSC labels print it: ["_"] for [Init]. *)
