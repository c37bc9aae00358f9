(** Strict binary codecs for protocol message types.

    A ['msg t] replaces [Marshal] on the live hot path: [emit] writes the
    big-endian image of a message directly into a caller-supplied buffer
    (a pooled frame, typically) and [parse] reads one back without
    copying the body first.  Decoding is strict in the {!Rpc} style —
    truncation, unknown tags and trailing bytes raise {!Bad} — so a
    corrupt or foreign stream can never produce a silently-wrong message.

    Protocol modules build codecs from the primitives below, and each
    protocol machine names its codec; the protocol host
    ([Repro_core.Machine]) passes it through the factory seam
    ({!Transport.factory}) to the live backend.  The simulator ignores
    them. *)

exception Bad of string

type 'msg t = {
  size : 'msg -> int;  (** exact encoded size in bytes *)
  emit : Bytes.t -> int -> 'msg -> int;
      (** [emit buf off msg] writes exactly [size msg] bytes at [off] and
          returns the offset past them.  The caller guarantees room. *)
  parse : Bytes.t -> int -> int -> 'msg * int;
      (** [parse buf pos limit] reads one message at [pos], never past
          [limit]; returns it with the offset past it.  @raise Bad. *)
}

(** {1 Writer primitives} — each returns the offset past what it wrote.
    Range violations raise [Invalid_argument] at encode time (an encoder
    bug), never a silent wrap on the wire. *)

val put_u8 : Bytes.t -> int -> int -> int
val put_u16 : Bytes.t -> int -> int -> int
val put_i32 : Bytes.t -> int -> int -> int
val put_i64 : Bytes.t -> int -> int -> int

(** {1 Reader primitives} — each returns [(value, next_pos)] and raises
    {!Bad} when fewer bytes remain before [limit] than it needs. *)

val get_u8 : Bytes.t -> int -> int -> int * int
val get_u16 : Bytes.t -> int -> int -> int * int
val get_i32 : Bytes.t -> int -> int -> int * int
val get_i64 : Bytes.t -> int -> int -> int * int

val need : Bytes.t -> int -> int -> int -> unit
(** [need buf pos limit k] raises {!Bad} unless [k] bytes remain. *)

(** {1 Whole messages} *)

val encode : 'msg t -> 'msg -> Bytes.t
(** Fresh exact-size buffer; for tests and one-off encodes.  The hot path
    uses [emit] into a pooled frame instead. *)

val decode : 'msg t -> Bytes.t -> pos:int -> len:int -> 'msg
(** Strict: the message must occupy exactly [len] bytes.  @raise Bad. *)

val roundtrip_ok : 'msg t -> 'msg -> bool
(** Marshal cross-check oracle: encode → decode → compare structurally
    (via Marshal images) against the original. *)
