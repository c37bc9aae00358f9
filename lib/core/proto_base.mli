(** Shared wire-format helpers for the per-protocol {!Repro_transport.Codec.t}
    values: every protocol message carries a {!Memory.value}, and the
    causal family carries vector clocks.  One layout each, shared by all
    protocols.  (Hosting a protocol is {!Machine}'s job.) *)

val value_size : Memory.value -> int
(** [Init] is 1 byte (tag), [Val v] is 9 (tag + i64). *)

val emit_value : Bytes.t -> int -> Memory.value -> int
val parse_value : Bytes.t -> int -> int -> Memory.value * int

val ts_size : int array -> int
(** u16 length prefix + one i32 per entry. *)

val emit_ts : Bytes.t -> int -> int array -> int
val parse_ts : Bytes.t -> int -> int -> int array * int
