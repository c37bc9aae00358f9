(* Strict binary codecs for protocol message types.

   The live backend used to [Marshal] every message body; a codec replaces
   that with a hand-rolled big-endian layout in the style of {!Rpc}: the
   encoder writes into a caller-supplied buffer at a caller-supplied
   offset (so pooled frame buffers need no intermediate copy), and the
   decoder is strict — truncation, unknown tags and trailing bytes are
   all hard errors, never best-effort values.

   A codec value is just three functions; each protocol module defines its
   own and names it in its machine, and the protocol host
   ([Repro_core.Machine]) threads it through the transport factory seam
   ({!Transport.factory}).  The simulator ignores codecs entirely (its
   messages never leave the address space), so sim behaviour — and every
   golden digest — is untouched. *)

exception Bad of string

type 'msg t = {
  size : 'msg -> int;  (** exact encoded size in bytes *)
  emit : Bytes.t -> int -> 'msg -> int;
      (** [emit buf off msg] writes exactly [size msg] bytes at [off] and
          returns the offset past them.  The caller guarantees room. *)
  parse : Bytes.t -> int -> int -> 'msg * int;
      (** [parse buf pos limit] reads one message from [pos], never past
          [limit], and returns it with the offset past it.
          @raise Bad on truncation or corruption. *)
}

(* --- writer primitives ---------------------------------------------------- *)

let check_i32 what v =
  if v < -0x80000000 || v > 0x7FFFFFFF then
    invalid_arg (Printf.sprintf "Codec: %s out of i32 range (%d)" what v)

let put_u8 buf off v =
  Bytes.set_uint8 buf off v;
  off + 1

let put_u16 buf off v =
  if v < 0 || v > 0xFFFF then invalid_arg "Codec: u16 out of range";
  Bytes.set_uint16_be buf off v;
  off + 2

let put_i32 buf off v =
  check_i32 "i32" v;
  Bytes.set_int32_be buf off (Int32.of_int v);
  off + 4

let put_i64 buf off v =
  Bytes.set_int64_be buf off (Int64.of_int v);
  off + 8

(* --- strict reader primitives --------------------------------------------- *)

let need buf pos limit k =
  if pos + k > limit || pos + k > Bytes.length buf then raise (Bad "truncated message")

let get_u8 buf pos limit =
  need buf pos limit 1;
  (Bytes.get_uint8 buf pos, pos + 1)

let get_u16 buf pos limit =
  need buf pos limit 2;
  (Bytes.get_uint16_be buf pos, pos + 2)

let get_i32 buf pos limit =
  need buf pos limit 4;
  (Int32.to_int (Bytes.get_int32_be buf pos), pos + 4)

let get_i64 buf pos limit =
  need buf pos limit 8;
  (Int64.to_int (Bytes.get_int64_be buf pos), pos + 8)

(* --- whole-message helpers ------------------------------------------------ *)

let encode c msg =
  let n = c.size msg in
  let buf = Bytes.create n in
  let off = c.emit buf 0 msg in
  if off <> n then
    invalid_arg
      (Printf.sprintf "Codec.encode: emit wrote %d bytes, size promised %d" off n);
  buf

let decode c buf ~pos ~len =
  let limit = pos + len in
  let msg, pos' = c.parse buf pos limit in
  if pos' <> limit then raise (Bad "trailing bytes");
  msg

(* The Marshal cross-check oracle: encode, decode, and compare the result
   against the original structurally (via Marshal images — the message
   types are immutable trees of ints, for which equal structure gives
   equal bytes).  Used by tests and, when REPRO_CODEC_ORACLE is set, on
   every live send. *)
let roundtrip_ok c msg =
  match decode c (encode c msg) ~pos:0 ~len:(c.size msg) with
  | msg' -> String.equal (Marshal.to_string msg []) (Marshal.to_string msg' [])
  | exception Bad _ -> false
