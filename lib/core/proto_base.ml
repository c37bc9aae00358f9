module Codec = Repro_transport.Codec

(* Shared wire-format helpers for the protocol codecs.  Every protocol
   message carries a {!Memory.value} and most carry a vector clock or a
   short dependency list; centralising their layouts keeps the per-protocol
   codecs small and guarantees the formats agree across protocols. *)

let value_size : Memory.value -> int = function
  | Repro_history.Op.Init -> 1
  | Repro_history.Op.Val _ -> 9

let emit_value buf off : Memory.value -> int = function
  | Repro_history.Op.Init -> Codec.put_u8 buf off 0
  | Repro_history.Op.Val v ->
      let off = Codec.put_u8 buf off 1 in
      Codec.put_i64 buf off v

let parse_value buf pos limit : Memory.value * int =
  let tag, pos = Codec.get_u8 buf pos limit in
  match tag with
  | 0 -> (Repro_history.Op.Init, pos)
  | 1 ->
      let v, pos = Codec.get_i64 buf pos limit in
      (Repro_history.Op.Val v, pos)
  | t -> raise (Codec.Bad (Printf.sprintf "value: unknown tag %d" t))

let ts_size a = 2 + (4 * Array.length a)

(* toplevel recursion, not [Array.fold_left] with a closure: emit must not
   allocate on the steady-state send path *)
let rec emit_ints buf off (a : int array) i =
  if i = Array.length a then off
  else emit_ints buf (Codec.put_i32 buf off a.(i)) a (i + 1)

let emit_ts buf off (a : int array) =
  emit_ints buf (Codec.put_u16 buf off (Array.length a)) a 0

let parse_ts buf pos limit : int array * int =
  let len, pos0 = Codec.get_u16 buf pos limit in
  let a = Array.make len 0 in
  let pos = ref pos0 in
  for i = 0 to len - 1 do
    let x, p = Codec.get_i32 buf !pos limit in
    a.(i) <- x;
    pos := p
  done;
  (a, !pos)
