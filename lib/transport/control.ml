type msg =
  | Hello of { fingerprint : string; incarnation : int }
  | Done
  | Gone of { node : int }
  | Propose of { epoch : int; members : int list; down : int list }
  | Commit of { epoch : int; members : int list }
  | Finish
  | Ping
  | Pong of { epoch : int; proposed : int; ready : bool; writes : int }

let supervisor = 0xFFFF

let ids_size ids = 2 + (2 * List.length ids)

let put_ids buf off ids =
  List.fold_left (Codec.put_u16 buf) (Codec.put_u16 buf off (List.length ids)) ids

let get_ids buf pos limit =
  let count, pos = Codec.get_u16 buf pos limit in
  if 2 * count > limit - pos then
    raise
      (Codec.Bad
         (Printf.sprintf "id count %d exceeds the %d bytes that follow" count
            (limit - pos)));
  let rec go k pos acc =
    if k = 0 then (List.rev acc, pos)
    else
      let id, pos = Codec.get_u16 buf pos limit in
      go (k - 1) pos (id :: acc)
  in
  go count pos []

let size = function
  | Hello { fingerprint; _ } -> 1 + 4 + String.length fingerprint + 4
  | Done | Finish | Ping -> 1
  | Gone _ -> 1 + 2
  | Propose { members; down; _ } -> 1 + 2 + ids_size members + ids_size down
  | Commit { members; _ } -> 1 + 2 + ids_size members
  | Pong _ -> 1 + 2 + 2 + 1 + 4

let emit buf off m =
  let tag t = Codec.put_u8 buf off t in
  match m with
  | Hello { fingerprint; incarnation } ->
      let n = String.length fingerprint in
      let off = Codec.put_i32 buf (tag 0) n in
      Bytes.blit_string fingerprint 0 buf off n;
      Codec.put_i32 buf (off + n) incarnation
  | Done -> tag 1
  | Gone { node } -> Codec.put_u16 buf (tag 2) node
  | Propose { epoch; members; down } ->
      let off = Codec.put_u16 buf (tag 3) epoch in
      put_ids buf (put_ids buf off members) down
  | Commit { epoch; members } -> put_ids buf (Codec.put_u16 buf (tag 4) epoch) members
  | Finish -> tag 5
  | Ping -> tag 6
  | Pong { epoch; proposed; ready; writes } ->
      let off = Codec.put_u16 buf (tag 7) epoch in
      let off = Codec.put_u16 buf off proposed in
      let off = Codec.put_u8 buf off (if ready then 1 else 0) in
      Codec.put_i32 buf off writes

let parse_msg buf pos limit =
  let tag, pos = Codec.get_u8 buf pos limit in
  match tag with
  | 0 ->
      let n, pos = Codec.get_i32 buf pos limit in
      if n < 0 then raise (Codec.Bad "negative fingerprint length");
      Codec.need buf pos limit n;
      let fingerprint = Bytes.sub_string buf pos n in
      let incarnation, pos = Codec.get_i32 buf (pos + n) limit in
      (Hello { fingerprint; incarnation }, pos)
  | 1 -> (Done, pos)
  | 2 ->
      let node, pos = Codec.get_u16 buf pos limit in
      (Gone { node }, pos)
  | 3 ->
      let epoch, pos = Codec.get_u16 buf pos limit in
      let members, pos = get_ids buf pos limit in
      let down, pos = get_ids buf pos limit in
      (Propose { epoch; members; down }, pos)
  | 4 ->
      let epoch, pos = Codec.get_u16 buf pos limit in
      let members, pos = get_ids buf pos limit in
      (Commit { epoch; members }, pos)
  | 5 -> (Finish, pos)
  | 6 -> (Ping, pos)
  | 7 ->
      let epoch, pos = Codec.get_u16 buf pos limit in
      let proposed, pos = Codec.get_u16 buf pos limit in
      let ready, pos = Codec.get_u8 buf pos limit in
      if ready > 1 then raise (Codec.Bad (Printf.sprintf "ready byte %d" ready));
      let writes, pos = Codec.get_i32 buf pos limit in
      (Pong { epoch; proposed; ready = ready = 1; writes }, pos)
  | t -> raise (Codec.Bad (Printf.sprintf "unknown tag %d" t))

(* A control message is always a whole frame body, so the parser owns
   the trailing-bytes check too, and every rejection names the codec. *)
let parse buf pos limit =
  match parse_msg buf pos limit with
  | m, pos when pos = limit -> (m, pos)
  | _ -> raise (Codec.Bad "control: trailing bytes")
  | exception Codec.Bad e -> raise (Codec.Bad ("control: " ^ e))

let codec = { Codec.size; emit; parse }

let of_view (v : Wire.view) =
  Codec.decode codec v.Wire.v_buf ~pos:v.Wire.v_off ~len:v.Wire.v_len

let frame ~src ~dst m =
  Wire.encode
    {
      Wire.kind = Wire.Control;
      src;
      dst;
      epoch = 0;
      control_bytes = 0;
      payload_bytes = 0;
      body = Bytes.unsafe_to_string (Codec.encode codec m);
    }
