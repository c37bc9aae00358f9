module Latency = Repro_msgpass.Latency
module Distribution = Repro_sharegraph.Distribution

type msg =
  | Update of { var : int; value : Memory.value; writer : int; ts : int array }
  | Meta of { var : int; writer : int; ts : int array }

module Codec = Repro_transport.Codec

let codec : msg Codec.t =
  let size = function
    | Update { value; ts; _ } ->
        1 + 4 + Proto_base.value_size value + 4 + Proto_base.ts_size ts
    | Meta { ts; _ } -> 1 + 4 + 4 + Proto_base.ts_size ts
  in
  let emit buf off = function
    | Update { var; value; writer; ts } ->
        let off = Codec.put_u8 buf off 0 in
        let off = Codec.put_i32 buf off var in
        let off = Proto_base.emit_value buf off value in
        let off = Codec.put_i32 buf off writer in
        Proto_base.emit_ts buf off ts
    | Meta { var; writer; ts } ->
        let off = Codec.put_u8 buf off 1 in
        let off = Codec.put_i32 buf off var in
        let off = Codec.put_i32 buf off writer in
        Proto_base.emit_ts buf off ts
  in
  let parse buf pos limit =
    let tag, pos = Codec.get_u8 buf pos limit in
    match tag with
    | 0 ->
        let var, pos = Codec.get_i32 buf pos limit in
        let value, pos = Proto_base.parse_value buf pos limit in
        let writer, pos = Codec.get_i32 buf pos limit in
        let ts, pos = Proto_base.parse_ts buf pos limit in
        (Update { var; value; writer; ts }, pos)
    | 1 ->
        let var, pos = Codec.get_i32 buf pos limit in
        let writer, pos = Codec.get_i32 buf pos limit in
        let ts, pos = Proto_base.parse_ts buf pos limit in
        (Meta { var; writer; ts }, pos)
    | t -> raise (Codec.Bad (Printf.sprintf "causal-partial: unknown tag %d" t))
  in
  { Codec.size; emit; parse }

(* [buf]'s vector clock counts writes processed (applied or noted) here;
   [Meta] notices advance it without touching the store. *)
type state = {
  self : int;
  dist : Distribution.t;
  port : msg Machine.port;
  store : Memory.value array;
  buf : msg Causal_buf.t;
}

let label = function
  | Update { var; value; writer; _ } ->
      Printf.sprintf "upd x%d:=%s w%d" var (Machine.value_text value) writer
  | Meta { var; writer; _ } -> Printf.sprintf "meta x%d w%d" var writer

let init dist ~self port =
  let store = Array.make (Distribution.n_vars dist) Repro_history.Op.Init in
  let apply = function
    | Update { var; value; _ } ->
        store.(var) <- value;
        port.Machine.applied ()
    | Meta _ -> ()
  in
  let buf = Causal_buf.create ~n:(Distribution.n_procs dist) ~apply () in
  { self; dist; port; store; buf }

let read s ~var = s.store.(var)

let write s ~var value =
  let n = Distribution.n_procs s.dist in
  s.store.(var) <- value;
  Causal_buf.tick s.buf s.self;
  (* one stamp, and one message of each kind, per write, shared by every
     recipient: messages are immutable and buffers only read the stamp *)
  let ts = Array.copy (Causal_buf.vc s.buf) in
  let update = Update { var; value; writer = s.self; ts }
  and meta = Meta { var; writer = s.self; ts }
  and mentions = [ var ] in
  for peer = 0 to n - 1 do
    if peer <> s.self then begin
      if Distribution.holds s.dist ~proc:peer ~var then
        s.port.Machine.send ~dst:peer ~control_bytes:(8 * n)
          ~payload_bytes:Memory.value_bytes ~mentions update
      else
        s.port.Machine.send ~dst:peer
          ~control_bytes:((8 * n) + 8) (* vector clock + variable id *)
          ~payload_bytes:0 ~mentions meta
    end
  done

let deliver s ~src:_ m =
  match m with
  | Update { writer; ts; _ } | Meta { writer; ts; _ } ->
      Causal_buf.add s.buf ~writer ~ts m

let create ?(latency = Latency.lan) ?transport ~dist ~seed () =
  Machine.memory ?transport ~dist ~latency ~seed
    { Machine.name = "causal-partial"; codec = Some codec; label; extra_nodes = 0;
      blocking_reads = false; blocking_writes = false; checkpoint = None; init;
      read; write; deliver }
