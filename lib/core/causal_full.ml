module Latency = Repro_msgpass.Latency
module Distribution = Repro_sharegraph.Distribution

type msg = Update of { var : int; value : Memory.value; writer : int; ts : int array }

module Codec = Repro_transport.Codec

let codec : msg Codec.t =
  let size (Update { value; ts; _ }) =
    4 + Proto_base.value_size value + 4 + Proto_base.ts_size ts
  in
  let emit buf off (Update { var; value; writer; ts }) =
    let off = Codec.put_i32 buf off var in
    let off = Proto_base.emit_value buf off value in
    let off = Codec.put_i32 buf off writer in
    Proto_base.emit_ts buf off ts
  in
  let parse buf pos limit =
    let var, pos = Codec.get_i32 buf pos limit in
    let value, pos = Proto_base.parse_value buf pos limit in
    let writer, pos = Codec.get_i32 buf pos limit in
    let ts, pos = Proto_base.parse_ts buf pos limit in
    (Update { var; value; writer; ts }, pos)
  in
  { Codec.size; emit; parse }

(* Causal broadcast delivery: [buf] applies the update from [writer]
   stamped [ts] once it is the next write of [writer] and every
   dependency is satisfied; its vector clock counts writes applied here
   (own writes immediate, via [tick]). *)
type state = {
  self : int;
  n : int;
  port : msg Machine.port;
  store : Memory.value array;
  buf : msg Causal_buf.t;
}

let label = function
  | Update { var; value; writer; ts } ->
      Printf.sprintf "upd x%d:=%s w%d vc[%s]" var (Machine.value_text value) writer
        (String.concat "," (Array.to_list (Array.map string_of_int ts)))

let init dist ~self port =
  let n = Distribution.n_procs dist in
  let store = Array.make (Distribution.n_vars dist) Repro_history.Op.Init in
  let apply (Update { var; value; _ }) =
    store.(var) <- value;
    port.Machine.applied ()
  in
  { self; n; port; store; buf = Causal_buf.create ~n ~apply () }

let read s ~var = s.store.(var)

let write s ~var value =
  s.store.(var) <- value;
  Causal_buf.tick s.buf s.self;
  (* one stamp, and one message, per write, shared by every recipient:
     messages are immutable and buffers only read the stamp *)
  let ts = Array.copy (Causal_buf.vc s.buf) in
  let update = Update { var; value; writer = s.self; ts }
  and mentions = [ var ] in
  for peer = 0 to s.n - 1 do
    if peer <> s.self then
      s.port.Machine.send ~dst:peer
        ~control_bytes:(8 * s.n) (* the vector clock *)
        ~payload_bytes:Memory.value_bytes ~mentions update
  done

let deliver s ~src:_ (Update { writer; ts; _ } as m) =
  Causal_buf.add s.buf ~writer ~ts m

let create ?(latency = Latency.lan) ?transport ~dist ~seed () =
  if not (Distribution.is_full_replication dist) then
    invalid_arg "Causal_full.create: requires full replication";
  Machine.memory ?transport ~dist ~latency ~seed
    { Machine.name = "causal-full"; codec = Some codec; label; extra_nodes = 0;
      blocking_reads = false; blocking_writes = false; checkpoint = None; init;
      read; write; deliver }
