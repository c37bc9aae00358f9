module Latency = Repro_msgpass.Latency
module Distribution = Repro_sharegraph.Distribution

type msg = Update of {
  var : int;
  value : Memory.value;
  writer : int;
  deltas : (int * int) list; (* vector-clock entries that changed *)
}

module Codec = Repro_transport.Codec

let codec : msg Codec.t =
  let size (Update { value; deltas; _ }) =
    4 + Proto_base.value_size value + 4 + 2 + (8 * List.length deltas)
  in
  let emit buf off (Update { var; value; writer; deltas }) =
    let off = Codec.put_i32 buf off var in
    let off = Proto_base.emit_value buf off value in
    let off = Codec.put_i32 buf off writer in
    let off = Codec.put_u16 buf off (List.length deltas) in
    List.fold_left
      (fun off (k, c) ->
        let off = Codec.put_i32 buf off k in
        Codec.put_i32 buf off c)
      off deltas
  in
  let parse buf pos limit =
    let var, pos = Codec.get_i32 buf pos limit in
    let value, pos = Proto_base.parse_value buf pos limit in
    let writer, pos = Codec.get_i32 buf pos limit in
    let count, pos = Codec.get_u16 buf pos limit in
    let rec read_deltas acc pos = function
      | 0 -> (List.rev acc, pos)
      | i ->
          let k, pos = Codec.get_i32 buf pos limit in
          let c, pos = Codec.get_i32 buf pos limit in
          read_deltas ((k, c) :: acc) pos (i - 1)
    in
    let deltas, pos = read_deltas [] pos count in
    (Update { var; value; writer; deltas }, pos)
  in
  { Codec.size; emit; parse }

let rec patch mirror = function
  | [] -> ()
  | (k, v) :: rest ->
      mirror.(k) <- v;
      patch mirror rest

type state = {
  self : int;
  n : int;
  port : msg Machine.port;
  store : Memory.value array;
  buf : (int * Memory.value) Causal_buf.t;
  (* per peer: the last vector stamp sent to it, and the mirror of the
     last one received from it; FIFO keeps each pair in sync *)
  sent_stamp : int array array;
  recv_stamp : int array array;
}

let label = function
  | Update { var; value; writer; deltas } ->
      Printf.sprintf "upd x%d:=%s w%d deltas:%d" var (Machine.value_text value)
        writer (List.length deltas)

let init dist ~self port =
  let n = Distribution.n_procs dist in
  let store = Array.make (Distribution.n_vars dist) Repro_history.Op.Init in
  let apply (var, value) =
    store.(var) <- value;
    port.Machine.applied ()
  in
  { self; n; port; store; buf = Causal_buf.create ~n ~apply ();
    sent_stamp = Array.make_matrix n n 0; recv_stamp = Array.make_matrix n n 0 }

let read s ~var = s.store.(var)

let write s ~var value =
  s.store.(var) <- value;
  Causal_buf.tick s.buf s.self;
  let ts = Causal_buf.vc s.buf in
  for peer = 0 to s.n - 1 do
    if peer <> s.self then begin
      let last = s.sent_stamp.(peer) in
      let deltas = ref [] in
      for k = s.n - 1 downto 0 do
        if ts.(k) <> last.(k) then begin
          deltas := (k, ts.(k)) :: !deltas;
          last.(k) <- ts.(k)
        end
      done;
      s.port.Machine.send ~dst:peer
        ~control_bytes:(12 * List.length !deltas) (* (index, count) pairs *)
        ~payload_bytes:Memory.value_bytes ~mentions:[ var ]
        (Update { var; value; writer = s.self; deltas = !deltas })
    end
  done

let deliver s ~src:_ (Update { var; value; writer; deltas }) =
  (* reconstruct the full stamp from the writer's mirror; the mirror
     keeps changing, so the buffer gets a copy *)
  let mirror = s.recv_stamp.(writer) in
  patch mirror deltas;
  Causal_buf.add s.buf ~writer ~ts:(Array.copy mirror) (var, value)

let create ?(latency = Latency.lan) ?transport ~dist ~seed () =
  if not (Distribution.is_full_replication dist) then
    invalid_arg "Causal_delta.create: requires full replication";
  Machine.memory ?transport ~dist ~latency ~seed
    { Machine.name = "causal-delta"; codec = Some codec; label; extra_nodes = 0;
      blocking_reads = false; blocking_writes = false; checkpoint = None; init;
      read; write; deliver }
