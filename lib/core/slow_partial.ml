module Latency = Repro_msgpass.Latency
module Transport = Repro_transport.Transport
module Distribution = Repro_sharegraph.Distribution

type msg = Update of { var : int; value : Memory.value; lane_seq : int }

module Codec = Repro_transport.Codec

let codec : msg Codec.t =
  let size (Update { value; _ }) = 4 + Proto_base.value_size value + 4 in
  let emit buf off (Update { var; value; lane_seq }) =
    let off = Codec.put_i32 buf off var in
    let off = Proto_base.emit_value buf off value in
    Codec.put_i32 buf off lane_seq
  in
  let parse buf pos limit =
    let var, pos = Codec.get_i32 buf pos limit in
    let value, pos = Proto_base.parse_value buf pos limit in
    let lane_seq, pos = Codec.get_i32 buf pos limit in
    (Update { var; value; lane_seq }, pos)
  in
  { Codec.size; emit; parse }

type state = {
  self : int;
  dist : Distribution.t;
  port : msg Machine.port;
  store : Memory.value array;
  (* lane state per (peer, var): the next sequence number expected from
     the peer, and the next one to send it *)
  expected : int array array;
  sent : int array array;
  stashed : (int * int * int, Memory.value) Hashtbl.t;  (* (src, var, seq) *)
}

let label = function
  | Update { var; value; lane_seq } ->
      Printf.sprintf "upd x%d:=%s lane#%d" var (Machine.value_text value) lane_seq

let init dist ~self port =
  let n = Distribution.n_procs dist in
  let n_vars = Distribution.n_vars dist in
  { self; dist; port; store = Array.make n_vars Repro_history.Op.Init;
    expected = Array.make_matrix n n_vars 0; sent = Array.make_matrix n n_vars 0;
    stashed = Hashtbl.create 64 }

let rec deliver_in_order s src var =
  let seq = s.expected.(src).(var) in
  match Hashtbl.find_opt s.stashed (src, var, seq) with
  | None -> ()
  | Some value ->
      Hashtbl.remove s.stashed (src, var, seq);
      s.expected.(src).(var) <- seq + 1;
      s.store.(var) <- value;
      s.port.Machine.applied ();
      deliver_in_order s src var

let deliver s ~src (Update { var; value; lane_seq }) =
  Hashtbl.replace s.stashed (src, var, lane_seq) value;
  deliver_in_order s src var

let read s ~var = s.store.(var)

let write s ~var value =
  s.store.(var) <- value;
  List.iter
    (fun peer ->
      if peer <> s.self then begin
        let lane_seq = s.sent.(peer).(var) in
        s.sent.(peer).(var) <- lane_seq + 1;
        s.port.Machine.send ~dst:peer
          ~control_bytes:8 (* the lane sequence number *)
          ~payload_bytes:Memory.value_bytes ~mentions:[ var ]
          (Update { var; value; lane_seq })
      end)
    (Distribution.holders s.dist var)

let create ?(latency = Latency.lan) ?transport ~dist ~seed () =
  (* Non-FIFO transport: messages race; per-lane sequencing restores
     exactly the per-(writer, variable) order slow memory needs. *)
  let transport =
    match transport with
    | Some f -> f
    | None -> Transport.sim ~fifo:false ~latency ~seed ()
  in
  Machine.memory ~transport ~dist ~latency ~seed
    { Machine.name = "slow-partial"; codec = Some codec; label; extra_nodes = 0;
      blocking_reads = false; blocking_writes = false; checkpoint = None; init;
      read; write; deliver }
