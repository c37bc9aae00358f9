module Latency = Repro_msgpass.Latency
module Distribution = Repro_sharegraph.Distribution

type msg = Update of { var : int; value : Memory.value; seq : int }

module Codec = Repro_transport.Codec

let codec : msg Codec.t =
  let size (Update { value; _ }) = 4 + Proto_base.value_size value + 4 in
  let emit buf off (Update { var; value; seq }) =
    let off = Codec.put_i32 buf off var in
    let off = Proto_base.emit_value buf off value in
    Codec.put_i32 buf off seq
  in
  let parse buf pos limit =
    let var, pos = Codec.get_i32 buf pos limit in
    let value, pos = Proto_base.parse_value buf pos limit in
    let seq, pos = Codec.get_i32 buf pos limit in
    (Update { var; value; seq }, pos)
  in
  { Codec.size; emit; parse }

type state = {
  self : int;
  dist : Distribution.t;
  port : msg Machine.port;
  store : Memory.value array;
  (* per peer: the next sequence number to send it, and the lowest one
     still applicable from it (duplicates are ignored; with FIFO
     transport it simply increments) *)
  sent_seq : int array;
  next_expected : int array;
}

let label (Update { var; value; seq }) =
  Printf.sprintf "upd x%d:=%s #%d" var (Machine.value_text value) seq

let init dist ~self port =
  let n = Distribution.n_procs dist in
  let store = Array.make (Distribution.n_vars dist) Repro_history.Op.Init in
  { self; dist; port; store;
    sent_seq = Array.make n 0; next_expected = Array.make n 0 }

(* checkpoint-restart support: the node's state is three plain arrays;
   restore copies into them *)
let checkpoint =
  let blit src dst = Array.blit src 0 dst 0 (Array.length dst) in
  Some
    ( (fun s -> Marshal.to_string (s.store, s.sent_seq, s.next_expected) []),
      fun s blob ->
        let store, sent, expected = Marshal.from_string blob 0 in
        blit store s.store;
        blit sent s.sent_seq;
        blit expected s.next_expected )

let read s ~var = s.store.(var)

let write s ~var value =
  s.store.(var) <- value;
  List.iter
    (fun peer ->
      if peer <> s.self then begin
        let seq = s.sent_seq.(peer) in
        s.sent_seq.(peer) <- seq + 1;
        s.port.Machine.send ~dst:peer
          ~control_bytes:8 (* the sequence number *)
          ~payload_bytes:Memory.value_bytes ~mentions:[ var ]
          (Update { var; value; seq })
      end)
    (Distribution.holders s.dist var)

let deliver s ~src (Update { var; value; seq }) =
  if seq >= s.next_expected.(src) then begin
    s.next_expected.(src) <- seq + 1;
    s.store.(var) <- value;
    s.port.Machine.applied ()
  end

let create ?(latency = Latency.lan) ?transport ~dist ~seed () =
  Machine.memory ?transport ~dist ~latency ~seed
    { Machine.name = "pram-partial"; codec = Some codec; label; extra_nodes = 0;
      blocking_reads = false; blocking_writes = false; checkpoint; init; read;
      write; deliver }
