module Latency = Repro_msgpass.Latency
module Fiber = Repro_msgpass.Fiber
module Distribution = Repro_sharegraph.Distribution

type msg =
  | Submit of { var : int; value : Memory.value; writer : int; write_id : int }
  | Ordered of {
      var : int;
      value : Memory.value;
      writer : int;
      write_id : int;
      global_seq : int;
    }

(* Node [n] is the sequencer: it holds no replica, only [global_seq];
   a process node uses every other field. *)
type state = {
  self : int;
  dist : Distribution.t;
  port : msg Machine.port;
  store : Memory.value array;
  mutable completed : int;  (* highest write_id of own writes applied here *)
  mutable next_write_id : int;
  mutable global_seq : int;
}

let label = function
  | Submit { var; value; writer; _ } ->
      Printf.sprintf "submit x%d:=%s w%d" var (Machine.value_text value) writer
  | Ordered { var; value; global_seq; _ } ->
      Printf.sprintf "ordered x%d:=%s @%d" var (Machine.value_text value) global_seq

let sequencer s = Distribution.n_procs s.dist

let init dist ~self port =
  let replicas =
    if self = Distribution.n_procs dist then 0 else Distribution.n_vars dist
  in
  { self; dist; port; store = Array.make replicas Repro_history.Op.Init;
    completed = -1; next_write_id = 0; global_seq = 0 }

let deliver s ~src:_ = function
  | Submit { var; value; writer; write_id } ->
      if s.self <> sequencer s then
        invalid_arg "Seq_sequencer: unexpected submit at a process";
      let seq = s.global_seq in
      s.global_seq <- seq + 1;
      List.iter
        (fun peer ->
          s.port.Machine.send ~dst:peer
            ~control_bytes:16 (* global sequence number + write id *)
            ~payload_bytes:Memory.value_bytes ~mentions:[ var ]
            (Ordered { var; value; writer; write_id; global_seq = seq }))
        (Distribution.holders s.dist var)
  | Ordered { var; value; writer; write_id; global_seq = _ } ->
      if s.self = sequencer s then
        invalid_arg "Seq_sequencer: unexpected message at sequencer";
      (* Channel sequencer→p is FIFO, so arrivals are already in global
         order restricted to p's variables. *)
      s.store.(var) <- value;
      s.port.Machine.applied ();
      if writer = s.self then s.completed <- Int.max s.completed write_id

let read s ~var = s.store.(var)

let write s ~var value =
  let write_id = s.next_write_id in
  s.next_write_id <- write_id + 1;
  s.port.Machine.send ~dst:(sequencer s)
    ~control_bytes:16 (* write id + variable id *)
    ~payload_bytes:Memory.value_bytes ~mentions:[ var ]
    (Submit { var; value; writer = s.self; write_id });
  Fiber.await (fun () -> s.completed >= write_id)

let create ?(latency = Latency.lan) ?transport ~dist ~seed () =
  Machine.memory ?transport ~dist ~latency ~seed
    { Machine.name = "seq-sequencer"; codec = None; label; extra_nodes = 1;
      blocking_reads = false; blocking_writes = true; checkpoint = None; init;
      read; write; deliver }
