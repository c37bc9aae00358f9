module Latency = Repro_msgpass.Latency
module Distribution = Repro_sharegraph.Distribution

(* A notice of write number [seq] by [writer] to [var], stamped with the
   writer's dependency vector; [Update] also carries the value (sent to
   replica holders only), [Gossip] is the value-free flooded form. *)
type msg =
  | Update of { var : int; value : Memory.value; writer : int; seq : int; ts : int array }
  | Gossip of { var : int; writer : int; seq : int; ts : int array }

module Codec = Repro_transport.Codec

let codec : msg Codec.t =
  let size = function
    | Update { value; ts; _ } ->
        1 + 4 + Proto_base.value_size value + 4 + 4 + Proto_base.ts_size ts
    | Gossip { ts; _ } -> 1 + 4 + 4 + 4 + Proto_base.ts_size ts
  in
  let emit buf off = function
    | Update { var; value; writer; seq; ts } ->
        let off = Codec.put_u8 buf off 0 in
        let off = Codec.put_i32 buf off var in
        let off = Proto_base.emit_value buf off value in
        let off = Codec.put_i32 buf off writer in
        let off = Codec.put_i32 buf off seq in
        Proto_base.emit_ts buf off ts
    | Gossip { var; writer; seq; ts } ->
        let off = Codec.put_u8 buf off 1 in
        let off = Codec.put_i32 buf off var in
        let off = Codec.put_i32 buf off writer in
        let off = Codec.put_i32 buf off seq in
        Proto_base.emit_ts buf off ts
  in
  let parse buf pos limit =
    let tag, pos = Codec.get_u8 buf pos limit in
    match tag with
    | 0 ->
        let var, pos = Codec.get_i32 buf pos limit in
        let value, pos = Proto_base.parse_value buf pos limit in
        let writer, pos = Codec.get_i32 buf pos limit in
        let seq, pos = Codec.get_i32 buf pos limit in
        let ts, pos = Proto_base.parse_ts buf pos limit in
        (Update { var; value; writer; seq; ts }, pos)
    | 1 ->
        let var, pos = Codec.get_i32 buf pos limit in
        let writer, pos = Codec.get_i32 buf pos limit in
        let seq, pos = Codec.get_i32 buf pos limit in
        let ts, pos = Proto_base.parse_ts buf pos limit in
        (Gossip { var; writer; seq; ts }, pos)
    | t -> raise (Codec.Bad (Printf.sprintf "causal-gossip: unknown tag %d" t))
  in
  { Codec.size; emit; parse }

type notice = {
  n_var : int;
  n_value : Memory.value option;
  n_writer : int;
  n_seq : int;
  n_ts : int array;
}

(* [buf]'s vector clock counts writes processed (applied or noted) here.
   Flooded notices reach a process along several paths, so a writer's
   notices can arrive out of order; the buffer's seq-indexed windows
   absorb that, and its duplicate dropping replaces the explicit
   pending-list membership test.  One stamp per write is shared by every
   copy of its update and notice; buffers only read it. *)
type state = {
  self : int;
  n : int;
  dist : Distribution.t;
  port : msg Machine.port;
  neighbours : int list;  (* share-graph neighbours, ascending *)
  store : Memory.value array;
  buf : notice Causal_buf.t;
  seen : (int * int, unit) Hashtbl.t;  (* notices received, (writer, seq) *)
  mutable write_seq : int;
}

let label = function
  | Update { var; value; writer; seq; _ } ->
      Printf.sprintf "upd x%d:=%s w%d#%d" var (Machine.value_text value) writer seq
  | Gossip { var; writer; seq; _ } -> Printf.sprintf "gossip x%d w%d#%d" var writer seq

let init dist ~self port =
  let n = Distribution.n_procs dist in
  let store = Array.make (Distribution.n_vars dist) Repro_history.Op.Init in
  let apply notice =
    match notice.n_value with
    | Some value ->
        store.(notice.n_var) <- value;
        port.Machine.applied ()
    | None -> ()
  in
  let neighbours =
    List.concat_map (Distribution.holders dist) (Distribution.vars_of dist self)
    |> List.sort_uniq Int.compare
    |> List.filter (fun q -> q <> self)
  in
  { self; n; dist; port; neighbours; store; buf = Causal_buf.create ~n ~apply ();
    seen = Hashtbl.create 64; write_seq = 0 }

let forward s ~came_from notice =
  List.iter
    (fun peer ->
      if peer <> came_from then
        s.port.Machine.send ~dst:peer
          ~control_bytes:((8 * s.n) + 16)
          ~payload_bytes:0 ~mentions:[ notice.n_var ]
          (Gossip
             {
               var = notice.n_var;
               writer = notice.n_writer;
               seq = notice.n_seq;
               ts = notice.n_ts;
             }))
    s.neighbours

let consume s notice =
  Causal_buf.add s.buf ~writer:notice.n_writer ~ts:notice.n_ts notice

let deliver s ~src msg =
  let notice, has_value =
    match msg with
    | Update { var; value; writer; seq; ts } ->
        ({ n_var = var; n_value = Some value; n_writer = writer; n_seq = seq; n_ts = ts }, true)
    | Gossip { var; writer; seq; ts } ->
        ({ n_var = var; n_value = None; n_writer = writer; n_seq = seq; n_ts = ts }, false)
  in
  let key = (notice.n_writer, notice.n_seq) in
  let holder = Distribution.holds s.dist ~proc:s.self ~var:notice.n_var in
  if not (Hashtbl.mem s.seen key) then begin
    (* First contact with this write.  A holder must wait for the valued
       form; its gossip copy is recorded as seen-but-not-consumed so the
       flood still spreads exactly once. *)
    Hashtbl.add s.seen key ();
    forward s ~came_from:src notice;
    if (not holder) || has_value then consume s notice
  end
  else if holder && has_value then
    (* the valued form arriving after the gossip copy: consume it; the
       buffer ignores it if it was already queued or applied *)
    consume s notice

let read s ~var = s.store.(var)

let write s ~var value =
  s.store.(var) <- value;
  Causal_buf.tick s.buf s.self;
  let seq = s.write_seq in
  s.write_seq <- seq + 1;
  let ts = Array.copy (Causal_buf.vc s.buf) in
  Hashtbl.add s.seen (s.self, seq) ();
  (* value to the other replica holders *)
  List.iter
    (fun peer ->
      if peer <> s.self then
        s.port.Machine.send ~dst:peer
          ~control_bytes:((8 * s.n) + 8)
          ~payload_bytes:Memory.value_bytes ~mentions:[ var ]
          (Update { var; value; writer = s.self; seq; ts }))
    (Distribution.holders s.dist var);
  (* notice to the share-graph neighbourhood *)
  forward s ~came_from:s.self
    { n_var = var; n_value = None; n_writer = s.self; n_seq = seq; n_ts = ts }

let create ?(latency = Latency.lan) ?transport ~dist ~seed () =
  Machine.memory ?transport ~dist ~latency ~seed
    { Machine.name = "causal-gossip"; codec = Some codec; label; extra_nodes = 0;
      blocking_reads = false; blocking_writes = false; checkpoint = None; init;
      read; write; deliver }
