module Net = Repro_msgpass.Net
module Latency = Repro_msgpass.Latency
module Distribution = Repro_sharegraph.Distribution
module Share_graph = Repro_sharegraph.Share_graph

(* A notice of write number [seq] by [writer] to [var], stamped with the
   writer's dependency vector; [Update] also carries the value (sent to
   replica holders only), [Gossip] is the value-free flooded form. *)
type msg =
  | Update of { var : int; value : Memory.value; writer : int; seq : int; ts : int array }
  | Gossip of { var : int; writer : int; seq : int; ts : int array }

let value_text = function
  | Repro_history.Op.Init -> "_"
  | Repro_history.Op.Val v -> string_of_int v

let label = function
  | Update { var; value; writer; seq; _ } ->
      Printf.sprintf "upd x%d:=%s w%d#%d" var (value_text value) writer seq
  | Gossip { var; writer; seq; _ } -> Printf.sprintf "gossip x%d w%d#%d" var writer seq

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

let create ?(latency = Latency.lan) ?transport ~dist ~seed () =
  let base = Proto_base.create ?transport ~codec ~dist ~latency ~seed () in
  let n = Distribution.n_procs dist in
  let n_vars = Distribution.n_vars dist in
  let neighbours =
    let sg = Share_graph.of_distribution dist in
    Array.init n (fun p -> Share_graph.neighbours sg p)
  in
  let store = Array.make_matrix n n_vars Repro_history.Op.Init in
  (* bufs.(p)'s vector clock counts writes processed (applied or noted) at
     [p].  Flooded notices reach a process along several paths, so a
     writer's notices can arrive out of order; the buffer's seq-indexed
     windows absorb that, and its duplicate dropping replaces the explicit
     pending-list membership test.  One stamp per write is shared by every
     copy of its update and notice; buffers only read it. *)
  let bufs =
    Array.init n (fun p ->
        Causal_buf.create ~n
          ~apply:(fun notice ->
            match notice.n_value with
            | Some value ->
                store.(p).(notice.n_var) <- value;
                Proto_base.count_apply base
            | None -> ())
          ())
  in
  (* seen.(p): notices already received (for gossip dedup), (writer, seq) *)
  let seen = Array.init n (fun _ -> Hashtbl.create 64) in
  let forward p ~came_from notice =
    List.iter
      (fun peer ->
        if peer <> came_from then
          Proto_base.send base ~src:p ~dst:peer
            ~control_bytes:((8 * n) + 16)
            ~payload_bytes:0 ~mentions:[ notice.n_var ]
            (Gossip
               {
                 var = notice.n_var;
                 writer = notice.n_writer;
                 seq = notice.n_seq;
                 ts = notice.n_ts;
               }))
      neighbours.(p)
  in
  let consume p notice =
    Causal_buf.add bufs.(p) ~writer:notice.n_writer ~ts:notice.n_ts notice
  in
  let on_message p (envelope : msg Net.envelope) =
    let notice, has_value =
      match envelope.Net.msg with
      | Update { var; value; writer; seq; ts } ->
          ({ n_var = var; n_value = Some value; n_writer = writer; n_seq = seq; n_ts = ts }, true)
      | Gossip { var; writer; seq; ts } ->
          ({ n_var = var; n_value = None; n_writer = writer; n_seq = seq; n_ts = ts }, false)
    in
    let key = (notice.n_writer, notice.n_seq) in
    let holder = Distribution.holds dist ~proc:p ~var:notice.n_var in
    if not (Hashtbl.mem seen.(p) key) then begin
      (* First contact with this write.  A holder must wait for the valued
         form; its gossip copy is recorded as seen-but-not-consumed so the
         flood still spreads exactly once. *)
      Hashtbl.add seen.(p) key ();
      forward p ~came_from:envelope.Net.src notice;
      if (not holder) || has_value then consume p notice
    end
    else if holder && has_value then
      (* the valued form arriving after the gossip copy: consume it; the
         buffer ignores it if it was already queued or applied *)
      consume p notice
  in
  for p = 0 to n - 1 do
    Proto_base.set_handler base p (on_message p)
  done;
  let write_seq = Array.make n 0 in
  let read ~proc ~var = store.(proc).(var) in
  let write ~proc ~var value =
    store.(proc).(var) <- value;
    Causal_buf.tick bufs.(proc) proc;
    let seq = write_seq.(proc) in
    write_seq.(proc) <- seq + 1;
    let ts = Array.copy (Causal_buf.vc bufs.(proc)) in
    Hashtbl.add seen.(proc) (proc, seq) ();
    (* value to the other replica holders *)
    List.iter
      (fun peer ->
        if peer <> proc then
          Proto_base.send base ~src:proc ~dst:peer
            ~control_bytes:((8 * n) + 8)
            ~payload_bytes:Memory.value_bytes ~mentions:[ var ]
            (Update { var; value; writer = proc; seq; ts }))
      (Distribution.holders dist var);
    (* notice to the share-graph neighbourhood *)
    forward proc ~came_from:proc
      { n_var = var; n_value = None; n_writer = proc; n_seq = seq; n_ts = ts }
  in
  Proto_base.finish base ~name:"causal-gossip" ~read ~write ~blocking_writes:false
    ~label ()
