module Net = Repro_msgpass.Net
module Latency = Repro_msgpass.Latency
module Distribution = Repro_sharegraph.Distribution

type msg =
  | Update of { var : int; value : Memory.value; writer : int; ts : int array }
  | Meta of { var : int; writer : int; ts : int array }

let value_text = function
  | Repro_history.Op.Init -> "_"
  | Repro_history.Op.Val v -> string_of_int v

let label = function
  | Update { var; value; writer; _ } ->
      Printf.sprintf "upd x%d:=%s w%d" var (value_text value) writer
  | Meta { var; writer; _ } -> Printf.sprintf "meta x%d w%d" var writer

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

let create ?(latency = Latency.lan) ?transport ~dist ~seed () =
  let base = Proto_base.create ?transport ~codec ~dist ~latency ~seed () in
  let n = Distribution.n_procs dist in
  let n_vars = Distribution.n_vars dist in
  let store = Array.make_matrix n n_vars Repro_history.Op.Init in
  (* bufs.(p)'s vector clock counts writes processed (applied or noted) at
     [p]; [Meta] notices advance it without touching the store. *)
  let bufs =
    Array.init n (fun p ->
        Causal_buf.create ~n
          ~apply:(fun m ->
            match m with
            | Update { var; value; _ } ->
                store.(p).(var) <- value;
                Proto_base.count_apply base
            | Meta _ -> ())
          ())
  in
  let on_message p (envelope : msg Net.envelope) =
    match envelope.Net.msg with
    | Update { writer; ts; _ } as m -> Causal_buf.add bufs.(p) ~writer ~ts m
    | Meta { writer; ts; _ } as m -> Causal_buf.add bufs.(p) ~writer ~ts m
  in
  for p = 0 to n - 1 do
    Proto_base.set_handler base p (on_message p)
  done;
  let read ~proc ~var = store.(proc).(var) in
  let write ~proc ~var value =
    store.(proc).(var) <- value;
    Causal_buf.tick bufs.(proc) proc;
    (* one stamp, and one message of each kind, per write, shared by every
       recipient: messages are immutable and buffers only read the stamp *)
    let ts = Array.copy (Causal_buf.vc bufs.(proc)) in
    let update = Update { var; value; writer = proc; ts }
    and meta = Meta { var; writer = proc; ts }
    and mentions = [ var ] in
    for peer = 0 to n - 1 do
      if peer <> proc then begin
        if Distribution.holds dist ~proc:peer ~var then
          Proto_base.send base ~src:proc ~dst:peer
            ~control_bytes:(8 * n)
            ~payload_bytes:Memory.value_bytes ~mentions update
        else
          Proto_base.send base ~src:proc ~dst:peer
            ~control_bytes:((8 * n) + 8) (* vector clock + variable id *)
            ~payload_bytes:0 ~mentions meta
      end
    done
  in
  Proto_base.finish base ~name:"causal-partial" ~read ~write ~blocking_writes:false
    ~label ()
