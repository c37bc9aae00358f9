module Net = Repro_msgpass.Net
module Latency = Repro_msgpass.Latency
module Transport = Repro_transport.Transport
module Distribution = Repro_sharegraph.Distribution

type msg = Update of { var : int; value : Memory.value; lane_seq : int }

let value_text = function
  | Repro_history.Op.Init -> "_"
  | Repro_history.Op.Val v -> string_of_int v

let label = function
  | Update { var; value; lane_seq } ->
      Printf.sprintf "upd x%d:=%s lane#%d" var (value_text value) lane_seq

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

let create ?(latency = Latency.lan) ?transport ~dist ~seed () =
  (* Non-FIFO transport: messages race; per-lane sequencing below restores
     exactly the per-(writer, variable) order slow memory needs. *)
  let transport =
    match transport with
    | Some f -> f
    | None -> Transport.sim ~fifo:false ~latency ~seed ()
  in
  let base = Proto_base.create ~transport ~codec ~dist ~latency ~seed () in
  let n = Distribution.n_procs dist in
  let n_vars = Distribution.n_vars dist in
  let store = Array.make_matrix n n_vars Repro_history.Op.Init in
  (* Lane state per (receiver, sender, var). *)
  let expected = Array.init n (fun _ -> Array.make_matrix n n_vars 0) in
  let sent = Array.init n (fun _ -> Array.make_matrix n n_vars 0) in
  let stashed : (int * int * int * int, Memory.value) Hashtbl.t = Hashtbl.create 64 in
  let rec deliver_in_order p src var =
    let seq = expected.(p).(src).(var) in
    match Hashtbl.find_opt stashed (p, src, var, seq) with
    | None -> ()
    | Some value ->
        Hashtbl.remove stashed (p, src, var, seq);
        expected.(p).(src).(var) <- seq + 1;
        store.(p).(var) <- value;
        Proto_base.count_apply base;
        deliver_in_order p src var
  in
  let on_message p (envelope : msg Net.envelope) =
    match envelope.Net.msg with
    | Update { var; value; lane_seq } ->
        Hashtbl.replace stashed (p, envelope.Net.src, var, lane_seq) value;
        deliver_in_order p envelope.Net.src var
  in
  for p = 0 to n - 1 do
    Proto_base.set_handler base p (on_message p)
  done;
  let read ~proc ~var = store.(proc).(var) in
  let write ~proc ~var value =
    store.(proc).(var) <- value;
    List.iter
      (fun peer ->
        if peer <> proc then begin
          let lane_seq = sent.(proc).(peer).(var) in
          sent.(proc).(peer).(var) <- lane_seq + 1;
          Proto_base.send base ~src:proc ~dst:peer
            ~control_bytes:8 (* the lane sequence number *)
            ~payload_bytes:Memory.value_bytes ~mentions:[ var ]
            (Update { var; value; lane_seq })
        end)
      (Distribution.holders dist var)
  in
  Proto_base.finish base ~name:"slow-partial" ~read ~write ~blocking_writes:false
    ~label ()
