module Net = Repro_msgpass.Net
module Latency = Repro_msgpass.Latency
module Distribution = Repro_sharegraph.Distribution

type msg = Update of {
  var : int;
  value : Memory.value;
  writer : int;
  deltas : (int * int) list; (* vector-clock entries that changed *)
}

let value_text = function
  | Repro_history.Op.Init -> "_"
  | Repro_history.Op.Val v -> string_of_int v

let label = function
  | Update { var; value; writer; deltas } ->
      Printf.sprintf "upd x%d:=%s w%d deltas:%d" var (value_text value) writer
        (List.length deltas)

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

let create ?(latency = Latency.lan) ?transport ~dist ~seed () =
  if not (Distribution.is_full_replication dist) then
    invalid_arg "Causal_delta.create: requires full replication";
  let base = Proto_base.create ?transport ~codec ~dist ~latency ~seed () in
  let n = Distribution.n_procs dist in
  let n_vars = Distribution.n_vars dist in
  let store = Array.make_matrix n n_vars Repro_history.Op.Init in
  (* last vector stamp transmitted per (sender, receiver) channel, and its
     mirror per (receiver, sender); FIFO keeps them in sync *)
  let sent_stamp = Array.init n (fun _ -> Array.make_matrix n n 0) in
  let recv_stamp = Array.init n (fun _ -> Array.make_matrix n n 0) in
  let bufs =
    Array.init n (fun p ->
        Causal_buf.create ~n
          ~apply:(fun (var, value) ->
            store.(p).(var) <- value;
            Proto_base.count_apply base)
          ())
  in
  let on_message p (envelope : msg Net.envelope) =
    match envelope.Net.msg with
    | Update { var; value; writer; deltas } ->
        (* reconstruct the full stamp from the per-channel mirror; the
           mirror keeps changing, so the buffer gets a copy *)
        let mirror = recv_stamp.(p).(writer) in
        patch mirror deltas;
        Causal_buf.add bufs.(p) ~writer ~ts:(Array.copy mirror) (var, value)
  in
  for p = 0 to n - 1 do
    Proto_base.set_handler base p (on_message p)
  done;
  let read ~proc ~var = store.(proc).(var) in
  let write ~proc ~var value =
    store.(proc).(var) <- value;
    Causal_buf.tick bufs.(proc) proc;
    let ts = Causal_buf.vc bufs.(proc) in
    for peer = 0 to n - 1 do
      if peer <> proc then begin
        let last = sent_stamp.(proc).(peer) in
        let deltas = ref [] in
        for k = n - 1 downto 0 do
          if ts.(k) <> last.(k) then begin
            deltas := (k, ts.(k)) :: !deltas;
            last.(k) <- ts.(k)
          end
        done;
        Proto_base.send base ~src:proc ~dst:peer
          ~control_bytes:(12 * List.length !deltas) (* (index, count) pairs *)
          ~payload_bytes:Memory.value_bytes ~mentions:[ var ]
          (Update { var; value; writer = proc; deltas = !deltas })
      end
    done
  in
  Proto_base.finish base ~name:"causal-delta" ~read ~write ~blocking_writes:false
    ~label ()
