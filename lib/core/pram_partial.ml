module Net = Repro_msgpass.Net
module Latency = Repro_msgpass.Latency
module Distribution = Repro_sharegraph.Distribution

type msg = Update of { var : int; value : Memory.value; seq : int }

let value_text = function
  | Repro_history.Op.Init -> "_"
  | Repro_history.Op.Val v -> string_of_int v

let label = function
  | Update { var; value; seq } -> Printf.sprintf "upd x%d:=%s #%d" var (value_text value) seq

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

let create ?(latency = Latency.lan) ?service_time ?(sequence_guard = true)
    ?transport ~dist ~seed () =
  let base =
    Proto_base.create ?service_time ?transport ~codec ~dist ~latency ~seed ()
  in
  let n = Distribution.n_procs dist in
  let n_vars = Distribution.n_vars dist in
  let store = Array.make_matrix n n_vars Repro_history.Op.Init in
  (* Per-channel sequence numbers: duplicates are detected and ignored;
     with FIFO transport [next_expected] simply increments. *)
  let sent_seq = Array.make_matrix n n 0 in
  let next_expected = Array.make_matrix n n 0 in
  let on_message dst (envelope : msg Net.envelope) =
    match envelope.Net.msg with
    | Update { var; value; seq } ->
        let src = envelope.Net.src in
        if (not sequence_guard) || seq >= next_expected.(dst).(src) then begin
          next_expected.(dst).(src) <- seq + 1;
          store.(dst).(var) <- value;
          Proto_base.count_apply base
        end
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
          let seq = sent_seq.(proc).(peer) in
          sent_seq.(proc).(peer) <- seq + 1;
          Proto_base.send base ~src:proc ~dst:peer
            ~control_bytes:8 (* the sequence number *)
            ~payload_bytes:Memory.value_bytes ~mentions:[ var ]
            (Update { var; value; seq })
        end)
      (Distribution.holders dist var)
  in
  (* checkpoint-restart support: the whole protocol state is three plain
     matrices; restore copies element-wise into the arrays the closures
     above captured *)
  let snapshot () = Marshal.to_string (store, sent_seq, next_expected) [] in
  let restore blob =
    let (store', sent', expected')
          : Memory.value array array * int array array * int array array =
      Marshal.from_string blob 0
    in
    let blit dst src =
      Array.iteri (fun i row -> Array.blit src.(i) 0 row 0 (Array.length row)) dst
    in
    blit store store';
    blit sent_seq sent';
    blit next_expected expected'
  in
  Proto_base.finish base ~name:"pram-partial" ~read ~write ~blocking_writes:false
    ~label ~state:(snapshot, restore) ()
