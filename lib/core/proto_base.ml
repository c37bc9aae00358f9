module Net = Repro_msgpass.Net
module Latency = Repro_msgpass.Latency
module Transport = Repro_transport.Transport
module Codec = Repro_transport.Codec
module Distribution = Repro_sharegraph.Distribution
module Bitset = Repro_util.Bitset

(* Shared wire-format helpers for the protocol codecs.  Every protocol
   message carries a {!Memory.value} and most carry a vector clock or a
   short dependency list; centralising their layouts keeps the per-protocol
   codecs small and guarantees the formats agree across protocols. *)

let value_size : Memory.value -> int = function
  | Repro_history.Op.Init -> 1
  | Repro_history.Op.Val _ -> 9

let emit_value buf off : Memory.value -> int = function
  | Repro_history.Op.Init -> Codec.put_u8 buf off 0
  | Repro_history.Op.Val v ->
      let off = Codec.put_u8 buf off 1 in
      Codec.put_i64 buf off v

let parse_value buf pos limit : Memory.value * int =
  let tag, pos = Codec.get_u8 buf pos limit in
  match tag with
  | 0 -> (Repro_history.Op.Init, pos)
  | 1 ->
      let v, pos = Codec.get_i64 buf pos limit in
      (Repro_history.Op.Val v, pos)
  | t -> raise (Codec.Bad (Printf.sprintf "value: unknown tag %d" t))

let ts_size a = 2 + (4 * Array.length a)

(* toplevel recursion, not [Array.fold_left] with a closure: emit must not
   allocate on the steady-state send path *)
let rec emit_ints buf off (a : int array) i =
  if i = Array.length a then off
  else emit_ints buf (Codec.put_i32 buf off a.(i)) a (i + 1)

let emit_ts buf off (a : int array) =
  emit_ints buf (Codec.put_u16 buf off (Array.length a)) a 0

let parse_ts buf pos limit : int array * int =
  let len, pos0 = Codec.get_u16 buf pos limit in
  let a = Array.make len 0 in
  let pos = ref pos0 in
  for i = 0 to len - 1 do
    let x, p = Codec.get_i32 buf !pos limit in
    a.(i) <- x;
    pos := p
  done;
  (a, !pos)

type 'msg t = {
  tr : 'msg Transport.t;
  dist : Distribution.t;
  mentioned : Bitset.t array; (* per variable: processes informed about it *)
  mutable applied : int;
}

let create ?service_time ?(extra_nodes = 0) ?transport ?codec ~dist ~latency
    ~seed () =
  let n = Distribution.n_procs dist in
  let factory =
    match transport with
    | Some f -> f
    | None -> Transport.sim ?service_time ~latency ~seed ()
  in
  let tr = factory.Transport.create ?codec (n + extra_nodes) in
  {
    tr;
    dist;
    mentioned = Array.init (Distribution.n_vars dist) (fun _ -> Bitset.create (n + extra_nodes));
    applied = 0;
  }

let dist t = t.dist

let n_procs t = Distribution.n_procs t.dist

let scope t = t.tr.Transport.scope

let set_handler t node f = t.tr.Transport.set_handler node f

let at t ~delay f = t.tr.Transport.schedule ~delay f

(* toplevel recursion, not [List.iter] with a closure: one send must not
   allocate a closure per call *)
let rec mention t dst = function
  | [] -> ()
  | x :: rest ->
      Bitset.add t.mentioned.(x) dst;
      mention t dst rest

let send t ~src ~dst ~control_bytes ~payload_bytes ~mentions msg =
  mention t dst mentions;
  t.tr.Transport.send ~src ~dst ~control_bytes ~payload_bytes msg

let count_apply t = t.applied <- t.applied + 1

let metrics t =
  let s = t.tr.Transport.stats () in
  {
    Memory.messages_sent = s.Net.sent;
    messages_delivered = s.Net.delivered;
    control_bytes = s.Net.total_control_bytes;
    payload_bytes = s.Net.total_payload_bytes;
    overhead_bytes = s.Net.overhead_bytes;
    mentioned_at = Array.map Bitset.copy t.mentioned;
    applied_writes = t.applied;
  }

let finish t ~name ~read ~write ~blocking_writes ?(blocking_reads = false)
    ?(label = fun _ -> "msg") ?state () =
  let check proc var =
    if not (Distribution.holds t.dist ~proc ~var) then
      invalid_arg
        (Printf.sprintf "%s: process %d does not hold variable x%d" name proc var)
  in
  {
    Memory.name;
    dist = t.dist;
    read =
      (fun ~proc ~var ->
        check proc var;
        read ~proc ~var);
    write =
      (fun ~proc ~var value ->
        check proc var;
        write ~proc ~var value);
    step = (fun () -> t.tr.Transport.step ());
    quiesce = (fun () -> t.tr.Transport.quiesce ());
    now = (fun () -> t.tr.Transport.now ());
    schedule = (fun ~delay f -> t.tr.Transport.schedule ~delay f);
    metrics = (fun () -> metrics t);
    blocking_writes;
    blocking_reads;
    set_tracing = (fun flag -> t.tr.Transport.set_tracing flag);
    msc =
      (fun () ->
        Repro_msgpass.Msc.render ~n_nodes:t.tr.Transport.n_nodes ~label
          (t.tr.Transport.trace ()));
    (* a checkpoint must carry the base accounting along with the
       protocol's own state, or a restored node would under-report *)
    snapshot =
      Option.map
        (fun (snap, _) () ->
          Marshal.to_string (t.applied, t.mentioned, snap ()) [])
        state;
    restore =
      Option.map
        (fun (_, rest) blob ->
          let (applied, mentioned, inner) : int * Bitset.t array * string =
            Marshal.from_string blob 0
          in
          t.applied <- applied;
          Array.iteri (fun i b -> t.mentioned.(i) <- b) mentioned;
          rest inner)
        state;
  }
