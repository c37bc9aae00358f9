module Rng = Repro_util.Rng
module Pqueue = Repro_util.Pqueue
module Intheap = Repro_util.Intheap
module Ringbuf = Repro_util.Ringbuf

type 'msg envelope = {
  src : int;
  dst : int;
  send_time : int;
  deliver_time : int;
  control_bytes : int;
  payload_bytes : int;
  msg : 'msg;
}

type 'msg event = Sent of 'msg envelope | Delivered of 'msg envelope

type 'msg pending = Deliver of 'msg envelope | Timer of (unit -> unit)

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  total_control_bytes : int;
  total_payload_bytes : int;
  retransmits : int;
  dups_suppressed : int;
  reconnects : int;
  overhead_bytes : int;
  per_node_sent : int array;
  per_node_received : int array;
}

(* Scheduler keys pack (deliver_time, tie-break seq) into one immediate int:
   31 bits of time above 31 bits of sequence number, so the heap compares
   keys with a single unboxed [<] and pushes allocate nothing.  The first
   event whose time or sequence number leaves that range flips the engine
   onto [wide], a tuple-keyed queue with the identical ordering, carrying
   every still-pending event along — behaviour is unchanged, only the
   constant factor. *)
let time_bits = 31

let packed_limit = 1 lsl time_bits

let seq_mask = packed_limit - 1

type 'msg t = {
  n : int;
  latency : Latency.t;
  service_time : int;
  fifo : bool;
  rng : Rng.t;
  queue : 'msg pending Intheap.t; (* key: (time lsl 31) lor seq *)
  mutable wide : (int * int, 'msg pending) Pqueue.t option;
      (* overflow fallback: explicit (time, seq) keys, same order *)
  mutable seq : int;
  mutable clock : int;
  handlers : ('msg envelope -> unit) array;
  fifo_horizon : int array array;
      (* fifo_horizon.(src).(dst): earliest delivery time that keeps the
         channel FIFO w.r.t. messages already scheduled. *)
  service_horizon : int array;
      (* service_horizon.(dst): earliest delivery time that respects the
         destination's service rate. *)
  (* accounting *)
  mutable sent : int;
  mutable delivered : int;
  mutable control_bytes : int;
  mutable payload_bytes : int;
  node_sent : int array;
  node_received : int array;
  mutable tracing : bool;
  events : 'msg event Ringbuf.t;
}

let key_compare (t1, s1) (t2, s2) =
  let c = compare (t1 : int) t2 in
  if c <> 0 then c else compare (s1 : int) s2

let create ?(fifo = true) ?(service_time = 0) ~n ~latency ~seed () =
  if n <= 0 then invalid_arg "Net.create: need at least one node";
  if service_time < 0 then invalid_arg "Net.create: negative service time";
  {
    n;
    latency;
    service_time;
    fifo;
    rng = Rng.create seed;
    queue = Intheap.create ();
    wide = None;
    seq = 0;
    clock = 0;
    handlers = Array.make n (fun _ -> ());
    fifo_horizon = Array.make_matrix n n 0;
    service_horizon = Array.make n 0;
    sent = 0;
    delivered = 0;
    control_bytes = 0;
    payload_bytes = 0;
    node_sent = Array.make n 0;
    node_received = Array.make n 0;
    tracing = false;
    events = Ringbuf.create ();
  }

let n_nodes t = t.n

let now t = t.clock

let set_handler t node f =
  if node < 0 || node >= t.n then invalid_arg "Net.set_handler: bad node";
  t.handlers.(node) <- f

(* Call sites guard on [t.tracing] BEFORE building the event, so tracing
   costs one branch — no allocation — when off. *)
let record t event = Ringbuf.push_back t.events event

let widen t =
  let q = Pqueue.create ~cmp:key_compare () in
  Intheap.iter t.queue (fun key pending ->
      Pqueue.push q (key lsr time_bits, key land seq_mask) pending);
  Intheap.clear t.queue;
  t.wide <- Some q;
  q

let push t time pending =
  t.seq <- t.seq + 1;
  match t.wide with
  | Some q -> Pqueue.push q (time, t.seq) pending
  | None ->
      if time < packed_limit && t.seq < packed_limit then
        Intheap.push t.queue ((time lsl time_bits) lor t.seq) pending
      else Pqueue.push (widen t) (time, t.seq) pending

let schedule_delivery t envelope =
  let deliver_time =
    if not t.fifo then envelope.deliver_time
    else begin
      (* Clamp to the channel horizon so per-link delivery order matches
         send order, then advance the horizon past this message. *)
      let horizon = t.fifo_horizon.(envelope.src).(envelope.dst) in
      let time = Stdlib.max envelope.deliver_time horizon in
      t.fifo_horizon.(envelope.src).(envelope.dst) <- time + 1;
      time
    end
  in
  let deliver_time =
    if t.service_time = 0 then deliver_time
    else begin
      (* queue at the destination: one delivery per service interval *)
      let time = Stdlib.max deliver_time t.service_horizon.(envelope.dst) in
      t.service_horizon.(envelope.dst) <- time + t.service_time;
      time
    end
  in
  let envelope =
    if deliver_time = envelope.deliver_time then envelope
    else { envelope with deliver_time }
  in
  push t deliver_time (Deliver envelope)

let send t ~src ~dst ~control_bytes ~payload_bytes msg =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Net.send: bad endpoint";
  let latency = Latency.sample t.latency t.rng ~src ~dst in
  let envelope =
    {
      src;
      dst;
      send_time = t.clock;
      deliver_time = t.clock + latency;
      control_bytes;
      payload_bytes;
      msg;
    }
  in
  t.sent <- t.sent + 1;
  t.node_sent.(src) <- t.node_sent.(src) + 1;
  t.control_bytes <- t.control_bytes + control_bytes;
  t.payload_bytes <- t.payload_bytes + payload_bytes;
  if t.tracing then record t (Sent envelope);
  (* Each send steps the stream past two draws that decide nothing (the
     drop and duplicate coins of an earlier fault model): removing them
     would shift every seeded latency and move every golden digest. *)
  Rng.skip t.rng 2;
  schedule_delivery t envelope

let at t ~delay f =
  if delay < 0 then invalid_arg "Net.at: negative delay";
  push t (t.clock + delay) (Timer f)

let dispatch t time pending =
  t.clock <- Stdlib.max t.clock time;
  match pending with
  | Timer f -> f ()
  | Deliver envelope ->
      t.delivered <- t.delivered + 1;
      t.node_received.(envelope.dst) <- t.node_received.(envelope.dst) + 1;
      if t.tracing then record t (Delivered envelope);
      t.handlers.(envelope.dst) envelope

let step t =
  match t.wide with
  | Some q -> (
      match Pqueue.pop q with
      | None -> false
      | Some ((time, _), pending) ->
          dispatch t time pending;
          true)
  | None ->
      if Intheap.is_empty t.queue then false
      else begin
        let time = Intheap.min_key t.queue lsr time_bits in
        let pending = Intheap.pop_min t.queue in
        dispatch t time pending;
        true
      end

(* Earliest pending event time, or min_int when the queue is empty. *)
let next_time t =
  match t.wide with
  | Some q -> (
      match Pqueue.peek q with
      | Some ((time, _), _) -> time
      | None -> min_int)
  | None ->
      if Intheap.is_empty t.queue then min_int
      else Intheap.min_key t.queue lsr time_bits

let run ?(max_events = 10_000_000) t =
  let rec loop budget =
    if budget = 0 then
      failwith "Net.run: event budget exhausted (livelock or unbounded polling?)"
    else if step t then loop (budget - 1)
  in
  loop max_events

let run_until ?(max_events = 10_000_000) t deadline =
  let rec loop budget =
    if next_time t <> min_int && next_time t <= deadline then begin
      if budget = 0 then
        failwith
          "Net.run_until: event budget exhausted (livelock or unbounded polling?)";
      ignore (step t);
      loop (budget - 1)
    end
  in
  loop max_events;
  t.clock <- Stdlib.max t.clock deadline

let stats t =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped = 0;
    duplicated = 0;
    total_control_bytes = t.control_bytes;
    total_payload_bytes = t.payload_bytes;
    retransmits = 0;
    dups_suppressed = 0;
    reconnects = 0;
    overhead_bytes = 0;
    per_node_sent = Array.copy t.node_sent;
    per_node_received = Array.copy t.node_received;
  }

let set_tracing t flag = t.tracing <- flag

let trace t = Ringbuf.to_list t.events
