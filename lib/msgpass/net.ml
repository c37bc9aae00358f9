module Rng = Repro_util.Rng
module Eventq = Repro_util.Eventq
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

type 'msg t = {
  n : int;
  latency : Latency.t;
  service_time : int;
  fifo : bool;
  rng : Rng.t;
  queue : 'msg pending Eventq.t;
  mutable clock : int; (* never behind [Eventq.time queue] *)
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

let create ?(fifo = true) ?(service_time = 0) ~n ~latency ~seed () =
  if n <= 0 then invalid_arg "Net.create: need at least one node";
  if service_time < 0 then invalid_arg "Net.create: negative service time";
  {
    n;
    latency;
    service_time;
    fifo;
    rng = Rng.create seed;
    queue = Eventq.create ();
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

(* Hold a delivery back to the channel's FIFO horizon and the
   destination's service horizon, advancing both past it. *)
let clamp t ~src ~dst time =
  let time =
    if not t.fifo then time
    else begin
      (* per-link delivery order matches send order *)
      let time = Int.max time t.fifo_horizon.(src).(dst) in
      t.fifo_horizon.(src).(dst) <- time + 1;
      time
    end
  in
  if t.service_time = 0 then time
  else begin
    (* queue at the destination: one delivery per service interval *)
    let time = Int.max time t.service_horizon.(dst) in
    t.service_horizon.(dst) <- time + t.service_time;
    time
  end

let send t ~src ~dst ~control_bytes ~payload_bytes msg =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Net.send: bad endpoint";
  let latency = Latency.sample t.latency t.rng ~src ~dst in
  (* Each send steps the stream past two draws that decide nothing (the
     drop and duplicate coins of an earlier fault model): removing them
     would shift every seeded latency and move every golden digest. *)
  Rng.skip t.rng 2;
  let deliver_time = clamp t ~src ~dst (t.clock + latency) in
  let envelope =
    { src; dst; send_time = t.clock; deliver_time; control_bytes; payload_bytes; msg }
  in
  t.sent <- t.sent + 1;
  t.node_sent.(src) <- t.node_sent.(src) + 1;
  t.control_bytes <- t.control_bytes + control_bytes;
  t.payload_bytes <- t.payload_bytes + payload_bytes;
  if t.tracing then record t (Sent envelope);
  Eventq.push t.queue deliver_time (Deliver envelope)

let at t ~delay f =
  if delay < 0 then invalid_arg "Net.at: negative delay";
  Eventq.push t.queue (t.clock + delay) (Timer f)

let step t =
  if Eventq.is_empty t.queue then false
  else begin
    let pending = Eventq.pop t.queue in
    t.clock <- Int.max t.clock (Eventq.time t.queue);
    (match pending with
    | Timer f -> f ()
    | Deliver envelope ->
        t.delivered <- t.delivered + 1;
        t.node_received.(envelope.dst) <- t.node_received.(envelope.dst) + 1;
        if t.tracing then record t (Delivered envelope);
        t.handlers.(envelope.dst) envelope);
    true
  end

let run ?(max_events = 10_000_000) t =
  let rec loop budget =
    if budget = 0 then
      failwith "Net.run: event budget exhausted (livelock or unbounded polling?)"
    else if step t then loop (budget - 1)
  in
  loop max_events

let run_until ?(max_events = 10_000_000) t deadline =
  let rec loop budget =
    if (not (Eventq.is_empty t.queue)) && Eventq.min_time t.queue <= deadline then begin
      if budget = 0 then
        failwith
          "Net.run_until: event budget exhausted (livelock or unbounded polling?)";
      ignore (step t);
      loop (budget - 1)
    end
  in
  loop max_events;
  t.clock <- Int.max t.clock deadline

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
