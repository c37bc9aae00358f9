(* The serve workloads' input: an open-loop schedule drawn from the seed
   before any node process exists, stored off the OCaml heap.

   [Repro_loadgen.Client.plan] draws each one-second window (seeded from
   the run seed and the window index), so building the inputs never holds
   more than one window of event records on the heap at any --seconds.
   Write values are renumbered 1, 2, ... across windows, which makes every
   value unique over the whole plan: a read's reply names the one write it
   saw. *)

module Client = Repro_loadgen.Client
module Mix = Repro_loadgen.Mix
module Rpc = Repro_transport.Rpc
module Distribution = Repro_sharegraph.Distribution
module Workload_spec = Repro_cluster.Workload_spec

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints n : ints =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max n 1) in
  Bigarray.Array1.fill a 0;
  a

let rate = 100_000.0
let n_nodes = 2

type t = {
  n : int;  (** planned ops *)
  at_us : ints;  (** due time, µs from the start of the load *)
  code : ints;  (** [value lsl 8 lor var lsl 1 lor target]; value 0 = read *)
  writes : int;
  write_op : ints;  (** [write_op.{v}]: op index of the write of value [v] *)
  fanout : int;  (** Σ over planned writes of (holders - 1) *)
  dist : Distribution.t;
}

let target p i = p.code.{i} land 1
let var p i = (p.code.{i} lsr 1) land 0x7F
let value p i = p.code.{i} lsr 8
let is_write p i = value p i > 0

let window_seed seed k = (seed * 1_000_003) + k

let dist_of ~seed =
  match Workload_spec.make ~name:"load" ~n:n_nodes ~seed with
  | Ok spec -> spec.Workload_spec.dist
  | Error e -> failwith e

let window ~mix ~dist ~seed k =
  Client.plan ~mix ~dist ~rate ~duration_ms:1000 ~seed:(window_seed seed k)

let build ~mix ~seed ~seconds =
  let dist = dist_of ~seed in
  if Distribution.n_vars dist > 0x80 then failwith "plan: too many variables";
  let cap = ref (int_of_float (rate *. float_of_int seconds *. 1.05) + 1024) in
  let at_us = ref (ints !cap) and code = ref (ints !cap) in
  let write_op = ref (ints (!cap + 1)) in
  let grow (a : ints ref) size =
    let b = ints size in
    Bigarray.Array1.blit !a (Bigarray.Array1.sub b 0 (Bigarray.Array1.dim !a));
    a := b
  in
  let n = ref 0 and writes = ref 0 and fanout = ref 0 in
  for k = 0 to seconds - 1 do
    Array.iter
      (fun (ev : Client.event) ->
        if !n >= !cap then begin
          cap := 2 * !cap;
          grow at_us !cap;
          grow code !cap;
          grow write_op (!cap + 1)
        end;
        let i = !n in
        !at_us.{i} <- ev.Client.at_us + (k * 1_000_000);
        let var, value =
          match ev.Client.request with
          | Rpc.Op (Rpc.Read { var }) -> (var, 0)
          | Rpc.Op (Rpc.Write { var; value = _ }) ->
              incr writes;
              !write_op.{!writes} <- i;
              fanout :=
                !fanout + (List.length (Distribution.holders dist var) - 1);
              (var, !writes)
          | Rpc.Batch _ -> failwith "plan: scans are not part of these mixes"
        in
        !code.{i} <- (value lsl 8) lor (var lsl 1) lor ev.Client.target;
        incr n)
      (window ~mix ~dist ~seed k)
  done;
  {
    n = !n;
    at_us = !at_us;
    code = !code;
    writes = !writes;
    write_op = !write_op;
    fanout = !fanout;
    dist;
  }

let request p i =
  let var = var p i in
  if is_write p i then Rpc.Op (Rpc.Write { var; value = value p i })
  else Rpc.Op (Rpc.Read { var })

(* The pinned input digest: window 0 of a seed's schedule exactly as
   [Client.plan] draws it (due time, node, kind, variable, value), so an
   edit to the schedule generator, the mix or the placement shows as a
   digest change at any --seconds. *)
let digest ~mix ~seed =
  let dist = dist_of ~seed in
  let b = Buffer.create (1 lsl 20) in
  Array.iter
    (fun (ev : Client.event) ->
      let kind, var, value =
        match ev.Client.request with
        | Rpc.Op (Rpc.Read { var }) -> (0, var, 0)
        | Rpc.Op (Rpc.Write { var; value }) -> (1, var, value)
        | Rpc.Batch ops -> (2, Array.length ops, 0)
      in
      Printf.bprintf b "%d %d %d %d %d\n" ev.Client.at_us ev.Client.target kind
        var value)
    (window ~mix ~dist ~seed 0);
  Digest.to_hex (Digest.string (Buffer.contents b))
