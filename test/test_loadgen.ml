(* Load-generator tier: deterministic schedules, mix parsing, the
   bounded-memory percentile sketch's error bound, and a small end-to-end
   open-loop run over real sockets (forked nodes + client, pipelined
   replies matched by request id). *)

module Mix = Repro_loadgen.Mix
module Client = Repro_loadgen.Client
module Harness = Repro_loadgen.Harness
module Rpc = Repro_transport.Rpc
module Distribution = Repro_sharegraph.Distribution
module Registry = Repro_core.Registry
module Stats = Repro_util.Stats
module Rng = Repro_util.Rng

let dist4 =
  Distribution.of_lists ~n_vars:3 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]

(* --- plan determinism -------------------------------------------------------- *)

let plan ~seed =
  Client.plan ~mix:Mix.scans ~dist:dist4 ~rate:5_000.0 ~duration_ms:400 ~seed

let test_plan_deterministic () =
  let a = plan ~seed:42 and b = plan ~seed:42 in
  Alcotest.(check int) "same length" (Array.length a) (Array.length b);
  Array.iteri
    (fun i (ea : Client.event) ->
      let eb = b.(i) in
      Alcotest.(check int) "at_us" ea.at_us eb.at_us;
      Alcotest.(check int) "target" ea.target eb.target;
      Alcotest.(check bool) "request" true (ea.request = eb.request))
    a;
  Alcotest.(check bool) "plan is non-trivial" true (Array.length a > 100)

let test_plan_seed_sensitive () =
  let a = plan ~seed:42 and b = plan ~seed:43 in
  let same =
    Array.length a = Array.length b
    && Array.for_all2 (fun (x : Client.event) y -> x = y) a b
  in
  Alcotest.(check bool) "different seed, different schedule" false same

let test_plan_shape () =
  let events = plan ~seed:7 in
  let duration_us = 400 * 1000 in
  Array.iter
    (fun (ev : Client.event) ->
      Alcotest.(check bool) "arrival inside window" true
        (ev.at_us >= 0 && ev.at_us < duration_us);
      Alcotest.(check bool) "target is a replica" true
        (ev.target >= 0 && ev.target < Distribution.n_procs dist4);
      match ev.request with
      | Rpc.Op (Rpc.Read { var } | Rpc.Write { var; _ }) ->
          (* single ops go to a holder of the variable *)
          Alcotest.(check bool) "targets a holder" true
            (List.mem ev.target (Distribution.holders dist4 var))
      | Rpc.Batch ops ->
          Alcotest.(check bool) "scan is bounded" true
            (Array.length ops >= 1 && Array.length ops <= Mix.scans.Mix.scan_len);
          Array.iter
            (function
              | Rpc.Read { var } ->
                  Alcotest.(check bool) "scan reads own vars" true
                    (List.mem var (Distribution.vars_of dist4 ev.target))
              | Rpc.Write _ -> Alcotest.fail "scan contains a write")
            ops)
    events;
  (* arrivals are sorted: the open-loop runner submits in order *)
  let sorted = ref true in
  Array.iteri
    (fun i (ev : Client.event) ->
      if i > 0 && ev.at_us < events.(i - 1).at_us then sorted := false)
    events;
  Alcotest.(check bool) "arrivals sorted" true !sorted

(* --- mix parsing ------------------------------------------------------------- *)

let test_mix_roundtrip () =
  List.iter
    (fun (name, m) ->
      (match Mix.parse name with
      | Ok m' -> Alcotest.(check bool) (name ^ " parses to itself") true (m = m')
      | Error e -> Alcotest.fail (name ^ ": " ^ e));
      match Mix.parse (Mix.to_string m) with
      | Ok m' ->
          Alcotest.(check bool) (name ^ " round-trips") true (m = m')
      | Error e -> Alcotest.fail (name ^ " to_string: " ^ e))
    Mix.named;
  (match Mix.parse "r=0.5,w=0.3,s=0.2,len=4" with
  | Ok m ->
      Alcotest.(check bool) "key=value form" true
        (m = { Mix.read = 0.5; write = 0.3; scan = 0.2; scan_len = 4 })
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Mix.parse bad with
      | Ok _ -> Alcotest.fail (bad ^ " should be rejected")
      | Error _ -> ())
    [ "r=0.9,w=0.9"; "r=-1,w=2"; "nonsense"; "r=0.5,s=0.5,len=0" ]

(* --- sketch percentile error bound ------------------------------------------- *)

(* The sketch documents a relative error of [sqrt gamma - 1] per
   percentile (bucket representatives at geometric midpoints).  Feed the
   same heavy-tailed stream to an exact accumulator and a sketch and
   check the documented bound, with a hair of slack for the exact side's
   own interpolation between order statistics. *)
let test_sketch_error_bound () =
  let gamma = 1.02 in
  let bound = (sqrt gamma -. 1.0) +. 0.005 in
  let exact = Stats.create () in
  let sketch = Stats.create_sketch ~gamma () in
  let rng = Rng.create 2024 in
  for _ = 1 to 20_000 do
    let v = Rng.exponential rng 1_000.0 +. Rng.float rng 50.0 in
    Stats.add exact v;
    Stats.add sketch v
  done;
  Alcotest.(check bool) "sketch mode" true (Stats.is_sketch sketch);
  Alcotest.(check int) "counts agree" (Stats.count exact) (Stats.count sketch);
  List.iter
    (fun p ->
      let e = Stats.percentile exact p and s = Stats.percentile sketch p in
      let rel = abs_float (s -. e) /. e in
      if rel > bound then
        Alcotest.failf "p%.0f: sketch %.2f vs exact %.2f (rel %.4f > %.4f)" p s
          e rel bound)
    [ 10.0; 50.0; 90.0; 95.0; 99.0; 99.9 ]

(* --- end-to-end open-loop smoke ---------------------------------------------- *)

let harness_config protocol =
  match Registry.find protocol with
  | None -> Alcotest.fail (protocol ^ " not registered")
  | Some spec ->
      {
        Harness.protocol = spec;
        n = 2;
        clients = 1;
        rate = 800.0;
        duration_ms = 400;
        mix = Mix.balanced;
        seed = 11;
        coalesce = 4;
        drain_plan = false;
      }

let test_harness_smoke () =
  match Harness.run (harness_config "pram-partial") with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "ops completed" true (r.Harness.completed_ops > 0);
      (* pipelined replies all matched back: nothing timed out, nothing
         failed, every submitted op came home *)
      Alcotest.(check int) "no timeouts" 0 r.Harness.timeouts;
      Alcotest.(check int) "no failures" 0 r.Harness.failed_ops;
      Alcotest.(check int) "every op answered" r.Harness.attempted_ops
        r.Harness.completed_ops;
      Alcotest.(check bool) "nodes served the ops" true
        (r.Harness.client_ops_served >= r.Harness.completed_ops);
      Alcotest.(check bool) "latency sketch populated" true
        (Stats.count r.Harness.lat_us > 0);
      Alcotest.(check bool) "throughput positive" true (r.Harness.ops_per_sec > 0.0)

let test_harness_rejects_blocking () =
  match Registry.find "atomic-token" with
  | None -> () (* registry without the blocking protocol: nothing to check *)
  | Some spec ->
      let cfg = { (harness_config "pram-partial") with Harness.protocol = spec } in
      (match Harness.run cfg with
      | Ok _ -> Alcotest.fail "blocking protocol must be rejected"
      | Error _ -> ())

let () =
  Alcotest.run "loadgen"
    [
      ( "plan",
        [
          Alcotest.test_case "deterministic in the seed" `Quick
            test_plan_deterministic;
          Alcotest.test_case "seed-sensitive" `Quick test_plan_seed_sensitive;
          Alcotest.test_case "well-formed events" `Quick test_plan_shape;
        ] );
      ("mix", [ Alcotest.test_case "parse round-trip" `Quick test_mix_roundtrip ]);
      ( "stats",
        [
          Alcotest.test_case "sketch percentile error bound" `Quick
            test_sketch_error_bound;
        ] );
      ( "harness",
        [
          Alcotest.test_case "open-loop smoke (pram-partial, n=2)" `Quick
            test_harness_smoke;
          Alcotest.test_case "blocking protocols rejected" `Quick
            test_harness_rejects_blocking;
        ] );
    ]
