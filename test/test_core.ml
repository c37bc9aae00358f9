(* Tests for Repro_core: every protocol against its consistency contract,
   the efficiency (mention) audit of Theorem 1, the runner, and workloads. *)

module Memory = Repro_core.Memory
module Registry = Repro_core.Registry
module Runner = Repro_core.Runner
module Workload = Repro_core.Workload
module Pram_partial = Repro_core.Pram_partial
module Causal_full = Repro_core.Causal_full
module Causal_partial = Repro_core.Causal_partial
module Causal_adhoc = Repro_core.Causal_adhoc
module Slow_partial = Repro_core.Slow_partial
module Seq_sequencer = Repro_core.Seq_sequencer
module Causal_buf = Repro_core.Causal_buf
module Atomic_primary = Repro_core.Atomic_primary
module Distribution = Repro_sharegraph.Distribution
module Share_graph = Repro_sharegraph.Share_graph
module Checker = Repro_history.Checker
module History = Repro_history.History
module Op = Repro_history.Op
module Latency = Repro_msgpass.Latency
module Fault = Repro_msgpass.Fault
module Rng = Repro_util.Rng
module Transport = Repro_transport.Transport
module Chaos = Repro_transport.Chaos

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let plan_of text =
  match Fault.Plan.parse text with
  | Ok p -> p
  | Error msg -> Alcotest.failf "bad plan %S: %s" text msg

let consistent criterion h =
  match Checker.check criterion h with
  | Checker.Consistent -> true
  | Checker.Inconsistent -> false
  | Checker.Undecidable _ -> Alcotest.fail "undecidable history from a protocol run"

(* A partial distribution with hoops: 4 processes in a cycle of shared
   variables (see test_sharegraph). *)
let hoopy = Distribution.of_lists ~n_vars:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ]

(* A hoop-free partial distribution. *)
let hoopfree = Distribution.clustered ~n_procs:6 ~n_vars:4 ~clusters:2

let small_profile = { Workload.ops_per_proc = 6; read_ratio = 0.5; max_think = 3 }

let dist_for spec =
  if spec.Registry.requires_full_replication then Distribution.full ~n_procs:4 ~n_vars:3
  else hoopy

(* --- every protocol satisfies its contract -------------------------------- *)

let contract_tests =
  List.map
    (fun spec ->
      let name =
        Printf.sprintf "%s guarantees %s" spec.Registry.name
          (Checker.criterion_name spec.Registry.guarantees)
      in
      qcheck
        (QCheck.Test.make ~name ~count:30 QCheck.small_int (fun seed ->
             let memory = spec.Registry.make ~dist:(dist_for spec) ~seed () in
             let h = Workload.run_random ~profile:small_profile ~seed:(seed + 1) memory in
             consistent spec.Registry.guarantees h)))
    Registry.all

(* The criterion each protocol guarantees must also hold on the hoop-free
   distribution (sanity: guarantee is distribution-independent). *)
let contract_hoopfree_tests =
  List.filter_map
    (fun spec ->
      if spec.Registry.requires_full_replication then None
      else
        Some
          (qcheck
             (QCheck.Test.make
                ~name:(Printf.sprintf "%s on hoop-free distribution" spec.Registry.name)
                ~count:15 QCheck.small_int
                (fun seed ->
                  let memory = spec.Registry.make ~dist:hoopfree ~seed () in
                  let h =
                    Workload.run_random ~profile:small_profile ~seed:(seed + 1) memory
                  in
                  consistent spec.Registry.guarantees h))))
    Registry.all

(* --- efficiency audits (Theorem 1) ----------------------------------------- *)

let test_efficient_protocols_audit =
  List.filter_map
    (fun spec ->
      if spec.Registry.requires_full_replication then None
      else
        Some
          (qcheck
             (QCheck.Test.make
                ~name:
                  (Printf.sprintf "%s mention audit (%s)" spec.Registry.name
                     (if spec.Registry.efficient then "stays in cliques" else "leaks"))
                ~count:15 QCheck.small_int
                (fun seed ->
                  let memory = spec.Registry.make ~dist:hoopy ~seed () in
                  let _h =
                    Workload.run_random ~profile:small_profile ~seed:(seed + 1) memory
                  in
                  let leaks = Memory.total_offclique_mentions memory in
                  if spec.Registry.efficient then leaks = 0
                  else
                    (* the inefficient protocols must leak on this workload
                       provided at least one message was sent *)
                    (memory.Memory.metrics ()).Memory.messages_sent = 0 || leaks > 0))))
    Registry.all

let test_causal_partial_informs_everyone () =
  (* On the hoopy distribution each process hears about every variable. *)
  let memory = Causal_partial.create ~dist:hoopy ~seed:5 () in
  let _h = Workload.run_random ~profile:{ small_profile with read_ratio = 0.0 } ~seed:6 memory in
  let m = memory.Memory.metrics () in
  Array.iteri
    (fun x mentioned ->
      check Alcotest.int
        (Printf.sprintf "everyone informed about x%d" x)
        4
        (Repro_util.Bitset.cardinal mentioned))
    m.Memory.mentioned_at

let test_pram_strictly_cheaper_control () =
  let run make =
    let memory = make ~dist:hoopy ~seed:11 () in
    let _ = Workload.run_random ~profile:small_profile ~seed:12 memory in
    (memory.Memory.metrics ()).Memory.control_bytes
  in
  let pram = run (fun ~dist ~seed () -> Pram_partial.create ~dist ~seed ()) in
  let causal = run (fun ~dist ~seed () -> Causal_partial.create ~dist ~seed ()) in
  check Alcotest.bool
    (Printf.sprintf "pram %d < causal %d control bytes" pram causal)
    true (pram < causal)

(* --- causal-full ------------------------------------------------------------ *)

let test_causal_full_rejects_partial () =
  Alcotest.check_raises "partial rejected"
    (Invalid_argument "Causal_full.create: requires full replication") (fun () ->
      ignore (Causal_full.create ~dist:hoopy ~seed:0 ()))

(* --- pram: FIFO dependence ablation ----------------------------------------- *)

let violation_exists ~make ~criterion ~seeds =
  List.exists
    (fun seed ->
      let memory = make ~seed in
      let h =
        Workload.run_random
          ~profile:{ Workload.ops_per_proc = 8; read_ratio = 0.5; max_think = 2 }
          ~seed:(seed + 1) memory
      in
      not (consistent criterion h))
    (List.init seeds Fun.id)

let test_pram_guard_survives_reordering =
  qcheck
    (QCheck.Test.make ~name:"pram_with_guard_survives_reordering" ~count:25
       QCheck.small_int (fun seed ->
         let transport = Transport.sim ~fifo:false ~latency:Latency.lan ~seed () in
         let memory = Pram_partial.create ~transport ~dist:hoopy ~seed () in
         let h = Workload.run_random ~profile:small_profile ~seed:(seed + 1) memory in
         consistent Checker.Pram h))

let test_pram_unguarded_breaks_under_reordering () =
  (* Without the sequence guard, reordering must eventually produce a
     non-PRAM history (textbook protocol depends on FIFO channels). *)
  let make ~seed =
    let transport =
      Transport.sim ~fifo:false ~latency:(Latency.uniform ~lo:1 ~hi:40) ~seed ()
    in
    Pram_partial.create ~transport ~sequence_guard:false ~dist:hoopy ~seed ()
  in
  check Alcotest.bool "violation found" true
    (violation_exists ~make ~criterion:Checker.Pram ~seeds:40)

let test_pram_guard_tolerates_duplicates =
  qcheck
    (QCheck.Test.make ~name:"pram_with_guard_tolerates_duplicates" ~count:15
       QCheck.small_int (fun seed ->
         let transport, _ =
           Chaos.wrap ~plan:(plan_of (Printf.sprintf "seed=%d,dup=0.3" seed))
             (Transport.sim ~latency:Latency.lan ~seed ())
         in
         let memory = Pram_partial.create ~transport ~dist:hoopy ~seed () in
         let h = Workload.run_random ~profile:small_profile ~seed:(seed + 1) memory in
         consistent Checker.Pram h))

(* --- causal-adhoc: Theorem 1 at the protocol level --------------------------- *)

let test_adhoc_causal_on_hoopfree =
  qcheck
    (QCheck.Test.make ~name:"adhoc_is_causal_on_hoop_free_distributions" ~count:25
       QCheck.small_int (fun seed ->
         let memory = Causal_adhoc.create ~dist:hoopfree ~seed () in
         let h = Workload.run_random ~profile:small_profile ~seed:(seed + 1) memory in
         consistent Checker.Causal h))

(* The deterministic hoop-leak construction: variables y=0, z=1, x=2 over
   processes p0{y}, p1{y,z}, p2{z,x}, p3{x,y}.  C(y) = {0,1,3} and [1;2;3]
   is a y-hoop.  The causal chain w0(y) -> w1(z) -> w2(x) reaches p3
   through the hoop interior p2, but the ad-hoc summaries never mention y
   on the z- and x-legs; with a slow 0->3 link p3 reads the new x before
   the old y. *)
let adhoc_violation_dist = Distribution.of_lists ~n_vars:3 [ [ 0 ]; [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]

let adhoc_violation_latency =
  Latency.per_link (fun ~src ~dst ->
      if src = 0 && dst = 3 then Latency.constant 10_000 else Latency.constant 2)

let adhoc_violation_programs =
  [|
    (fun (api : Runner.api) -> api.Runner.write 0 (Op.Val 1));
    (fun (api : Runner.api) ->
      api.Runner.await (fun () -> api.Runner.peek 0 = Op.Val 1);
      ignore (api.Runner.read 0);
      api.Runner.write 1 (Op.Val 2));
    (fun (api : Runner.api) ->
      api.Runner.await (fun () -> api.Runner.peek 1 = Op.Val 2);
      ignore (api.Runner.read 1);
      api.Runner.write 2 (Op.Val 3));
    (fun (api : Runner.api) ->
      api.Runner.await (fun () -> api.Runner.peek 2 = Op.Val 3);
      ignore (api.Runner.read 2);
      ignore (api.Runner.read 0));
  |]

let test_adhoc_violates_causal_through_hoop () =
  let memory =
    Causal_adhoc.create ~latency:adhoc_violation_latency ~dist:adhoc_violation_dist
      ~seed:1 ()
  in
  let h = Runner.run memory ~programs:adhoc_violation_programs in
  (* p3 must have read x=3 then y=bottom *)
  let p3 = History.local h 3 in
  check Alcotest.bool "p3 saw fresh x" true
    (Array.exists (fun (o : Op.t) -> o.Op.var = 2 && o.Op.value = Op.Val 3) p3);
  check Alcotest.bool "p3 saw stale y" true
    (Array.exists (fun (o : Op.t) -> o.Op.var = 0 && o.Op.value = Op.Init) p3);
  check Alcotest.bool "history is not causal" false (consistent Checker.Causal h);
  check Alcotest.bool "history is still PRAM" true (consistent Checker.Pram h)

let test_causal_partial_handles_same_scenario () =
  (* The inefficient causal protocol pays the metadata broadcast and keeps
     the same scenario causal. *)
  let memory =
    Causal_partial.create ~latency:adhoc_violation_latency ~dist:adhoc_violation_dist
      ~seed:1 ()
  in
  let h = Runner.run memory ~programs:adhoc_violation_programs in
  check Alcotest.bool "causal" true (consistent Checker.Causal h)

(* --- pram-reliable: pram-partial over the session layer, lossy links ------------- *)

module Pram_reliable = Repro_core.Pram_reliable

let lossy_plan seed = plan_of (Printf.sprintf "seed=%d,drop=0.2,dup=0.1" seed)

let test_reliable_no_update_lost =
  qcheck
    (QCheck.Test.make ~name:"pram_reliable_loses_nothing_over_lossy_links" ~count:15
       QCheck.small_int (fun seed ->
         (* 20% drop + 10% duplication: after quiescence every replica has
            applied every relevant remote write, and the history is PRAM *)
         let memory =
           Pram_reliable.create ~plan:(lossy_plan seed) ~dist:hoopy ~seed ()
         in
         let h = Workload.run_random ~profile:small_profile ~seed:(seed + 1) memory in
         let expected_applies =
           History.writes h
           |> List.fold_left
                (fun acc (o : Op.t) ->
                  acc + List.length (Distribution.holders hoopy o.Op.var) - 1)
                0
         in
         let m = memory.Memory.metrics () in
         m.Memory.applied_writes = expected_applies && consistent Checker.Pram h))

let test_reliable_converges_replicas =
  qcheck
    (QCheck.Test.make ~name:"pram_reliable_replicas_agree_after_quiescence" ~count:10
       QCheck.small_int (fun seed ->
         (* single writer per variable => replicas must agree at the end *)
         let dist = Distribution.of_lists ~n_vars:2 [ [ 0; 1 ]; [ 0; 1 ] ] in
         let memory = Pram_reliable.create ~plan:(lossy_plan seed) ~dist ~seed () in
         let writer (api : Runner.api) =
           for k = 1 to 6 do
             api.Runner.write (k mod 2) (Op.Val k);
             api.Runner.sleep 2
           done
         in
         let _h = Runner.run memory ~programs:[| writer |] in
         memory.Memory.read ~proc:0 ~var:0 = memory.Memory.read ~proc:1 ~var:0
         && memory.Memory.read ~proc:0 ~var:1 = memory.Memory.read ~proc:1 ~var:1))

let test_reliable_retransmits () =
  (* with heavy loss, the session overhead must exceed the loss-free one *)
  let overhead ?plan () =
    let memory = Pram_reliable.create ?plan ~dist:hoopy ~seed:7 () in
    let _h = Workload.run_random ~profile:small_profile ~seed:8 memory in
    (memory.Memory.metrics ()).Memory.overhead_bytes
  in
  let lossy = overhead ~plan:(plan_of "drop=0.4") () in
  let clean = overhead () in
  check Alcotest.bool
    (Printf.sprintf "retransmissions visible (%d > %d)" lossy clean)
    true (lossy > clean)

(* Loss never reaches the paper's metric: whatever the links do, the
   protocol lane of pram-reliable is pram-partial's, and only the session
   overhead grows. *)
let test_reliable_loss_stays_in_overhead =
  qcheck
    (QCheck.Test.make ~name:"pram_reliable_loss_never_reaches_protocol_lane"
       ~count:50 QCheck.small_int (fun seed ->
         let dist =
           Distribution.random (Rng.create seed) ~n_procs:6 ~n_vars:8
             ~replicas_per_var:3
         in
         let run memory =
           ignore (Workload.run_random ~seed:(seed + 1) memory : History.t);
           memory.Memory.metrics ()
         in
         let lane (m : Memory.metrics) =
           ( m.Memory.messages_sent,
             m.Memory.control_bytes,
             m.Memory.payload_bytes,
             m.Memory.applied_writes,
             Array.map Repro_util.Bitset.elements m.Memory.mentioned_at )
         in
         let partial = run (Pram_partial.create ~dist ~seed ()) in
         let clean = run (Pram_reliable.create ~dist ~seed ()) in
         let lossy =
           run
             (Pram_reliable.create
                ~plan:(plan_of (Printf.sprintf "seed=%d,drop=0.3,dup=0.05" seed))
                ~dist ~seed ())
         in
         lane clean = lane partial
         && lane lossy = lane partial
         && partial.Memory.overhead_bytes = 0
         && lossy.Memory.overhead_bytes > clean.Memory.overhead_bytes
         && clean.Memory.overhead_bytes > 0))

(* --- causal-gossip: component-scoped propagation ------------------------------- *)

let component_graph sg =
  let n = Share_graph.n_procs sg in
  let g = Repro_util.Graph.create n in
  List.iter
    (fun (i, j, _) -> Repro_util.Graph.add_undirected_edge g i j)
    (Share_graph.edges sg);
  g

let test_gossip_mentions_stay_in_component =
  qcheck
    (QCheck.Test.make ~name:"gossip_mentions_stay_in_share_graph_component"
       ~count:15 QCheck.small_int (fun seed ->
         (* two disconnected clusters: information about a cluster-0
            variable must never reach cluster 1 *)
         let memory = Repro_core.Causal_gossip.create ~dist:hoopfree ~seed () in
         let _h = Workload.run_random ~profile:small_profile ~seed:(seed + 1) memory in
         let m = memory.Memory.metrics () in
         let sg = Share_graph.of_distribution hoopfree in
         let components = Repro_util.Graph.components (component_graph sg) in
         let component_of p =
           List.find (fun c -> List.mem p c) components
         in
         Array.for_all Fun.id
           (Array.mapi
              (fun x mentioned ->
                match Distribution.holders hoopfree x with
                | [] -> true
                | holder :: _ ->
                    let home = component_of holder in
                    Repro_util.Bitset.fold
                      (fun p acc -> acc && List.mem p home)
                      mentioned true)
              m.Memory.mentioned_at)))

let test_gossip_handles_hoop_leak_scenario () =
  (* unlike causal-adhoc, the gossip protocol carries the y-notice through
     the hoop and stays causal on the adversarial schedule *)
  let h =
    match
      List.assoc_opt "hoop-leak"
        (Repro_experiments.Experiment.adversarial_histories
           (Option.get (Registry.find "causal-gossip"))
           ~seed:9)
    with
    | Some h -> h
    | None -> Alcotest.fail "scenario missing"
  in
  check Alcotest.bool "causal through the hoop" true (consistent Checker.Causal h)

(* --- slow: strictly weaker than PRAM ----------------------------------------- *)

let test_slow_weaker_witness () =
  (* slow-partial runs on a non-FIFO transport: a PRAM violation needs a
     process observing one writer's updates to TWO shared variables out of
     program order, so use a distribution where the pair shares both. *)
  let dist = Distribution.of_lists ~n_vars:2 [ [ 0; 1 ]; [ 0; 1 ] ] in
  let writer (api : Runner.api) =
    for k = 0 to 5 do
      api.Runner.write (k mod 2) (Op.Val (k + 1));
      api.Runner.sleep 3
    done
  in
  let reader (api : Runner.api) =
    for _ = 0 to 5 do
      ignore (api.Runner.read 1);
      api.Runner.sleep 4;
      ignore (api.Runner.read 0);
      api.Runner.sleep 4
    done
  in
  let run seed =
    let memory =
      Slow_partial.create ~latency:(Latency.uniform ~lo:1 ~hi:40) ~dist ~seed ()
    in
    Runner.run memory ~programs:[| writer; reader |]
  in
  let seeds = List.init 60 Fun.id in
  (* every run is slow-consistent … *)
  List.iter
    (fun seed ->
      check Alcotest.bool (Printf.sprintf "slow (seed %d)" seed) true
        (consistent Checker.Slow (run seed)))
    seeds;
  (* … and at least one exhibits a PRAM violation *)
  check Alcotest.bool "pram violation reachable" true
    (List.exists (fun seed -> not (consistent Checker.Pram (run seed))) seeds)

(* --- runner ------------------------------------------------------------------ *)

let test_runner_records_program_order () =
  let memory = Pram_partial.create ~dist:hoopy ~seed:0 () in
  let programs =
    [|
      (fun (api : Runner.api) ->
        api.Runner.write 0 (Op.Val 1);
        ignore (api.Runner.read 0);
        api.Runner.write 1 (Op.Val 2));
    |]
  in
  let h = Runner.run memory ~programs in
  let p0 = History.local h 0 in
  check Alcotest.int "three ops" 3 (Array.length p0);
  check Alcotest.bool "order preserved" true
    (p0.(0).Op.kind = Op.Write && p0.(1).Op.kind = Op.Read && p0.(2).Op.var = 1);
  check Alcotest.bool "read own write" true (p0.(1).Op.value = Op.Val 1)

let test_runner_rejects_too_many_programs () =
  let memory = Pram_partial.create ~dist:hoopy ~seed:0 () in
  Alcotest.check_raises "too many"
    (Invalid_argument "Runner.run: more programs than processes") (fun () ->
      ignore (Runner.run memory ~programs:(Array.make 5 (fun _ -> ()))))

let test_runner_livelock () =
  let memory = Pram_partial.create ~dist:hoopy ~seed:0 () in
  let programs = [| (fun (api : Runner.api) -> api.Runner.await (fun () -> false)) |] in
  (try
     ignore (Runner.run ~max_events:1000 memory ~programs);
     Alcotest.fail "expected livelock"
   with Runner.Livelock _ -> ())

let test_runner_access_control () =
  let memory = Pram_partial.create ~dist:hoopy ~seed:0 () in
  let programs = [| (fun (api : Runner.api) -> ignore (api.Runner.read 2)) |] in
  (* p0 holds vars {0,1} only *)
  (try
     ignore (Runner.run memory ~programs);
     Alcotest.fail "expected access violation"
   with Invalid_argument _ -> ())

let test_runner_determinism () =
  let run () =
    let memory = Pram_partial.create ~dist:hoopy ~seed:33 () in
    Workload.run_random ~profile:small_profile ~seed:34 memory
  in
  check Alcotest.string "identical histories" (History.to_string (run ()))
    (History.to_string (run ()))

(* --- workload ----------------------------------------------------------------- *)

let test_workload_respects_distribution =
  qcheck
    (QCheck.Test.make ~name:"workload_respects_distribution" ~count:25 QCheck.small_int
       (fun seed ->
         let memory = Pram_partial.create ~dist:hoopy ~seed () in
         let h = Workload.run_random ~profile:small_profile ~seed:(seed + 1) memory in
         Result.is_ok (Distribution.restrict_history hoopy h)))

let test_workload_differentiated =
  qcheck
    (QCheck.Test.make ~name:"workload_histories_differentiated" ~count:25 QCheck.small_int
       (fun seed ->
         let memory = Pram_partial.create ~dist:hoopy ~seed () in
         let h = Workload.run_random ~profile:small_profile ~seed:(seed + 1) memory in
         History.is_differentiated h))

let test_workload_validation () =
  Alcotest.check_raises "bad ratio"
    (Invalid_argument "Workload.programs: read_ratio out of [0,1]") (fun () ->
      ignore
        (Workload.programs (Rng.create 0) hoopy
           { Workload.ops_per_proc = 1; read_ratio = 1.5; max_think = 0 }))

(* --- blocking protocols (fiber-based) ----------------------------------------- *)

let test_sequencer_blocking_write_latency () =
  (* a write through the sequencer takes at least a round trip *)
  let dist = Distribution.full ~n_procs:2 ~n_vars:1 in
  let memory = Seq_sequencer.create ~latency:(Latency.constant 10) ~dist ~seed:0 () in
  let completed_at = ref (-1) in
  let programs =
    [|
      (fun (api : Runner.api) ->
        api.Runner.write 0 (Op.Val 1);
        completed_at := memory.Memory.now ());
    |]
  in
  let _h = Runner.run memory ~programs in
  (* the write needed submit (10) + ordered (10) before the program could
     continue *)
  check Alcotest.bool "round trip" true (!completed_at >= 20)

let test_atomic_read_sees_latest () =
  let dist = Distribution.of_lists ~n_vars:1 [ [ 0 ]; [ 0 ] ] in
  let memory = Atomic_primary.create ~dist ~seed:0 () in
  let log = ref [] in
  let programs =
    [|
      (fun (api : Runner.api) -> api.Runner.write 0 (Op.Val 7));
      (fun (api : Runner.api) ->
        api.Runner.sleep 100;
        (* long after the write completed *)
        log := api.Runner.read 0 :: !log);
    |]
  in
  let _h = Runner.run memory ~programs in
  check Alcotest.bool "fresh read" true (!log = [ Op.Val 7 ])

(* --- registry -------------------------------------------------------------------- *)

let test_registry_lookup () =
  check Alcotest.int "ten protocols" 10 (List.length Registry.all);
  check Alcotest.bool "find known" true (Registry.find "pram-partial" <> None);
  check Alcotest.bool "find unknown" true (Registry.find "nope" = None);
  check Alcotest.int "names distinct" 10
    (List.length (List.sort_uniq compare Registry.names))

let test_workload_zero_ops () =
  let memory = Pram_partial.create ~dist:hoopy ~seed:0 () in
  let h =
    Workload.run_random
      ~profile:{ Workload.ops_per_proc = 0; read_ratio = 0.5; max_think = 0 }
      ~seed:1 memory
  in
  check Alcotest.int "empty history" 0 (History.n_ops h)

(* --- tracing / msc ------------------------------------------------------------- *)

let test_memory_msc () =
  let memory = Pram_partial.create ~dist:hoopy ~seed:4 () in
  check Alcotest.string "empty without tracing" ""
    (let s = memory.Memory.msc () in
     (* header only, no event rows *)
     String.concat "\n" (List.tl (String.split_on_char '\n' s)));
  memory.Memory.set_tracing true;
  let _h = Workload.run_random ~profile:small_profile ~seed:5 memory in
  let chart = memory.Memory.msc () in
  check Alcotest.bool "has deliveries" true
    (List.exists
       (fun line ->
         String.length line > 2 && String.sub line 0 2 = "t=")
       (String.split_on_char '\n' chart));
  check Alcotest.bool "protocol labels" true
    (let rec has i =
       i + 3 <= String.length chart && (String.sub chart i 3 = "upd" || has (i + 1))
     in
     has 0)

let test_all_protocols_deterministic =
  List.map
    (fun spec ->
      qcheck
        (QCheck.Test.make
           ~name:(Printf.sprintf "%s is deterministic in the seed" spec.Registry.name)
           ~count:5 QCheck.small_int
           (fun seed ->
             let dist = dist_for spec in
             let run () =
               let memory = spec.Registry.make ~dist ~seed () in
               Workload.run_random ~profile:small_profile ~seed:(seed + 1) memory
             in
             History.to_string (run ()) = History.to_string (run ()))))
    Registry.all

(* --- causal delivery buffer vs the historical drain ------------------------ *)

(* The drain [Causal_buf] replaced: a pending list in arrival order,
   repeatedly partitioned against the vector clock, every update ready at
   the start of a pass applied in arrival order before the next partition.
   Arrivals already applied or already pending are dropped on the spot; in
   the historical list they were inert. *)
module Drain = struct
  type t = {
    vc : int array;
    mutable pending : (int * int array * int) list;
    mutable applied : int list; (* most recent first *)
  }

  let create n = { vc = Array.make n 0; pending = []; applied = [] }

  let ready vc (writer, ts, _) =
    let ok = ref (vc.(writer) = ts.(writer) - 1) in
    Array.iteri (fun k tk -> if k <> writer && vc.(k) < tk then ok := false) ts;
    !ok

  let rec drain t =
    match List.partition (ready t.vc) t.pending with
    | [], _ -> ()
    | ready, blocked ->
        t.pending <- blocked;
        List.iter
          (fun (writer, _, id) ->
            t.applied <- id :: t.applied;
            t.vc.(writer) <- t.vc.(writer) + 1)
          ready;
        drain t

  let add t ~writer ~ts id =
    let duplicate =
      ts.(writer) <= t.vc.(writer)
      || List.exists (fun (w, ts', _) -> w = writer && ts'.(w) = ts.(writer)) t.pending
    in
    if not duplicate then begin
      t.pending <- t.pending @ [ (writer, ts, id) ];
      drain t
    end
end

(* A random causal execution seen by one receiving process: writers stamp
   each write with their vector clock and learn earlier writes (with their
   causal past) at random.  Half the runs are small (2 to 6 processes, up
   to 60 steps): the receiver gets every write in a random order, some
   twice, a few never.  The other half are wide, up to the benchmark's 32
   processes and 600 steps with one writer busier than the rest, and arrive
   almost in order with a few writes held back.  The writer of a held write
   keeps arriving behind it, so its window grows; it wraps as it drains,
   and it empties again while that writer's later writes keep coming. *)
let causal_deliveries seed =
  let rng = Rng.create seed in
  let wide = Rng.bool rng in
  let n = Rng.int_in rng 2 (if wide then 32 else 6) in
  let steps = if wide then Rng.int_in rng 100 600 else Rng.int_in rng 1 60 in
  let receiver = Rng.int rng n and busy = Rng.int rng n in
  let clocks = Array.init n (fun _ -> Array.make n 0) in
  let writes = Array.make steps (0, [||], 0) and count = ref 0 in
  for _ = 1 to steps do
    let p = if wide && Rng.coin rng 0.3 then busy else Rng.int rng n in
    if p = receiver then ()
    else if !count = 0 || Rng.bool rng then begin
      clocks.(p).(p) <- clocks.(p).(p) + 1;
      writes.(!count) <- (p, Array.copy clocks.(p), !count);
      incr count
    end
    else begin
      let _, ts, _ = writes.(Rng.int rng !count) in
      Array.iteri (fun k v -> if v > clocks.(p).(k) then clocks.(p).(k) <- v) ts
    end
  done;
  let writes = Array.sub writes 0 !count in
  let twice acc =
    if Rng.coin rng 0.25 && !count > 0 then Rng.pick rng writes :: acc else acc
  in
  let deliveries =
    if wide then begin
      (* write i arrives at i plus a short jitter, or a long hold *)
      let due =
        Array.mapi
          (fun i w ->
            let hold = if Rng.coin rng 0.05 then Rng.int_in rng 8 60 else Rng.int rng 3 in
            (i + hold, i, w))
          writes
      in
      Array.sort (fun (a, i, _) (b, j, _) -> compare (a, i) (b, j)) due;
      Array.fold_right (fun (_, _, w) acc -> twice (w :: acc)) due []
    end
    else begin
      let order = Array.copy writes in
      Rng.shuffle rng order;
      Array.fold_right
        (fun w acc -> twice (if Rng.coin rng 0.1 then acc else w :: acc))
        order []
    end
  in
  (n, deliveries)

let test_causal_buf_matches_drain =
  qcheck
    (QCheck.Test.make ~name:"causal_buf_matches_historical_drain" ~count:500
       QCheck.(make ~print:string_of_int Gen.int)
       (fun seed ->
         let n, deliveries = causal_deliveries seed in
         let applied = ref [] in
         let buf = Causal_buf.create ~n ~apply:(fun id -> applied := id :: !applied) () in
         let model = Drain.create n in
         List.iter
           (fun (writer, ts, id) ->
             Causal_buf.add buf ~writer ~ts id;
             Drain.add model ~writer ~ts id)
           deliveries;
         !applied = model.Drain.applied && Causal_buf.vc buf = model.Drain.vc))

(* A stamp must be one entry per process.  A shorter or longer one is
   rejected before it touches the buffer: the dependency scan reads the
   stamp unchecked, up to [n]. *)
let test_causal_buf_rejects_stamp_width () =
  let applied = ref [] in
  let buf = Causal_buf.create ~n:4 ~apply:(fun id -> applied := id :: !applied) () in
  List.iter
    (fun width ->
      let ts = Array.init width (fun k -> Bool.to_int (k = 1)) in
      match Causal_buf.add buf ~writer:1 ~ts width with
      | () -> Alcotest.failf "a stamp of width %d was accepted at n = 4" width
      | exception Invalid_argument _ -> ())
    [ 0; 2; 3; 5; 8 ];
  check (Alcotest.list Alcotest.int) "nothing applied" [] !applied;
  check (Alcotest.array Alcotest.int) "clock untouched" [| 0; 0; 0; 0 |] (Causal_buf.vc buf);
  Causal_buf.add buf ~writer:1 ~ts:[| 0; 1; 0; 0 |] 4;
  check (Alcotest.list Alcotest.int) "a stamp of width n applies" [ 4 ] !applied

(* --- allocation ---------------------------------------------------------------- *)

(* causal-partial at the sim-check benchmark's shape (32 processes, 64
   variables, 3 replicas, 8 ops per process): every write carries a vector
   clock to all 31 peers, so words per message is what the simulation
   pays.  The budget covers the envelope, the message, its scheduler entry
   and the runner's per-op share; a copy of the stamp per recipient, a
   closure per send or a boxed draw would each break it.  The run measures
   18.7 words per message (20.6 when a send held back by the FIFO horizon
   copied its envelope); the bound of 20 leaves 1.3 words of headroom. *)
let test_causal_partial_sim_allocation () =
  let n = 32 in
  let dist =
    Distribution.random (Rng.create (1 + n)) ~n_procs:n ~n_vars:64 ~replicas_per_var:3
  in
  let profile = { Workload.ops_per_proc = 8; read_ratio = 0.4; max_think = 3 } in
  let memory = Causal_partial.create ~dist ~seed:1 () in
  let w0 = Gc.minor_words () in
  ignore (Workload.run_random ~profile ~seed:2 memory : History.t);
  let words = Gc.minor_words () -. w0 in
  let msgs = (memory.Memory.metrics ()).Memory.messages_sent in
  let per_msg = words /. float_of_int msgs in
  if per_msg > 20.0 then
    Alcotest.failf "causal-partial simulation allocates %.1f minor words per message"
      per_msg

(* --- atomicity (timed histories) ---------------------------------------------- *)

module Timed = Repro_history.Timed

let test_atomic_primary_linearizable =
  qcheck
    (QCheck.Test.make ~name:"atomic_primary_runs_linearizable" ~count:15
       QCheck.small_int (fun seed ->
         let memory = Atomic_primary.create ~dist:hoopy ~seed () in
         let rng = Rng.create (seed + 1) in
         let progs = Workload.programs rng hoopy small_profile in
         let t = Runner.run_timed memory ~programs:progs in
         Timed.check_linearizable t = Timed.Linearizable))

let test_pram_not_linearizable () =
  (* a remote read strictly after a completed write still returns Init:
     wait-free local reads cannot be atomic *)
  let dist = Distribution.of_lists ~n_vars:1 [ [ 0 ]; [ 0 ] ] in
  let memory = Pram_partial.create ~latency:(Latency.constant 5) ~dist ~seed:0 () in
  let programs =
    [|
      (fun (api : Runner.api) -> api.Runner.write 0 (Op.Val 1));
      (fun (api : Runner.api) ->
        api.Runner.sleep 1;
        ignore (api.Runner.read 0));
    |]
  in
  let t = Runner.run_timed memory ~programs in
  check Alcotest.bool "not linearizable" true
    (Timed.check_linearizable t = Timed.Not_linearizable)

let test_sequencer_sequential_but_not_atomic () =
  (* "fast reads": local reads make the sequencer protocol sequentially
     consistent but not atomic when one replica lags *)
  let dist = Distribution.of_lists ~n_vars:1 [ [ 0 ]; [ 0 ] ] in
  let latency =
    Latency.per_link (fun ~src ~dst ->
        (* node 2 is the sequencer; its channel to p1 lags *)
        if src = 2 && dst = 1 then Latency.constant 100 else Latency.constant 10)
  in
  let memory = Seq_sequencer.create ~latency ~dist ~seed:0 () in
  let programs =
    [|
      (fun (api : Runner.api) -> api.Runner.write 0 (Op.Val 1));
      (fun (api : Runner.api) ->
        api.Runner.sleep 50;
        (* after p0's write completed (~20), before p1's update (~110) *)
        ignore (api.Runner.read 0));
    |]
  in
  let t = Runner.run_timed memory ~programs in
  check Alcotest.bool "not linearizable" true
    (Timed.check_linearizable t = Timed.Not_linearizable);
  check Alcotest.bool "but sequential" true
    (consistent Checker.Sequential (Timed.history t))

let () =
  Alcotest.run "repro_core"
    [
      ("contracts", contract_tests);
      ("contracts-hoopfree", contract_hoopfree_tests);
      ( "efficiency",
        test_efficient_protocols_audit
        @ [
            Alcotest.test_case "causal-partial informs everyone" `Quick
              test_causal_partial_informs_everyone;
            Alcotest.test_case "pram cheaper control" `Quick
              test_pram_strictly_cheaper_control;
          ] );
      ( "causal-full",
        [ Alcotest.test_case "rejects partial" `Quick test_causal_full_rejects_partial ] );
      ( "pram-ablation",
        [
          test_pram_guard_survives_reordering;
          Alcotest.test_case "unguarded breaks under reordering" `Quick
            test_pram_unguarded_breaks_under_reordering;
          test_pram_guard_tolerates_duplicates;
        ] );
      ( "adhoc",
        [
          test_adhoc_causal_on_hoopfree;
          Alcotest.test_case "violates causal through hoop" `Quick
            test_adhoc_violates_causal_through_hoop;
          Alcotest.test_case "causal-partial survives same scenario" `Quick
            test_causal_partial_handles_same_scenario;
        ] );
      ( "reliable",
        [
          test_reliable_no_update_lost;
          test_reliable_converges_replicas;
          Alcotest.test_case "retransmits under loss" `Quick test_reliable_retransmits;
          test_reliable_loss_stays_in_overhead;
        ] );
      ( "gossip",
        [
          test_gossip_mentions_stay_in_component;
          Alcotest.test_case "handles hoop leak" `Quick
            test_gossip_handles_hoop_leak_scenario;
        ] );
      ( "slow",
        [ Alcotest.test_case "pram violation reachable" `Quick test_slow_weaker_witness ] );
      ( "runner",
        [
          Alcotest.test_case "records program order" `Quick
            test_runner_records_program_order;
          Alcotest.test_case "rejects too many programs" `Quick
            test_runner_rejects_too_many_programs;
          Alcotest.test_case "livelock" `Quick test_runner_livelock;
          Alcotest.test_case "access control" `Quick test_runner_access_control;
          Alcotest.test_case "determinism" `Quick test_runner_determinism;
        ] );
      ( "workload",
        [
          test_workload_respects_distribution;
          test_workload_differentiated;
          Alcotest.test_case "validation" `Quick test_workload_validation;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "sequencer write blocks" `Quick
            test_sequencer_blocking_write_latency;
          Alcotest.test_case "atomic read sees latest" `Quick test_atomic_read_sees_latest;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lookup" `Quick test_registry_lookup;
          Alcotest.test_case "workload zero ops" `Quick test_workload_zero_ops;
        ] );
      ( "tracing",
        (Alcotest.test_case "memory msc" `Quick test_memory_msc
        :: test_all_protocols_deterministic) );
      ( "causal-buf",
        [
          test_causal_buf_matches_drain;
          Alcotest.test_case "stamp of the wrong width rejected" `Quick
            test_causal_buf_rejects_stamp_width;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "causal-partial simulation words per message" `Quick
            test_causal_partial_sim_allocation;
        ] );
      ( "atomicity",
        [
          test_atomic_primary_linearizable;
          Alcotest.test_case "pram not linearizable" `Quick test_pram_not_linearizable;
          Alcotest.test_case "sequencer sequential but not atomic" `Quick
            test_sequencer_sequential_but_not_atomic;
        ] );
    ]
