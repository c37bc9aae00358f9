(* Benchmark harness: regenerates every experiment table of DESIGN.md's
   per-experiment index (E1, R1, T1, A2, E2, A1, H1, B1, L1, C1) and times
   the pieces with Bechamel — one Test.make per table, micro-benchmarks of
   the library's hot paths, and a sequential-vs-parallel consistency-checker
   comparison group on the E1-scaling workload.

   Every tier reports through Repro_util.Record: tables of rows plus
   named gates, one printer, one JSON schema (repro-bench/2); bench exits
   2 when a gate failed.  The live tiers' rows are the library's own
   per-outcome reports (Cluster, Reconfig, Harness) merged across reps.

   Usage:
     dune exec bench/main.exe                      # tables + timings
     dune exec bench/main.exe -- --tables          # tables only
     dune exec bench/main.exe -- --experiment E1
     dune exec bench/main.exe -- --jobs 4          # pool size for par runs
     dune exec bench/main.exe -- --json bench.json # machine-readable record
*)

module Experiment = Repro_experiments.Experiment
module Checker = Repro_history.Checker
module Relcache = Repro_history.Relcache
module Saturation = Repro_history.Saturation
module History = Repro_history.History
module Generator = Repro_history.Generator
module Share_graph = Repro_sharegraph.Share_graph
module Distribution = Repro_sharegraph.Distribution
module Workload = Repro_core.Workload
module Registry = Repro_core.Registry
module Pram_partial = Repro_core.Pram_partial
module Pram_reliable = Repro_core.Pram_reliable
module Causal_partial = Repro_core.Causal_partial
module Memory = Repro_core.Memory
module Net = Repro_msgpass.Net
module Latency = Repro_msgpass.Latency
module Fault = Repro_msgpass.Fault
module Bellman_ford = Repro_apps.Bellman_ford
module Wgraph = Repro_apps.Wgraph
module Cluster = Repro_cluster.Cluster
module Wal = Repro_durable.Wal
module Fsio = Repro_durable.Fsio
module Rng = Repro_util.Rng
module Pool = Repro_util.Pool

open Repro_util.Record

let seed = 20_240_601

(* print the record, write it when --json was given, exit 2 when any gate
   failed *)
let report ?target t =
  print ?target t;
  Option.iter (fun target -> write target t) target;
  match failed t with
  | [] -> ()
  | failed ->
      List.iter (fun g -> Printf.eprintf "%s tier FAILED: %s\n" t.tier g.gate) failed;
      exit 2

let spec_of name =
  match Registry.find name with
  | Some spec -> spec
  | None -> failwith (name ^ " not registered")

(* --- the experiment tables --------------------------------------------------- *)

let print_tables () =
  List.iter
    (fun table ->
      print_string (Experiment.render table);
      print_newline ())
    (Experiment.all ~seed ())

let print_one id =
  match Experiment.find id with
  | Some f ->
      print_string (Experiment.render (f ~seed ()));
      true
  | None ->
      Printf.eprintf "unknown experiment %s (known: %s)\n" id
        (String.concat ", " Experiment.ids);
      false

(* --- bechamel ----------------------------------------------------------------- *)

open Bechamel
open Toolkit

(* one Test.make per experiment table (smaller parameters so each probe is
   sub-second; the printed tables above use the full parameters) *)
let table_tests =
  [
    Test.make ~name:"table:E1-scaling"
      (Staged.stage (fun () -> Experiment.scaling ~sizes:[ 4; 8 ] ~seed ()));
    Test.make ~name:"table:R1-replication-sweep"
      (Staged.stage (fun () -> Experiment.replication_sweep ~n:6 ~seed ()));
    Test.make ~name:"table:T1-mention-audit"
      (Staged.stage (fun () -> Experiment.mention_audit ~seed ()));
    Test.make ~name:"table:A2-criterion-matrix"
      (Staged.stage (fun () -> Experiment.criterion_matrix ~seed ()));
    Test.make ~name:"table:E2-bellman-ford"
      (Staged.stage (fun () -> Experiment.bellman_ford ~seed ()));
    Test.make ~name:"table:A1-adhoc-ablation"
      (Staged.stage (fun () -> Experiment.adhoc_ablation ~seed ()));
    Test.make ~name:"table:H1-hoop-census"
      (Staged.stage (fun () -> Experiment.hoop_census ~seed ()));
    Test.make ~name:"table:B1-bottleneck"
      (Staged.stage (fun () -> Experiment.bottleneck ~seed ()));
    Test.make ~name:"table:L1-loss-sweep"
      (Staged.stage (fun () -> Experiment.loss_sweep ~seed ()));
    Test.make ~name:"table:C1-op-costs"
      (Staged.stage (fun () -> Experiment.op_costs ~seed ()));
  ]

(* micro-benchmarks of the load-bearing machinery *)
let micro_tests =
  let fig4 =
    let open Repro_history.Op in
    History.of_lists
      [
        [ write ~var:0 (Val 1); read ~var:0 (Val 1); write ~var:1 (Val 2) ];
        [ read ~var:1 (Val 2); write ~var:1 (Val 3) ];
        [ read ~var:1 (Val 3); read ~var:0 Init ];
      ]
  in
  let medium_history =
    Generator.causal_consistent (Rng.create seed)
      { Generator.procs = 4; vars = 3; ops_per_proc = 8; read_ratio = 0.5 }
  in
  let ring = Share_graph.of_distribution (Distribution.ring ~n_procs:10) in
  let hoopy =
    Distribution.of_lists ~n_vars:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ]
  in
  [
    Test.make ~name:"micro:check-causal-fig4"
      (Staged.stage (fun () -> Checker.check Checker.Causal fig4));
    Test.make ~name:"micro:check-pram-medium"
      (Staged.stage (fun () -> Checker.check Checker.Pram medium_history));
    Test.make ~name:"micro:check-causal-medium"
      (Staged.stage (fun () -> Checker.check Checker.Causal medium_history));
    Test.make ~name:"micro:hoops-ring10"
      (Staged.stage (fun () -> Share_graph.hoops ring ~var:0));
    Test.make ~name:"micro:x-relevant-ring10"
      (Staged.stage (fun () -> Share_graph.x_relevant ring ~var:0));
    Test.make ~name:"micro:pram-workload-run"
      (Staged.stage (fun () ->
           let memory = Pram_partial.create ~dist:hoopy ~seed () in
           Workload.run_random ~seed:(seed + 1) memory));
    Test.make ~name:"micro:bellman-ford-fig8"
      (Staged.stage (fun () -> Bellman_ford.run ~seed Wgraph.fig8 ~source:0));
  ]

(* --- sim: simulation-throughput group ----------------------------------------
   The discrete-event engine bounds every experiment table, so its raw
   throughput gets its own benchmark tier.  Each probe returns the number
   of deliveries it processed (deterministic in the seed), so the record
   can report events/second and minor words per delivery alongside the
   per-run time.  The counts are exact, so they are pinned: each pin is a
   gate of the [--sim] record. *)

(* Dense broadcast storm: every delivery fans out to all peers until the
   round budget is spent, keeping the scheduler queue deep — this measures
   pure Net.push/pop plus envelope handling, no protocol logic.  Under
   [Latency.wan] most sends land far past the clock. *)
let sim_dense_broadcast latency () =
  let n = 16 in
  let net = Net.create ~n ~latency ~seed:97 () in
  let budget = ref 2_000 in
  for p = 0 to n - 1 do
    Net.set_handler net p (fun _ ->
        if !budget > 0 then begin
          decr budget;
          for q = 0 to n - 1 do
            if q <> p then
              Net.send net ~src:p ~dst:q ~control_bytes:8 ~payload_bytes:0 ()
          done
        end)
  done;
  for q = 1 to n - 1 do
    Net.send net ~src:0 ~dst:q ~control_bytes:0 ~payload_bytes:0 ()
  done;
  Net.run net;
  (Net.stats net).Net.delivered

(* End-to-end E1 row at n=24: causal-partial broadcasts Θ(n) vector stamps
   to every process, so this drives the causal pending buffers at the
   depth the scaling sweeps reach. *)
let sim_causal_e1 () =
  let n = 24 in
  let dist =
    Distribution.random (Rng.create (seed + n)) ~n_procs:n ~n_vars:(2 * n)
      ~replicas_per_var:3
  in
  let memory = Causal_partial.create ~dist ~seed () in
  let profile = { Workload.ops_per_proc = 8; read_ratio = 0.4; max_think = 3 } in
  let _h = Workload.run_random ~profile ~seed:(seed + 1) memory in
  (memory.Memory.metrics ()).Memory.messages_delivered

(* End-to-end lossy run: pram-reliable (pram-partial over the session
   layer) under a 30% drop + 5% duplication plan keeps many session windows
   and retransmission timers in flight.  The count is the protocol lane's
   first in-order deliveries, so loss does not move it. *)
let sim_pram_loss () =
  let n = 12 in
  let dist =
    Distribution.random (Rng.create (seed + 5)) ~n_procs:n ~n_vars:(2 * n)
      ~replicas_per_var:3
  in
  let plan =
    { Fault.Plan.none with
      default_link = { Fault.Plan.clean with drop = 0.3; duplicate = 0.05 } }
  in
  let memory = Pram_reliable.create ~plan ~dist ~seed () in
  let profile = { Workload.ops_per_proc = 12; read_ratio = 0.4; max_think = 3 } in
  let _h = Workload.run_random ~profile ~seed:(seed + 1) memory in
  (memory.Memory.metrics ()).Memory.messages_delivered

(* name, probe, pinned delivery count *)
let sim_cases =
  [
    ("sim:dense-broadcast", sim_dense_broadcast (Latency.uniform ~lo:1 ~hi:16), 30_015);
    ("sim:dense-wan", sim_dense_broadcast Latency.wan, 30_015);
    ("sim:causal-e1", sim_causal_e1, 3_174);
    ("sim:pram-loss", sim_pram_loss, 208);
  ]

type sim_probe = {
  pinned : int;
  warm : int;  (** deliveries of a warm-up run *)
  deliveries : int;  (** deliveries of the measured run *)
  words_per_delivery : float;  (** minor-heap words, measured run *)
}

let sim_probes =
  lazy
    (List.map
       (fun (name, f, pinned) ->
         let warm = f () in
         let w0 = Gc.minor_words () in
         let measured = f () in
         let words = Gc.minor_words () -. w0 in
         ( name,
           {
             pinned;
             warm;
             deliveries = measured;
             words_per_delivery = words /. float_of_int (Stdlib.max 1 measured);
           } ))
       sim_cases)

(* bechamel reports grouped names ("repro sim:..."): match on the suffix *)
let sim_probe_of name =
  List.find_map
    (fun (n, p) -> if String.ends_with ~suffix:n name then Some p else None)
    (Lazy.force sim_probes)

(* every run of every probe must deliver exactly its pinned count *)
let sim_pin_gates () =
  List.map
    (fun (name, p) ->
      gate
        (Printf.sprintf "%s: %d deliveries (pinned)" name p.pinned)
        (p.warm = p.pinned && p.deliveries = p.pinned))
    (Lazy.force sim_probes)

let sim_tests =
  List.map
    (fun (name, f, _) -> Test.make ~name (Staged.stage (fun () -> ignore (f ()))))
    sim_cases

(* The sequential-vs-parallel comparison group: the E1-scaling workload at
   n = 8 (2n variables, 3 replicas each, the table's profile) produces a
   history whose causal/PRAM checks decompose into one serialization unit
   per process — exactly the fan-out [Checker.check_par] farms across the
   domain pool.  [check-seq:*] and [check-par:*] differ only in that
   farming; the ratio is the pool's speedup on this box. *)
let e1_check_history =
  let n = 8 in
  let dist =
    Distribution.random (Rng.create (seed + n)) ~n_procs:n ~n_vars:(2 * n)
      ~replicas_per_var:3
  in
  let spec = spec_of "pram-partial" in
  let profile = { Workload.ops_per_proc = 6; read_ratio = 0.4; max_think = 3 } in
  let memory = spec.Registry.make ~dist ~seed () in
  Workload.run_random ~profile ~seed:(seed + 1) memory

let comparison_tests =
  let h = e1_check_history in
  [
    Test.make ~name:"check-seq:causal-e1"
      (Staged.stage (fun () -> Checker.check Checker.Causal h));
    Test.make ~name:"check-par:causal-e1"
      (Staged.stage (fun () -> Checker.check_par Checker.Causal h));
    Test.make ~name:"check-seq:pram-e1"
      (Staged.stage (fun () -> Checker.check Checker.Pram h));
    Test.make ~name:"check-par:pram-e1"
      (Staged.stage (fun () -> Checker.check_par Checker.Pram h));
  ]

(* --- check: engine-comparison group -------------------------------------------
   The saturation front-end vs the backtracking search on the checker's
   heaviest production workload: the A2 criterion matrix's all-criteria
   sweep.  The bank reproduces A2's contended histories (16 seeded runs plus
   the adversarial scenario bank) for one representative efficient protocol;
   sweeping it under a pinned engine isolates the decision procedure — both
   engines share one relation cache per history, exactly as the table code
   does.  The scaled probes (E1X / A2X sizes) run on the saturation engine
   only: the search cannot decide them within any reasonable quota, which is
   the point of the tier. *)

let a2_bank =
  lazy
    (let profile = { Workload.ops_per_proc = 12; read_ratio = 0.5; max_think = 5 } in
     let dist = Distribution.full ~n_procs:4 ~n_vars:2 in
     let latency = Latency.uniform ~lo:1 ~hi:25 in
     let spec = spec_of "pram-partial" in
     List.init 16 (fun k ->
         let memory = spec.Registry.make ~latency ~dist ~seed:(seed + k) () in
         Workload.run_random ~profile ~seed:(seed + k + 100) memory)
     @ List.map snd (Experiment.adversarial_histories spec ~seed))

let a2x_bank =
  lazy
    (let profile = { Workload.ops_per_proc = 20; read_ratio = 0.5; max_think = 5 } in
     let dist = Distribution.full ~n_procs:6 ~n_vars:3 in
     let latency = Latency.uniform ~lo:1 ~hi:25 in
     let spec = spec_of "pram-partial" in
     List.init 4 (fun k ->
         let memory = spec.Registry.make ~latency ~dist ~seed:(seed + k) () in
         Workload.run_random ~profile ~seed:(seed + k + 100) memory))

let e1x_history =
  lazy
    (let n = 32 in
     let dist =
       Distribution.random (Rng.create (seed + n)) ~n_procs:n ~n_vars:(2 * n)
         ~replicas_per_var:3
     in
     let spec = spec_of "causal-partial" in
     let profile = { Workload.ops_per_proc = 8; read_ratio = 0.4; max_think = 3 } in
     let memory = spec.Registry.make ~dist ~seed () in
     Workload.run_random ~profile ~seed:(seed + 1) memory)

let sweep_bank ~engine bank =
  List.iter
    (fun h ->
      let rc = Relcache.create h in
      List.iter
        (fun criterion -> ignore (Checker.check_cached ~engine rc criterion))
        Checker.all_criteria)
    bank

(* the probes that run the saturation engine *)
let saturation_probes =
  [
    ( "check:a2-sweep-saturation",
      fun () -> sweep_bank ~engine:Checker.Saturation (Lazy.force a2_bank) );
    ( "check:a2x-sweep-saturation",
      fun () -> sweep_bank ~engine:Checker.Saturation (Lazy.force a2x_bank) );
    ( "check:e1x-causal-n32-saturation",
      fun () ->
        ignore
          (Checker.check ~engine:Checker.Saturation Checker.Causal
             (Lazy.force e1x_history)) );
  ]

let check_tests =
  Test.make ~name:"check:a2-sweep-search"
    (Staged.stage (fun () -> sweep_bank ~engine:Checker.Search (Lazy.force a2_bank)))
  :: List.map (fun (name, probe) -> Test.make ~name (Staged.stage probe)) saturation_probes

(* One pass of each saturation probe, outside Bechamel, which runs a probe
   as many times as its quota allows: the counters of this pass repeat
   exactly from run to run.  The counters keep counting afterwards, so a
   gate read after the Bechamel runs covers every unit they decided too. *)
let counted_pass () =
  Saturation.reset_counters ();
  List.iter (fun (_, probe) -> probe ()) saturation_probes;
  Saturation.counters ()

let analyze_raw raw =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> Some est
        | _ -> None
      in
      rows := (name, estimate) :: !rows)
    results;
  List.sort compare !rows

let bench_group ~quota tests =
  let tests = Test.make_grouped ~name:"repro" ~fmt:"%s %s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true
      ~kde:None ()
  in
  analyze_raw (Benchmark.all cfg instances tests)

(* One row per probe: time per run, plus deliveries, events/sec and minor
   words per delivery for the sim: probes.  The seq-vs-par and
   search-vs-saturation pairs become speedup tables when both sides ran. *)
let bechamel_record ~tier ?counters ~gates rows =
  let find suffix =
    List.find_map
      (fun (name, estimate) ->
        if String.ends_with ~suffix name then estimate else None)
      rows
  in
  let speedup title case (slow, slow_suffix) (fast, fast_suffix) =
    match (find slow_suffix, find fast_suffix) with
    | Some s, Some f ->
        [
          one_row title case
            [
              nums slow "ns" [ s ]; nums fast "ns" [ f ]; nums "speedup" "x" [ s /. f ];
            ];
        ]
    | _ -> []
  in
  let timing (name, estimate) =
    let ns = Option.value estimate ~default:nan in
    {
      case = name;
      metrics =
        nums "time_per_run" "ns" [ ns ]
        ::
        (match sim_probe_of name with
        | Some p ->
            [
              ints "events" "count" [ p.deliveries ];
              nums "events_per_sec" "1/s"
                [ float_of_int p.deliveries /. ns *. 1e9 ];
              nums "minor_words_per_delivery" "words" [ p.words_per_delivery ];
            ]
        | None -> []);
    }
  in
  let counters =
    match counters with
    | None -> []
    | Some c ->
        let total =
          c.Saturation.merge_hits + c.Saturation.cycle_refutations
          + c.Saturation.greedy_hits + c.Saturation.unknowns + c.Saturation.acyclic_hits
        in
        [
          one_row "Saturation counters" "saturation engine, one pass of each probe"
            [
              ints "merge_hits" "count" [ c.Saturation.merge_hits ];
              ints "cycle_refutations" "count" [ c.Saturation.cycle_refutations ];
              ints "greedy_hits" "count" [ c.Saturation.greedy_hits ];
              ints "acyclic_hits" "count" [ c.Saturation.acyclic_hits ];
              ints "search_fallbacks" "count" [ c.Saturation.unknowns ];
              nums "fallback_rate" "ratio"
                [ float_of_int c.Saturation.unknowns /. float_of_int total ];
            ];
        ]
  in
  {
    tier;
    params = [ int_param "seed" seed; int_param "jobs" (Pool.default_jobs ()) ];
    tables =
      {
        title = "Bechamel timings (monotonic clock, OLS per run)";
        rows = List.map timing rows;
      }
      :: speedup "Sequential vs parallel checker" "causal-e1"
           ("seq", "check-seq:causal-e1") ("par", "check-par:causal-e1")
      @ speedup "Search vs saturation engine" "a2-all-criteria-sweep"
          ("search", "check:a2-sweep-search")
          ("saturation", "check:a2-sweep-saturation")
      @ counters;
    gates;
    notes = [];
  }

(* [gates] is evaluated after the groups ran *)
let run_bechamel ?target ~tier ?counters ?(gates = fun () -> []) groups =
  let rows =
    List.concat_map (fun (quota, tests) -> bench_group ~quota tests) groups
    |> List.sort compare
  in
  report ?target (bechamel_record ~tier ?counters ~gates:(gates ()) rows)

(* the saturation engine proves or refutes every unit the check tier
   decides, in its counted pass and in the Bechamel runs: none falls back
   to the search *)
let check_gates () =
  [ gate "no unit fell back to the search" ((Saturation.counters ()).Saturation.unknowns = 0) ]

(* --- cluster: live-runtime tier ------------------------------------------------
   Forked loopback clusters cannot run under Bechamel: every probe forks n
   OS processes, and forking must precede any domain creation, so the whole
   tier stays out of the staged harness.  Instead each configuration gets
   [cluster_reps] full live runs timed with the wall clock (both the
   slowest node's hello-to-close span and the parent's fork-to-join span),
   next to one timed run of the same (protocol, workload, n, seed) on the
   deterministic simulator.  For the E1 workload the tier also re-asserts
   the parity invariant — live message/control/payload totals equal the
   sim's exactly — so a regression shows up in the trajectory, not just in
   the test suite. *)

let cluster_reps = 3

let cluster_cases =
  [
    ("pram-partial", "e1", 3);
    ("causal-partial", "e1", 3);
    ("pram-partial", "e1", 5);
    ("pram-partial", "bellman-ford", 5);
  ]

(* One row and its gates from [cluster_reps] live runs of one case, every
   rep at the tier's seed so the reps repeat one workload: Cluster's
   summary of every rep merged in rep order, with the parent's
   fork-to-join wall clock beside it, then [extra].  Each of Cluster's
   gates (and sim parity, when asked) is named after the case and must
   hold on every rep. *)
let live_case ~case ~n ~protocol ~workload ~parity ?chaos ?session extra =
  let outcomes =
    List.init cluster_reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        match Cluster.run ~n ~protocol ~workload ~seed ?chaos ?session () with
        | Error msg -> failwith (Printf.sprintf "%s: %s" case msg)
        | Ok o -> (o, (Unix.gettimeofday () -. t0) *. 1e3))
  in
  let row =
    merge case
      (List.map
         (fun (o, harness_ms) ->
           Cluster.summary o @ [ nums "harness_wall" "ms" [ harness_ms ] ])
         outcomes)
  in
  let every_rep name holds =
    gate (case ^ ": " ^ name) (List.for_all (fun (o, _) -> holds o) outcomes)
  in
  let sim_parity o =
    match Cluster.sim_parity ~protocol o with
    | Error msg -> failwith msg
    | Ok counters -> List.for_all (fun (_, live, sim) -> live = sim) counters
  in
  ( { row with metrics = row.metrics @ extra },
    (if parity then [ every_rep "sim parity" sim_parity ] else [])
    @ List.map
        (fun g ->
          every_rep g.gate (fun o ->
              List.exists (fun h -> h.gate = g.gate && h.ok) (Cluster.gates o)))
        (Cluster.gates (fst (List.hd outcomes))) )

let run_cluster_case (protocol_name, workload, n) =
  let protocol = spec_of protocol_name in
  let t0 = Unix.gettimeofday () in
  (match Cluster.sim_baseline ~n ~protocol ~workload ~seed () with
  | Error msg -> failwith msg
  | Ok _ -> ());
  let sim_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  live_case
    ~case:(Printf.sprintf "%s %s n=%d" protocol_name workload n)
    ~n ~protocol ~workload
    (* Bellman-Ford's per-round rewrites make its send count depend on
       convergence timing; only E1's fan-out is timing-independent. *)
    ~parity:(workload <> "bellman-ford")
    [ nums "sim_wall" "ms" [ sim_ms ] ]

let run_cluster_benchmarks ?target () =
  let rows, gates = List.split (List.map run_cluster_case cluster_cases) in
  report ?target
    {
      tier = "cluster";
      params = [ int_param "seed" seed; int_param "reps" cluster_reps ];
      tables =
        [ { title = "Live cluster tier (wall clock, forked loopback nodes)"; rows } ];
      gates = List.concat gates;
      notes = [];
    }

(* --- chaos: robustness tier ------------------------------------------------------
   What does reliability cost, and how fast does the cluster come back?
   Each row reruns the same live (pram-partial, e1, n=3) configuration under
   a different chaos plan: the plain baseline, the session layer at zero
   loss (pure machinery cost), escalating drop rates, and a scheduled
   crash+restart (time-to-recover shows up as the wall-clock delta against
   the plain row).  Every row re-asserts the accounting invariant that the
   paper's numbers survive chaos: protocol-level message/byte totals equal
   the fault-free simulator baseline exactly, with the repair traffic
   summed apart in overhead_bytes.  Besides the verdict and finals, a row
   whose nodes ran a WAL gates on every respawned node replaying its
   frozen WAL to the same digest. *)

let chaos_cases =
  [
    ("plain", None, false);
    ("session-0loss", None, true);
    ("drop2", Some "seed=5,drop=0.02", true);
    ("drop5", Some "seed=5,drop=0.05,dup=0.02", true);
    ("drop10", Some "seed=5,drop=0.10,dup=0.05,reorder=0.2", true);
    ("crash+restart", Some "seed=11,drop=0.03,crash=1@6+250", true);
  ]

let run_chaos_case (label, plan_text, session) =
  let chaos =
    Option.map
      (fun t ->
        match Fault.Plan.parse t with
        | Ok p -> p
        | Error msg -> failwith (Printf.sprintf "plan %S: %s" t msg))
      plan_text
  in
  live_case ~case:label ~n:3 ~protocol:(spec_of "pram-partial") ~workload:"e1"
    ~parity:true ?chaos ~session
    [ text "plan" (Option.fold ~none:"" ~some:Fault.Plan.to_string chaos) ]

let run_chaos_benchmarks ?target () =
  let rows, gates = List.split (List.map run_chaos_case chaos_cases) in
  report ?target
    {
      tier = "chaos";
      params = [ int_param "seed" seed; int_param "reps" cluster_reps ];
      tables =
        [
          {
            title =
              "Chaos tier (pram-partial / e1 / n=3, wall clock, forked loopback \
               nodes)";
            rows;
          };
        ];
      gates = List.concat gates;
      notes = [];
    }

(* --- load: open-loop client-throughput tier --------------------------------------
   What does the Theorem-2 control-byte gap cost a client?  The tier drives
   the same open-loop read-heavy workload against pram-partial (2 replicas
   per variable, writes touch one peer) and causal-full (full replication,
   writes broadcast to n-1 peers) and records client-visible throughput and
   latency percentiles per node count.

   Two throughput figures per run: wall-clock ops/sec (what a client saw,
   noisy on a contended single-core box because it swings with CPU grants)
   and ops per node CPU-second (scheduler-noise-immune: CPU time is
   attributed to the process that burned it, so the protocol that sends
   more replication traffic per op scores strictly lower).  The curve
   runs in fixed-work (drain-plan) mode — rep i of both protocols serves
   the same seed's op multiset — and the gate requires, at every node
   count, (a) the median paired per-seed CPU-throughput ratio
   pram/causal > 1 and (b) strictly fewer protocol bytes per completed
   op for partial replication (Theorem 2, deterministic).

   The coalescing pair reruns one write-heavy configuration with the
   session flush budget on (16) and off (1) in drain-plan mode, so both
   runs offer a byte-identical op multiset; the protocol lane must agree
   to the byte and the overhead lane (frames, headers, standalone acks)
   must shrink. *)

module Load = Repro_loadgen.Harness
module Mix = Repro_loadgen.Mix

let load_reps = 3

let load_curve_cases =
  [ ("pram-partial", 3); ("causal-full", 3); ("pram-partial", 5); ("causal-full", 5) ]

let load_config ~protocol ~n ~mix ~rate ~duration_ms ~coalesce ~drain_plan ~seed
    =
  {
    Load.protocol = spec_of protocol;
    n;
    clients = 2;
    rate;
    duration_ms;
    mix;
    seed;
    coalesce;
    drain_plan;
  }

let run_load cfg =
  match Load.run cfg with
  | Ok r -> r
  | Error msg -> failwith (Printf.sprintf "load tier: %s" msg)

let bytes_per_op (r : Load.result) =
  float_of_int (r.Load.control_bytes + r.Load.payload_bytes)
  /. float_of_int (Stdlib.max 1 r.Load.completed_ops)

(* one row per case: a Harness report of every rep, merged in rep order *)
let load_row case results metrics = merge case (List.map metrics results)

let latency_all (r : Load.result) =
  (List.find (fun row -> row.case = "all") (Load.latency r).rows).metrics

let protocol_lane (r : Load.result) =
  (r.Load.messages_sent, r.Load.control_bytes, r.Load.payload_bytes)

let run_load_benchmarks ?target () =
  let curve =
    List.map
      (fun (protocol, n) ->
        ( (protocol, n),
          List.init load_reps (fun rep ->
              run_load
                (* fixed-work mode: the whole 3 s plan is served however long
                   that takes, so every rep completes the identical op multiset
                   (same seed => same arrival count for both protocols) and the
                   CPU-normalized figure is fixed-work over measured CPU — the
                   open-loop completion race against the grace window, which
                   swings +-20% with single-core scheduler luck, is out of the
                   picture.  3 s plans keep the 10 ms CPU-clock granularity
                   under 1% of each node's total. *)
                (load_config ~protocol ~n ~mix:Mix.read_heavy ~rate:150_000.0
                   ~duration_ms:3_000 ~coalesce:8 ~drain_plan:true
                   ~seed:(seed + rep))) ))
      load_curve_cases
  in
  let coalesced coalesce =
    run_load
      (load_config ~protocol:"pram-partial" ~n:3 ~mix:Mix.write_heavy
         ~rate:20_000.0 ~duration_ms:1_000 ~coalesce ~drain_plan:true
         ~seed:(seed + 77))
  in
  let on = coalesced 16 in
  let off = coalesced 1 in
  let node_counts = List.sort_uniq compare (List.map snd load_curve_cases) in
  let pair n =
    (List.assoc ("pram-partial", n) curve, List.assoc ("causal-full", n) curve)
  in
  (* paired efficiency gate: rep i of both protocols serves the same seed's
     op multiset, so the per-seed CPU-throughput ratio cancels plan-to-plan
     variation; the median ratio must favour partial replication *)
  let cpu_ratios n =
    let pram, causal = pair n in
    List.map2
      (fun (p : Load.result) (c : Load.result) ->
        p.Load.ops_per_node_cpu_s /. c.Load.ops_per_node_cpu_s)
      pram causal
  in
  let med f results = median (List.map f results) in
  let gates =
    List.concat_map
      (fun n ->
        let pram, causal = pair n in
        [
          gate
            (Printf.sprintf "n=%d: paired CPU-throughput ratio pram/causal > 1" n)
            (median (cpu_ratios n) > 1.0);
          (* Theorem 2: partial replication moves strictly fewer protocol
             bytes per completed op — deterministic given the fixed op
             multiset *)
          gate
            (Printf.sprintf "n=%d: pram-partial protocol B/op < causal-full" n)
            (med bytes_per_op pram < med bytes_per_op causal);
        ])
      node_counts
    @ [
        gate "coalescing keeps the protocol lane byte-identical"
          (protocol_lane on = protocol_lane off);
        gate "coalescing reduces frames" (on.Load.frames_sent < off.Load.frames_sent);
        gate "coalescing reduces overhead bytes"
          (on.Load.overhead_bytes < off.Load.overhead_bytes);
      ]
  in
  let notes =
    List.concat_map
      (fun n ->
        let pram, causal = pair n in
        let cpu = med (fun r -> r.Load.ops_per_node_cpu_s)
        and wall = med (fun r -> r.Load.ops_per_sec) in
        (if cpu pram <= cpu causal then
           [
             Printf.sprintf
               "n=%d: unpaired CPU-throughput medians tied or reversed (%.0f vs \
                %.0f) — the paired per-seed ratio carries the comparison"
               n (cpu pram) (cpu causal);
           ]
         else [])
        @
        if wall pram <= wall causal then
          [
            Printf.sprintf
              "n=%d: wall-clock medians tied or reversed (%.0f vs %.0f ops/s) — \
               single-core scheduling noise; the CPU-normalized figure carries \
               the comparison"
              n (wall pram) (wall causal);
          ]
        else [])
      node_counts
  in
  let curve_table title metrics =
    {
      title;
      rows =
        List.map
          (fun ((protocol, n), results) ->
            load_row (Printf.sprintf "%s n=%d" protocol n) results metrics)
          curve;
    }
  in
  report ?target
    {
      tier = "load";
      params = [ int_param "seed" seed; int_param "reps" load_reps ];
      tables =
        [
          curve_table
            "Load tier (open loop, read-heavy, fixed-work 3s drain plans, 3 reps)"
            (fun r -> Load.summary r @ [ nums "protocol_bytes_per_op" "B" [ bytes_per_op r ] ]);
          curve_table "Load tier latency, all ops" latency_all;
          curve_table "Load tier byte lanes" Load.lanes;
          {
            title =
              "Paired CPU-throughput ratio pram-partial/causal-full (rep i: \
               same seed)";
            rows =
              List.map
                (fun n ->
                  {
                    case = Printf.sprintf "n=%d" n;
                    metrics = [ nums "ratio" "x" (cpu_ratios n) ];
                  })
                node_counts;
          };
          {
            title = "Coalescing (pram-partial, n=3, write-heavy, drain plan)";
            rows =
              [
                load_row "coalesce 16" [ on ] Load.lanes;
                load_row "coalesce 1" [ off ] Load.lanes;
              ];
          };
        ];
      gates;
      notes;
    }

(* --- hotpath: zero-copy send/receive tier ----------------------------------------
   Microbenchmarks of the live hot path's building blocks — the strict
   binary codecs against the [Marshal] bodies they replaced, and the
   pooled frame cycle (acquire → header+body emit → release) that the
   batched link flush runs per message — with minor-heap words per
   operation next to nanoseconds, because the point of the pooled path is
   what it does NOT allocate. *)

module Wire = Repro_transport.Wire
module Tcodec = Repro_transport.Codec
module Causal_full = Repro_core.Causal_full
module Op = Repro_history.Op

let hotpath_iters = 200_000

let hotpath_warmup = 10_000

(* (name, ns per op, minor words per op) *)
let measure name f =
  for _ = 1 to hotpath_warmup do f () done;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to hotpath_iters do f () done;
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  let per x = x /. float_of_int hotpath_iters in
  (name, per ((t1 -. t0) *. 1e9), per (w1 -. w0))

let hotpath_micro () =
  let pram_msg = Pram_partial.Update { var = 7; value = Op.Val 123_456; seq = 42 } in
  let causal_msg =
    Causal_full.Update
      { var = 3; value = Op.Val 987_654; writer = 2; ts = Array.init 8 (fun i -> i * 11) }
  in
  let buf = Bytes.create 512 in
  let bench_codec (type m) name (c : m Tcodec.t) (msg : m) =
    let len = c.Tcodec.size msg in
    ignore (c.Tcodec.emit buf 0 msg : int);
    let marshalled = Marshal.to_string msg [] in
    let pool = Wire.Pool.create () in
    [
      measure (name ^ "/codec-encode") (fun () ->
          ignore (c.Tcodec.emit buf 0 msg : int));
      measure (name ^ "/codec-decode") (fun () ->
          ignore (c.Tcodec.parse buf 0 len : m * int));
      measure (name ^ "/marshal-encode") (fun () ->
          ignore (Marshal.to_bytes msg [] : Bytes.t));
      measure (name ^ "/marshal-decode") (fun () ->
          ignore (Marshal.from_string marshalled 0 : m));
      (* the steady-state send cycle: pooled buffer, header + body emitted
         in place, buffer recycled — the no-per-message-Bytes.create claim *)
      measure (name ^ "/pooled-frame-cycle") (fun () ->
          let fb = Wire.Pool.acquire pool (Wire.body_offset + len) in
          ignore (c.Tcodec.emit fb Wire.body_offset msg : int);
          Wire.set_header fb ~kind:Wire.Data ~src:0 ~dst:1 ~control_bytes:8
            ~payload_bytes:8 ~body_len:len;
          Wire.Pool.release pool fb);
    ]
  in
  bench_codec "pram-partial" Pram_partial.codec pram_msg
  @ bench_codec "causal-full" Causal_full.codec causal_msg

let run_hotpath_benchmarks ?target () =
  let micro = hotpath_micro () in
  report ?target
    {
      tier = "hotpath";
      params = [ int_param "iters" hotpath_iters; int_param "warmup" hotpath_warmup ];
      tables =
        [
          {
            title = "Hot path micro (200k iters after warmup)";
            rows =
              List.map
                (fun (name, ns, words) ->
                  {
                    case = name;
                    metrics =
                      [
                        nums "time_per_op" "ns" [ ns ];
                        nums "minor_words_per_op" "words" [ words ];
                      ];
                  })
                micro;
          };
        ];
      gates =
        List.filter_map
          (fun (name, _, words) ->
            if String.ends_with ~suffix:"codec-encode" name then
              (* emit writes into a caller buffer: any steady-state
                 allocation is a regression on the zero-copy claim *)
              Some (gate (name ^ ": at most 1 minor word/op") (words <= 1.0))
            else if String.ends_with ~suffix:"pooled-frame-cycle" name then
              (* acquire/release bookkeeping is a cons or two, never a fresh
                 frame buffer (the smallest pool class alone is 256 B = 32+
                 words) *)
              Some
                (gate (name ^ ": at most 16 minor words/op (pool recycles)")
                   (words <= 16.0))
            else None)
          micro;
      notes = [];
    }

(* --- durable: write-ahead-log tier -----------------------------------------------
   What does durability cost per recorded op, and what does group commit
   buy back?  The tier appends a fixed batch of fixed-size records under
   each fsync policy — [Never] is the measuring stick (pure write()
   traffic), [Every 1] is synchronous durability (one fsync per append),
   [Every 64] and [Interval_ms 5] are the group-commit points between —
   then times recovery ([Wal.load]) against growing log lengths.

   Correctness gates ride along: every appended record must be recovered,
   two loads of the same bytes must produce the same digest, and the sync
   counters must match the policy ([Every 1] fsyncs exactly once per
   append; [Never] only at close). *)

let durable_appends = 20_000

let durable_payload_bytes = 64

let durable_policies =
  [
    ("never", Wal.Never);
    ("interval-5ms", Wal.Interval_ms 5);
    ("every-64", Wal.Every 64);
    ("every-1", Wal.Every 1);
  ]

let durable_recovery_lengths = [ 1_000; 10_000; 50_000 ]

let run_durable_policy root (label, policy) =
  let dir = Filename.concat root ("policy-" ^ label) in
  let payload i =
    (* fixed size, varying content — a compressible constant would let the
       page cache flatter the write path *)
    String.init durable_payload_bytes (fun j ->
        Char.chr (((i * 0x9E3779B9) + (j * 131)) land 0xFF))
  in
  let t, _ = Wal.open_ ~dir ~policy ~fresh:true () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to durable_appends - 1 do
    ignore (Wal.append t (payload i) : int)
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let s = Wal.stats t in
  Wal.close t;
  (* gates: the log must hold exactly what was appended, and the sync
     counter must match the policy's promise *)
  let recovered =
    match Wal.load ~dir with
    | Error _ -> false
    | Ok r ->
        List.length r.Wal.r_entries = durable_appends
        && List.for_all (fun (seq, p) -> p = payload seq) r.Wal.r_entries
  in
  let want_syncs =
    match policy with
    | Wal.Every k -> Some (durable_appends / k)
    | Wal.Never -> Some 0
    | Wal.Interval_ms _ -> None
  in
  ( {
      case = label;
      metrics =
        [
          ints "appends" "count" [ s.Wal.appends ];
          nums "appends_per_sec" "1/s" [ float_of_int durable_appends /. wall ];
          nums "throughput" "MB/s" [ float_of_int s.Wal.appended_bytes /. wall /. 1e6 ];
          nums "per_append" "us" [ wall /. float_of_int durable_appends *. 1e6 ];
          ints "fsyncs" "count" [ s.Wal.syncs ];
          nums "wall" "s" [ wall ];
        ];
    },
    gate (label ^ ": recovers every appended record intact") recovered
    :: Option.to_list
         (Option.map
            (fun want ->
              gate (Printf.sprintf "%s: %d fsyncs on the append path" label want)
                (s.Wal.syncs = want))
            want_syncs) )

let run_durable_recovery root n_records =
  let dir = Filename.concat root (Printf.sprintf "recover-%d" n_records) in
  let payload i = Printf.sprintf "%032d" i in
  let t, _ = Wal.open_ ~dir ~policy:Wal.Never ~fresh:true () in
  for i = 0 to n_records - 1 do
    ignore (Wal.append t (payload i) : int)
  done;
  Wal.close t;
  let t0 = Unix.gettimeofday () in
  let r1 = Wal.load ~dir in
  let load_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let case = Printf.sprintf "recover-%d" n_records in
  let digest, agree, complete =
    match (r1, Wal.load ~dir) with
    | Ok r1, Ok r2 ->
        ( Wal.digest r1,
          Wal.digest r1 = Wal.digest r2,
          List.length r1.Wal.r_entries = n_records )
    | Error e, _ | _, Error e -> ("load failed: " ^ e, false, false)
  in
  ( {
      case;
      metrics =
        [
          ints "records" "count" [ n_records ];
          nums "load" "ms" [ load_ms ];
          text "digest" digest;
        ];
    },
    [
      gate (case ^ ": two loads give one digest") agree;
      gate (case ^ ": recovers every record") complete;
    ] )

let run_durable_benchmarks ?target () =
  let root, cleanup = Fsio.scratch_dir "repro-bench-wal" in
  let record =
    Fun.protect ~finally:cleanup (fun () ->
        let policies, policy_gates =
          List.split (List.map (run_durable_policy root) durable_policies)
        in
        let recoveries, recovery_gates =
          List.split (List.map (run_durable_recovery root) durable_recovery_lengths)
        in
        {
          tier = "durable";
          params =
            [
              int_param "seed" seed;
              int_param "appends" durable_appends;
              int_param "payload_bytes" durable_payload_bytes;
            ];
          tables =
            [
              {
                title =
                  Printf.sprintf
                    "Durable tier (WAL group commit, %d appends x %d B payload)"
                    durable_appends durable_payload_bytes;
                rows = policies;
              };
              { title = "Recovery (Wal.load)"; rows = recoveries };
            ];
          gates = List.concat (policy_gates @ recovery_gates);
          notes = [];
        })
  in
  report ?target record

(* --- reconfig: live-membership tier ----------------------------------------------
   What does a membership change cost while the cluster keeps serving
   traffic?  Each scenario drives the epoch-fenced reconfiguration
   harness under a seeded chaos plan and records the three numbers this
   tier exists for: time-to-rebalance (proposal broadcast -> epoch
   commit), keys moved (gated at <= 2kK/n per single change — the
   consistent-hash minimal-movement promise), and the client-visible
   unavailability window (longest stretch a member owed state it could
   not yet serve).

   Correctness gates ride along: every reassembled history must pass the
   tier's advertised criterion (cache consistency), the movement gate
   must hold for every scenario, and the crash scenario must actually
   restart a node mid-migration. *)

module Reconfig = Repro_cluster.Reconfig

let reconfig_nodes = 5

let reconfig_k = 2

let reconfig_vnodes = 64

let reconfig_vars = 32

let reconfig_writes = 30

(* the ring seed the qcheck suite and CI smoke also pin; [crash=0@5]
   counts node 0's migration-record sends, which are deterministic given
   this (seed, vnodes, vars) placement *)
let reconfig_seed = 11

let reconfig_scenarios =
  [
    ("join", "seed=7,join=4@250", false);
    ("leave", "seed=7,leave=1@250", false);
    ("join+leave+crash", "seed=7,join=4@250,leave=1@600,crash=0@5+300", true);
  ]

(* (summary rows, event rows, gates, notes) of one scenario: Reconfig's
   reports, with the scenario's name on each event and gate *)
let run_reconfig_scenario (name, plan_text, expect_restart) =
  match
    Result.bind (Fault.Plan.parse plan_text) (fun plan ->
        Reconfig.run ~n:reconfig_nodes ~k:reconfig_k ~vnodes:reconfig_vnodes
          ~n_vars:reconfig_vars ~seed:reconfig_seed ~writes:reconfig_writes
          ~chaos:plan ())
  with
  | Error msg ->
      ([], [], [ gate (name ^ ": run completed") false ], [ name ^ ": " ^ msg ])
  | Ok o ->
      ( [ { case = name; metrics = Reconfig.summary o @ [ text "plan" o.Reconfig.chaos ] } ],
        List.map
          (fun r -> { r with case = name ^ " " ^ r.case })
          (Reconfig.events_table o).rows,
        List.map (fun g -> { g with gate = name ^ ": " ^ g.gate }) (Reconfig.gates o)
        @ (if expect_restart then
             [
               gate
                 (name ^ ": the scheduled mid-migration crash fired")
                 (o.Reconfig.restarts > 0);
             ]
           else []),
        [] )

let run_reconfig_benchmarks ?target () =
  let results = List.map run_reconfig_scenario reconfig_scenarios in
  let all f = List.concat_map f results in
  report ?target
    {
      tier = "reconfig";
      params =
        [
          int_param "nodes" reconfig_nodes;
          int_param "k" reconfig_k;
          int_param "vnodes" reconfig_vnodes;
          int_param "vars" reconfig_vars;
          int_param "writes" reconfig_writes;
          int_param "seed" reconfig_seed;
        ];
      tables =
        [
          {
            title =
              Printf.sprintf
                "Reconfig tier (%d nodes, k=%d, vnodes=%d, %d vars, seed %d)"
                reconfig_nodes reconfig_k reconfig_vnodes reconfig_vars reconfig_seed;
            rows = all (fun (rows, _, _, _) -> rows);
          };
          {
            title = "Reconfig events (commit order)";
            rows = all (fun (_, events, _, _) -> events);
          };
        ];
      gates = all (fun (_, _, gates, _) -> gates);
      notes = all (fun (_, _, _, notes) -> notes);
    }

(* --- argument parsing ---------------------------------------------------------- *)

type mode =
  | Default
  | Tables_only
  | One_experiment of string
  | Sim_only
  | Check_only
  | Cluster_only
  | Chaos_only
  | Load_only
  | Hotpath_only
  | Durable_only
  | Reconfig_only

let () =
  let mode = ref Default in
  let json = ref None in
  let usage () =
    prerr_endline
      "usage: bench [--tables] [--sim] [--check] [--cluster] [--chaos] [--load] \
       [--hotpath] [--durable] [--reconfig] [--experiment ID] [--jobs N] \
       [--json FILE|DIR]";
    exit 1
  in
  let rec parse = function
    | [] -> ()
    | "--tables" :: rest ->
        mode := Tables_only;
        parse rest
    | "--sim" :: rest ->
        mode := Sim_only;
        parse rest
    | "--check" :: rest ->
        mode := Check_only;
        parse rest
    | "--cluster" :: rest ->
        mode := Cluster_only;
        parse rest
    | "--chaos" :: rest ->
        mode := Chaos_only;
        parse rest
    | "--load" :: rest ->
        mode := Load_only;
        parse rest
    | "--hotpath" :: rest ->
        mode := Hotpath_only;
        parse rest
    | "--durable" :: rest ->
        mode := Durable_only;
        parse rest
    | "--reconfig" :: rest ->
        mode := Reconfig_only;
        parse rest
    | "--experiment" :: id :: rest ->
        mode := One_experiment id;
        parse rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            Pool.set_default_jobs n;
            parse rest
        | _ -> usage ())
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let target =
    Option.map
      (fun path ->
        match target path with
        | Ok t -> t
        | Error msg ->
            prerr_endline ("bench: " ^ msg);
            exit 1)
      !json
  in
  match !mode with
  | Tables_only -> print_tables ()
  | Sim_only ->
      let gates = sim_pin_gates () in
      run_bechamel ?target ~tier:"sim" ~gates:(fun () -> gates) [ (1.0, sim_tests) ]
  | Check_only ->
      let counters = counted_pass () in
      run_bechamel ?target ~tier:"check" ~counters ~gates:check_gates
        [ (2.0, check_tests) ]
  | Cluster_only -> run_cluster_benchmarks ?target ()
  | Chaos_only -> run_chaos_benchmarks ?target ()
  | Load_only -> run_load_benchmarks ?target ()
  | Hotpath_only -> run_hotpath_benchmarks ?target ()
  | Durable_only -> run_durable_benchmarks ?target ()
  | Reconfig_only -> run_reconfig_benchmarks ?target ()
  | One_experiment id -> if not (print_one id) then exit 1
  | Default ->
      print_tables ();
      let counters = counted_pass () in
      (* the seq-vs-par and engine-comparison probes take hundreds of ms
         each; give those groups a larger quota so OLS sees enough runs *)
      run_bechamel ?target ~tier:"bechamel" ~counters
        [
          (0.5, table_tests @ micro_tests @ sim_tests);
          (2.0, comparison_tests @ check_tests);
        ]
