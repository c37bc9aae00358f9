(* Benchmark harness: regenerates every experiment table of DESIGN.md's
   per-experiment index (E1, R1, T1, A2, E2, A1, H1, B1, L1, C1) and times
   the pieces with Bechamel — one Test.make per table, micro-benchmarks of
   the library's hot paths, and a sequential-vs-parallel consistency-checker
   comparison group on the E1-scaling workload.

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
module Table = Repro_util.Table
module Pool = Repro_util.Pool
module Jsonout = Repro_util.Jsonout

let seed = 20_240_601

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
   of deliveries it processed (deterministic in the seed), so the JSON
   record can report events/second and minor words per delivery alongside
   the per-run time.  The counts are exact, so they are pinned: [--sim]
   exits 2 when a probe delivers any other number. *)

(* Dense broadcast storm: every delivery fans out to all peers until the
   round budget is spent, keeping the scheduler heap deep — this measures
   pure Net.push/pop plus envelope handling, no protocol logic. *)
let sim_dense_broadcast () =
  let n = 16 in
  let net = Net.create ~n ~latency:(Latency.uniform ~lo:1 ~hi:16) ~seed:97 () in
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
    ("sim:dense-broadcast", sim_dense_broadcast, 30_015);
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

let sim_events_of name = Option.map (fun p -> p.deliveries) (sim_probe_of name)

(* every run of every probe must deliver exactly its pinned count *)
let check_sim_pins () =
  let probes = Lazy.force sim_probes in
  let failures =
    List.concat_map
      (fun (name, p) ->
        List.filter_map
          (fun d ->
            if d = p.pinned then None
            else Some (Printf.sprintf "%s delivered %d, pinned %d" name d p.pinned))
          [ p.warm; p.deliveries ])
      probes
  in
  match failures with
  | [] ->
      List.iter
        (fun (name, p) -> Printf.printf "%s: %d deliveries (pinned)\n" name p.pinned)
        probes
  | failures ->
      List.iter (fun f -> prerr_endline ("sim determinism gate: " ^ f)) failures;
      exit 2

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
  let spec =
    match Registry.find "pram-partial" with
    | Some spec -> spec
    | None -> failwith "pram-partial not registered"
  in
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
     let spec =
       match Registry.find "pram-partial" with
       | Some spec -> spec
       | None -> failwith "pram-partial not registered"
     in
     List.init 16 (fun k ->
         let memory = spec.Registry.make ~latency ~dist ~seed:(seed + k) () in
         Workload.run_random ~profile ~seed:(seed + k + 100) memory)
     @ List.map snd (Experiment.adversarial_histories spec ~seed))

let a2x_bank =
  lazy
    (let profile = { Workload.ops_per_proc = 20; read_ratio = 0.5; max_think = 5 } in
     let dist = Distribution.full ~n_procs:6 ~n_vars:3 in
     let latency = Latency.uniform ~lo:1 ~hi:25 in
     let spec =
       match Registry.find "pram-partial" with
       | Some spec -> spec
       | None -> failwith "pram-partial not registered"
     in
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
     let spec =
       match Registry.find "causal-partial" with
       | Some spec -> spec
       | None -> failwith "causal-partial not registered"
     in
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

let check_tests =
  [
    Test.make ~name:"check:a2-sweep-search"
      (Staged.stage (fun () ->
           sweep_bank ~engine:Checker.Search (Lazy.force a2_bank)));
    Test.make ~name:"check:a2-sweep-saturation"
      (Staged.stage (fun () ->
           sweep_bank ~engine:Checker.Saturation (Lazy.force a2_bank)));
    Test.make ~name:"check:a2x-sweep-saturation"
      (Staged.stage (fun () ->
           sweep_bank ~engine:Checker.Saturation (Lazy.force a2x_bank)));
    Test.make ~name:"check:e1x-causal-n32-saturation"
      (Staged.stage (fun () ->
           ignore
             (Checker.check ~engine:Checker.Saturation Checker.Causal
                (Lazy.force e1x_history))));
  ]

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

let fmt_ns est =
  if est > 1_000_000.0 then Printf.sprintf "%.2f ms" (est /. 1_000_000.0)
  else if est > 1_000.0 then Printf.sprintf "%.2f us" (est /. 1_000.0)
  else Printf.sprintf "%.0f ns" est

let json_record ?(notes = []) rows =
  let results =
    List.map
      (fun (name, estimate) ->
        let events =
          match sim_events_of name with
          | Some e when e > 0 -> [ ("events", Jsonout.Int e) ]
          | _ -> []
        in
        let throughput =
          match (estimate, sim_events_of name) with
          | Some ns, Some e when e > 0 && ns > 0.0 ->
              [ ("events_per_sec", Jsonout.Float (float_of_int e /. ns *. 1e9)) ]
          | _ -> []
        in
        let allocation =
          match sim_probe_of name with
          | Some p ->
              [ ("minor_words_per_delivery", Jsonout.Float p.words_per_delivery) ]
          | None -> []
        in
        Jsonout.Obj
          ([
             ("benchmark", Jsonout.String name);
             ( "time_per_run_ns",
               match estimate with
               | Some ns -> Jsonout.Float ns
               | None -> Jsonout.Null );
           ]
          @ events @ throughput @ allocation))
      rows
  in
  let find suffix =
    List.find_map
      (fun (name, estimate) ->
        if String.ends_with ~suffix name then estimate else None)
      rows
  in
  let comparison =
    match (find "check-seq:causal-e1", find "check-par:causal-e1") with
    | Some seq_ns, Some par_ns ->
        Jsonout.Obj
          [
            ("benchmark", Jsonout.String "causal-e1");
            ("seq_ns", Jsonout.Float seq_ns);
            ("par_ns", Jsonout.Float par_ns);
            ("speedup", Jsonout.Float (seq_ns /. par_ns));
          ]
    | _ -> Jsonout.Null
  in
  let engine_comparison =
    match (find "check:a2-sweep-search", find "check:a2-sweep-saturation") with
    | Some search_ns, Some sat_ns ->
        Jsonout.Obj
          [
            ("benchmark", Jsonout.String "a2-all-criteria-sweep");
            ("search_ns", Jsonout.Float search_ns);
            ("saturation_ns", Jsonout.Float sat_ns);
            ("speedup", Jsonout.Float (search_ns /. sat_ns));
          ]
    | _ -> Jsonout.Null
  in
  let saturation_counters =
    let c = Saturation.counters () in
    let total =
      c.Saturation.merge_hits + c.Saturation.cycle_refutations
      + c.Saturation.greedy_hits + c.Saturation.unknowns
    in
    if total = 0 then Jsonout.Null
    else
      Jsonout.Obj
        [
          ("merge_hits", Jsonout.Int c.Saturation.merge_hits);
          ("cycle_refutations", Jsonout.Int c.Saturation.cycle_refutations);
          ("greedy_hits", Jsonout.Int c.Saturation.greedy_hits);
          ("search_fallbacks", Jsonout.Int c.Saturation.unknowns);
          ( "fallback_rate",
            Jsonout.Float (float_of_int c.Saturation.unknowns /. float_of_int total) );
        ]
  in
  Jsonout.Obj
    ([
       ("schema", Jsonout.String "repro-bench/1");
       ("seed", Jsonout.Int seed);
       ("jobs", Jsonout.Int (Pool.default_jobs ()));
       ("seq_vs_par", comparison);
       ("search_vs_saturation", engine_comparison);
       ("saturation_counters", saturation_counters);
     ]
    @ (match notes with
      | [] -> []
      | notes ->
          [ ("notes", Jsonout.List (List.map (fun n -> Jsonout.String n) notes)) ])
    @ [ ("results", Jsonout.List results) ])

let print_rows rows =
  print_endline "== Bechamel timings (monotonic clock, OLS per run) ==";
  Table.print ~header:[ "benchmark"; "time/run"; "events/sec" ]
    ~rows:
      (List.map
         (fun (name, estimate) ->
           let throughput =
             match (estimate, sim_events_of name) with
             | Some ns, Some e when e > 0 && ns > 0.0 ->
                 Printf.sprintf "%.0f" (float_of_int e /. ns *. 1e9)
             | _ -> ""
           in
           [
             name;
             (match estimate with Some e -> fmt_ns e | None -> "n/a");
             throughput;
           ])
         rows)
    ()

(* When --json names a directory, the record auto-numbers itself into the
   trajectory (bench/records/BENCH_NNNN.json): next free slot after the
   highest existing record, with a note listing any gaps below it so the
   history stays honest (BENCH_0001 was never recorded). *)
let resolve_json_path path =
  if Sys.file_exists path && Sys.is_directory path then begin
    let recorded =
      Sys.readdir path |> Array.to_list
      |> List.filter_map (fun f ->
             if
               String.length f = 15
               && String.sub f 0 6 = "BENCH_"
               && Filename.check_suffix f ".json"
             then int_of_string_opt (String.sub f 6 4)
             else None)
      |> List.sort_uniq compare
    in
    let next = 1 + List.fold_left Stdlib.max (-1) recorded in
    (* flag only holes inside the recorded range: a trajectory that simply
       starts later than BENCH_0001 (records pruned, or numbering began
       mid-series) is not a gap worth a note on every subsequent record *)
    let first = List.fold_left Stdlib.min next recorded in
    let gaps =
      List.filter
        (fun i -> i > first && not (List.mem i recorded))
        (List.init next Fun.id)
    in
    let notes =
      match gaps with
      | [] -> []
      | gaps ->
          [
            Printf.sprintf
              "trajectory gap: %s never recorded; numbering continues at the \
               next free slot"
              (String.concat ", "
                 (List.map (Printf.sprintf "BENCH_%04d") gaps));
          ]
    in
    (Filename.concat path (Printf.sprintf "BENCH_%04d.json" next), notes)
  end
  else (path, [])

let write_record record_of_notes = function
  | None -> ()
  | Some path ->
      let path, notes = resolve_json_path path in
      Out_channel.with_open_text path (fun oc ->
          Jsonout.to_channel oc (record_of_notes ~notes));
      Printf.printf "wrote %s\n" path

let write_json rows json =
  write_record (fun ~notes -> json_record ~notes rows) json

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

type cluster_row = {
  cl_protocol : string;
  cl_workload : string;
  cl_n : int;
  node_ms : int list;  (** Per rep: slowest node, hello to close. *)
  harness_ms : float list;  (** Per rep: parent wall clock, fork to join. *)
  sim_ms : float;  (** One whole-instance run on the simulator. *)
  messages : int;
  control : int;
  payload : int;
  parity : bool option;  (** [None] when the workload is not parity-eligible. *)
  accepted : bool;  (** Verdict consistent / finals acceptance passed. *)
}

let run_cluster_case (protocol_name, workload, n) =
  let protocol =
    match Registry.find protocol_name with
    | Some spec -> spec
    | None -> failwith (protocol_name ^ " not registered")
  in
  let outcomes =
    List.init cluster_reps (fun rep ->
        let t0 = Unix.gettimeofday () in
        match Cluster.run ~n ~protocol ~workload ~seed:(seed + rep) () with
        | Error msg ->
            failwith
              (Printf.sprintf "cluster %s/%s/n=%d: %s" protocol_name workload n
                 msg)
        | Ok o -> (o, (Unix.gettimeofday () -. t0) *. 1e3))
  in
  let o0, _ = List.hd outcomes in
  let baseline_of seed =
    let t0 = Unix.gettimeofday () in
    match Cluster.sim_baseline ~n ~protocol ~workload ~seed () with
    | Error msg -> failwith msg
    | Ok b -> ((Unix.gettimeofday () -. t0) *. 1e3, b)
  in
  let sim_ms, _ = baseline_of seed in
  let parity =
    (* Bellman-Ford's per-round rewrites make its send count depend on
       convergence timing; only E1's fan-out is timing-independent. *)
    if workload = "bellman-ford" then None
    else
      Some
        (List.for_all
           (fun ((o : Cluster.outcome), _) ->
             let _, b = baseline_of o.Cluster.seed in
             let m = b.Cluster.metrics in
             o.Cluster.messages_sent = m.Memory.messages_sent
             && o.Cluster.control_bytes = m.Memory.control_bytes
             && o.Cluster.payload_bytes = m.Memory.payload_bytes)
           outcomes)
  in
  let accepted =
    List.for_all
      (fun ((o : Cluster.outcome), _) ->
        (match o.Cluster.verdict with
        | Checker.Consistent -> true
        | Checker.Inconsistent -> false
        | Checker.Undecidable _ -> not o.Cluster.history_checked)
        && Result.is_ok o.Cluster.finals)
      outcomes
  in
  {
    cl_protocol = protocol_name;
    cl_workload = workload;
    cl_n = n;
    node_ms = List.map (fun ((o : Cluster.outcome), _) -> o.Cluster.wall_ms) outcomes;
    harness_ms = List.map snd outcomes;
    sim_ms;
    messages = o0.Cluster.messages_sent;
    control = o0.Cluster.control_bytes;
    payload = o0.Cluster.payload_bytes;
    parity;
    accepted;
  }

let cluster_json_record rows ~notes =
  let row_json r =
    Jsonout.Obj
      [
        ("protocol", Jsonout.String r.cl_protocol);
        ("workload", Jsonout.String r.cl_workload);
        ("nodes", Jsonout.Int r.cl_n);
        ("reps", Jsonout.Int cluster_reps);
        ("node_wall_ms", Jsonout.List (List.map (fun m -> Jsonout.Int m) r.node_ms));
        ( "harness_wall_ms",
          Jsonout.List (List.map (fun m -> Jsonout.Float m) r.harness_ms) );
        ("sim_wall_ms", Jsonout.Float r.sim_ms);
        ("messages", Jsonout.Int r.messages);
        ("control_bytes", Jsonout.Int r.control);
        ("payload_bytes", Jsonout.Int r.payload);
        ( "sim_parity",
          match r.parity with Some b -> Jsonout.Bool b | None -> Jsonout.Null );
        ("accepted", Jsonout.Bool r.accepted);
      ]
  in
  Jsonout.Obj
    ([
       ("schema", Jsonout.String "repro-bench/1");
       ("seed", Jsonout.Int seed);
       ("cluster_reps", Jsonout.Int cluster_reps);
     ]
    @ (match notes with
      | [] -> []
      | notes ->
          [ ("notes", Jsonout.List (List.map (fun n -> Jsonout.String n) notes)) ])
    @ [ ("cluster", Jsonout.List (List.map row_json rows)) ])

let run_cluster_benchmarks ?json () =
  let rows = List.map run_cluster_case cluster_cases in
  print_endline "== Live cluster tier (wall clock, forked loopback nodes) ==";
  Table.print
    ~header:
      [
        "protocol"; "workload"; "n"; "node ms"; "harness ms"; "sim ms"; "msgs";
        "ctl B"; "parity"; "accepted";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.cl_protocol;
             r.cl_workload;
             string_of_int r.cl_n;
             String.concat "/" (List.map string_of_int r.node_ms);
             String.concat "/"
               (List.map (fun m -> Printf.sprintf "%.0f" m) r.harness_ms);
             Printf.sprintf "%.1f" r.sim_ms;
             string_of_int r.messages;
             string_of_int r.control;
             (match r.parity with
             | Some true -> "exact"
             | Some false -> "MISMATCH"
             | None -> "n/a");
             (if r.accepted then "yes" else "NO");
           ])
         rows)
    ();
  (if
     List.exists
       (fun r -> r.parity = Some false || not r.accepted)
       rows
   then begin
     prerr_endline "cluster tier: parity mismatch or rejected run";
     exit 2
   end);
  write_record (cluster_json_record rows) json

(* --- chaos: robustness tier ------------------------------------------------------
   What does reliability cost, and how fast does the cluster come back?
   Each row reruns the same live (pram-partial, e1, n=3) configuration under
   a different chaos plan: the plain baseline, the session layer at zero
   loss (pure machinery cost), escalating drop rates, and a scheduled
   crash+restart (time-to-recover shows up as the wall-clock delta against
   the plain row).  Every row re-asserts the accounting invariant that the
   paper's numbers survive chaos: protocol-level message/byte totals equal
   the fault-free simulator baseline exactly, with the repair traffic
   summed apart in overhead_bytes.  A row is accepted only when, besides
   the verdict and finals, every respawned node replayed its frozen WAL to
   the same digest. *)

let chaos_cases =
  [
    ("plain", None, false);
    ("session-0loss", None, true);
    ("drop2", Some "seed=5,drop=0.02", true);
    ("drop5", Some "seed=5,drop=0.05,dup=0.02", true);
    ("drop10", Some "seed=5,drop=0.10,dup=0.05,reorder=0.2", true);
    ("crash+restart", Some "seed=11,drop=0.03,crash=1@6+250", true);
  ]

type chaos_row = {
  ch_label : string;
  ch_plan : string;
  ch_node_ms : int list;
  ch_harness_ms : float list;
  ch_messages : int;
  ch_control : int;
  ch_overhead : int;
  ch_retransmits : int;
  ch_restarts : int;
  ch_parity : bool;
  ch_accepted : bool;
}

let run_chaos_case (label, plan_text, session) =
  let protocol = Option.get (Registry.find "pram-partial") in
  let chaos =
    Option.map
      (fun t ->
        match Fault.Plan.parse t with
        | Ok p -> p
        | Error msg -> failwith (Printf.sprintf "plan %S: %s" t msg))
      plan_text
  in
  let outcomes =
    List.init cluster_reps (fun rep ->
        let t0 = Unix.gettimeofday () in
        match
          Cluster.run ~n:3 ~protocol ~workload:"e1" ~seed:(seed + rep) ?chaos
            ~session ()
        with
        | Error msg -> failwith (Printf.sprintf "chaos %s: %s" label msg)
        | Ok o -> (o, (Unix.gettimeofday () -. t0) *. 1e3))
  in
  let o0, _ = List.hd outcomes in
  let parity =
    List.for_all
      (fun ((o : Cluster.outcome), _) ->
        match
          Cluster.sim_baseline ~n:3 ~protocol ~workload:"e1"
            ~seed:o.Cluster.seed ()
        with
        | Error msg -> failwith msg
        | Ok b ->
            let m = b.Cluster.metrics in
            o.Cluster.messages_sent = m.Memory.messages_sent
            && o.Cluster.control_bytes = m.Memory.control_bytes
            && o.Cluster.payload_bytes = m.Memory.payload_bytes)
      outcomes
  in
  let accepted =
    List.for_all
      (fun ((o : Cluster.outcome), _) ->
        (match o.Cluster.verdict with
        | Checker.Consistent -> true
        | Checker.Inconsistent -> false
        | Checker.Undecidable _ -> not o.Cluster.history_checked)
        && Result.is_ok o.Cluster.finals
        && o.Cluster.wal_parity)
      outcomes
  in
  let sum f = List.fold_left (fun acc (o, _) -> acc + f o) 0 outcomes in
  let reps = List.length outcomes in
  {
    ch_label = label;
    ch_plan = o0.Cluster.chaos;
    ch_node_ms =
      List.map (fun ((o : Cluster.outcome), _) -> o.Cluster.wall_ms) outcomes;
    ch_harness_ms = List.map snd outcomes;
    ch_messages = o0.Cluster.messages_sent;
    ch_control = o0.Cluster.control_bytes;
    ch_overhead = sum (fun o -> o.Cluster.overhead_bytes) / reps;
    ch_retransmits = sum (fun o -> o.Cluster.retransmits) / reps;
    ch_restarts = sum (fun o -> o.Cluster.restarts);
    ch_parity = parity;
    ch_accepted = accepted;
  }

let chaos_json_record rows ~notes =
  let row_json r =
    Jsonout.Obj
      [
        ("label", Jsonout.String r.ch_label);
        ("plan", Jsonout.String r.ch_plan);
        ("reps", Jsonout.Int cluster_reps);
        ( "node_wall_ms",
          Jsonout.List (List.map (fun m -> Jsonout.Int m) r.ch_node_ms) );
        ( "harness_wall_ms",
          Jsonout.List (List.map (fun m -> Jsonout.Float m) r.ch_harness_ms) );
        ("messages", Jsonout.Int r.ch_messages);
        ("control_bytes", Jsonout.Int r.ch_control);
        ("overhead_bytes_mean", Jsonout.Int r.ch_overhead);
        ("retransmits_mean", Jsonout.Int r.ch_retransmits);
        ("restarts_total", Jsonout.Int r.ch_restarts);
        ("sim_parity", Jsonout.Bool r.ch_parity);
        ("accepted", Jsonout.Bool r.ch_accepted);
      ]
  in
  Jsonout.Obj
    ([
       ("schema", Jsonout.String "repro-bench/1");
       ("seed", Jsonout.Int seed);
       ("cluster_reps", Jsonout.Int cluster_reps);
     ]
    @ (match notes with
      | [] -> []
      | notes ->
          [ ("notes", Jsonout.List (List.map (fun n -> Jsonout.String n) notes)) ])
    @ [ ("chaos", Jsonout.List (List.map row_json rows)) ])

let run_chaos_benchmarks ?json () =
  let rows = List.map run_chaos_case chaos_cases in
  print_endline
    "== Chaos tier (pram-partial / e1 / n=3, wall clock, forked loopback \
     nodes) ==";
  Table.print
    ~header:
      [
        "case"; "node ms"; "harness ms"; "msgs"; "ctl B"; "ovh B"; "retr";
        "restarts"; "parity"; "accepted";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.ch_label;
             String.concat "/" (List.map string_of_int r.ch_node_ms);
             String.concat "/"
               (List.map (fun m -> Printf.sprintf "%.0f" m) r.ch_harness_ms);
             string_of_int r.ch_messages;
             string_of_int r.ch_control;
             string_of_int r.ch_overhead;
             string_of_int r.ch_retransmits;
             string_of_int r.ch_restarts;
             (if r.ch_parity then "exact" else "MISMATCH");
             (if r.ch_accepted then "yes" else "NO");
           ])
         rows)
    ();
  (if List.exists (fun r -> (not r.ch_parity) || not r.ch_accepted) rows then begin
     prerr_endline "chaos tier: parity mismatch or rejected run";
     exit 2
   end);
  write_record (chaos_json_record rows) json

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
module Stats = Repro_util.Stats

let load_reps = 3

let load_curve_cases =
  [ ("pram-partial", 3); ("causal-full", 3); ("pram-partial", 5); ("causal-full", 5) ]

let load_config ~protocol ~n ~mix ~rate ~duration_ms ~coalesce ~drain_plan ~seed
    =
  {
    Load.protocol =
      (match Registry.find protocol with
      | Some spec -> spec
      | None -> failwith (protocol ^ " not registered"));
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

let median_f l =
  match List.sort compare l with
  | [] -> 0.0
  | sorted -> List.nth sorted (List.length sorted / 2)

type load_row = {
  ld_protocol : string;
  ld_n : int;
  ld_reps : Load.result list;
  ld_ops_per_sec : float;  (** Median over reps. *)
  ld_ops_per_cpu : float;  (** Median over reps. *)
  ld_p50 : float;
  ld_p95 : float;
  ld_p99 : float;
}

let run_load_case (protocol, n) =
  let reps =
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
             ~seed:(seed + rep)))
  in
  let med f = median_f (List.map f reps) in
  let pct p =
    med (fun (r : Load.result) ->
        if Stats.count r.Load.lat_us = 0 then 0.0
        else Stats.percentile r.Load.lat_us p)
  in
  {
    ld_protocol = protocol;
    ld_n = n;
    ld_reps = reps;
    ld_ops_per_sec = med (fun r -> r.Load.ops_per_sec);
    ld_ops_per_cpu = med (fun r -> r.Load.ops_per_node_cpu_s);
    ld_p50 = pct 50.0;
    ld_p95 = pct 95.0;
    ld_p99 = pct 99.0;
  }

type coalescing_pair = { on : Load.result; off : Load.result }

let run_coalescing_pair () =
  let cfg coalesce =
    load_config ~protocol:"pram-partial" ~n:3 ~mix:Mix.write_heavy
      ~rate:20_000.0 ~duration_ms:1_000 ~coalesce ~drain_plan:true
      ~seed:(seed + 77)
  in
  { on = run_load (cfg 16); off = run_load (cfg 1) }

let load_json_record rows pair ~notes =
  let row_json r =
    let bytes_per_op (x : Load.result) =
      float_of_int (x.Load.control_bytes + x.Load.payload_bytes)
      /. float_of_int (Stdlib.max 1 x.Load.completed_ops)
    in
    Jsonout.Obj
      [
        ("protocol", Jsonout.String r.ld_protocol);
        ("nodes", Jsonout.Int r.ld_n);
        ("reps", Jsonout.Int load_reps);
        ("ops_per_sec_median", Jsonout.Float r.ld_ops_per_sec);
        ("ops_per_node_cpu_s_median", Jsonout.Float r.ld_ops_per_cpu);
        ( "protocol_bytes_per_op_median",
          Jsonout.Float (median_f (List.map bytes_per_op r.ld_reps)) );
        ("latency_p50_us_median", Jsonout.Float r.ld_p50);
        ("latency_p95_us_median", Jsonout.Float r.ld_p95);
        ("latency_p99_us_median", Jsonout.Float r.ld_p99);
        ("runs", Jsonout.List (List.map Load.json_of_result r.ld_reps));
      ]
  in
  let pair_json =
    Jsonout.Obj
      [
        ("coalesce_on", Load.json_of_result pair.on);
        ("coalesce_off", Load.json_of_result pair.off);
        ( "protocol_lane_identical",
          Jsonout.Bool
            (pair.on.Load.messages_sent = pair.off.Load.messages_sent
            && pair.on.Load.control_bytes = pair.off.Load.control_bytes
            && pair.on.Load.payload_bytes = pair.off.Load.payload_bytes) );
        ( "frames_saved",
          Jsonout.Int (pair.off.Load.frames_sent - pair.on.Load.frames_sent) );
        ( "overhead_bytes_saved",
          Jsonout.Int
            (pair.off.Load.overhead_bytes - pair.on.Load.overhead_bytes) );
      ]
  in
  Jsonout.Obj
    ([
       ("schema", Jsonout.String "repro-bench/1");
       ("seed", Jsonout.Int seed);
       ("load_reps", Jsonout.Int load_reps);
     ]
    @ (match notes with
      | [] -> []
      | notes ->
          [ ("notes", Jsonout.List (List.map (fun n -> Jsonout.String n) notes)) ])
    @ [
        ("load", Jsonout.List (List.map row_json rows));
        ("coalescing", pair_json);
      ])

let run_load_benchmarks ?json () =
  let rows = List.map run_load_case load_curve_cases in
  print_endline
    "== Load tier (open loop, read-heavy, fixed-work 3s drain plans, medians \
     of 3) ==";
  Table.print
    ~header:
      [
        "protocol"; "n"; "ops/s"; "ops/node-cpu-s"; "p50 us"; "p95 us"; "p99 us";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.ld_protocol;
             string_of_int r.ld_n;
             Printf.sprintf "%.0f" r.ld_ops_per_sec;
             Printf.sprintf "%.0f" r.ld_ops_per_cpu;
             Printf.sprintf "%.0f" r.ld_p50;
             Printf.sprintf "%.0f" r.ld_p95;
             Printf.sprintf "%.0f" r.ld_p99;
           ])
         rows)
    ();
  let pair = run_coalescing_pair () in
  Printf.printf
    "coalescing (pram-partial, n=3, write-heavy, drain-plan): %d -> %d frames, \
     %d -> %d overhead bytes, protocol lane %s\n"
    pair.off.Load.frames_sent pair.on.Load.frames_sent
    pair.off.Load.overhead_bytes pair.on.Load.overhead_bytes
    (if
       pair.on.Load.messages_sent = pair.off.Load.messages_sent
       && pair.on.Load.control_bytes = pair.off.Load.control_bytes
       && pair.on.Load.payload_bytes = pair.off.Load.payload_bytes
     then "byte-identical"
     else "MISMATCH");
  let find proto n =
    List.find (fun r -> r.ld_protocol = proto && r.ld_n = n) rows
  in
  let notes = ref [] in
  let failures = ref [] in
  let bytes_per_op (r : Load.result) =
    float_of_int (r.Load.control_bytes + r.Load.payload_bytes)
    /. float_of_int (Stdlib.max 1 r.Load.completed_ops)
  in
  List.iter
    (fun n ->
      let pram = find "pram-partial" n and causal = find "causal-full" n in
      (* paired efficiency gate: rep i of both protocols serves the same
         seed's op multiset, so the per-seed CPU-throughput ratio cancels
         plan-to-plan variation; the median ratio must favour partial
         replication *)
      let ratios =
        List.map2
          (fun (p : Load.result) (c : Load.result) ->
            p.Load.ops_per_node_cpu_s /. c.Load.ops_per_node_cpu_s)
          pram.ld_reps causal.ld_reps
      in
      let med_ratio = median_f ratios in
      if med_ratio <= 1.0 then
        failures :=
          Printf.sprintf
            "n=%d: paired CPU-throughput ratio pram/causal = %.3f (<= 1)" n
            med_ratio
          :: !failures;
      (* Theorem-2 gate: partial replication must move strictly fewer
         protocol bytes per completed op — deterministic given the fixed
         op multiset *)
      let pb = median_f (List.map bytes_per_op pram.ld_reps)
      and cb = median_f (List.map bytes_per_op causal.ld_reps) in
      if pb >= cb then
        failures :=
          Printf.sprintf
            "n=%d: pram-partial %.2f protocol B/op >= causal-full %.2f" n pb cb
          :: !failures;
      if pram.ld_ops_per_cpu <= causal.ld_ops_per_cpu then
        notes :=
          Printf.sprintf
            "n=%d: unpaired CPU-throughput medians tied or reversed (%.0f vs \
             %.0f) — the paired per-seed ratio carries the comparison"
            n pram.ld_ops_per_cpu causal.ld_ops_per_cpu
          :: !notes;
      if pram.ld_ops_per_sec <= causal.ld_ops_per_sec then
        notes :=
          Printf.sprintf
            "n=%d: wall-clock medians tied or reversed (%.0f vs %.0f ops/s) — \
             single-core scheduling noise; the CPU-normalized figure carries \
             the comparison"
            n pram.ld_ops_per_sec causal.ld_ops_per_sec
          :: !notes)
    (List.sort_uniq compare (List.map snd load_curve_cases));
  if
    pair.on.Load.messages_sent <> pair.off.Load.messages_sent
    || pair.on.Load.control_bytes <> pair.off.Load.control_bytes
    || pair.on.Load.payload_bytes <> pair.off.Load.payload_bytes
  then failures := "coalescing changed the protocol lane" :: !failures;
  if pair.on.Load.frames_sent >= pair.off.Load.frames_sent then
    failures := "coalescing did not reduce frames" :: !failures;
  if pair.on.Load.overhead_bytes >= pair.off.Load.overhead_bytes then
    failures := "coalescing did not reduce overhead bytes" :: !failures;
  List.iter (fun f -> Printf.eprintf "load tier FAILED: %s\n" f) !failures;
  write_record
    (fun ~notes:path_notes ->
      load_json_record rows pair ~notes:(path_notes @ List.rev !notes))
    json;
  if !failures <> [] then exit 2

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

type micro_row = { mb_name : string; mb_ns : float; mb_words : float }

let measure name ?(warmup = 10_000) ~iters f =
  for _ = 1 to warmup do f () done;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do f () done;
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  {
    mb_name = name;
    mb_ns = (t1 -. t0) *. 1e9 /. float_of_int iters;
    mb_words = (w1 -. w0) /. float_of_int iters;
  }

let hotpath_micro_rows () =
  let iters = 200_000 in
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
      measure (name ^ "/codec-encode") ~iters (fun () ->
          ignore (c.Tcodec.emit buf 0 msg : int));
      measure (name ^ "/codec-decode") ~iters (fun () ->
          ignore (c.Tcodec.parse buf 0 len : m * int));
      measure (name ^ "/marshal-encode") ~iters (fun () ->
          ignore (Marshal.to_bytes msg [] : Bytes.t));
      measure (name ^ "/marshal-decode") ~iters (fun () ->
          ignore (Marshal.from_string marshalled 0 : m));
      (* the steady-state send cycle: pooled buffer, header + body emitted
         in place, buffer recycled — the no-per-message-Bytes.create claim *)
      measure (name ^ "/pooled-frame-cycle") ~iters (fun () ->
          let fb = Wire.Pool.acquire pool (Wire.body_offset + len) in
          ignore (c.Tcodec.emit fb Wire.body_offset msg : int);
          Wire.set_header fb ~kind:Wire.Data ~src:0 ~dst:1 ~control_bytes:8
            ~payload_bytes:8 ~body_len:len;
          Wire.Pool.release pool fb);
    ]
  in
  bench_codec "pram-partial" Pram_partial.codec pram_msg
  @ bench_codec "causal-full" Causal_full.codec causal_msg

let hotpath_json_record micro ~notes =
  let micro_json r =
    Jsonout.Obj
      [
        ("name", Jsonout.String r.mb_name);
        ("ns_per_op", Jsonout.Float r.mb_ns);
        ("minor_words_per_op", Jsonout.Float r.mb_words);
      ]
  in
  Jsonout.Obj
    ([ ("schema", Jsonout.String "repro-hotpath/1") ]
    @ (match notes with
      | [] -> []
      | notes ->
          [ ("notes", Jsonout.List (List.map (fun n -> Jsonout.String n) notes)) ])
    @ [ ("micro", Jsonout.List (List.map micro_json micro)) ])

let run_hotpath_benchmarks ?json () =
  let micro = hotpath_micro_rows () in
  print_endline "== Hot path micro (200k iters after warmup) ==";
  Table.print
    ~header:[ "op"; "ns/op"; "minor words/op" ]
    ~rows:
      (List.map
         (fun r ->
           [ r.mb_name; Printf.sprintf "%.1f" r.mb_ns;
             Printf.sprintf "%.2f" r.mb_words ])
         micro)
    ();
  let failures = ref [] in
  List.iter
    (fun r ->
      (* emit writes into a caller buffer: any steady-state allocation is a
         regression on the zero-copy claim *)
      if
        (String.length r.mb_name >= 12
        && String.sub r.mb_name (String.length r.mb_name - 12) 12
           = "codec-encode")
        && r.mb_words > 1.0
      then
        failures :=
          Printf.sprintf "%s allocates %.2f minor words/op (expected ~0)"
            r.mb_name r.mb_words
          :: !failures;
      (* acquire/release bookkeeping is a cons or two, never a fresh frame
         buffer (the smallest pool class alone is 256 B = 32+ words) *)
      if
        String.length r.mb_name >= 18
        && String.sub r.mb_name (String.length r.mb_name - 18) 18
           = "pooled-frame-cycle"
        && r.mb_words > 16.0
      then
        failures :=
          Printf.sprintf "%s allocates %.2f minor words/op (pool not recycling)"
            r.mb_name r.mb_words
          :: !failures)
    micro;
  List.iter (fun f -> Printf.eprintf "hotpath tier FAILED: %s\n" f) !failures;
  write_record
    (fun ~notes -> hotpath_json_record micro ~notes)
    json;
  if !failures <> [] then exit 2

let run_benchmarks ?json () =
  (* the seq-vs-par and engine-comparison probes take hundreds of ms each;
     give those groups a larger quota so OLS sees enough runs *)
  let rows =
    bench_group ~quota:0.5 (table_tests @ micro_tests @ sim_tests)
    @ bench_group ~quota:2.0 (comparison_tests @ check_tests)
  in
  let rows = List.sort compare rows in
  print_rows rows;
  write_json rows json

let run_sim_benchmarks ?json () =
  check_sim_pins ();
  let rows = List.sort compare (bench_group ~quota:1.0 sim_tests) in
  print_rows rows;
  write_json rows json

let run_check_benchmarks ?json () =
  Saturation.reset_counters ();
  let rows = List.sort compare (bench_group ~quota:2.0 check_tests) in
  print_rows rows;
  (let c = Saturation.counters () in
   Printf.printf
     "saturation counters: merge=%d cycle=%d greedy=%d fallback-to-search=%d\n"
     c.Saturation.merge_hits c.Saturation.cycle_refutations
     c.Saturation.greedy_hits c.Saturation.unknowns);
  write_json rows json

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

type durable_row = {
  du_policy : string;
  du_appends : int;
  du_wall_s : float;
  du_appends_per_sec : float;
  du_mb_per_sec : float;
  du_syncs : int;
  du_us_per_append : float;
}

type recovery_row = {
  rc_records : int;
  rc_load_ms : float;
  rc_digest : string;
}

let durable_tmp_root () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "repro-bench-wal-%d" (Unix.getpid ()))
  in
  Fsio.remove_tree dir;
  Unix.mkdir dir 0o700;
  (dir, fun () -> Fsio.remove_tree dir)

let run_durable_policy root failures (label, policy) =
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
  (match Wal.load ~dir with
  | Error e ->
      failures := Printf.sprintf "%s: recovery failed: %s" label e :: !failures
  | Ok r ->
      if List.length r.Wal.r_entries <> durable_appends then
        failures :=
          Printf.sprintf "%s: recovered %d of %d records" label
            (List.length r.Wal.r_entries)
            durable_appends
          :: !failures
      else if
        not
          (List.for_all (fun (seq, p) -> p = payload seq) r.Wal.r_entries)
      then failures := Printf.sprintf "%s: payload mismatch" label :: !failures);
  (match policy with
  | Wal.Every 1 ->
      if s.Wal.syncs <> durable_appends then
        failures :=
          Printf.sprintf "every-1: %d fsyncs for %d appends" s.Wal.syncs
            durable_appends
          :: !failures
  | Wal.Never ->
      if s.Wal.syncs <> 0 then
        failures :=
          Printf.sprintf "never: append path fsynced %d times" s.Wal.syncs
          :: !failures
  | Wal.Every k ->
      let expect = durable_appends / k in
      if s.Wal.syncs <> expect then
        failures :=
          Printf.sprintf "every-%d: %d fsyncs, want %d" k s.Wal.syncs expect
          :: !failures
  | Wal.Interval_ms _ -> ());
  {
    du_policy = label;
    du_appends = s.Wal.appends;
    du_wall_s = wall;
    du_appends_per_sec = float_of_int durable_appends /. wall;
    du_mb_per_sec = float_of_int s.Wal.appended_bytes /. wall /. 1e6;
    du_syncs = s.Wal.syncs;
    du_us_per_append = wall /. float_of_int durable_appends *. 1e6;
  }

let run_durable_recovery root failures n_records =
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
  match (r1, Wal.load ~dir) with
  | Ok r1, Ok r2 ->
      if Wal.digest r1 <> Wal.digest r2 then
        failures :=
          Printf.sprintf "recover-%d: two loads disagree" n_records :: !failures;
      if List.length r1.Wal.r_entries <> n_records then
        failures :=
          Printf.sprintf "recover-%d: recovered %d records" n_records
            (List.length r1.Wal.r_entries)
          :: !failures;
      { rc_records = n_records; rc_load_ms = load_ms; rc_digest = Wal.digest r1 }
  | Error e, _ | _, Error e ->
      failures := Printf.sprintf "recover-%d: %s" n_records e :: !failures;
      { rc_records = n_records; rc_load_ms = load_ms; rc_digest = "" }

let durable_json_record rows recoveries ~notes =
  let row_json r =
    Jsonout.Obj
      [
        ("policy", Jsonout.String r.du_policy);
        ("appends", Jsonout.Int r.du_appends);
        ("payload_bytes", Jsonout.Int durable_payload_bytes);
        ("wall_s", Jsonout.Float r.du_wall_s);
        ("appends_per_sec", Jsonout.Float r.du_appends_per_sec);
        ("mb_per_sec", Jsonout.Float r.du_mb_per_sec);
        ("fsyncs", Jsonout.Int r.du_syncs);
        ("us_per_append", Jsonout.Float r.du_us_per_append);
      ]
  in
  let recovery_json r =
    Jsonout.Obj
      [
        ("records", Jsonout.Int r.rc_records);
        ("load_ms", Jsonout.Float r.rc_load_ms);
        ("digest", Jsonout.String r.rc_digest);
      ]
  in
  Jsonout.Obj
    ([
       ("schema", Jsonout.String "repro-durable/1");
       ("seed", Jsonout.Int seed);
       ("appends", Jsonout.Int durable_appends);
       ("payload_bytes", Jsonout.Int durable_payload_bytes);
     ]
    @ (match notes with
      | [] -> []
      | notes ->
          [ ("notes", Jsonout.List (List.map (fun n -> Jsonout.String n) notes)) ])
    @ [
        ("policies", Jsonout.List (List.map row_json rows));
        ("recovery", Jsonout.List (List.map recovery_json recoveries));
      ])

let run_durable_benchmarks ?json () =
  let root, cleanup = durable_tmp_root () in
  let failures = ref [] in
  Fun.protect ~finally:cleanup (fun () ->
      let rows = List.map (run_durable_policy root failures) durable_policies in
      let recoveries =
        List.map (run_durable_recovery root failures) durable_recovery_lengths
      in
      Printf.printf
        "== Durable tier (WAL group commit, %d appends x %d B payload) ==\n"
        durable_appends durable_payload_bytes;
      Table.print
        ~header:
          [ "policy"; "appends/s"; "MB/s"; "us/append"; "fsyncs"; "wall s" ]
        ~rows:
          (List.map
             (fun r ->
               [
                 r.du_policy;
                 Printf.sprintf "%.0f" r.du_appends_per_sec;
                 Printf.sprintf "%.1f" r.du_mb_per_sec;
                 Printf.sprintf "%.2f" r.du_us_per_append;
                 string_of_int r.du_syncs;
                 Printf.sprintf "%.3f" r.du_wall_s;
               ])
             rows)
        ();
      Table.print ~header:[ "records"; "load ms" ]
        ~rows:
          (List.map
             (fun r ->
               [ string_of_int r.rc_records; Printf.sprintf "%.2f" r.rc_load_ms ])
             recoveries)
        ();
      List.iter (fun f -> Printf.eprintf "durable tier FAILED: %s\n" f) !failures;
      write_record (durable_json_record rows recoveries) json;
      if !failures <> [] then exit 2)

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

let run_reconfig_scenario failures (name, plan_text, expect_restart) =
  let plan =
    match Fault.Plan.parse plan_text with
    | Ok p -> p
    | Error e ->
        failures := Printf.sprintf "%s: bad plan: %s" name e :: !failures;
        Fault.Plan.none
  in
  match
    Reconfig.run ~n:reconfig_nodes ~k:reconfig_k ~vnodes:reconfig_vnodes
      ~n_vars:reconfig_vars ~seed:reconfig_seed ~writes:reconfig_writes
      ~chaos:plan ()
  with
  | Error msg ->
      failures := Printf.sprintf "%s: %s" name msg :: !failures;
      None
  | Ok o ->
      if o.Reconfig.verdict <> Checker.Consistent then
        failures :=
          Printf.sprintf "%s: history violates cache consistency" name
          :: !failures;
      if not o.Reconfig.moved_ok then
        failures :=
          Printf.sprintf "%s: moved %d keys in one change, gate %d" name
            o.Reconfig.max_keys_moved o.Reconfig.moved_gate
          :: !failures;
      if expect_restart && o.Reconfig.restarts = 0 then
        failures :=
          Printf.sprintf "%s: the scheduled mid-migration crash never fired"
            name
          :: !failures;
      Some (name, o)

let reconfig_rebalance_ms o =
  List.fold_left
    (fun acc e -> Stdlib.max acc e.Reconfig.ev_rebalance_ms)
    0 o.Reconfig.events

let reconfig_json_record results ~notes =
  let ints l = Jsonout.List (List.map (fun i -> Jsonout.Int i) l) in
  let verdict_json = function
    | Checker.Consistent -> Jsonout.String "consistent"
    | Checker.Inconsistent -> Jsonout.String "VIOLATION"
    | Checker.Undecidable _ -> Jsonout.String "undecidable"
  in
  let scenario_json (name, o) =
    Jsonout.Obj
      [
        ("scenario", Jsonout.String name);
        ("chaos", Jsonout.String o.Reconfig.chaos);
        ("committed_epoch", Jsonout.Int o.Reconfig.committed_epoch);
        ("members", ints o.Reconfig.members);
        ( "events",
          Jsonout.List
            (List.map
               (fun e ->
                 Jsonout.Obj
                   [
                     ("epoch", Jsonout.Int e.Reconfig.ev_epoch);
                     ("kind", Jsonout.String e.Reconfig.ev_kind);
                     ("node", Jsonout.Int e.Reconfig.ev_node);
                     ("keys_moved", Jsonout.Int e.Reconfig.ev_keys_moved);
                     ("rebalance_ms", Jsonout.Int e.Reconfig.ev_rebalance_ms);
                   ])
               o.Reconfig.events) );
        ("rebalance_ms", Jsonout.Int (reconfig_rebalance_ms o));
        ("keys_moved_total", Jsonout.Int o.Reconfig.keys_moved_total);
        ("max_keys_moved", Jsonout.Int o.Reconfig.max_keys_moved);
        ("moved_gate", Jsonout.Int o.Reconfig.moved_gate);
        ("moved_ok", Jsonout.Bool o.Reconfig.moved_ok);
        ("unavail_ms", Jsonout.Int o.Reconfig.unavail_ms);
        ("stale_epochs", Jsonout.Int o.Reconfig.stale_epochs);
        ("restarts", Jsonout.Int o.Reconfig.restarts);
        ("transfers", Jsonout.Int o.Reconfig.transfers);
        ("init_fallbacks", Jsonout.Int o.Reconfig.init_fallbacks);
        ("verdict", verdict_json o.Reconfig.verdict);
        ("pram", verdict_json o.Reconfig.pram);
        ("wall_ms", Jsonout.Int o.Reconfig.wall_ms);
      ]
  in
  Jsonout.Obj
    ([
       ("schema", Jsonout.String "repro-reconfig-bench/1");
       ("nodes", Jsonout.Int reconfig_nodes);
       ("k", Jsonout.Int reconfig_k);
       ("vnodes", Jsonout.Int reconfig_vnodes);
       ("vars", Jsonout.Int reconfig_vars);
       ("writes", Jsonout.Int reconfig_writes);
       ("seed", Jsonout.Int reconfig_seed);
     ]
    @ (match notes with
      | [] -> []
      | notes ->
          [ ("notes", Jsonout.List (List.map (fun n -> Jsonout.String n) notes)) ])
    @ [ ("scenarios", Jsonout.List (List.map scenario_json results)) ])

let run_reconfig_benchmarks ?json () =
  let failures = ref [] in
  let results =
    List.filter_map (run_reconfig_scenario failures) reconfig_scenarios
  in
  Printf.printf
    "== Reconfig tier (%d nodes, k=%d, vnodes=%d, %d vars, seed %d) ==\n"
    reconfig_nodes reconfig_k reconfig_vnodes reconfig_vars reconfig_seed;
  Table.print
    ~header:
      [ "scenario"; "epoch"; "rebal ms"; "moved"; "worst"; "gate";
        "unavail ms"; "restarts"; "stale"; "cache"; "wall ms" ]
    ~rows:
      (List.map
         (fun (name, o) ->
           [
             name;
             string_of_int o.Reconfig.committed_epoch;
             string_of_int (reconfig_rebalance_ms o);
             string_of_int o.Reconfig.keys_moved_total;
             string_of_int o.Reconfig.max_keys_moved;
             string_of_int o.Reconfig.moved_gate;
             string_of_int o.Reconfig.unavail_ms;
             string_of_int o.Reconfig.restarts;
             string_of_int o.Reconfig.stale_epochs;
             (match o.Reconfig.verdict with
             | Checker.Consistent -> "ok"
             | Checker.Inconsistent -> "VIOLATION"
             | Checker.Undecidable _ -> "undecidable");
             string_of_int o.Reconfig.wall_ms;
           ])
         results)
    ();
  List.iter (fun f -> Printf.eprintf "reconfig tier FAILED: %s\n" f) !failures;
  write_record (reconfig_json_record results) json;
  if !failures <> [] then exit 2

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
  match !mode with
  | Tables_only -> print_tables ()
  | Sim_only -> run_sim_benchmarks ?json:!json ()
  | Check_only -> run_check_benchmarks ?json:!json ()
  | Cluster_only -> run_cluster_benchmarks ?json:!json ()
  | Chaos_only -> run_chaos_benchmarks ?json:!json ()
  | Load_only -> run_load_benchmarks ?json:!json ()
  | Hotpath_only -> run_hotpath_benchmarks ?json:!json ()
  | Durable_only -> run_durable_benchmarks ?json:!json ()
  | Reconfig_only -> run_reconfig_benchmarks ?json:!json ()
  | One_experiment id -> if not (print_one id) then exit 1
  | Default ->
      print_tables ();
      run_benchmarks ?json:!json ()
