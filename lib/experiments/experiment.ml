module Memory = Repro_core.Memory
module Registry = Repro_core.Registry
module Workload = Repro_core.Workload
module Runner = Repro_core.Runner
module Causal_adhoc = Repro_core.Causal_adhoc
module Distribution = Repro_sharegraph.Distribution
module Share_graph = Repro_sharegraph.Share_graph
module Checker = Repro_history.Checker
module Relcache = Repro_history.Relcache
module History = Repro_history.History
module Bellman_ford = Repro_apps.Bellman_ford
module Wgraph = Repro_apps.Wgraph
module Table = Repro_util.Table
module Bitset = Repro_util.Bitset
module Rng = Repro_util.Rng
module Pool = Repro_util.Pool
module Transport = Repro_transport.Transport

let pool_of = function Some p -> p | None -> Pool.default ()

type table = {
  id : string;
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

let render t =
  let buffer = Buffer.create 512 in
  Buffer.add_string buffer (Printf.sprintf "== %s: %s ==\n" t.id t.title);
  Buffer.add_string buffer (Table.render ~header:t.header ~rows:t.rows ());
  List.iter (fun note -> Buffer.add_string buffer (Printf.sprintf "note: %s\n" note)) t.notes;
  Buffer.contents buffer

let set_to_string set = Format.asprintf "%a" Bitset.pp set

let procs_list_to_string l =
  "{" ^ String.concat "," (List.map string_of_int l) ^ "}"

(* Count the writes of a history (control cost is charged per write). *)
let n_writes h = List.length (History.writes h)

(* --- E1: scaling ------------------------------------------------------------ *)

(* E1's workload at each size: the five non-blocking protocols on a
   random 3-replica distribution, full replication for the protocols
   that need it; [row n spec memory h] renders one run *)
let scaling_rows ~sizes ?pool ~seed row =
  let profile = { Workload.ops_per_proc = 8; read_ratio = 0.4; max_think = 3 } in
  List.concat
  @@ Pool.map (pool_of pool)
       (fun n ->
         let partial_dist =
           Distribution.random (Rng.create (seed + n)) ~n_procs:n ~n_vars:(2 * n)
             ~replicas_per_var:3
         in
         let full_dist = Distribution.full ~n_procs:n ~n_vars:(2 * n) in
         let run spec =
           let dist =
             if spec.Registry.requires_full_replication then full_dist
             else partial_dist
           in
           let memory = spec.Registry.make ~dist ~seed () in
           let h = Workload.run_random ~profile ~seed:(seed + 1) memory in
           row n spec memory h
         in
         List.filter_map
           (fun name -> Option.map run (Registry.find name))
           [
             "causal-full"; "causal-delta"; "causal-partial"; "pram-partial";
             "slow-partial";
           ])
       sizes

let scaling ?(sizes = [ 4; 8; 16; 24 ]) ?pool ~seed () =
  let rows =
    scaling_rows ~sizes ?pool ~seed (fun n spec memory h ->
        let m = memory.Memory.metrics () in
        let writes = Stdlib.max 1 (n_writes h) in
        [
          string_of_int n;
          spec.Registry.name;
          string_of_int m.Memory.messages_sent;
          string_of_int m.Memory.control_bytes;
          Table.fmt_float (float_of_int m.Memory.control_bytes /. float_of_int writes);
          string_of_int (Memory.total_offclique_mentions memory);
        ])
  in
  {
    id = "E1";
    title = "control-information scaling with system size (paper §3.3)";
    header =
      [ "n"; "protocol"; "messages"; "ctrl bytes"; "ctrl B/write"; "off-clique mentions" ];
    rows;
    notes =
      [
        "causal protocols ship Θ(n)-sized vector clocks and (partial) inform every \
         process about every variable; PRAM/slow ship O(1) sequence numbers to \
         replica holders only";
      ];
  }

(* --- R1: replication-factor sweep ---------------------------------------------- *)

let replication_sweep ?(n = 12) ~seed () =
  let profile = { Workload.ops_per_proc = 8; read_ratio = 0.4; max_think = 3 } in
  let rows =
    List.concat_map
      (fun replicas ->
        let dist =
          if replicas >= n then Distribution.full ~n_procs:n ~n_vars:(2 * n)
          else
            Distribution.random (Rng.create (seed + replicas)) ~n_procs:n
              ~n_vars:(2 * n) ~replicas_per_var:replicas
        in
        List.filter_map
          (fun name ->
            Registry.find name
            |> Option.map (fun spec ->
                   let memory = spec.Registry.make ~dist ~seed () in
                   let h = Workload.run_random ~profile ~seed:(seed + 1) memory in
                   let m = memory.Memory.metrics () in
                   let writes = Stdlib.max 1 (n_writes h) in
                   [
                     string_of_int replicas;
                     spec.Registry.name;
                     Table.fmt_float
                       (float_of_int m.Memory.messages_sent /. float_of_int writes);
                     Table.fmt_float
                       (float_of_int m.Memory.control_bytes /. float_of_int writes);
                     string_of_int (Memory.total_offclique_mentions memory);
                   ]))
          [ "causal-partial"; "pram-partial" ])
      [ 1; 2; 3; 6; n ]
  in
  {
    id = "R1";
    title =
      Printf.sprintf
        "replication-factor sweep (n=%d processes, %d variables): messages and \
         control bytes per write" n (2 * n);
    header = [ "replicas/var"; "protocol"; "msgs/write"; "ctrl B/write"; "off-clique" ];
    rows;
    notes =
      [
        "PRAM's cost tracks |C(x)| (messages grow with the replication factor, \
         bytes stay ~8/replica); the causal protocol pays the full broadcast no \
         matter how small the cliques are — partial replication only saves it \
         payload bytes, never control bytes";
      ];
  }

(* --- T1: mention audit -------------------------------------------------------- *)

let hoopy = Distribution.of_lists ~n_vars:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ]

let mention_audit ~seed () =
  let sg = Share_graph.of_distribution hoopy in
  let profile = { Workload.ops_per_proc = 8; read_ratio = 0.3; max_think = 2 } in
  let audits =
    List.filter_map
      (fun name ->
        Registry.find name
        |> Option.map (fun spec ->
               let memory = spec.Registry.make ~dist:hoopy ~seed () in
               let _h = Workload.run_random ~profile ~seed:(seed + 1) memory in
               (name, (memory.Memory.metrics ()).Memory.mentioned_at)))
      [ "causal-partial"; "pram-partial" ]
  in
  let rows =
    List.init 4 (fun x ->
        [
          Printf.sprintf "x%d" x;
          procs_list_to_string (Distribution.holders hoopy x);
          set_to_string (Share_graph.x_relevant sg ~var:x);
        ]
        @ List.map (fun (_, mentioned) -> set_to_string mentioned.(x)) audits)
  in
  {
    id = "T1";
    title = "Theorem 1: x-relevant sets vs processes actually informed";
    header =
      [ "var"; "C(x)"; "x-relevant (Thm 1)" ]
      @ List.map (fun (name, _) -> "informed by " ^ name) audits;
    rows;
    notes =
      [
        "every variable of the 4-cycle has a hoop the long way around, so Theorem 1 \
         predicts every process is x-relevant: a general causal protocol informs \
         everyone (matches), PRAM informs only C(x)";
      ];
  }

(* --- A2: criterion matrix ------------------------------------------------------ *)

(* --- adversarial scenario bank --------------------------------------------------
   Protocol-level re-creations of the paper's counterexample figures.  Each
   scenario fixes a distribution, per-link latencies (one or two "slow"
   links that let an indirect causal chain outrun a direct update), and the
   programs; see the .mli. *)

let slow_from_p0_to targets =
  Repro_msgpass.Latency.per_link (fun ~src ~dst ->
      if src = 0 && List.mem dst targets then Repro_msgpass.Latency.constant 10_000
      else Repro_msgpass.Latency.constant 2)

let scenario_hoop_leak =
  (* vars y=0, z=1, x=2; y-hoop [1;2;3]; violates causal on efficient
     protocols *)
  let open Repro_history.Op in
  ( "hoop-leak",
    Distribution.of_lists ~n_vars:3 [ [ 0 ]; [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ],
    slow_from_p0_to [ 3 ],
    [|
      (fun (api : Runner.api) -> api.Runner.write 0 (Val 1));
      (fun (api : Runner.api) ->
        api.Runner.await (fun () -> api.Runner.peek 0 = Val 1);
        ignore (api.Runner.read 0);
        api.Runner.write 1 (Val 2));
      (fun (api : Runner.api) ->
        api.Runner.await (fun () -> api.Runner.peek 1 = Val 2);
        ignore (api.Runner.read 1);
        api.Runner.write 2 (Val 3));
      (fun (api : Runner.api) ->
        api.Runner.await (fun () -> api.Runner.peek 2 = Val 3);
        ignore (api.Runner.read 2);
        ignore (api.Runner.read 0));
    |] )

let scenario_fig5 =
  (* vars x=0, y=1, z=2; the Fig. 5 chain w0(x)a … w2(x)d routed through a
     variable (z) that neither endpoint of the final read shares with the
     chain's head, with the direct x=a update slow toward p2 and p3; the
     final process observes d then a: violates lazy-causal (and causal) on
     the efficient protocols, while the raw read-from hop keeps it
     lazy-semi-causal *)
  let open Repro_history.Op in
  ( "fig5",
    Distribution.of_lists ~n_vars:3 [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ]; [ 0 ] ],
    slow_from_p0_to [ 2; 3 ],
    [|
      (fun (api : Runner.api) ->
        api.Runner.write 0 (Val 1);
        ignore (api.Runner.read 0);
        api.Runner.write 1 (Val 2));
      (fun (api : Runner.api) ->
        api.Runner.await (fun () -> api.Runner.peek 1 = Val 2);
        ignore (api.Runner.read 1);
        api.Runner.write 2 (Val 3));
      (fun (api : Runner.api) ->
        api.Runner.await (fun () -> api.Runner.peek 2 = Val 3);
        ignore (api.Runner.read 2);
        api.Runner.write 0 (Val 4));
      (fun (api : Runner.api) ->
        api.Runner.await (fun () -> api.Runner.peek 0 <> Init);
        ignore (api.Runner.read 0);
        api.Runner.sleep 30_000;
        ignore (api.Runner.read 0));
    |] )

let scenario_fig6 =
  (* vars x=0, y=1, z=2; the Fig. 6 chain with the z hop and the own-write
     read r1(y)e; violates lazy-semi-causal on PRAM-or-weaker protocols *)
  let open Repro_history.Op in
  ( "fig6",
    Distribution.of_lists ~n_vars:3 [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ]; [ 0 ] ],
    slow_from_p0_to [ 2; 3 ],
    [|
      (fun (api : Runner.api) ->
        api.Runner.write 0 (Val 1);
        ignore (api.Runner.read 0);
        api.Runner.write 1 (Val 2));
      (fun (api : Runner.api) ->
        api.Runner.await (fun () -> api.Runner.peek 1 = Val 2);
        ignore (api.Runner.read 1);
        api.Runner.write 1 (Val 5);
        ignore (api.Runner.read 1);
        api.Runner.write 2 (Val 3));
      (fun (api : Runner.api) ->
        api.Runner.await (fun () -> api.Runner.peek 2 = Val 3);
        ignore (api.Runner.read 2);
        api.Runner.write 0 (Val 4));
      (fun (api : Runner.api) ->
        api.Runner.await (fun () -> api.Runner.peek 0 <> Init);
        ignore (api.Runner.read 0);
        api.Runner.sleep 30_000;
        ignore (api.Runner.read 0));
    |] )

let adversarial_histories spec ~seed =
  if spec.Registry.requires_full_replication || spec.Registry.blocking then []
  else
    List.map
      (fun (name, dist, latency, programs) ->
        let memory = spec.Registry.make ~latency ~dist ~seed () in
        (name, Runner.run memory ~programs))
      [ scenario_hoop_leak; scenario_fig5; scenario_fig6 ]

(* A2's matrix: one row per registry protocol, "yes" under a criterion
   when every history of that protocol satisfies it.  The histories are
   [runs] seeded runs of [profile] on [dist] over jittery links, plus
   [extra spec]. *)
let criterion_rows ?pool ~profile ~dist ~runs ~seed extra =
  let latency = Repro_msgpass.Latency.uniform ~lo:1 ~hi:25 in
  Pool.map (pool_of pool)
    (fun spec ->
      let histories =
        List.init runs (fun k ->
            let memory = spec.Registry.make ~latency ~dist ~seed:(seed + k) () in
            Workload.run_random ~profile ~seed:(seed + k + 100) memory)
        @ extra spec
      in
      (* one relation cache per history: the 8-criteria sweep shares
         read-from, program order and every closure across criteria *)
      let caches = List.map Relcache.create histories in
      let all_consistent criterion =
        List.for_all
          (fun rc ->
            match Checker.check_cached rc criterion with
            | Checker.Consistent -> true
            | Checker.Inconsistent | Checker.Undecidable _ -> false)
          caches
      in
      spec.Registry.name
      :: List.map
           (fun criterion -> if all_consistent criterion then "yes" else "no")
           Checker.all_criteria)
    Registry.all

let criterion_header = "protocol" :: List.map Checker.criterion_name Checker.all_criteria

let criterion_matrix ?pool ~seed () =
  (* A contended configuration: few variables, everyone replicating
     everything, jittery links — gives the weaker protocols every chance
     to exhibit the behaviours their criterion permits. *)
  let rows =
    criterion_rows ?pool
      ~profile:{ Workload.ops_per_proc = 12; read_ratio = 0.5; max_think = 5 }
      ~dist:(Distribution.full ~n_procs:4 ~n_vars:2)
      ~runs:16 ~seed
      (fun spec -> List.map snd (adversarial_histories spec ~seed))
  in
  {
    id = "A2";
    title = "protocols x criteria (16 contended runs each; yes = all runs consistent)";
    header = criterion_header;
    rows;
    notes =
      [
        "the staircase is the criterion lattice: each protocol satisfies its \
         guarantee column and everything weaker; a 'yes' left of the guarantee \
         means no run happened to witness the strictness of that inclusion";
      ];
  }

(* --- E1X / A2X: the saturation-checker tier -------------------------------- *)

(* Scaled variants that the search engine could not touch: E1's workload at
   n=32/48 with every history actually checked against its protocol's
   guarantee, and A2's contended matrix on longer seeded histories.
   Catalogue-only — [all] (and with it the golden tables digest) keeps the
   original sizes. *)

let scaling_checked ?(sizes = [ 32; 48 ]) ?pool ~seed () =
  let rows =
    scaling_rows ~sizes ?pool ~seed (fun n spec memory h ->
        let m = memory.Memory.metrics () in
        let verdict =
          match Checker.check spec.Registry.guarantees h with
          | Checker.Consistent -> "yes"
          | Checker.Inconsistent -> "NO"
          | Checker.Undecidable _ -> "?"
        in
        [
          string_of_int n;
          spec.Registry.name;
          string_of_int (History.n_ops h);
          string_of_int m.Memory.messages_sent;
          string_of_int m.Memory.control_bytes;
          Checker.criterion_name spec.Registry.guarantees;
          verdict;
        ])
  in
  {
    id = "E1X";
    title =
      "scaling with every history checked against its guarantee (saturation tier)";
    header =
      [ "n"; "protocol"; "ops"; "messages"; "ctrl bytes"; "guarantee"; "holds?" ];
    rows;
    notes =
      [
        "same workload shape as E1 at sizes the search checker could not \
         decide (n=48 histories run to ~380 operations); every verdict is \
         produced by the polynomial saturation engine";
      ];
  }

let criterion_matrix_scaled ?pool ~seed () =
  let rows =
    criterion_rows ?pool
      ~profile:{ Workload.ops_per_proc = 20; read_ratio = 0.5; max_think = 5 }
      ~dist:(Distribution.full ~n_procs:6 ~n_vars:3)
      ~runs:8 ~seed
      (fun _ -> [])
  in
  {
    id = "A2X";
    title =
      "protocols x criteria on long contended histories (6 procs x 20 ops, 8 runs)";
    header = criterion_header;
    rows;
    notes =
      [
        "the A2 staircase reproduced on 120-operation histories: each cell \
         sweeps all criteria through one shared relation cache per history";
      ];
  }

(* --- E2: Bellman-Ford ----------------------------------------------------------- *)

let bellman_ford ~seed () =
  let networks =
    [
      ("fig8", Wgraph.fig8);
      ("random-8", Wgraph.random (Rng.create seed) ~n:8 ~extra_edges:10 ~max_weight:9);
      ("random-12", Wgraph.random (Rng.create (seed + 1)) ~n:12 ~extra_edges:18 ~max_weight:9);
    ]
  in
  let rows =
    List.concat_map
      (fun (net_name, g) ->
        let reference = Wgraph.reference_distances g ~source:0 in
        List.filter_map
          (fun spec ->
            if spec.Registry.requires_full_replication || spec.Registry.blocking then None
            else
              let make ~dist ~seed = spec.Registry.make ~dist ~seed () in
              let result = Bellman_ford.run ~make ~seed g ~source:0 in
              let memory_metrics =
                (* metrics are not exposed by Bellman_ford.run; re-run with
                   an instrumented instance *)
                let dist = Bellman_ford.variable_distribution g in
                let memory = spec.Registry.make ~dist ~seed () in
                let _ = Runner.run memory ~programs:(Bellman_ford.programs g ~source:0) in
                memory.Memory.metrics ()
              in
              let exact = result.Bellman_ford.distances = reference in
              Some
                [
                  net_name;
                  spec.Registry.name;
                  (if exact then "exact" else "upper-bound");
                  string_of_int memory_metrics.Memory.messages_sent;
                  string_of_int memory_metrics.Memory.control_bytes;
                ])
          Registry.all)
      networks
  in
  {
    id = "E2";
    title = "distributed Bellman-Ford (paper §6) across protocols";
    header = [ "network"; "protocol"; "distances"; "messages"; "ctrl bytes" ];
    rows;
    notes =
      [
        "PRAM and anything stronger yields exact shortest paths (the paper's \
         claim); slow memory only guarantees upper bounds — §6.1's freshness \
         invariant needs per-writer order across x and k";
      ];
  }

(* --- A1: ad-hoc ablation ---------------------------------------------------------- *)

let adhoc_ablation ~seed () =
  let hoopfree = Distribution.clustered ~n_procs:6 ~n_vars:4 ~clusters:2 in
  let cases =
    [ ("clustered (no external relevance)", hoopfree); ("4-cycle (hoops)", hoopy) ]
  in
  let profile = { Workload.ops_per_proc = 8; read_ratio = 0.5; max_think = 2 } in
  let random_rows =
    List.map
      (fun (name, dist) ->
        let sg = Share_graph.of_distribution dist in
        let causal_everywhere =
          List.for_all
            (fun k ->
              let memory = Causal_adhoc.create ~dist ~seed:(seed + k) () in
              let h = Workload.run_random ~profile ~seed:(seed + k + 50) memory in
              match Checker.check Checker.Causal h with
              | Checker.Consistent -> true
              | _ -> false)
            (List.init 10 Fun.id)
        in
        let memory = Causal_adhoc.create ~dist ~seed () in
        let _ = Workload.run_random ~profile ~seed:(seed + 1) memory in
        [
          name;
          (if Share_graph.no_external_relevance sg then "no" else "yes");
          string_of_int (Memory.total_offclique_mentions memory);
          (if causal_everywhere then "causal in 10/10 runs" else "causal violated");
        ])
      cases
  in
  let adversarial_row =
    let _, dist, latency, programs = scenario_hoop_leak in
    let memory = Causal_adhoc.create ~latency ~dist ~seed () in
    let h = Runner.run memory ~programs in
    let verdict =
      match Checker.check Checker.Causal h with
      | Checker.Consistent -> "causal (unexpected)"
      | Checker.Inconsistent -> "causal VIOLATED (as Theorem 1 predicts)"
      | Checker.Undecidable _ -> "?"
    in
    [
      "y-hoop chain, adversarial latency";
      "yes";
      string_of_int (Memory.total_offclique_mentions memory);
      verdict;
    ]
  in
  {
    id = "A1";
    title = "ad-hoc causal protocol: efficient and causal exactly when Theorem 1 allows";
    header = [ "distribution"; "external x-relevance?"; "off-clique traffic"; "verdict" ];
    rows = random_rows @ [ adversarial_row ];
    notes =
      [
        "off-clique traffic is 0 in every case (the protocol IS efficient); what \
         Theorem 1 rules out is being causal at the same time, witnessed by the \
         adversarial row";
      ];
  }

(* --- B1: sequencer bottleneck --------------------------------------------------------- *)

let bottleneck ~seed () =
  (* Write-heavy load with a per-node service rate: the sequencer serializes
     every write in the system, the PRAM memory spreads the load across
     cliques.  Completion time (simulated) is the measure. *)
  let profile = { Workload.ops_per_proc = 12; read_ratio = 0.1; max_think = 1 } in
  let latency = Repro_msgpass.Latency.constant 3 in
  let rows =
    List.map
      (fun n ->
        let dist =
          Distribution.random (Rng.create (seed + n)) ~n_procs:n ~n_vars:(2 * n)
            ~replicas_per_var:3
        in
        let time_of make =
          let memory = make () in
          let _h = Workload.run_random ~profile ~seed:(seed + 1) memory in
          memory.Memory.now ()
        in
        let transport = Transport.sim ~service_time:2 ~latency ~seed () in
        let seq_time =
          time_of (fun () ->
              Repro_core.Seq_sequencer.create ~transport ~dist ~seed ())
        in
        let pram_time =
          time_of (fun () -> Repro_core.Pram_partial.create ~transport ~dist ~seed ())
        in
        [
          string_of_int n;
          string_of_int seq_time;
          string_of_int pram_time;
          Table.fmt_ratio (float_of_int seq_time) (float_of_int pram_time);
        ])
      [ 4; 8; 16; 32 ]
  in
  {
    id = "B1";
    title =
      "sequencer bottleneck: completion time under write load (service time 2 \
       ticks/node)";
    header = [ "n"; "seq-sequencer time"; "pram-partial time"; "slowdown" ];
    rows;
    notes =
      [
        "every write in the system funnels through one node whose queue grows \
         with n, while PRAM's per-clique traffic keeps completion time flat — \
         the scalability point of §3.3(i)";
      ];
  }

(* --- L1: reliability cost -------------------------------------------------------------- *)

let loss_sweep ~seed () =
  (* the paper assumes reliable FIFO channels; pram-reliable gets them back
     from the session layer — measure what that costs as links degrade *)
  let profile = { Workload.ops_per_proc = 8; read_ratio = 0.4; max_think = 3 } in
  let module Plan = Repro_msgpass.Fault.Plan in
  let rows =
    List.map
      (fun drop_pct ->
        let plan =
          { Plan.none with
            seed;
            default_link =
              { Plan.clean with
                drop = float_of_int drop_pct /. 100.0;
                duplicate = 0.05 } }
        in
        let memory =
          Repro_core.Pram_reliable.create ~plan ~dist:hoopy ~seed ()
        in
        let h = Workload.run_random ~profile ~seed:(seed + 1) memory in
        let m = memory.Memory.metrics () in
        let writes = Stdlib.max 1 (n_writes h) in
        let expected_applies =
          History.writes h
          |> List.fold_left
               (fun acc (o : Repro_history.Op.t) ->
                 acc + List.length (Distribution.holders hoopy o.Repro_history.Op.var) - 1)
               0
        in
        [
          string_of_int drop_pct ^ "%";
          Table.fmt_float (float_of_int m.Memory.messages_sent /. float_of_int writes);
          Table.fmt_float (float_of_int m.Memory.overhead_bytes /. float_of_int writes);
          string_of_int (memory.Memory.now ());
          Printf.sprintf "%d/%d" m.Memory.applied_writes expected_applies;
          (match Checker.check Checker.Pram h with
          | Checker.Consistent -> "yes"
          | _ -> "no");
        ])
      [ 0; 10; 20; 30; 40 ]
  in
  {
    id = "L1";
    title =
      "reliability cost: pram-reliable (pram-partial over the session layer) \
       under link loss";
    header =
      [ "drop rate"; "msgs/write"; "overhead B/write"; "completion time";
        "applied/expected"; "pram?" ];
    rows;
    notes =
      [
        "the reliable-FIFO channel the paper's model assumes is not free: \
         the session layer's headers, retransmissions and acks grow with \
         loss and stretch completion, but they travel in their own lane \
         (overhead B/write); the protocol lane (msgs/write) stays \
         pram-partial's, no update is ever lost and every run stays PRAM";
      ];
  }

(* --- H1: hoop census ----------------------------------------------------------------- *)

let hoop_census ?pool ~seed () =
  (* §3.3: "in a more general setting … any process is likely to belong to
     any hoop".  Quantify: over random distributions, how many variables
     have hoops, and how far beyond C(x) does x-relevance spread? *)
  let n = 12 in
  let census ~replicas ~n_vars =
    let stats = Repro_util.Stats.create () in
    let with_hoops = ref 0 and total_vars = ref 0 in
    for k = 0 to 19 do
      let dist =
        Distribution.random
          (Rng.create (seed + (1000 * replicas) + (17 * n_vars) + k))
          ~n_procs:n ~n_vars ~replicas_per_var:replicas
      in
      let sg = Share_graph.of_distribution dist in
      for x = 0 to n_vars - 1 do
        incr total_vars;
        if not (Share_graph.hoop_free sg ~var:x) then incr with_hoops;
        let relevant = Bitset.cardinal (Share_graph.x_relevant sg ~var:x) in
        let clique = List.length (Distribution.holders dist x) in
        Repro_util.Stats.add stats (float_of_int (relevant - clique))
      done
    done;
    ( float_of_int !with_hoops /. float_of_int !total_vars,
      Repro_util.Stats.mean stats )
  in
  let cells =
    List.concat_map
      (fun replicas -> List.map (fun n_vars -> (replicas, n_vars)) [ 6; 12; 24 ])
      [ 2; 3; 4 ]
  in
  let rows =
    Pool.map (pool_of pool)
      (fun (replicas, n_vars) ->
        let hoop_fraction, extra_relevant = census ~replicas ~n_vars in
        [
          string_of_int replicas;
          string_of_int n_vars;
          Table.fmt_float hoop_fraction;
          Table.fmt_float extra_relevant;
        ])
      cells
  in
  {
    id = "H1";
    title =
      Printf.sprintf
        "hoop census over random distributions (%d processes, 20 samples per cell)" n;
    header =
      [ "replicas/var"; "variables"; "frac vars with hoops"; "avg extra x-relevant" ];
    rows;
    notes =
      [
        "with even modest sharing density, almost every variable acquires hoops \
         and x-relevance spreads to most of the system — the paper's argument \
         that causal consistency cannot scale under partial replication";
      ];
  }

(* --- C1: operation cost profile ---------------------------------------------------- *)

let op_costs ~seed () =
  let profile = { Workload.ops_per_proc = 10; read_ratio = 0.5; max_think = 3 } in
  let rows =
    List.map
      (fun spec ->
        let dist =
          if spec.Registry.requires_full_replication then
            Distribution.full ~n_procs:4 ~n_vars:4
          else hoopy
        in
        let memory = spec.Registry.make ~dist ~seed () in
        let h = Workload.run_random ~profile ~seed:(seed + 1) memory in
        let m = memory.Memory.metrics () in
        let writes = Stdlib.max 1 (n_writes h) in
        [
          spec.Registry.name;
          Table.fmt_float (float_of_int m.Memory.messages_sent /. float_of_int writes);
          Table.fmt_float (float_of_int m.Memory.control_bytes /. float_of_int writes);
          (if spec.Registry.blocking then "blocking" else "wait-free");
          string_of_int (memory.Memory.now ());
        ])
      Registry.all
  in
  {
    id = "C1";
    title = "per-operation cost profile (4 processes, same workload shape)";
    header = [ "protocol"; "msgs/write"; "ctrl B/write"; "ops"; "sim time" ];
    rows;
    notes =
      [
        "atomic/sequencer trade wait-free local operations for strong ordering: \
         the latency cost §3.3 and [2] argue against for large-scale systems";
      ];
  }

let all ?pool ~seed () =
  let pool = pool_of pool in
  (* the tables run concurrently, each one farming its own inner sweep
     through the same pool; joining in submission order keeps the output
     deterministic and in DESIGN.md order *)
  Pool.run pool
    [
      (fun () -> scaling ~pool ~seed ());
      (fun () -> replication_sweep ~seed ());
      (fun () -> mention_audit ~seed ());
      (fun () -> criterion_matrix ~pool ~seed ());
      (fun () -> bellman_ford ~seed ());
      (fun () -> adhoc_ablation ~seed ());
      (fun () -> hoop_census ~pool ~seed ());
      (fun () -> bottleneck ~seed ());
      (fun () -> loss_sweep ~seed ());
      (fun () -> op_costs ~seed ());
    ]

let catalogue =
  [
    ("E1", fun ~seed () -> scaling ~seed ());
    ("R1", fun ~seed () -> replication_sweep ~seed ());
    ("T1", fun ~seed () -> mention_audit ~seed ());
    ("A2", fun ~seed () -> criterion_matrix ~seed ());
    ("E1X", fun ~seed () -> scaling_checked ~seed ());
    ("A2X", fun ~seed () -> criterion_matrix_scaled ~seed ());
    ("E2", fun ~seed () -> bellman_ford ~seed ());
    ("A1", fun ~seed () -> adhoc_ablation ~seed ());
    ("H1", fun ~seed () -> hoop_census ~seed ());
    ("B1", fun ~seed () -> bottleneck ~seed ());
    ("L1", fun ~seed () -> loss_sweep ~seed ());
    ("C1", fun ~seed () -> op_costs ~seed ());
  ]

let find id =
  List.assoc_opt (String.uppercase_ascii id) catalogue

let ids = List.map fst catalogue
