(* Command-line front-end to the partial-replication DSM library.

   repro protocols                     list protocol implementations
   repro analyze --dist ring:5         share-graph / hoop / Theorem-1 analysis
   repro run --protocol pram-partial   run a workload, check every criterion
   repro check file.hist               check a textual history
   repro bellman-ford --nodes 8        the paper's case study
   repro experiment E1                 regenerate an experiment table
   repro cluster --nodes 3             fork a live loopback cluster, run + check
   repro serve --node 0 ...            one replica daemon of a live cluster
   repro wal DIR                       inspect / verify a write-ahead log
   repro placement hash:n=5,k=2        inspect a consistent-hash placement
   repro reconfig --nodes 5 ...        live cluster with membership changes
*)

module Distribution = Repro_sharegraph.Distribution
module Share_graph = Repro_sharegraph.Share_graph
module Ring = Repro_sharegraph.Ring
module Checker = Repro_history.Checker
module History = Repro_history.History
module Memory = Repro_core.Memory
module Registry = Repro_core.Registry
module Workload = Repro_core.Workload
module Bellman_ford = Repro_apps.Bellman_ford
module Wgraph = Repro_apps.Wgraph
module Experiment = Repro_experiments.Experiment
module Cluster = Repro_cluster.Cluster
module Cluster_node = Repro_cluster.Node
module Member = Repro_cluster.Member
module Reconfig = Repro_cluster.Reconfig
module Oplog = Repro_cluster.Oplog
module Workload_spec = Repro_cluster.Workload_spec
module Wal = Repro_durable.Wal
module Live = Repro_transport.Live
module Transport = Repro_transport.Transport
module Chaos = Repro_transport.Chaos
module Session = Repro_transport.Session
module Fault = Repro_msgpass.Fault
module Latency = Repro_msgpass.Latency
module Mix = Repro_loadgen.Mix
module Load_harness = Repro_loadgen.Harness
module Table = Repro_util.Table
module Bitset = Repro_util.Bitset
module Rng = Repro_util.Rng
module Pool = Repro_util.Pool
module Record = Repro_util.Record

open Cmdliner

(* --- distribution specs ------------------------------------------------------ *)

let parse_int_args name spec expected =
  match String.split_on_char ':' spec with
  | [ _ ] when expected = 0 -> Ok []
  | [ _; args ] -> (
      let parts = String.split_on_char ',' args in
      if List.length parts <> expected then
        Error
          (Printf.sprintf "%s expects %d comma-separated parameters" name expected)
      else
        try Ok (List.map int_of_string parts)
        with Failure _ -> Error (Printf.sprintf "%s: non-numeric parameter" name))
  | _ -> Error (Printf.sprintf "malformed distribution spec %S" spec)

let distribution_of_spec spec =
  let name = List.hd (String.split_on_char ':' spec) in
  match name with
  | "fig1" -> Ok (Distribution.of_lists ~n_vars:2 [ [ 0; 1 ]; [ 0 ]; [ 1 ] ])
  | "cycle4" ->
      Ok (Distribution.of_lists ~n_vars:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ])
  | "ring" ->
      Result.map
        (fun args ->
          match args with [ n ] -> Distribution.ring ~n_procs:n | _ -> assert false)
        (parse_int_args "ring" spec 1)
  | "chain" ->
      Result.map
        (fun args ->
          match args with [ n ] -> Distribution.chain ~n_procs:n | _ -> assert false)
        (parse_int_args "chain" spec 1)
  | "star" ->
      Result.map
        (fun args ->
          match args with [ n ] -> Distribution.star ~n_procs:n | _ -> assert false)
        (parse_int_args "star" spec 1)
  | "grid" ->
      Result.map
        (fun args ->
          match args with
          | [ r; c ] -> Distribution.grid ~rows:r ~cols:c
          | _ -> assert false)
        (parse_int_args "grid" spec 2)
  | "clustered" ->
      Result.map
        (fun args ->
          match args with
          | [ p; v; c ] -> Distribution.clustered ~n_procs:p ~n_vars:v ~clusters:c
          | _ -> assert false)
        (parse_int_args "clustered" spec 3)
  | "full" ->
      Result.map
        (fun args ->
          match args with
          | [ p; v ] -> Distribution.full ~n_procs:p ~n_vars:v
          | _ -> assert false)
        (parse_int_args "full" spec 2)
  | "random" ->
      Result.map
        (fun args ->
          match args with
          | [ p; v; r; seed ] ->
              Distribution.random (Rng.create seed) ~n_procs:p ~n_vars:v
                ~replicas_per_var:r
          | _ -> assert false)
        (parse_int_args "random" spec 4)
  | "lists" -> (
      (* lists:0,1;1,2;2 — per-process variable lists, ';'-separated *)
      match String.index_opt spec ':' with
      | None -> Error "lists: expects per-process variable lists"
      | Some colon -> (
          let body = String.sub spec (colon + 1) (String.length spec - colon - 1) in
          try
            let per_proc =
              String.split_on_char ';' body
              |> List.map (fun group ->
                     String.split_on_char ',' group
                     |> List.filter (fun s -> String.trim s <> "")
                     |> List.map (fun s -> int_of_string (String.trim s)))
            in
            let n_vars =
              1 + List.fold_left (List.fold_left Stdlib.max) (-1) per_proc
            in
            if n_vars <= 0 then Error "lists: no variables"
            else Ok (Distribution.of_lists ~n_vars per_proc)
          with Failure _ | Invalid_argument _ ->
            Error (Printf.sprintf "malformed lists spec %S" spec)))
  | other -> Error (Printf.sprintf "unknown distribution %S" other)

let dist_conv =
  let parse spec =
    match distribution_of_spec spec with
    | Ok d -> Ok d
    | Error msg -> Error (`Msg msg)
  in
  let print ppf d =
    Format.fprintf ppf "<distribution %dp/%dv>" (Distribution.n_procs d)
      (Distribution.n_vars d)
  in
  Arg.conv (parse, print)

let dist_arg =
  let doc =
    "Variable distribution: fig1, cycle4, ring:N, chain:N, star:N, grid:R,C, \
     clustered:P,V,C, full:P,V, random:P,V,R,SEED or lists:0,1;1,2;2 (per-process\n     variable lists)."
  in
  Arg.(value & opt dist_conv (Result.get_ok (distribution_of_spec "cycle4"))
       & info [ "d"; "dist" ] ~docv:"DIST" ~doc)

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* [--jobs N] sizes the shared domain pool used by the parallel checker and
   the experiment harness; without it the pool follows $(b,REPRO_JOBS) or
   [Domain.recommended_domain_count].  Applying it is a side effect on the
   process-wide default pool, done before the command body runs. *)
let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for parallel checking/experiments (default: \
                 $(b,REPRO_JOBS) or the recommended domain count).")

let apply_jobs = function
  | None -> ()
  | Some n when n >= 1 -> Pool.set_default_jobs n
  | Some _ ->
      prerr_endline "jobs must be >= 1";
      exit 2

(* --- chaos plans --------------------------------------------------------------- *)

let chaos_conv =
  Arg.conv
    ( (fun text ->
        match Fault.Plan.parse text with
        | Ok p -> Ok p
        | Error msg -> Error (`Msg msg)),
      fun ppf p -> Format.pp_print_string ppf (Fault.Plan.to_string p) )

let chaos_arg =
  Arg.(value & opt (some chaos_conv) None
       & info [ "chaos" ] ~docv:"PLAN"
           ~doc:"Deterministic fault plan, e.g. \
                 $(b,seed=5,drop=0.05,dup=0.01,crash=1\\@6+250). Clauses: \
                 $(b,seed=K), $(b,drop=P), $(b,dup=P), $(b,reorder=P), \
                 $(b,delay=D), $(b,link=S>D:drop=P:...), \
                 $(b,part=T1..T2:A+B), $(b,crash=N\\@K+R), \
                 $(b,dcrash=N:POINT\\@K+R), and the membership events \
                 $(b,join=N\\@MS) and $(b,leave=N\\@MS). A command exits 1 \
                 on a clause it does not apply: $(b,reconfig) applies only \
                 crashes and membership events, the other commands no \
                 membership events, and $(b,run) no $(b,dcrash). The same \
                 plan reproduces identically on the simulator and on live \
                 TCP.")

(* [--json FILE|DIR] is resolved and probed before any run or fork, so an
   unwritable path is a usage error, not a record lost after the run *)
let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the run's record (schema repro-bench/2) to $(docv); a \
                 directory auto-numbers it as BENCH_NNNN.json. Exit 1, \
                 before anything runs, when $(docv) cannot be written.")

let json_target = function
  | None -> None
  | Some path -> (
      match Record.target path with
      | Ok target -> Some target
      | Error msg ->
          prerr_endline ("repro: " ^ msg);
          exit 1)

let report ?target record =
  Record.print ?target record;
  Option.iter (fun t -> Record.write t record) target

let session_arg =
  Arg.(value & flag
       & info [ "session" ]
           ~doc:"Layer the reliable session protocol (go-back-N, cumulative \
                 acks, retransmission backoff) over the transport even \
                 without a chaos plan; forced on whenever $(b,--chaos) is \
                 given.")

(* sim transport stack mirroring a live node's: backend → chaos → session;
   the session comes along when asked for or under a checked chaos plan *)
let sim_chaos_factory ~chaos ~session ~seed =
  if session || chaos <> None then
    Some
      (Session.stack ?plan:chaos ~seed
         (Transport.sim ~latency:Latency.lan ~seed ()))
  else None

(* --- protocols ---------------------------------------------------------------- *)

let protocols_cmd =
  let run () =
    let rows =
      List.map
        (fun spec ->
          [
            spec.Registry.name;
            Checker.criterion_name spec.Registry.guarantees;
            (if spec.Registry.requires_full_replication then "full" else "partial");
            (if spec.Registry.blocking then "blocking" else "wait-free");
            (if spec.Registry.efficient then "yes" else "no");
          ])
        Registry.all
    in
    Table.print
      ~header:[ "protocol"; "guarantees"; "replication"; "operations"; "efficient" ]
      ~rows ()
  in
  Cmd.v (Cmd.info "protocols" ~doc:"List the protocol implementations.")
    Term.(const run $ const ())

(* --- analyze ------------------------------------------------------------------- *)

let analyze_cmd =
  let run dist =
    Format.printf "%a" Distribution.pp dist;
    let sg = Share_graph.of_distribution dist in
    Format.printf "%a" Share_graph.pp sg;
    let rows =
      List.init (Distribution.n_vars dist) (fun x ->
          let hoops = Share_graph.hoops ~max_hoops:50 sg ~var:x in
          [
            Printf.sprintf "x%d" x;
            "{"
            ^ String.concat "," (List.map string_of_int (Distribution.holders dist x))
            ^ "}";
            string_of_int (List.length hoops);
            Format.asprintf "%a" Bitset.pp (Share_graph.x_relevant sg ~var:x);
          ])
    in
    Table.print ~header:[ "var"; "C(x)"; "#hoops"; "x-relevant (Thm 1)" ] ~rows ();
    Printf.printf "efficient causal partial replication possible: %b\n"
      (Share_graph.no_external_relevance sg)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Share-graph analysis: cliques, hoops, Theorem 1 x-relevance.")
    Term.(const run $ dist_arg)

(* --- run ------------------------------------------------------------------------ *)

let protocol_arg =
  let protocol_conv =
    Arg.conv
      ( (fun name ->
          match Registry.find name with
          | Some spec -> Ok spec
          | None ->
              Error
                (`Msg
                   (Printf.sprintf "unknown protocol %s (known: %s)" name
                      (String.concat ", " Registry.names)))),
        fun ppf spec -> Format.pp_print_string ppf spec.Registry.name )
  in
  Arg.(value
       & opt protocol_conv (Option.get (Registry.find "pram-partial"))
       & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
           ~doc:"Protocol implementation (see $(b,protocols)).")

let run_cmd =
  let run spec dist seed ops read_ratio timed diagram chaos session jobs =
    apply_jobs jobs;
    let chaos =
      match
        Fault.Plan.check ~runtime:"the simulator"
          ~rejects:[ "join"; "leave"; "dcrash" ] chaos
      with
      | Ok c -> c
      | Error msg ->
          prerr_endline msg;
          exit 1
    in
    let dist =
      if spec.Registry.requires_full_replication then
        Distribution.full ~n_procs:(Distribution.n_procs dist)
          ~n_vars:(Distribution.n_vars dist)
      else dist
    in
    let memory =
      match sim_chaos_factory ~chaos ~session ~seed with
      | None -> spec.Registry.make ~dist ~seed ()
      | Some transport -> spec.Registry.make ~transport ~dist ~seed ()
    in
    let profile = { Workload.ops_per_proc = ops; read_ratio; max_think = 3 } in
    let rng = Repro_util.Rng.create (seed + 1) in
    let programs = Workload.programs rng dist profile in
    let h =
      if timed then begin
        let t = Repro_core.Runner.run_timed memory ~programs in
        if diagram then print_string (Repro_history.Diagram.render_timed t)
        else Format.printf "%a" Repro_history.Timed.pp t;
        (match Repro_history.Timed.check_linearizable t with
        | Repro_history.Timed.Linearizable -> print_endline "atomic (linearizable): yes"
        | Repro_history.Timed.Not_linearizable ->
            print_endline "atomic (linearizable): no"
        | Repro_history.Timed.Undecidable _ ->
            print_endline "atomic (linearizable): undecidable");
        Repro_history.Timed.history t
      end
      else begin
        let h = Repro_core.Runner.run memory ~programs in
        if diagram then print_string (Repro_history.Diagram.render h)
        else print_string (History.to_string h);
        h
      end
    in
    print_newline ();
    let rows =
      List.map
        (fun criterion ->
          [
            Checker.criterion_name criterion;
            (match Checker.check_par criterion h with
            | Checker.Consistent -> "yes"
            | Checker.Inconsistent -> "no"
            | Checker.Undecidable _ -> "?");
          ])
        Checker.all_criteria
      @ List.map
          (fun guarantee ->
            [
              Repro_history.Session.guarantee_name guarantee;
              (match Repro_history.Session.check guarantee h with
              | Repro_history.Session.Holds -> "yes"
              | Repro_history.Session.Violated -> "no"
              | Repro_history.Session.Undecidable _ -> "?");
            ])
          Repro_history.Session.all_guarantees
    in
    Table.print ~header:[ "criterion"; "consistent" ] ~rows ();
    let m = memory.Memory.metrics () in
    Printf.printf
      "\nmessages: %d   control bytes: %d   payload bytes: %d   off-clique mentions: %d\n"
      m.Memory.messages_sent m.Memory.control_bytes m.Memory.payload_bytes
      (Memory.total_offclique_mentions memory);
    if m.Memory.overhead_bytes > 0 then
      Printf.printf
        "reliability overhead: %d bytes (headers, retransmissions, acks — \
         accounted apart from the paper's control bytes)\n"
        m.Memory.overhead_bytes
  in
  let ops_arg =
    Arg.(value & opt int 8 & info [ "ops" ] ~doc:"Operations per process.")
  in
  let reads_arg =
    Arg.(value & opt float 0.5 & info [ "read-ratio" ] ~doc:"Fraction of reads.")
  in
  let timed_arg =
    Arg.(value & flag
         & info [ "timed" ] ~doc:"Record invocation/response times and decide atomicity.")
  in
  let diagram_arg =
    Arg.(value & flag & info [ "diagram" ] ~doc:"Render a space-time diagram.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a random workload on a protocol and check the recorded history.")
    Term.(const run $ protocol_arg $ dist_arg $ seed_arg $ ops_arg $ reads_arg
          $ timed_arg $ diagram_arg $ chaos_arg $ session_arg $ jobs_arg)

(* --- check ------------------------------------------------------------------------ *)

let criterion_conv =
  Arg.conv
    ( (fun name ->
        let target = String.lowercase_ascii name in
        match
          List.find_opt
            (fun c ->
              String.lowercase_ascii (Checker.criterion_name c) = target)
            Checker.all_criteria
        with
        | Some c -> Ok c
        | None ->
            Error
              (`Msg
                 (Printf.sprintf "unknown criterion %s (known: %s)" name
                    (String.concat ", "
                       (List.map Checker.criterion_name Checker.all_criteria)))) ),
      fun ppf c -> Format.pp_print_string ppf (Checker.criterion_name c) )

let require_arg =
  Arg.(value & opt (some criterion_conv) None
       & info [ "require" ] ~docv:"CRITERION"
           ~doc:"Exit with status 2 unless the history satisfies $(docv) \
                 (e.g. $(b,pram), $(b,causal), $(b,sequential)).")

let check_cmd =
  let run path diagram require jobs =
    apply_jobs jobs;
    let text =
      match path with
      | "-" -> In_channel.input_all stdin
      | path -> In_channel.with_open_text path In_channel.input_all
    in
    match History.parse text with
    | Error msg ->
        Printf.eprintf "parse error: %s\n" msg;
        exit 1
    | Ok h ->
        if diagram then print_string (Repro_history.Diagram.render h)
        else print_string (History.to_string h);
        print_newline ();
        let verdicts =
          List.map (fun c -> (c, Checker.check_par c h)) Checker.all_criteria
        in
        let rows =
          List.map
            (fun (criterion, verdict) ->
              [
                Checker.criterion_name criterion;
                (match verdict with
                | Checker.Consistent -> "yes"
                | Checker.Inconsistent -> "no"
                | Checker.Undecidable _ -> "undecidable (non-differentiated)");
              ])
            verdicts
          @ List.map
              (fun guarantee ->
                [
                  Repro_history.Session.guarantee_name guarantee;
                  (match Repro_history.Session.check guarantee h with
                  | Repro_history.Session.Holds -> "yes"
                  | Repro_history.Session.Violated -> "no"
                  | Repro_history.Session.Undecidable _ ->
                      "undecidable (non-differentiated)");
                ])
              Repro_history.Session.all_guarantees
        in
        Table.print ~header:[ "criterion"; "consistent" ] ~rows ();
        Option.iter
          (fun criterion ->
            match List.assoc criterion verdicts with
            | Checker.Consistent -> ()
            | Checker.Inconsistent | Checker.Undecidable _ ->
                Printf.eprintf "history violates %s\n"
                  (Checker.criterion_name criterion);
                exit 2)
          require
  in
  let path_arg =
    Arg.(value & pos 0 string "-"
         & info [] ~docv:"FILE" ~doc:"History file ('-' for stdin; format as printed by $(b,run)).")
  in
  let diagram_arg =
    Arg.(value & flag
         & info [ "diagram" ] ~doc:"Render a space-time diagram instead of plain text.")
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `I ("0", "History parsed; with $(b,--require), the criterion holds.");
      `I ("1", "Parse error or unreadable input.");
      `I ("2", "$(b,--require) criterion violated (or undecidable).");
      `S "GATING LIVE AND CHAOS RUNS";
      `P
        "A cluster run — chaotic or not — is gated in two steps.  First \
         $(b,repro cluster ... --chaos PLAN --parity --out-history H) \
         supervises the run and exits: 0 when accepted (crashes that were \
         respawned and recovered from their write-ahead logs count as \
         accepted), 1 on an unrecovered node crash or harness error, 2 on \
         a consistency or finals violation, 3 on a sim-parity or \
         WAL-digest mismatch.  Then \
         $(b,repro check --require CRITERION H) re-derives the verdict from \
         the captured history with an independent checker invocation (exit \
         2 on violation).  CI's chaos-smoke job runs exactly this pipeline.";
    ]
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check a textual history against every criterion."
       ~man)
    Term.(const run $ path_arg $ diagram_arg $ require_arg $ jobs_arg)

(* --- bellman-ford ------------------------------------------------------------------ *)

let bellman_ford_cmd =
  let run spec nodes extra seed fig8 =
    let g =
      if fig8 then Wgraph.fig8
      else Wgraph.random (Rng.create seed) ~n:nodes ~extra_edges:extra ~max_weight:9
    in
    Format.printf "%a" Wgraph.pp g;
    let make ~dist ~seed = spec.Registry.make ~dist ~seed () in
    let result = Bellman_ford.run ~make ~seed:(seed + 1) g ~source:0 in
    let reference = Wgraph.reference_distances g ~source:0 in
    let rows =
      List.init (Wgraph.n_nodes g) (fun i ->
          let show v = if v >= Wgraph.infinity_cost then "inf" else string_of_int v in
          [
            string_of_int i;
            show result.Bellman_ford.distances.(i);
            show reference.(i);
          ])
    in
    Table.print ~header:[ "node"; "distributed"; "reference" ] ~rows ();
    Printf.printf "exact: %b\n" (result.Bellman_ford.distances = reference)
  in
  let nodes_arg = Arg.(value & opt int 8 & info [ "n"; "nodes" ] ~doc:"Node count.") in
  let extra_arg = Arg.(value & opt int 10 & info [ "extra-edges" ] ~doc:"Extra random edges.") in
  let fig8_arg = Arg.(value & flag & info [ "fig8" ] ~doc:"Use the paper's Fig. 8 network.") in
  Cmd.v
    (Cmd.info "bellman-ford" ~doc:"Run the paper's §6 case study.")
    Term.(const run $ protocol_arg $ nodes_arg $ extra_arg $ seed_arg $ fig8_arg)

(* --- experiment --------------------------------------------------------------------- *)

let experiment_cmd =
  (* each cell a text metric named by its column; the first cell names the
     row *)
  let record seed tables =
    let table (t : Experiment.table) =
      let column i = Option.value (List.nth_opt t.header i) ~default:(string_of_int i) in
      let row cells =
        {
          Record.case = (match cells with c :: _ -> c | [] -> "");
          metrics = List.mapi (fun i cell -> Record.text (column i) cell) cells;
        }
      in
      { Record.title = t.id ^ ": " ^ t.title; rows = List.map row t.rows }
    in
    {
      Record.tier = "experiment";
      params = [ Record.int_param "seed" seed ];
      tables = List.map table tables;
      gates = [];
      notes =
        List.concat_map
          (fun (t : Experiment.table) -> List.map (( ^ ) (t.id ^ ": ")) t.notes)
          tables;
    }
  in
  let emit target seed tables =
    List.iter
      (fun t ->
        print_string (Experiment.render t);
        print_newline ())
      tables;
    Option.iter (fun t -> Record.write t (record seed tables)) target
  in
  let run id seed jobs json =
    apply_jobs jobs;
    let target = json_target json in
    match id with
    | None -> emit target seed (Experiment.all ~seed ())
    | Some id -> (
        match Experiment.find id with
        | Some f -> emit target seed [ f ~seed () ]
        | None ->
            Printf.eprintf "unknown experiment %s (known: %s)\n" id
              (String.concat ", " Experiment.ids);
            exit 1)
  in
  let id_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"ID" ~doc:"Experiment id (E1, T1, A2, E2, A1, C1); all when omitted.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate an experiment table from DESIGN.md.")
    Term.(const run $ id_arg $ seed_arg $ jobs_arg $ json_arg)

(* --- live cluster ------------------------------------------------------------------- *)

let workload_arg =
  Arg.(value & opt string "e1"
       & info [ "w"; "workload" ] ~docv:"WORKLOAD"
           ~doc:(Printf.sprintf "Cluster workload: %s."
                   (String.concat ", " Workload_spec.names)))

(* --- durability tier ---------------------------------------------------------- *)

let durable_flag_arg =
  Arg.(value & flag
       & info [ "durable" ]
           ~doc:"Engage the durability tier: every recorded op goes through a \
                 CRC-framed write-ahead log and checkpoints compact it. The \
                 default group-commit policy fsyncs every append \
                 ($(b,--fsync-every) 1).")

let fsync_every_arg =
  Arg.(value & opt (some int) None
       & info [ "fsync-every" ] ~docv:"K"
           ~doc:"Group commit: fsync the log after every $(docv)-th append \
                 (implies the durability tier).")

let fsync_interval_arg =
  Arg.(value & opt (some int) None
       & info [ "fsync-interval" ] ~docv:"MS"
           ~doc:"Group commit on a time budget: fsync when an append finds \
                 the last sync older than $(docv) ms (implies the durability \
                 tier).")

(* --- harness watchdog ---------------------------------------------------------- *)

let deadline_arg =
  Arg.(value & opt (some int) None
       & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Supervisor watchdog: a run still not finished after \
                 $(docv) ms is put down and reported as wedged — exit 4, \
                 distinct from every acceptance failure (default 90 s).")

(* a run the watchdog had to put down gets its own exit code, so CI can
   tell "hung harness" apart from "real acceptance failure" *)
let exit_of_harness_error msg =
  if String.length msg >= 7 && String.sub msg 0 7 = "wedged:" then 4 else 1

let resolve_fsync_policy ~flag ~every ~interval ~fail =
  match (every, interval) with
  | Some _, Some _ -> fail "--fsync-every and --fsync-interval conflict"
  | Some k, None -> Some (Wal.Every k)
  | None, Some m -> Some (Wal.Interval_ms m)
  | None, None -> if flag then Some (Wal.Every 1) else None

let sockaddr_of_spec spec =
  match String.rindex_opt spec ':' with
  | None -> Error (Printf.sprintf "%S: expected HOST:PORT" spec)
  | Some i -> (
      let host = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | None -> Error (Printf.sprintf "%S: bad port" spec)
      | Some port -> (
          let resolve () =
            if host = "" || host = "localhost" then Unix.inet_addr_loopback
            else
              try Unix.inet_addr_of_string host
              with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
          in
          try Ok (Unix.ADDR_INET (resolve (), port))
          with Not_found | Invalid_argument _ ->
            Error (Printf.sprintf "%S: cannot resolve host" spec)))

(* a history in the format [repro check] parses *)
let write_history h path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (History.to_string h));
  Printf.printf "wrote %s\n" path

(* A node's recorded slice, printed in the format [repro check] parses:
   full process shape, with every other node's local history empty. *)
let slice_history ~n ~node ops =
  History.of_lists
    (List.init n (fun i ->
         if i <> node then []
         else List.map (fun (kind, var, value, _, _) -> (kind, var, value)) ops))

let serve_cmd =
  let run node nodes listen peers spec workload seed chaos session incarnation
      out wal fsync_every fsync_interval =
    let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt in
    let durable =
      match wal with
      | None ->
          if fsync_every <> None || fsync_interval <> None then
            fail "an fsync policy needs --wal DIR"
          else None
      | Some dir ->
          Option.map
            (fun p -> (dir, p))
            (resolve_fsync_policy ~flag:true ~every:fsync_every
               ~interval:fsync_interval
               ~fail:(fun s -> fail "%s" s))
    in
    let spec_w =
      match Workload_spec.make ~name:workload ~n:nodes ~seed with
      | Ok w -> w
      | Error msg -> fail "%s" msg
    in
    if node < 0 || node >= nodes then fail "--node must be in [0, %d)" nodes;
    let peer_specs = String.split_on_char ',' peers in
    if List.length peer_specs <> nodes then
      fail "--peers needs exactly %d comma-separated HOST:PORT entries" nodes;
    let peer_addrs =
      List.map
        (fun s ->
          match sockaddr_of_spec (String.trim s) with
          | Ok a -> a
          | Error msg -> fail "%s" msg)
        peer_specs
      |> Array.of_list
    in
    let listen_addr =
      match sockaddr_of_spec listen with Ok a -> a | Error msg -> fail "%s" msg
    in
    let listen_fd =
      try Live.bind listen_addr
      with Unix.Unix_error (err, _, _) ->
        fail "cannot bind %s: %s" listen (Unix.error_message err)
    in
    match
      Cluster_node.run ~self:node ~listen_fd ~peers:peer_addrs ~protocol:spec
        ~workload:spec_w ~seed ?chaos ~session ~incarnation ?durable ()
    with
    | exception Cluster_node.Crash msg -> fail "node %d crashed: %s" node msg
    | exception Chaos.Injected_crash _ ->
        (* the chaos plan scheduled this crash; a supervisor watching for
           exit 42 respawns us with --incarnation bumped *)
        prerr_endline
          (Printf.sprintf "node %d: injected crash (respawn with --incarnation %d)"
             node (incarnation + 1));
        exit 42
    | result ->
        let m = result.Cluster_node.metrics in
        Printf.printf
          "node %d/%d done: %d ops, %d messages sent, %d control bytes, %d \
           payload bytes, %d ms\n"
          node nodes
          (List.length result.Cluster_node.ops)
          m.Memory.messages_sent m.Memory.control_bytes m.Memory.payload_bytes
          result.Cluster_node.wall_ms;
        (let w = result.Cluster_node.wire in
         if
           w.Repro_msgpass.Net.retransmits > 0
           || w.Repro_msgpass.Net.dropped > 0
           || w.Repro_msgpass.Net.reconnects > 0
           || result.Cluster_node.incarnation > 0
         then
           Printf.printf
             "  chaos: incarnation %d, %d dropped, %d retransmits, %d dup \
              suppressed, %d reconnects, %d overhead bytes\n"
             result.Cluster_node.incarnation w.Repro_msgpass.Net.dropped
             w.Repro_msgpass.Net.retransmits
             w.Repro_msgpass.Net.dups_suppressed
             w.Repro_msgpass.Net.reconnects w.Repro_msgpass.Net.overhead_bytes);
        List.iter
          (fun (var, value) ->
            Printf.printf "  final x%d = %s\n" var
              (match value with
              | Repro_history.Op.Init -> "init"
              | Repro_history.Op.Val v -> string_of_int v))
          result.Cluster_node.finals;
        Option.iter
          (write_history (slice_history ~n:nodes ~node result.Cluster_node.ops))
          out
  in
  let node_arg =
    Arg.(required & opt (some int) None
         & info [ "node" ] ~docv:"I" ~doc:"This daemon's node id.")
  in
  let nodes_arg =
    Arg.(value & opt int 3 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let listen_spec_arg =
    Arg.(required & opt (some string) None
         & info [ "listen" ] ~docv:"HOST:PORT" ~doc:"Address to listen on.")
  in
  let peers_arg =
    Arg.(required & opt (some string) None
         & info [ "peers" ] ~docv:"ADDRS"
             ~doc:"All N nodes' listen addresses, comma-separated, in node \
                   order (entry $(b,--node) is ignored).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write this node's recorded history slice (readable by \
                   $(b,repro check)).")
  in
  let incarnation_arg =
    Arg.(value & opt int 0
         & info [ "incarnation" ] ~docv:"K"
             ~doc:"Restart count: 0 for a first launch; a supervisor respawning \
                   this node after an injected crash (exit 42) passes K+1, \
                   which recovers from the $(b,--wal) log and disables the \
                   crash schedule.")
  in
  let wal_arg =
    Arg.(value & opt (some string) None
         & info [ "wal" ] ~docv:"DIR"
             ~doc:"Write-ahead log directory, the node's only persistence: \
                   every recorded op is appended with CRC framing and group \
                   commit, and periodic checkpoints compact the log; with \
                   $(b,--incarnation) positive the node recovers from \
                   checkpoint + log replay. Required by a $(b,dcrash) clause \
                   in the chaos plan.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run one replica daemon of a live cluster over TCP sockets. Exit \
             status: 1 on a node crash or configuration error; 42 when the \
             chaos plan's scheduled crash fires (respawn with \
             $(b,--incarnation) bumped to recover from the $(b,--wal) log).")
    Term.(const run $ node_arg $ nodes_arg $ listen_spec_arg $ peers_arg
          $ protocol_arg $ workload_arg $ seed_arg $ chaos_arg $ session_arg
          $ incarnation_arg $ out_arg $ wal_arg $ fsync_every_arg
          $ fsync_interval_arg)

(* --- WAL inspection ----------------------------------------------------------- *)

let wal_cmd =
  let run dir verify =
    match Wal.load ~dir with
    | Error msg ->
        Printf.eprintf "%s: %s\n" dir msg;
        exit 1
    | Ok r ->
        Printf.printf "%s: generation %d, seqnos [%d, %d)\n" dir r.Wal.r_gen
          r.Wal.r_base r.Wal.r_next;
        (match r.Wal.r_checkpoint with
        | None -> print_endline "checkpoint: none"
        | Some p ->
            Printf.printf "checkpoint: %d bytes, md5 %s\n" (String.length p)
              (Digest.to_hex (Digest.string p)));
        if r.Wal.r_log = "" then print_endline "log: none"
        else
          Printf.printf "log %s: %d record(s), %d damaged byte(s) dropped\n"
            r.Wal.r_log
            (List.length r.Wal.r_entries)
            r.Wal.r_dropped_bytes;
        List.iter (fun n -> Printf.printf "note: %s\n" n) r.Wal.r_notes;
        Printf.printf "digest: %s\n" (Wal.digest r);
        if verify then begin
          (* records written by a cluster node must decode as op records,
             consecutively sequenced from the base *)
          let bad =
            List.filter
              (fun (_, p) -> Result.is_error (Oplog.decode p))
              r.Wal.r_entries
          in
          if bad <> [] then begin
            List.iter
              (fun (seq, p) ->
                Printf.eprintf "record %d: %s\n" seq
                  (Result.get_error (Oplog.decode p)))
              bad;
            exit 1
          end;
          Printf.printf "verify: %d op record(s) decode cleanly\n"
            (List.length r.Wal.r_entries)
        end;
        if r.Wal.r_dropped_bytes > 0 || r.Wal.r_notes <> [] then exit 2
  in
  let dir_arg =
    Arg.(required & pos 0 (some dir) None
         & info [] ~docv:"DIR" ~doc:"A node's write-ahead log directory.")
  in
  let verify_arg =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Additionally decode every recovered record as a cluster op \
                   record (exit 1 if any fails).")
  in
  Cmd.v
    (Cmd.info "wal"
       ~doc:"Inspect a write-ahead log directory: generation, checkpoint, \
             recovered records, dropped tail, recovery digest. Exit status: 0 \
             when the log is clean, 1 when it is unreadable (or $(b,--verify) \
             fails), 2 when it loads but recovery had to repair something \
             (dropped tail, missing generation file).")
    Term.(const run $ dir_arg $ verify_arg)

(* --- consistent-hash placement inspector --------------------------------------- *)

let placement_cmd =
  let run spec_text vars joins leaves max_ratio =
    let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt in
    let spec =
      match Ring.spec_of_string spec_text with
      | Ok s -> s
      | Error msg -> fail "%s" msg
    in
    if vars < 1 then fail "--vars must be >= 1";
    let ring = Ring.of_spec spec in
    let k = spec.Ring.s_k in
    Printf.printf "placement %s over %d variable(s)\n"
      (Ring.spec_to_string spec) vars;
    let b = Ring.balance ring ~k ~n_vars:vars in
    Table.print ~header:[ "member"; "assignments"; "x mean" ]
      ~rows:
        (List.map
           (fun (m, c) ->
             [
               string_of_int m;
               string_of_int c;
               Printf.sprintf "%.2f" (float_of_int c /. b.Ring.b_mean);
             ])
           (Ring.load ring ~k ~n_vars:vars))
      ();
    Printf.printf
      "balance: min %d, max %d, mean %.1f, ratio %.3f (1.0 = perfect)\n"
      b.Ring.b_min b.Ring.b_max b.Ring.b_mean b.Ring.b_ratio;
    (* materialise the replica sets and run the paper's share-graph
       analysis over them: hoops per variable, Theorem-1 efficiency *)
    let dist =
      Ring.to_distribution ring ~k ~n_procs:spec.Ring.s_n ~n_vars:vars
    in
    let sg = Share_graph.of_distribution dist in
    Table.print ~header:[ "var"; "owner"; "replicas"; "#hoops" ]
      ~rows:
        (List.init vars (fun x ->
             [
               Printf.sprintf "x%d" x;
               string_of_int (Ring.owner ring x);
               "{"
               ^ String.concat ","
                   (List.map string_of_int (Ring.replicas ring ~k x))
               ^ "}";
               string_of_int
                 (List.length (Share_graph.hoops ~max_hoops:50 sg ~var:x));
             ]))
      ();
    Printf.printf "efficient causal partial replication possible: %b\n"
      (Share_graph.no_external_relevance sg);
    let gate = 2 * k * vars / Ring.n_members ring in
    let change kind node =
      let after =
        try
          match kind with
          | `Join -> Ring.add_member ring node
          | `Leave -> Ring.remove_member ring node
        with Invalid_argument m ->
          fail "%s %d: %s"
            (match kind with `Join -> "join" | `Leave -> "leave")
            node m
      in
      let moved = Ring.moved ~before:ring ~after ~k ~n_vars:vars in
      let b' = Ring.balance after ~k ~n_vars:vars in
      Printf.printf
        "%s %d: %d of %d assignment(s) move (gate 2kK/n = %d)%s; balance \
         ratio %.3f -> %.3f\n"
        (match kind with `Join -> "join" | `Leave -> "leave")
        node moved (k * vars) gate
        (if moved <= gate then "" else " EXCEEDED")
        b.Ring.b_ratio b'.Ring.b_ratio;
      moved <= gate
    in
    let moved_ok =
      List.for_all Fun.id
        (List.map (change `Join) joins @ List.map (change `Leave) leaves)
    in
    let ratio_ok =
      match max_ratio with None -> true | Some r -> b.Ring.b_ratio <= r
    in
    (match max_ratio with
    | Some r when not ratio_ok ->
        Printf.printf "balance ratio %.3f exceeds --max-ratio %.3f\n"
          b.Ring.b_ratio r
    | _ -> ());
    if not (moved_ok && ratio_ok) then exit 2
  in
  let spec_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SPEC"
             ~doc:"Ring spec: $(b,hash:n=5,k=2,vnodes=64,seed=7) ($(b,n) \
                   mandatory, the rest default).")
  in
  let vars_arg =
    Arg.(value & opt int 32
         & info [ "vars" ] ~docv:"K" ~doc:"Number of variables placed.")
  in
  let join_arg =
    Arg.(value & opt_all int []
         & info [ "join" ] ~docv:"NODE"
             ~doc:"Also show what adding $(docv) moves (repeatable; each \
                   change is measured against the initial ring).")
  in
  let leave_arg =
    Arg.(value & opt_all int []
         & info [ "leave" ] ~docv:"NODE"
             ~doc:"Also show what removing $(docv) moves (repeatable).")
  in
  let max_ratio_arg =
    Arg.(value & opt (some float) None
         & info [ "max-ratio" ] ~docv:"R"
             ~doc:"Gate the balance ratio: exit 2 when max/mean load \
                   exceeds $(docv).")
  in
  Cmd.v
    (Cmd.info "placement"
       ~doc:"Inspect a consistent-hash placement: per-member load, balance \
             stats, per-variable replica sets, share-graph hoop counts, and \
             what a membership change would move. Deterministic — two \
             invocations with the same spec print byte-identical output. \
             Exit status: 0 clean, 1 on a malformed spec or impossible \
             membership change, 2 when a $(b,--join)/$(b,--leave) moves \
             more than the 2kK/n minimal-movement gate or $(b,--max-ratio) \
             is exceeded.")
    Term.(const run $ spec_arg $ vars_arg $ join_arg $ leave_arg
          $ max_ratio_arg)

(* --- live membership ------------------------------------------------------------ *)

let reconfig_cmd =
  let run nodes k vnodes vars seed writes demote_after chaos deadline wal_dir
      out_history json =
    let target = json_target json in
    match
      Reconfig.run ~n:nodes ~k ~vnodes ~n_vars:vars ~seed ~writes
        ~demote_after_ms:demote_after ?chaos ?deadline_ms:deadline ?wal_dir ()
    with
    | Error msg ->
        prerr_endline msg;
        exit (exit_of_harness_error msg)
    | Ok o ->
        report ?target
          {
            Record.tier = "reconfig";
            params =
              List.map
                (fun (k, v) -> Record.int_param k v)
                [
                  ("nodes", o.Reconfig.n); ("k", o.Reconfig.k);
                  ("vnodes", o.Reconfig.vnodes); ("vars", o.Reconfig.n_vars);
                  ("seed", o.Reconfig.seed); ("writes", writes);
                ];
            tables =
              [
                Record.one_row "Reconfig run"
                  (Printf.sprintf "%d nodes, k=%d" o.Reconfig.n o.Reconfig.k)
                  (Reconfig.summary o);
                Reconfig.events_table o;
                Reconfig.nodes_table o;
              ];
            gates = Reconfig.gates o;
            notes =
              (if o.Reconfig.chaos = "" then [] else [ "chaos plan: " ^ o.Reconfig.chaos ]);
          };
        Option.iter (write_history o.Reconfig.history) out_history;
        if o.Reconfig.verdict <> Checker.Consistent then exit 2;
        if not o.Reconfig.moved_ok then exit 3
  in
  let nodes_arg =
    Arg.(value & opt int 5
         & info [ "n"; "nodes" ] ~docv:"N"
             ~doc:"Process count; initial ring membership is every node not \
                   scheduled to $(b,join=) by the chaos plan.")
  in
  let k_arg =
    Arg.(value & opt int 2
         & info [ "k" ] ~docv:"K" ~doc:"Replication degree per variable.")
  in
  let vnodes_arg =
    Arg.(value & opt int 64
         & info [ "vnodes" ] ~docv:"V"
             ~doc:"Virtual nodes per member on the hash ring.")
  in
  let vars_arg =
    Arg.(value & opt int 32
         & info [ "vars" ] ~docv:"K" ~doc:"Number of shared variables.")
  in
  let writes_arg =
    Arg.(value & opt int 40
         & info [ "writes" ] ~docv:"W"
             ~doc:"Writes each process issues to its own variables, one \
                   every 5 ms.")
  in
  let demote_after_arg =
    Arg.(value & opt int 2500
         & info [ "demote-after-ms" ] ~docv:"MS"
             ~doc:"Failure detector: a member silent for $(docv) ms is \
                   demoted by a superseding proposal.")
  in
  let wal_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "wal-dir" ] ~docv:"DIR"
             ~doc:"Root for the per-member WAL directories, kept after the \
                   run for $(b,repro wal) inspection. Default: a temporary \
                   root, removed afterwards (the WAL tier itself is always \
                   on).")
  in
  let out_history_arg =
    Arg.(value & opt (some string) None
         & info [ "out-history" ] ~docv:"FILE"
             ~doc:"Write the assembled history (readable by $(b,repro \
                   check)).")
  in
  Cmd.v
    (Cmd.info "reconfig"
       ~doc:"Fork a live cluster whose ring membership changes while it \
             runs: scripted $(b,join=)/$(b,leave=) events and crashes from \
             the chaos plan, epoch-fenced reconfiguration with WAL-resumable \
             state transfer, heartbeat demotion of silent members. The \
             reassembled history is checked against the tier's advertised \
             criterion (cache consistency; PRAM is reported informationally \
             — see DESIGN.md). Exit status: 1 on harness or unrecovered node \
             error, 2 when the history violates cache consistency, 3 when a \
             single membership change moved more than the 2kK/n gate, 4 \
             when the $(b,--deadline-ms) watchdog had to put down a wedged \
             run.")
    Term.(const run $ nodes_arg $ k_arg $ vnodes_arg $ vars_arg $ seed_arg
          $ writes_arg $ demote_after_arg $ chaos_arg $ deadline_arg
          $ wal_dir_arg $ out_history_arg $ json_arg)

let cluster_cmd =
  let run nodes spec workload seed chaos session parity json out_history
      durable_flag fsync_every fsync_interval wal_dir deadline =
    let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt in
    let durable =
      resolve_fsync_policy ~flag:(durable_flag || wal_dir <> None)
        ~every:fsync_every ~interval:fsync_interval
        ~fail:(fun s -> fail "%s" s)
    in
    let target = json_target json in
    match
      Cluster.run ~n:nodes ~protocol:spec ~workload ~seed ?chaos ~session
        ?durable ?wal_dir ?deadline_ms:deadline ()
    with
    | Error msg ->
        prerr_endline msg;
        exit (exit_of_harness_error msg)
    | Ok o ->
        let parity =
          if parity then Some (Cluster.sim_parity ~protocol:spec o) else None
        in
        let parity_ok =
          match parity with
          | None -> true
          | Some (Ok counters) ->
              List.for_all (fun (_, live, sim) -> live = sim) counters
          | Some (Error _) -> false
        in
        let only cond x = if cond then [ x ] else [] in
        report ?target
          {
            Record.tier = "cluster";
            params =
              Record.
                [
                  ("protocol", Text o.Cluster.protocol);
                  ("workload", Text o.Cluster.workload);
                  int_param "nodes" o.Cluster.n;
                  int_param "seed" o.Cluster.seed;
                  ("criterion", Text (Checker.criterion_name o.Cluster.criterion));
                  int_param "session" (Bool.to_int o.Cluster.session);
                  int_param "durable" (Bool.to_int o.Cluster.durable);
                ];
            tables =
              Record.one_row "Cluster run"
                (Printf.sprintf "%s %s n=%d" o.Cluster.protocol
                   o.Cluster.workload o.Cluster.n)
                (Cluster.summary o)
              :: Cluster.nodes_table o
              ::
              (match parity with
              | Some (Ok counters) ->
                  let row (what, live, sim) =
                    {
                      Record.case = what;
                      metrics = Record.[ ints "live" "" [ live ]; ints "sim" "" [ sim ] ];
                    }
                  in
                  [ { Record.title = "Live vs sim"; rows = List.map row counters } ]
              | _ -> []);
            gates =
              Cluster.gates o
              @ only (parity <> None) (Record.gate "sim parity" parity_ok);
            notes =
              only (o.Cluster.chaos <> "") ("chaos plan: " ^ o.Cluster.chaos)
              @ only
                  ((not o.Cluster.history_checked)
                  && o.Cluster.verdict <> Checker.Consistent)
                  "non-differentiated history; acceptance is the finals check"
              @ (match o.Cluster.finals with
                | Ok () -> []
                | Error msg -> [ "finals check FAILED: " ^ msg ])
              @ (match parity with
                | Some (Error msg) -> [ "sim baseline failed: " ^ msg ]
                | _ -> [])
              @ Option.to_list
                  (Option.map (( ^ ) "WAL logs kept in ") o.Cluster.wal_dir);
          };
        Option.iter (write_history o.Cluster.history) out_history;
        if not (Cluster.accepted o) then exit 2;
        if (not parity_ok) || (o.Cluster.durable && not o.Cluster.wal_parity)
        then exit 3
  in
  let nodes_arg =
    Arg.(value & opt int 3 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let parity_arg =
    Arg.(value & flag
         & info [ "parity" ]
             ~doc:"Also run the same workload on the deterministic simulator \
                   and require identical message and declared-byte totals \
                   (exit 3 on mismatch).")
  in
  let out_history_arg =
    Arg.(value & opt (some string) None
         & info [ "out-history" ] ~docv:"FILE"
             ~doc:"Write the assembled history (readable by $(b,repro check)).")
  in
  let wal_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "wal-dir" ] ~docv:"DIR"
             ~doc:"Root for the per-node WAL directories, kept after the run \
                   for $(b,repro wal) inspection (implies the durability \
                   tier). Default: a temporary root, removed afterwards.")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Fork a live loopback cluster (one OS process per node, real TCP \
             sockets), run a workload, and check the assembled history. With \
             $(b,--chaos) the harness supervises: lossy links are made \
             reliable by the session layer, and injected crashes (exit 42) \
             are respawned to recover from each node's write-ahead log, \
             digest-verified against the frozen post-crash files. A \
             $(b,crash=) clause gives every node an unsynced log unless \
             $(b,--durable) picks a group-commit policy; a $(b,dcrash=) \
             clause needs $(b,--durable). Exit status: 1 on unrecovered node \
             crash, 2 on consistency/finals violation, 3 on sim-parity or \
             WAL-digest mismatch, 4 when the $(b,--deadline-ms) watchdog had \
             to put down a wedged run.")
    Term.(const run $ nodes_arg $ protocol_arg $ workload_arg $ seed_arg
          $ chaos_arg $ session_arg $ parity_arg $ json_arg $ out_history_arg
          $ durable_flag_arg $ fsync_every_arg $ fsync_interval_arg $ wal_dir_arg
          $ deadline_arg)

(* --- open-loop load tier -------------------------------------------------------- *)

let load_cmd =
  let run spec nodes clients rate duration mix seed coalesce drain_plan json =
    let cfg =
      {
        Load_harness.protocol = spec;
        n = nodes;
        clients;
        rate;
        duration_ms = duration;
        mix;
        seed;
        coalesce;
        drain_plan;
      }
    in
    let target = json_target json in
    match Load_harness.run cfg with
    | Error msg ->
        prerr_endline msg;
        exit (exit_of_harness_error msg)
    | Ok r ->
        let case =
          Printf.sprintf "%s n=%d" r.Load_harness.protocol r.Load_harness.n
        in
        report ?target
          {
            Record.tier = "load";
            params =
              Record.
                [
                  ("protocol", Text r.Load_harness.protocol);
                  ("workload", Text r.Load_harness.workload);
                  int_param "nodes" r.Load_harness.n;
                  int_param "clients" r.Load_harness.clients;
                  ("mix", Text r.Load_harness.mix);
                  ("rate", Num r.Load_harness.rate);
                  int_param "duration_ms" r.Load_harness.duration_ms;
                  int_param "seed" r.Load_harness.seed;
                  int_param "coalesce" r.Load_harness.coalesce;
                  int_param "drain_plan" (Bool.to_int r.Load_harness.drain_plan);
                ];
            tables =
              [
                Record.one_row "Ops and throughput" case (Load_harness.summary r);
                Load_harness.latency r;
                Record.one_row "Byte lanes" case (Load_harness.lanes r);
              ];
            gates =
              [ Record.gate "operations completed" (r.Load_harness.completed_ops > 0) ];
            notes = [];
          };
        if r.Load_harness.completed_ops = 0 then begin
          prerr_endline "load: no operation completed";
          exit 2
        end
  in
  let mix_conv =
    Arg.conv
      ( (fun text ->
          match Mix.parse text with Ok m -> Ok m | Error msg -> Error (`Msg msg)),
        fun ppf m -> Format.pp_print_string ppf (Mix.to_string m) )
  in
  let nodes_arg =
    Arg.(value & opt int 3 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let clients_arg =
    Arg.(value & opt int 2
         & info [ "clients" ] ~docv:"C" ~doc:"Load-generator fleet size.")
  in
  let rate_arg =
    Arg.(value & opt float 2000.0
         & info [ "rate" ] ~docv:"OPS"
             ~doc:"Aggregate offered rate, ops/sec (open loop: requests fire \
                   on schedule regardless of outstanding replies).")
  in
  let duration_arg =
    Arg.(value & opt int 1000
         & info [ "duration-ms" ] ~docv:"MS" ~doc:"Submission window.")
  in
  let mix_arg =
    Arg.(value & opt mix_conv Mix.read_heavy
         & info [ "mix" ] ~docv:"MIX"
             ~doc:(Printf.sprintf
                     "Operation mix: %s, or r=0.6,w=0.2,s=0.2,len=8."
                     (String.concat ", " (List.map fst Mix.named))))
  in
  let coalesce_arg =
    Arg.(value & opt int 8
         & info [ "coalesce" ] ~docv:"K"
             ~doc:"Session flush budget: up to $(docv) queued segments packed \
                   per frame (1 disables coalescing).")
  in
  let drain_arg =
    Arg.(value & flag
         & info [ "drain-plan" ]
             ~doc:"Submit every planned request however long it takes instead \
                   of cutting at $(b,--duration-ms) — makes the offered op \
                   multiset identical across runs (the coalescing comparison \
                   mode).")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Fork a live loopback cluster plus an open-loop client fleet: \
             pipelined read/write/scan RPCs against every replica, seeded \
             deterministic arrival schedules, throughput and latency \
             percentiles per operation kind. Exit status: 1 on harness \
             error, 2 when no operation completed, 4 when the supervisor \
             watchdog had to put down a wedged child.")
    Term.(const run $ protocol_arg $ nodes_arg $ clients_arg $ rate_arg
          $ duration_arg $ mix_arg $ seed_arg $ coalesce_arg $ drain_arg
          $ json_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "repro" ~version:"1.0.0"
      ~doc:
        "Partial replication for distributed shared memory (Hélary & Milani, \
         2005/2006): protocols, consistency checking, share-graph analysis and \
         experiments."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            protocols_cmd;
            analyze_cmd;
            run_cmd;
            check_cmd;
            bellman_ford_cmd;
            experiment_cmd;
            cluster_cmd;
            reconfig_cmd;
            serve_cmd;
            load_cmd;
            wal_cmd;
            placement_cmd;
          ]))
