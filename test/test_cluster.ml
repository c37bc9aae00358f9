(* Tests for Repro_cluster: forked loopback clusters running real TCP
   sockets.  Each test forks n node processes, reassembles the recorded
   history, and checks it — plus the sim-parity satellite: live message
   and declared-byte totals must equal the deterministic simulator's on
   the same (protocol, workload, n, seed).

   These tests fork; they must never create domains before doing so, so
   everything here stays on the sequential checker (Cluster.run already
   does). *)

module Cluster = Repro_cluster.Cluster
module Node = Repro_cluster.Node
module Workload_spec = Repro_cluster.Workload_spec
module Checker = Repro_history.Checker
module History = Repro_history.History
module Memory = Repro_core.Memory
module Registry = Repro_core.Registry
module Fault = Repro_msgpass.Fault
module Wal = Repro_durable.Wal
module Record = Repro_util.Record

let check = Alcotest.check

let spec_of name = Option.get (Registry.find name)

let plan_of text =
  match Fault.Plan.parse text with
  | Ok p -> p
  | Error msg -> Alcotest.failf "bad plan %S: %s" text msg

let run_ok ?chaos ?durable ~n ~protocol ~workload ~seed () =
  match
    Cluster.run ~n ~protocol:(spec_of protocol) ~workload ~seed ?chaos ?durable
      ()
  with
  | Ok o -> o
  | Error msg -> Alcotest.failf "cluster run failed: %s" msg

let assert_parity (o : Cluster.outcome) ~protocol ~workload =
  match
    Cluster.sim_baseline ~n:o.Cluster.n ~protocol:(spec_of protocol) ~workload
      ~seed:o.Cluster.seed ()
  with
  | Error msg -> Alcotest.failf "baseline failed: %s" msg
  | Ok b ->
      let m = b.Cluster.metrics in
      check Alcotest.int "message parity" m.Memory.messages_sent
        o.Cluster.messages_sent;
      check Alcotest.int "control-byte parity" m.Memory.control_bytes
        o.Cluster.control_bytes;
      check Alcotest.int "payload-byte parity" m.Memory.payload_bytes
        o.Cluster.payload_bytes

let test_e1_pram_partial () =
  let o = run_ok ~n:3 ~protocol:"pram-partial" ~workload:"e1" ~seed:7 () in
  (match o.Cluster.verdict with
  | Checker.Consistent -> ()
  | Checker.Inconsistent -> Alcotest.fail "live history violates PRAM"
  | Checker.Undecidable _ -> Alcotest.fail "e1 history should be differentiated");
  check Alcotest.int "one slice per node" 3 (History.n_procs o.Cluster.history);
  assert_parity o ~protocol:"pram-partial" ~workload:"e1";
  check Alcotest.bool "Cluster.accepted" true (Cluster.accepted o);
  List.iter
    (fun g -> check Alcotest.bool ("gate " ^ g.Record.gate) true g.Record.ok)
    (Cluster.gates o);
  let summary name =
    (List.find (fun m -> m.Record.name = name) (Cluster.summary o)).Record.values
  in
  check Alcotest.bool "summary messages" true
    (summary "messages" = [ Record.Num (float_of_int o.Cluster.messages_sent) ]);
  check Alcotest.bool "summary control bytes" true
    (summary "control_bytes" = [ Record.Num (float_of_int o.Cluster.control_bytes) ]);
  match Cluster.sim_parity ~protocol:(spec_of "pram-partial") o with
  | Error msg -> Alcotest.failf "sim_parity: %s" msg
  | Ok counters ->
      check Alcotest.int "three counters" 3 (List.length counters);
      List.iter (fun (what, live, sim) -> check Alcotest.int what sim live) counters

let test_e1_causal_partial () =
  let o = run_ok ~n:3 ~protocol:"causal-partial" ~workload:"e1" ~seed:7 () in
  (match o.Cluster.verdict with
  | Checker.Consistent -> ()
  | Checker.Inconsistent -> Alcotest.fail "live history violates causality"
  | Checker.Undecidable _ -> Alcotest.fail "e1 history should be differentiated");
  assert_parity o ~protocol:"causal-partial" ~workload:"e1"

(* causal-adhoc's dependency summaries and causal-delta's clock deltas
   depend on what the writer had applied when it wrote, which delivery
   timing decides: live control bytes may differ from the simulator's *)
let timing_dependent_control = [ "causal-adhoc"; "causal-delta" ]

let test_e1_every_protocol () =
  let specs = List.filter (fun spec -> not spec.Registry.blocking) Registry.all in
  check Alcotest.int "non-blocking protocols" 8 (List.length specs);
  List.iter
    (fun spec ->
      let name = spec.Registry.name in
      let o = run_ok ~n:3 ~protocol:name ~workload:"e1" ~seed:7 () in
      check Alcotest.bool (name ^ " accepted") true (Cluster.accepted o);
      match Cluster.sim_parity ~protocol:spec o with
      | Error msg -> Alcotest.failf "%s sim_parity: %s" name msg
      | Ok counters ->
          let exempt what =
            what = "control bytes" && List.mem name timing_dependent_control
          in
          List.iter
            (fun (what, live, sim) ->
              if not (exempt what) then check Alcotest.int (name ^ " " ^ what) sim live)
            counters)
    specs

let test_bellman_ford_finals () =
  (* the Fig. 8 network: live distances must match the single-machine
     reference, the same acceptance the §6 tests use *)
  let o = run_ok ~n:5 ~protocol:"pram-partial" ~workload:"bellman-ford" ~seed:3 () in
  (match o.Cluster.finals with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "distances diverge: %s" msg);
  check Alcotest.bool "history check not claimed" false o.Cluster.history_checked;
  (match o.Cluster.verdict with
  | Checker.Inconsistent -> Alcotest.fail "live BF history refuted outright"
  | Checker.Consistent | Checker.Undecidable _ -> ())

let test_blocking_protocol_rejected () =
  match Cluster.run ~n:3 ~protocol:(spec_of "seq-sequencer") ~workload:"e1" ~seed:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "blocking protocol accepted on a live cluster"

let test_unknown_workload_rejected () =
  match Cluster.run ~n:3 ~protocol:(spec_of "pram-partial") ~workload:"nope" ~seed:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown workload accepted"

(* --- chaos tier: deterministic fault plans over the live cluster --------- *)

let test_chaos_e1_drop () =
  (* 5% drop + 2% duplication on every link: the session layer must hide it
     — same verdict AND same protocol-level totals as the fault-free sim
     baseline, with the repair traffic visible only in the overhead lane *)
  let chaos = plan_of "seed=5,drop=0.05,dup=0.02" in
  let o = run_ok ~chaos ~n:3 ~protocol:"pram-partial" ~workload:"e1" ~seed:7 () in
  (match o.Cluster.verdict with
  | Checker.Consistent -> ()
  | Checker.Inconsistent -> Alcotest.fail "chaotic history violates PRAM"
  | Checker.Undecidable _ -> Alcotest.fail "e1 history should be differentiated");
  assert_parity o ~protocol:"pram-partial" ~workload:"e1";
  check Alcotest.bool "session layer engaged" true o.Cluster.session;
  check Alcotest.bool "overhead accounted apart" true (o.Cluster.overhead_bytes > 0)

let test_chaos_crash_restart () =
  (* node 1 crashes after its 6th transport send and restarts 250 ms later:
     the crash plan alone gives every node a WAL, the supervisor freezes
     node 1's log and respawns it, the respawn replays that log back to the
     frozen digest, and the cluster must still converge to a consistent
     verdict *)
  let chaos = plan_of "seed=11,drop=0.03,crash=1@6+250" in
  let o = run_ok ~chaos ~n:3 ~protocol:"pram-partial" ~workload:"e1" ~seed:7 () in
  check Alcotest.int "exactly one respawn" 1 o.Cluster.restarts;
  check Alcotest.int "survivor incarnation" 1
    o.Cluster.node_results.(1).Node.incarnation;
  check Alcotest.bool "nodes ran a WAL" true o.Cluster.durable;
  check Alcotest.bool "recovered digest matches the frozen WAL" true
    o.Cluster.wal_parity;
  check Alcotest.bool "recovery replayed logged ops" true
    (o.Cluster.node_results.(1).Node.recovered_ops > 0);
  (match o.Cluster.verdict with
  | Checker.Consistent -> ()
  | Checker.Inconsistent -> Alcotest.fail "post-recovery history violates PRAM"
  | Checker.Undecidable _ -> Alcotest.fail "e1 history should be differentiated");
  (* every node's full program must appear exactly once in the history *)
  Array.iter
    (fun (r : Node.result) ->
      check Alcotest.int
        (Printf.sprintf "node %d op count" r.Node.node)
        8
        (List.length r.Node.ops))
    o.Cluster.node_results

let test_chaos_bellman_ford () =
  (* the §6 case study under loss: distances must still match the
     single-machine reference once the links are made reliable again *)
  let chaos = plan_of "seed=2,drop=0.05" in
  let o =
    run_ok ~chaos ~n:5 ~protocol:"pram-partial" ~workload:"bellman-ford"
      ~seed:3 ()
  in
  match o.Cluster.finals with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "distances diverge under chaos: %s" msg

let test_chaos_sim_reproducible () =
  (* the same plan on the simulator backend is bit-reproducible: identical
     history and identical stats, run after run *)
  let run () =
    let chaos = plan_of "seed=5,drop=0.1,dup=0.05,reorder=0.2" in
    match
      Cluster.sim_baseline ~chaos ~n:4 ~protocol:(spec_of "pram-partial")
        ~workload:"e1" ~seed:9 ()
    with
    | Error msg -> Alcotest.failf "sim chaos run failed: %s" msg
    | Ok b ->
        ( History.to_string b.Cluster.history,
          b.Cluster.metrics.Memory.messages_sent,
          b.Cluster.metrics.Memory.overhead_bytes )
  in
  let h1, sent1, over1 = run () in
  let h2, sent2, over2 = run () in
  check Alcotest.string "history bit-reproducible" h1 h2;
  check Alcotest.int "sent reproducible" sent1 sent2;
  check Alcotest.int "overhead reproducible" over1 over2;
  check Alcotest.bool "chaos actually retransmitted" true (over1 > 0)

let test_chaos_sim_protocol_parity () =
  (* under chaos + session, protocol-level stats still equal the fault-free
     baseline: the session layer counts first transmissions only *)
  let chaos = plan_of "seed=5,drop=0.1" in
  let clean =
    match
      Cluster.sim_baseline ~n:4 ~protocol:(spec_of "pram-partial")
        ~workload:"e1" ~seed:9 ()
    with
    | Ok b -> b.Cluster.metrics
    | Error msg -> Alcotest.failf "clean baseline failed: %s" msg
  in
  let noisy =
    match
      Cluster.sim_baseline ~chaos ~n:4 ~protocol:(spec_of "pram-partial")
        ~workload:"e1" ~seed:9 ()
    with
    | Ok b -> b.Cluster.metrics
    | Error msg -> Alcotest.failf "chaos baseline failed: %s" msg
  in
  check Alcotest.int "messages_sent unchanged by chaos" clean.Memory.messages_sent
    noisy.Memory.messages_sent;
  check Alcotest.int "control bytes unchanged by chaos" clean.Memory.control_bytes
    noisy.Memory.control_bytes;
  check Alcotest.int "payload bytes unchanged by chaos" clean.Memory.payload_bytes
    noisy.Memory.payload_bytes;
  check Alcotest.bool "overhead lane nonzero" true
    (noisy.Memory.overhead_bytes > clean.Memory.overhead_bytes)

let test_durable_fault_free () =
  (* the durability tier must be invisible to the protocol lane: same
     verdict, same sim parity, every op on the log, synchronous policy
     fsyncing once per append *)
  let o =
    run_ok ~durable:(Wal.Every 1) ~n:3 ~protocol:"pram-partial" ~workload:"e1"
      ~seed:7 ()
  in
  check Alcotest.bool "durable tier engaged" true o.Cluster.durable;
  check Alcotest.bool "parity vacuously holds" true o.Cluster.wal_parity;
  (match o.Cluster.verdict with
  | Checker.Consistent -> ()
  | _ -> Alcotest.fail "durable run must stay consistent");
  assert_parity o ~protocol:"pram-partial" ~workload:"e1";
  Array.iter
    (fun (r : Node.result) ->
      match r.Node.wal_stats with
      | None -> Alcotest.failf "node %d ran without a WAL" r.Node.node
      | Some s ->
          check Alcotest.int
            (Printf.sprintf "node %d: every op logged" r.Node.node)
            (List.length r.Node.ops) s.Wal.appends;
          check Alcotest.int
            (Printf.sprintf "node %d: Every 1 = one fsync per append"
               r.Node.node)
            s.Wal.appends s.Wal.syncs;
          check Alcotest.bool
            (Printf.sprintf "node %d: checkpoints compacted the log"
               r.Node.node)
            true (s.Wal.rotations >= 1))
    o.Cluster.node_results

let test_durable_dcrash_recovery () =
  (* node 1 dies at the second log fsync and restarts 250 ms later: the
     supervisor freezes the surviving WAL, the respawn replays it, and the
     recovered digest must match the frozen bytes bit-for-bit *)
  let chaos = plan_of "seed=11,drop=0.03,dcrash=1:sync.pre@2+250" in
  let o =
    run_ok ~chaos ~durable:(Wal.Every 4) ~n:3 ~protocol:"pram-partial"
      ~workload:"e1" ~seed:7 ()
  in
  check Alcotest.int "exactly one respawn" 1 o.Cluster.restarts;
  check Alcotest.int "survivor incarnation" 1
    o.Cluster.node_results.(1).Node.incarnation;
  check Alcotest.bool "recovery re-seeded from the log" true
    (o.Cluster.node_results.(1).Node.recovered_ops > 0);
  check Alcotest.bool "recovered digest matches the frozen WAL" true
    o.Cluster.wal_parity;
  (match o.Cluster.verdict with
  | Checker.Consistent -> ()
  | Checker.Inconsistent -> Alcotest.fail "post-recovery history violates PRAM"
  | Checker.Undecidable _ -> Alcotest.fail "e1 history should be differentiated");
  Array.iter
    (fun (r : Node.result) ->
      check Alcotest.int
        (Printf.sprintf "node %d op count" r.Node.node)
        8
        (List.length r.Node.ops))
    o.Cluster.node_results

let test_durable_powercut_recovery () =
  (* power-cut semantics at a torn write: half a frame reaches the file,
     then the unsynced suffix vanishes.  Recovery must rebuild from the
     synced floor and the cluster must still converge *)
  let chaos = plan_of "seed=11,drop=0.03,dcrash=1:append.mid!@3+250" in
  let o =
    run_ok ~chaos ~durable:(Wal.Every 2) ~n:3 ~protocol:"pram-partial"
      ~workload:"e1" ~seed:7 ()
  in
  check Alcotest.int "exactly one respawn" 1 o.Cluster.restarts;
  check Alcotest.bool "recovered digest matches the frozen WAL" true
    o.Cluster.wal_parity;
  (match o.Cluster.verdict with
  | Checker.Consistent -> ()
  | _ -> Alcotest.fail "post-powercut history must stay consistent");
  Array.iter
    (fun (r : Node.result) ->
      check Alcotest.int
        (Printf.sprintf "node %d op count" r.Node.node)
        8
        (List.length r.Node.ops))
    o.Cluster.node_results

let test_dcrash_needs_durable () =
  match
    Cluster.run ~n:3 ~protocol:(spec_of "pram-partial") ~workload:"e1" ~seed:1
      ~chaos:(plan_of "seed=1,dcrash=1:sync.pre@1+100") ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dcrash plan accepted without the durability tier"

(* the same guard inside the node itself, for a daemon started without the
   harness: the plan must be refused before the node opens any traffic *)
let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Node.run refuses, before any traffic, what it cannot honour: a dcrash
   schedule without a WAL, membership clauses (named), and a respawn
   (incarnation > 0) with no WAL to recover from.  Its texts leave the
   node's name to the caller, which prefixes it once. *)
let test_node_dcrash_needs_wal () =
  match Workload_spec.make ~name:"e1" ~n:1 ~seed:1 with
  | Error msg -> Alcotest.failf "spec: %s" msg
  | Ok workload ->
      let listen_fd =
        Repro_transport.Live.bind
          (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
      in
      let peers = [| Repro_transport.Live.listen_addr listen_fd |] in
      Fun.protect
        ~finally:(fun () -> try Unix.close listen_fd with Unix.Unix_error _ -> ())
        (fun () ->
          List.iter
            (fun (plan, incarnation, sub) ->
              match
                Node.run ~self:0 ~listen_fd ~peers
                  ~protocol:(spec_of "pram-partial") ~workload ~seed:1
                  ?chaos:(Option.map plan_of plan) ~incarnation ()
              with
              | exception Node.Crash msg ->
                  check Alcotest.bool
                    (Printf.sprintf "%S names %s" msg sub)
                    true (contains ~sub msg);
                  (* the caller names the node: Supervisor.outcome, repro serve *)
                  check Alcotest.bool
                    (Printf.sprintf "%S does not name the node itself" msg)
                    false
                    (String.starts_with ~prefix:"node " msg)
              | _ ->
                  Alcotest.failf "Node.run ignored %s"
                    (Option.value plan
                       ~default:(Printf.sprintf "incarnation %d" incarnation)))
            [
              (Some "seed=1,dcrash=0:append.pre@1+100", 0, "write-ahead log");
              (Some "seed=1,join=0@5", 0, "join=");
              (None, 1, "incarnation 1 has no write-ahead log");
            ])

let test_invalid_plan_rejected () =
  match
    Cluster.run ~n:3 ~protocol:(spec_of "pram-partial") ~workload:"e1" ~seed:1
      ~chaos:(plan_of "seed=1,crash=9@5+100") ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range crash node accepted"

(* the watchdog fires while node 1 waits out a restart delay far past the
   deadline: the run comes back wedged, promptly *)
let test_wedged_awaiting_respawn () =
  let t0 = Unix.gettimeofday () in
  (match
     Cluster.run ~n:3 ~protocol:(spec_of "pram-partial") ~workload:"e1" ~seed:7
       ~chaos:(plan_of "crash=1@6+60000") ~deadline_ms:3000 ()
   with
  | Ok _ -> Alcotest.fail "a 60 s restart cannot finish inside a 3 s deadline"
  | Error msg ->
      check Alcotest.bool
        (Printf.sprintf "error %S carries the wedged prefix" msg)
        true
        (String.length msg >= 7 && String.sub msg 0 7 = "wedged:"));
  check Alcotest.bool "within a few seconds" true
    (Unix.gettimeofday () -. t0 < 10.)

(* a node that crashes for good is announced to its peers (the
   supervisor's [Gone]), so they stop waiting for its [Done]: the run
   fails at once, naming only the crashed node *)
let test_gone_ends_peers_wait () =
  let t0 = Unix.gettimeofday () in
  (match
     Cluster.run ~n:3 ~protocol:(spec_of "pram-partial") ~workload:"e1" ~seed:7
       ~chaos:(plan_of "crash=1@6") ()
   with
  | Ok _ -> Alcotest.fail "a node crashed for good, yet the run succeeded"
  | Error msg ->
      check Alcotest.string "only node 1 is named"
        "node 1: injected crash (no restart scheduled)" msg);
  let took = Unix.gettimeofday () -. t0 in
  check Alcotest.bool (Printf.sprintf "ended in %.1f s < 10 s" took) true
    (took < 10.)

(* --- reconfiguration -------------------------------------------------------- *)

module Reconfig = Repro_cluster.Reconfig
module Member = Repro_cluster.Member

let reconfig_ok ?writes ?demote_after_ms ?deadline_ms ~chaos () =
  match
    Reconfig.run ~n:5 ~k:2 ~vnodes:64 ~n_vars:24 ~seed:11 ?writes
      ?demote_after_ms ?deadline_ms ~chaos:(plan_of chaos) ()
  with
  | Ok o -> o
  | Error msg -> Alcotest.failf "reconfig run failed: %s" msg

(* the acceptance scenario: one join, one leave, and a crash injected
   mid-state-transfer (crash=0@5 counts node 0's migration-record
   sends), all from one seeded plan *)
let test_reconfig_join_leave_crash () =
  let o =
    reconfig_ok ~writes:30 ~chaos:"seed=7,join=4@250,leave=1@600,crash=0@5+300"
      ()
  in
  check Alcotest.int "two epochs committed" 2 o.Reconfig.committed_epoch;
  check Alcotest.(list int) "final members" [ 0; 2; 3; 4 ] o.Reconfig.members;
  check Alcotest.bool "crash fired mid-migration" true (o.Reconfig.restarts >= 1);
  check Alcotest.bool "advertised criterion holds" true
    (o.Reconfig.verdict = Checker.Consistent);
  check Alcotest.bool "minimal movement gate" true o.Reconfig.moved_ok;
  check Alcotest.bool "state actually transferred" true (o.Reconfig.transfers > 0);
  check Alcotest.int "no variable degraded to Init" 0 o.Reconfig.init_fallbacks;
  (* the leave epoch completes without waiting for a pull (the first one
     goes out 500 ms after the proposal), even when a donor's [Done]
     overtakes the proposal at its receiver *)
  List.iter
    (fun e ->
      if e.Reconfig.ev_kind = "leave" then
        check Alcotest.bool
          (Printf.sprintf "leave epoch rebalanced in %d ms < 450"
             e.Reconfig.ev_rebalance_ms)
          true
          (e.Reconfig.ev_rebalance_ms < 450))
    o.Reconfig.events;
  (* the joiner wrote from the start (writers are fixed); every node's
     recorded epoch reached the final commit *)
  Array.iter
    (fun r ->
      check Alcotest.int
        (Printf.sprintf "node %d at final epoch" r.Member.node)
        2 r.Member.committed_epoch)
    o.Reconfig.node_results

(* a crashed member with no restart scheduled is demoted by the failure
   detector and its operations salvaged from the WAL it left behind, so
   the history stays closed under reads-from *)
let test_reconfig_demotion_salvage () =
  (* [crash=0@3] counts migration-record sends, so the join is what arms
     it: node 0 dies as a donor, mid-transfer, and never comes back *)
  let o =
    reconfig_ok ~writes:30 ~demote_after_ms:800
      ~chaos:"seed=7,join=4@250,crash=0@3" ()
  in
  check Alcotest.bool "node 0 demoted" true
    (List.exists
       (fun e -> e.Reconfig.ev_kind = "demote" && e.Reconfig.ev_node = 0)
       o.Reconfig.events);
  check Alcotest.bool "members exclude the dead node" true
    (not (List.mem 0 o.Reconfig.members));
  check Alcotest.(list int) "ops salvaged from its WAL" [ 0 ] o.Reconfig.salvaged;
  check Alcotest.bool "history still consistent" true
    (o.Reconfig.verdict = Checker.Consistent)

let test_reconfig_wedged_deadline () =
  match
    Reconfig.run ~n:5 ~k:2 ~vnodes:64 ~n_vars:24 ~seed:11 ~writes:500
      ~deadline_ms:400 ()
  with
  | Ok _ -> Alcotest.fail "a 400 ms deadline cannot finish 500 paced writes"
  | Error msg ->
      check Alcotest.bool
        (Printf.sprintf "error %S carries the wedged prefix" msg)
        true
        (String.length msg >= 7 && String.sub msg 0 7 = "wedged:")

(* a static cluster has no membership runtime: join=/leave= clauses are
   refused up front, naming the clause, instead of parsed and ignored *)
let test_static_rejects_membership () =
  match
    Cluster.run ~n:3 ~protocol:(spec_of "pram-partial") ~workload:"e1" ~seed:7
      ~chaos:(plan_of "seed=1,join=2@100,leave=1@200") ()
  with
  | Ok _ -> Alcotest.fail "join=/leave= accepted by a static cluster"
  | Error msg ->
      check Alcotest.bool (Printf.sprintf "%S names join=" msg) true
        (contains ~sub:"join=" msg)

(* member traffic bypasses Chaos: link faults and partitions are refused
   up front instead of parsed and ignored *)
let test_reconfig_rejects_link_faults () =
  match
    Reconfig.run ~n:5 ~k:2 ~vnodes:64 ~n_vars:24 ~seed:11
      ~chaos:(plan_of "seed=7,drop=0.5,part=0..2000:0+1,join=4@250") ()
  with
  | Ok _ -> Alcotest.fail "drop=/part= accepted by reconfig"
  | Error msg ->
      check Alcotest.bool (Printf.sprintf "%S names drop=" msg) true
        (contains ~sub:"drop=" msg)

let test_workload_spec_deterministic () =
  (* the parity argument rests on spec construction being pure replay *)
  let fingerprint () =
    match Workload_spec.make ~name:"e1" ~n:4 ~seed:9 with
    | Error msg -> Alcotest.failf "spec: %s" msg
    | Ok spec -> Workload_spec.fingerprint spec ~protocol:"pram-partial" ~seed:9
  in
  check Alcotest.string "stable fingerprint" (fingerprint ()) (fingerprint ())

let () =
  Alcotest.run "repro_cluster"
    [
      ( "live",
        [
          Alcotest.test_case "e1 on pram-partial: consistent + parity" `Quick
            test_e1_pram_partial;
          Alcotest.test_case "e1 on causal-partial: consistent + parity" `Quick
            test_e1_causal_partial;
          Alcotest.test_case "e1 on every non-blocking protocol: accepted + parity"
            `Quick test_e1_every_protocol;
          Alcotest.test_case "bellman-ford fig8: distances match reference"
            `Quick test_bellman_ford_finals;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "e1 under 5% drop: consistent + parity" `Quick
            test_chaos_e1_drop;
          Alcotest.test_case "crash + restart: recovery from the WAL" `Quick
            test_chaos_crash_restart;
          Alcotest.test_case "bellman-ford under loss: distances hold" `Quick
            test_chaos_bellman_ford;
          Alcotest.test_case "durable tier, fault-free: parity + fsync counts"
            `Quick test_durable_fault_free;
          Alcotest.test_case "dcrash at sync.pre: digest-verified recovery"
            `Quick test_durable_dcrash_recovery;
          Alcotest.test_case "power cut mid-append: recovery from synced floor"
            `Quick test_durable_powercut_recovery;
          Alcotest.test_case "dcrash plan without WAL rejected" `Quick
            test_dcrash_needs_durable;
          Alcotest.test_case "same plan on sim: bit-reproducible" `Quick
            test_chaos_sim_reproducible;
          Alcotest.test_case "chaos keeps protocol-level stats at baseline"
            `Quick test_chaos_sim_protocol_parity;
          Alcotest.test_case "invalid plan rejected" `Quick
            test_invalid_plan_rejected;
          Alcotest.test_case "wedged while awaiting a respawn" `Quick
            test_wedged_awaiting_respawn;
          Alcotest.test_case "a node gone for good ends its peers' wait"
            `Quick test_gone_ends_peers_wait;
        ] );
      ( "reconfig",
        [
          Alcotest.test_case "join + leave + crash mid-migration" `Quick
            test_reconfig_join_leave_crash;
          Alcotest.test_case "demotion + WAL salvage" `Quick
            test_reconfig_demotion_salvage;
          Alcotest.test_case "wedged run put down by deadline" `Quick
            test_reconfig_wedged_deadline;
        ] );
      ( "guards",
        [
          Alcotest.test_case "blocking protocol rejected" `Quick
            test_blocking_protocol_rejected;
          Alcotest.test_case "unknown workload rejected" `Quick
            test_unknown_workload_rejected;
          Alcotest.test_case "workload specs are pure replay" `Quick
            test_workload_spec_deterministic;
          Alcotest.test_case "Node.run rejects dcrash without a WAL" `Quick
            test_node_dcrash_needs_wal;
          Alcotest.test_case "static cluster rejects join=/leave=" `Quick
            test_static_rejects_membership;
          Alcotest.test_case "reconfig rejects link faults" `Quick
            test_reconfig_rejects_link_faults;
        ] );
    ]
